package heft

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dag"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/sim"
)

func TestRanksDecreaseAlongEdges(t *testing.T) {
	g := dag.Montage(6)
	p := platform.Figure7(platform.Figure7FlawedLatency)
	rank, err := Ranks(g, p)
	if err != nil {
		t.Fatal(err)
	}
	// Upward rank of a predecessor strictly exceeds every successor's.
	for _, e := range g.Edges() {
		if rank[e.From.ID] <= rank[e.To.ID] {
			t.Fatalf("rank(%s)=%g <= rank(%s)=%g",
				e.From.Name, rank[e.From.ID], e.To.Name, rank[e.To.ID])
		}
	}
}

func TestScheduleValidAndSimulatable(t *testing.T) {
	g := dag.Montage(12)
	p := platform.Figure7(platform.Figure7RealisticLatency)
	res, err := Schedule(g, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 {
		t.Fatal("empty makespan")
	}
	// The plan replays on the discrete-event kernel.
	wr, err := res.Execute(sim.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := wr.Schedule.Validate(); err != nil {
		t.Fatal(err)
	}
	// The kernel's greedy execution can differ from the insertion-based
	// plan but must stay in the same ballpark.
	ratio := wr.Makespan / res.Makespan
	if ratio < 0.5 || ratio > 2 {
		t.Fatalf("simulated makespan %g vs planned %g (ratio %g)", wr.Makespan, res.Makespan, ratio)
	}
}

func TestFastHostsPreferredWhenCommFree(t *testing.T) {
	// Independent equal tasks: all should land on the fastest hosts first.
	g := dag.New("indep")
	for i := 0; i < 4; i++ {
		g.AddNode("t"+string(rune('0'+i)), "computation", 1e10, 0)
	}
	p := platform.Figure7(platform.Figure7FlawedLatency)
	res, err := Schedule(g, p)
	if err != nil {
		t.Fatal(err)
	}
	for id, a := range res.Assignments {
		h, _ := p.Host(a.Hosts[0])
		if h.Speed != 3.3e9 {
			t.Fatalf("task %d on slow host %d", id, a.Hosts[0])
		}
	}
}

// TestFigure8vs9 reproduces the case study's finding. Flawed platform
// (backbone latency == link latency): HEFT freely scatters related tasks
// across clusters because remote data costs almost nothing. Realistic
// backbone: the mBackground stage consolidates onto fewer clusters, the
// fast clusters are preferred, and the two makespans stay comparable (the
// paper measured the same 140.9 s for both).
func TestFigure8vs9(t *testing.T) {
	g := dag.Montage(12)
	flawed, err := Schedule(g, platform.Figure7(platform.Figure7FlawedLatency))
	if err != nil {
		t.Fatal(err)
	}
	realistic, err := Schedule(g, platform.Figure7(platform.Figure7RealisticLatency))
	if err != nil {
		t.Fatal(err)
	}
	if err := flawed.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := realistic.Validate(); err != nil {
		t.Fatal(err)
	}
	// The anomaly: under the flawed description, communication-heavy
	// stages cross clusters much more.
	xFlawed := CrossClusterEdges(flawed)
	xReal := CrossClusterEdges(realistic)
	if xReal >= xFlawed {
		t.Fatalf("cross-cluster edges: flawed=%d realistic=%d; realistic should be lower",
			xFlawed, xReal)
	}
	// mBackground consolidates under the realistic backbone.
	cFlawed := len(ClustersUsedBy(flawed, "mBackground"))
	cReal := len(ClustersUsedBy(realistic, "mBackground"))
	if cReal > cFlawed {
		t.Fatalf("mBackground clusters: flawed=%d realistic=%d", cFlawed, cReal)
	}
	// Makespans comparable (paper: identical at 140.9 s).
	ratio := realistic.Makespan / flawed.Makespan
	if ratio < 0.8 || ratio > 1.6 {
		t.Fatalf("makespans diverged: flawed=%g realistic=%g", flawed.Makespan, realistic.Makespan)
	}
}

func TestTrace(t *testing.T) {
	g := dag.Montage(6)
	p := platform.Figure7(platform.Figure7RealisticLatency)
	res, err := Schedule(g, p)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Trace(res, TraceOptions{Transfers: true, TransferFloor: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(s.Clusters) != 4 {
		t.Fatal("trace lost platform clusters")
	}
	if s.MetaValue("algorithm") != "heft" {
		t.Fatal("meta lost")
	}
	// All workflow tasks present; stage types preserved for coloring.
	if got := len(s.TasksOn(0)) + len(s.TasksOn(1)) + len(s.TasksOn(2)) + len(s.TasksOn(3)); got < g.Len() {
		t.Fatalf("trace has %d task placements, want >= %d", got, g.Len())
	}
	types := s.TaskTypes()
	found := map[string]bool{}
	for _, typ := range types {
		found[typ] = true
	}
	if !found["mProjectPP"] || !found["mAdd"] {
		t.Fatalf("stage types missing from trace: %v", types)
	}
	// Without transfers the trace has exactly one task per node.
	s2, err := Trace(res, TraceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(s2.Tasks) != g.Len() {
		t.Fatalf("trace size = %d, want %d", len(s2.Tasks), g.Len())
	}
	// Every task carries the rank HEFT ordered it by.
	rank, err := Ranks(g, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, nd := range g.Nodes() {
		task := s2.Task(nd.Name)
		if task == nil || task.Property("rank") != fmt.Sprintf("%.2f", rank[nd.ID]) {
			t.Fatalf("task %s: rank property missing or wrong: %+v", nd.Name, task)
		}
	}
}

func TestEarliestSlotInsertion(t *testing.T) {
	// HEFT's insertion policy now lives in the shared timeline; check the
	// same gap-fitting cases through it. Reserved [0,5] and [10,20]; a
	// 3-unit task ready at 1 fits at 5.
	tl := sched.NewTimeline(1)
	tl.Reserve(0, 0, 5)
	tl.Reserve(0, 10, 20)
	if got := tl.EarliestGap(0, 1, 3); got != 5 {
		t.Fatalf("slot = %g, want 5", got)
	}
	// A 6-unit task cannot fit the gap: goes after 20.
	if got := tl.EarliestGap(0, 1, 6); got != 20 {
		t.Fatalf("slot = %g, want 20", got)
	}
	// Ready after all reservations.
	if got := tl.EarliestGap(0, 25, 1); got != 25 {
		t.Fatalf("slot = %g, want 25", got)
	}
	// Empty host.
	empty := sched.NewTimeline(1)
	if got := empty.EarliestGap(0, 7, 1); got != 7 {
		t.Fatalf("slot = %g, want 7", got)
	}
}

// Property: on random DAGs HEFT plans are always valid and HEFT never
// leaves a host double-booked.
func TestScheduleRandomProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for iter := 0; iter < 15; iter++ {
		g := dag.Generate(dag.ShapeRandom, dag.GenOptions{
			Nodes: 10 + rng.Intn(40), WorkMin: 1e9, WorkMax: 4e10,
			SerialFraction: 1.0, // sequential tasks
			EdgeBytes:      1e6 + rng.Float64()*1e8,
		}, rng)
		p := platform.Figure7(platform.Figure7RealisticLatency)
		res, err := Schedule(g, p)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if err := res.Validate(); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		// Makespan at least the serial time of the heaviest task on the
		// fastest host.
		var minPossible float64
		for _, nd := range g.Nodes() {
			t := nd.Work / 3.3e9
			if t > minPossible {
				minPossible = t
			}
		}
		if res.Makespan < minPossible-1e-9 {
			t.Fatalf("iter %d: makespan %g below bound %g", iter, res.Makespan, minPossible)
		}
	}
}

func TestScheduleErrors(t *testing.T) {
	bad := dag.New("bad")
	a := bad.AddNode("a", "x", 1, 0)
	b := bad.AddNode("b", "x", 1, 0)
	bad.AddEdge(a, b, 0)
	bad.AddEdge(b, a, 0)
	if _, err := Schedule(bad, platform.Homogeneous(2, 1e9)); err == nil {
		t.Error("cycle accepted")
	}
	g := dag.Montage(4)
	if _, err := Schedule(g, platform.New(1e-4, 1e9)); err == nil {
		t.Error("empty platform accepted")
	}
}

func TestMakespanReasonable(t *testing.T) {
	// The 50-node Montage on the Figure 7 platform lands within two orders
	// of magnitude of the paper's 140.9 s (our stage costs are synthetic).
	g := dag.Montage(12)
	res, err := Schedule(g, platform.Figure7(platform.Figure7RealisticLatency))
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan < 1.4 || res.Makespan > 1400 {
		t.Fatalf("makespan %g out of the plausible range", res.Makespan)
	}
	if math.IsNaN(res.Makespan) {
		t.Fatal("NaN makespan")
	}
}
