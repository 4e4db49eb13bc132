package cpa

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

func cluster(n int) *platform.Platform { return platform.Homogeneous(n, 1e9) }

// allocOf returns the processors per node ID a plan holds.
func allocOf(res *sched.Result) []int {
	out := make([]int, len(res.Assignments))
	for id, a := range res.Assignments {
		out[id] = len(a.Hosts)
	}
	return out
}

// maxAllocPerLevel returns, per precedence level, the total processors
// allocated — the quantity MCPA constrains.
func maxAllocPerLevel(g *dag.Graph, alloc []int) (map[int]int, error) {
	levels, err := g.Levels()
	if err != nil {
		return nil, err
	}
	out := map[int]int{}
	for _, nd := range g.Nodes() {
		out[levels[nd.ID]] += alloc[nd.ID]
	}
	return out, nil
}

// lowerBound returns max(T_CP, T_A), the classic lower bound on the
// makespan of a schedule with the allocation the bounds were computed for.
func lowerBound(tcp, ta float64) float64 { return math.Max(tcp, ta) }

func TestVariantString(t *testing.T) {
	if CPA.String() != "cpa" || MCPA.String() != "mcpa" || MCPA2.String() != "mcpa2" {
		t.Fatal("variant strings")
	}
	if Variant(9).String() != "variant(?)" {
		t.Fatal("unknown variant string")
	}
}

func TestAllocationGrowsCriticalPath(t *testing.T) {
	// A chain is all critical path: allocations must grow beyond 1.
	g := dag.Generate(dag.ShapeSerial, dag.DefaultGenOptions(10), rand.New(rand.NewSource(1)))
	alloc, tcp, ta, err := allocate(g, cluster(16), false)
	if err != nil {
		t.Fatal(err)
	}
	grew := false
	for _, a := range alloc {
		if a < 1 || a > 16 {
			t.Fatalf("allocation %d out of range", a)
		}
		if a > 1 {
			grew = true
		}
	}
	if !grew {
		t.Fatal("CPA never grew any allocation on a pure chain")
	}
	// On a chain T_A is tiny relative to T_CP until allocations grow; the
	// loop must terminate with TCP <= TA or saturated allocations.
	if tcp > ta {
		for _, a := range alloc {
			if a < 16 {
				// Not saturated but stopped: the serial fraction made
				// further growth useless (gain 0 is never selected).
				break
			}
		}
	}
}

func TestMCPALevelCapRespected(t *testing.T) {
	P := 16
	g := dag.ImbalancedLayer(5, 10)
	res, err := Schedule(g, cluster(P), MCPA)
	if err != nil {
		t.Fatal(err)
	}
	perLevel, err := maxAllocPerLevel(g, allocOf(res))
	if err != nil {
		t.Fatal(err)
	}
	for level, total := range perLevel {
		if total > P {
			t.Fatalf("MCPA level %d allocates %d > %d processors", level, total, P)
		}
	}
	// CPA on the same DAG is allowed to oversubscribe a level.
	resCPA, err := Schedule(g, cluster(P), CPA)
	if err != nil {
		t.Fatal(err)
	}
	perLevelCPA, _ := maxAllocPerLevel(g, allocOf(resCPA))
	if perLevelCPA[1] <= P {
		t.Logf("note: CPA level allocation %d did not exceed P on this instance", perLevelCPA[1])
	}
}

// TestFigure4Scenario reproduces the paper's Figure 4 finding: on a DAG
// whose middle layer has tasks of very different costs, MCPA's level cap
// produces a load-imbalance hole, CPA exploits the cluster better, and the
// MCPA2 poly-algorithm recovers CPA's schedule.
func TestFigure4Scenario(t *testing.T) {
	// Layer width close to the cluster size: MCPA's per-level cap then
	// pins the expensive task to very few processors.
	P := 16
	g := dag.ImbalancedLayer(14, 10)
	p := cluster(P)

	resCPA, err := Schedule(g, p, CPA)
	if err != nil {
		t.Fatal(err)
	}
	resMCPA, err := Schedule(g, p, MCPA)
	if err != nil {
		t.Fatal(err)
	}
	simCPA, err := resCPA.Execute(sim.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	simMCPA, err := resMCPA.Execute(sim.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// CPA finishes earlier...
	if simCPA.Makespan >= simMCPA.Makespan {
		t.Fatalf("CPA makespan %g should beat MCPA %g on the imbalanced layer",
			simCPA.Makespan, simMCPA.Makespan)
	}
	// ...and uses the cluster better (fewer idle holes).
	utilCPA := simCPA.Schedule.ComputeStats().Utilization
	utilMCPA := simMCPA.Schedule.ComputeStats().Utilization
	if utilCPA <= utilMCPA {
		t.Fatalf("CPA utilization %.3f should exceed MCPA %.3f", utilCPA, utilMCPA)
	}
	// MCPA2 picks CPA here ("generates the same schedule as CPA").
	res2, err := Schedule(g, p, MCPA2)
	if err != nil {
		t.Fatal(err)
	}
	if got := res2.MetaValue("chosen"); got != "cpa" {
		t.Fatalf("MCPA2 chose %s, want cpa", got)
	}
	if res2.Algorithm != "mcpa2" {
		t.Fatalf("MCPA2 result labeled %q", res2.Algorithm)
	}
	if math.Abs(res2.Makespan-resCPA.Makespan) > 1e-9 {
		t.Fatalf("MCPA2 makespan %g != CPA %g", res2.Makespan, resCPA.Makespan)
	}
}

// Structural safety on random DAGs of every shape.
func TestScheduleInvariantsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	shapes := []dag.Shape{dag.ShapeSerial, dag.ShapeWide, dag.ShapeLong, dag.ShapeRandom, dag.ShapeForkJoin}
	for iter := 0; iter < 20; iter++ {
		shape := shapes[iter%len(shapes)]
		g := dag.Generate(shape, dag.DefaultGenOptions(10+rng.Intn(30)), rng)
		P := 4 + rng.Intn(28)
		p := cluster(P)
		for _, variant := range []Variant{CPA, MCPA, MCPA2} {
			res, err := Schedule(g, p, variant)
			if err != nil {
				t.Fatalf("iter %d %v: %v", iter, variant, err)
			}
			// Allocation bounds.
			alloc := allocOf(res)
			for id, a := range alloc {
				if a < 1 || a > P {
					t.Fatalf("iter %d %v: alloc[%d]=%d", iter, variant, id, a)
				}
			}
			if err := res.Validate(); err != nil {
				t.Fatalf("iter %d %v: %v", iter, variant, err)
			}
			// Virtual execution respects everything (Execute validates).
			wr, err := res.Execute(sim.ExecOptions{})
			if err != nil {
				t.Fatalf("iter %d %v: %v", iter, variant, err)
			}
			if err := wr.Schedule.Validate(); err != nil {
				t.Fatalf("iter %d %v: %v", iter, variant, err)
			}
			// The simulated makespan can never beat the critical path
			// under the chosen allocation by more than numerical noise.
			levelCap := variant == MCPA || res.MetaValue("chosen") == "mcpa"
			_, tcp, _, err := allocate(g, p, levelCap)
			if err != nil {
				t.Fatal(err)
			}
			if wr.Makespan < tcp-1e-6 {
				t.Fatalf("iter %d %v: makespan %g below critical path %g",
					iter, variant, wr.Makespan, tcp)
			}
			// MCPA's invariant: a level never exceeds P unless it holds
			// more than P tasks (each task needs at least one processor).
			if variant == MCPA {
				perLevel, _ := maxAllocPerLevel(g, alloc)
				sets, _ := g.LevelSets()
				for level, total := range perLevel {
					cap := P
					if w := len(sets[level]); w > cap {
						cap = w
					}
					if total > cap {
						t.Fatalf("iter %d: MCPA level %d allocates %d > %d", iter, level, total, cap)
					}
				}
			}
		}
	}
}

func TestMCPA2NeverWorse(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for iter := 0; iter < 10; iter++ {
		g := dag.Generate(dag.ShapeRandom, dag.DefaultGenOptions(25), rng)
		p := cluster(16)
		a, _ := Schedule(g, p, CPA)
		b, _ := Schedule(g, p, MCPA)
		c, err := Schedule(g, p, MCPA2)
		if err != nil {
			t.Fatal(err)
		}
		best := math.Min(a.Makespan, b.Makespan)
		if c.Makespan > best+1e-9 {
			t.Fatalf("MCPA2 makespan %g worse than best(%g, %g)", c.Makespan, a.Makespan, b.Makespan)
		}
	}
}

func TestScheduleErrors(t *testing.T) {
	g := dag.Generate(dag.ShapeRandom, dag.DefaultGenOptions(10), rand.New(rand.NewSource(1)))
	multi := platform.Figure7(platform.Figure7FlawedLatency)
	if _, err := Schedule(g, multi, CPA); err == nil {
		t.Error("multi-cluster platform accepted")
	}
	bad := dag.New("bad")
	n1 := bad.AddNode("a", "x", 1, 0)
	n2 := bad.AddNode("b", "x", 1, 0)
	bad.AddEdge(n1, n2, 0)
	bad.AddEdge(n2, n1, 0)
	if _, err := Schedule(bad, cluster(4), CPA); err == nil {
		t.Error("cyclic graph accepted")
	}
	if _, err := Schedule(g, cluster(4), Variant(42)); err == nil {
		t.Error("unknown variant accepted")
	}
}

// TestLowerBound checks that no plan beats max(T_CP, T_A) of its own
// allocation, and that the simulated replay, which adds transfers, does
// not either.
func TestLowerBound(t *testing.T) {
	if lowerBound(10, 20) != 20 || lowerBound(30, 20) != 30 {
		t.Fatal("lower bound should be max(TCP, TA)")
	}
	g := dag.ImbalancedLayer(14, 10)
	p := cluster(16)
	for _, variant := range []Variant{CPA, MCPA} {
		_, tcp, ta, err := allocate(g, p, variant == MCPA)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Schedule(g, p, variant)
		if err != nil {
			t.Fatal(err)
		}
		wr, err := res.Execute(sim.ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		lb := lowerBound(tcp, ta)
		if res.Makespan < lb-1e-9 || wr.Makespan < lb-1e-9 {
			t.Fatalf("%v: planned %g / simulated %g below the lower bound %g",
				variant, res.Makespan, wr.Makespan, lb)
		}
		if got := res.MetaValue("tcp"); got != fmt.Sprintf("%.3f", tcp) {
			t.Fatalf("%v: tcp meta %q, want %.3f", variant, got, tcp)
		}
		if got := res.MetaValue("ta"); got != fmt.Sprintf("%.3f", ta) {
			t.Fatalf("%v: ta meta %q, want %.3f", variant, got, ta)
		}
	}
}

func TestPickEarliestHosts(t *testing.T) {
	// Host selection now goes through the shared timeline's tail times.
	tl := sched.NewTimeline(4)
	tl.Reserve(0, 0, 5)
	tl.Reserve(1, 0, 1)
	tl.Reserve(2, 0, 3)
	tl.Reserve(3, 0, 1)
	got := tl.EarliestHosts(2)
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("picked %v, want [1 3]", got)
	}
	// Overask clamps to all hosts.
	if got := tl.EarliestHosts(10); len(got) != 4 {
		t.Fatal("overask not clamped")
	}
}
