package cra

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/platform"
)

func apps(seed int64, n, size int) []*dag.Graph {
	rng := rand.New(rand.NewSource(seed))
	shapes := []dag.Shape{dag.ShapeRandom, dag.ShapeForkJoin, dag.ShapeLong, dag.ShapeWide}
	out := make([]*dag.Graph, n)
	for i := range out {
		out[i] = dag.Generate(shapes[i%len(shapes)], dag.DefaultGenOptions(size), rng)
	}
	return out
}

func TestStrategyString(t *testing.T) {
	if Work.String() != "cra_work" || Width.String() != "cra_width" || Equal.String() != "cra_equal" {
		t.Fatal("strategy strings")
	}
	if Strategy(9).String() != "strategy(?)" {
		t.Fatal("unknown strategy")
	}
}

// TestSharesSumAndFloor checks the Shares contract for every strategy,
// µ ∈ {0, 0.5, 1} and every N <= P on a table of cluster sizes: each share
// is at least 1 and the shares sum to exactly P. The batches mix one heavy,
// wide application with light ones, so rounding both overshoots (every
// light share floored up to 1) and undershoots P.
func TestSharesSumAndFloor(t *testing.T) {
	heavy := dag.Generate(dag.ShapeWide, dag.GenOptions{
		Nodes: 40, WorkMin: 5e10, WorkMax: 5e10, SerialFraction: 0.05, EdgeBytes: 1e6,
	}, rand.New(rand.NewSource(3)))
	light := apps(1, 8, 6)
	for _, P := range []int{1, 2, 3, 5, 8, 13, 20} {
		for n := 1; n <= P && n <= len(light)+1; n++ {
			gs := append([]*dag.Graph{heavy}, light[:n-1]...)
			for _, strat := range []Strategy{Work, Width, Equal} {
				for _, mu := range []float64{0, 0.5, 1} {
					shares, err := Shares(gs, strat, mu, P)
					if err != nil {
						t.Fatalf("P=%d N=%d %v mu=%g: %v", P, n, strat, mu, err)
					}
					sum := 0
					for _, s := range shares {
						if s < 1 {
							t.Fatalf("P=%d N=%d %v mu=%g: share %d < 1", P, n, strat, mu, s)
						}
						sum += s
					}
					if len(shares) != n || sum != P {
						t.Fatalf("P=%d N=%d %v mu=%g: shares %v sum to %d, want %d",
							P, n, strat, mu, shares, sum, P)
					}
				}
			}
		}
	}
}

func TestSharesProportionalToWork(t *testing.T) {
	// One heavy app, three light: CRA_WORK with µ=0 gives the heavy app
	// the lion's share; µ=1 equalizes.
	heavy := dag.Generate(dag.ShapeRandom, dag.GenOptions{
		Nodes: 30, WorkMin: 5e10, WorkMax: 5e10, SerialFraction: 0.05, EdgeBytes: 1e6,
	}, rand.New(rand.NewSource(2)))
	light := func(seed int64) *dag.Graph {
		return dag.Generate(dag.ShapeRandom, dag.GenOptions{
			Nodes: 10, WorkMin: 1e9, WorkMax: 1e9, SerialFraction: 0.05, EdgeBytes: 1e6,
		}, rand.New(rand.NewSource(seed)))
	}
	gs := []*dag.Graph{heavy, light(3), light(4), light(5)}
	proportional, err := Shares(gs, Work, 0, 20)
	if err != nil {
		t.Fatal(err)
	}
	if proportional[0] < 14 {
		t.Fatalf("heavy app got %d of 20 under µ=0, want most", proportional[0])
	}
	even, err := Shares(gs, Work, 1, 20)
	if err != nil {
		t.Fatal(err)
	}
	if even[0] != 5 {
		t.Fatalf("µ=1 share = %d, want 5", even[0])
	}
}

func TestSharesErrors(t *testing.T) {
	gs := apps(1, 4, 10)
	if _, err := Shares(nil, Work, 0, 10); err == nil {
		t.Error("no apps accepted")
	}
	if _, err := Shares(gs, Work, 0, 3); err == nil {
		t.Error("P < N accepted")
	}
	if _, err := Shares(gs, Work, -0.5, 10); err == nil {
		t.Error("bad µ accepted")
	}
	if _, err := Shares(gs, Strategy(9), 0, 10); err == nil {
		t.Error("unknown strategy accepted")
	}
}

// TestFigure5Scenario reproduces the case study: four mixed-parallel
// applications on a 20-processor cluster. The constraints the paper checks
// visually must hold: the applications' host sets are pairwise disjoint and
// every task stays inside its application's range.
func TestFigure5Scenario(t *testing.T) {
	gs := apps(7, 4, 25)
	p := platform.Homogeneous(20, 1e9)
	res, err := Schedule(gs, p, Work, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Apps) != 4 {
		t.Fatal("app count")
	}
	// Ranges disjoint and covering.
	next := 0
	for i, a := range res.Apps {
		if a.FirstHost != next {
			t.Fatalf("app %d starts at host %d, want %d", i, a.FirstHost, next)
		}
		next += a.Share
	}
	if next != 20 {
		t.Fatalf("ranges cover %d hosts, want 20", next)
	}
	// Every task inside its app's range ("the resource constraints imposed
	// by the algorithm are respected").
	for _, pt := range res.Placed {
		lo := res.Apps[pt.App].FirstHost
		hi := lo + res.Apps[pt.App].Share
		for _, h := range pt.Hosts {
			if h < lo || h >= hi {
				t.Fatalf("task %s of app %d uses host %d outside [%d,%d)",
					pt.ID, pt.App, h, lo, hi)
			}
		}
	}
	// Stretches are >= 1 (contention cannot beat a dedicated cluster by
	// much; tiny slack for list-scheduling anomalies).
	for i, a := range res.Apps {
		if a.Stretch < 0.9 {
			t.Fatalf("app %d stretch %g < 0.9", i, a.Stretch)
		}
	}
	// Trace validates and has one color type per app.
	trace := Trace(res.Placed, 20, core.Property{Name: "algorithm", Value: res.Strategy.String()})
	if err := trace.Validate(); err != nil {
		t.Fatal(err)
	}
	types := trace.TaskTypes()
	if len(types) != 4 {
		t.Fatalf("trace types = %v, want 4 app types", types)
	}
	if trace.MetaValue("algorithm") != "cra_work" {
		t.Fatal("meta lost")
	}
}

func TestBackfillNoDelayProperty(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		gs := apps(seed+100, 3, 20)
		p := platform.Homogeneous(18, 1e9)
		res, err := Schedule(gs, p, Width, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		bf, err := Backfill(res.Placed, 18)
		if err != nil {
			t.Fatal(err)
		}
		if len(bf) != len(res.Placed) {
			t.Fatal("backfill lost tasks")
		}
		byID := map[string]*PlacedTask{}
		for i := range bf {
			byID[bf[i].ID] = &bf[i]
		}
		for i := range res.Placed {
			orig := &res.Placed[i]
			moved := byID[orig.ID]
			// The no-delay guarantee.
			if moved.Start > orig.Start+1e-9 {
				t.Fatalf("seed %d: %s delayed %g -> %g", seed, orig.ID, orig.Start, moved.Start)
			}
			// Durations preserved.
			if math.Abs((moved.End-moved.Start)-(orig.End-orig.Start)) > 1e-9 {
				t.Fatalf("seed %d: %s duration changed", seed, orig.ID)
			}
			// Precedence still holds.
			for _, d := range moved.Deps {
				if byID[d].End > moved.Start+1e-9 {
					t.Fatalf("seed %d: %s starts before dep %s ends", seed, moved.ID, d)
				}
			}
		}
		// No host double-booked after backfilling.
		trace := Trace(bf, 18)
		if err := trace.Validate(); err != nil {
			t.Fatal(err)
		}
		type iv struct{ lo, hi float64 }
		used := map[int][]iv{}
		for _, pt := range bf {
			for _, h := range pt.Hosts {
				for _, prev := range used[h] {
					if pt.Start < prev.hi-1e-9 && prev.lo < pt.End-1e-9 {
						t.Fatalf("seed %d: host %d double-booked", seed, h)
					}
				}
				used[h] = append(used[h], iv{pt.Start, pt.End})
			}
		}
		// Idle time cannot increase ("the reduction of the total idle
		// time can also be easily quantified").
		if TotalIdle(bf, 18) > TotalIdle(res.Placed, 18)+1e-6 {
			t.Fatalf("seed %d: backfilling increased idle time", seed)
		}
		if Makespan(bf) > Makespan(res.Placed)+1e-9 {
			t.Fatalf("seed %d: backfilling increased makespan", seed)
		}
	}
}

func TestBackfillErrors(t *testing.T) {
	// Host outside the cluster.
	_, err := Backfill([]PlacedTask{{ID: "a", Hosts: []int{5}, Start: 0, End: 1}}, 2)
	if err == nil || !strings.Contains(err.Error(), "outside cluster") {
		t.Fatalf("err = %v", err)
	}
	// Dependency ordered after its user (inconsistent schedule).
	_, err = Backfill([]PlacedTask{
		{ID: "late", Hosts: []int{0}, Start: 0, End: 1, Deps: []string{"dep"}},
		{ID: "dep", Hosts: []int{1}, Start: 5, End: 6},
	}, 2)
	if err == nil || !strings.Contains(err.Error(), "not yet finished") {
		t.Fatalf("err = %v", err)
	}
}

func TestUnfairness(t *testing.T) {
	r := &Result{Apps: []AppResult{{Stretch: 1.2}, {Stretch: 3.0}, {Stretch: 2.0}}}
	if got := r.Unfairness(); math.Abs(got-1.8) > 1e-12 {
		t.Fatalf("unfairness = %g", got)
	}
	if (&Result{}).Unfairness() != 0 {
		t.Fatal("empty unfairness")
	}
}

func TestWidthVsWorkDiffer(t *testing.T) {
	// Apps with equal work but very different widths: the two strategies
	// must produce different shares.
	wide := dag.Generate(dag.ShapeWide, dag.GenOptions{
		Nodes: 20, WorkMin: 1e10, WorkMax: 1e10, SerialFraction: 0.05, EdgeBytes: 1e6,
	}, rand.New(rand.NewSource(1)))
	serial := dag.Generate(dag.ShapeSerial, dag.GenOptions{
		Nodes: 20, WorkMin: 1e10, WorkMax: 1e10, SerialFraction: 0.05, EdgeBytes: 1e6,
	}, rand.New(rand.NewSource(2)))
	gs := []*dag.Graph{wide, serial}
	byWork, err := Shares(gs, Work, 0, 16)
	if err != nil {
		t.Fatal(err)
	}
	byWidth, err := Shares(gs, Width, 0, 16)
	if err != nil {
		t.Fatal(err)
	}
	if byWork[0] != byWork[1] {
		t.Fatalf("equal-work apps got unequal work shares %v", byWork)
	}
	if byWidth[0] <= byWidth[1] {
		t.Fatalf("wide app should out-share serial app by width: %v", byWidth)
	}
}

func TestScheduleErrors(t *testing.T) {
	gs := apps(1, 2, 10)
	if _, err := Schedule(gs, platform.Figure7(1e-4), Work, 0); err == nil {
		t.Error("multi-cluster accepted")
	}
	if _, err := Schedule(nil, platform.Homogeneous(8, 1e9), Work, 0); err == nil {
		t.Error("no apps accepted")
	}
}
