// Package cra implements the paper's second case study (section IV):
// scheduling a batch of N mixed-parallel applications on one homogeneous
// cluster with Constrained Resource Allocations (N'takpé & Suter). Each
// application i receives a share
//
//	β_i = µ/|A| + (1-µ)·X_i/Σ_j X_j
//
// of the cluster's processors, where X_i is a characteristic of the
// application (its total work for CRA_WORK, its maximal level width for
// CRA_WIDTH, or 1 for CRA_EQUAL) and µ ∈ [0,1] blends toward an even split.
// Every application is then scheduled by CPA inside its disjoint processor
// range, and a conservative backfilling pass compacts the combined schedule
// without delaying any task.
//
// The package computes the two metrics the case study optimizes: the
// overall makespan and the per-application stretch (makespan under
// contention divided by the makespan with the whole cluster dedicated).
package cra

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/sched/cpa"
	"repro/internal/sim"
)

// DefaultMu is the µ blend used when a CRA strategy is invoked through the
// scheduler registry (the paper's middle-of-the-road setting).
const DefaultMu = 0.5

func init() {
	for _, s := range []Strategy{Work, Width, Equal} {
		sched.Register(strategyScheduler{s})
	}
}

// strategyScheduler adapts one CRA strategy to the single-graph
// sched.Scheduler interface by treating the graph as a batch of one
// application: the share computation degenerates to the whole cluster and
// the backfilled CPA schedule inside it is returned.
type strategyScheduler struct{ strat Strategy }

func (s strategyScheduler) Name() string { return s.strat.String() }

func (s strategyScheduler) Schedule(g *dag.Graph, p *platform.Platform) (*sched.Result, error) {
	res, err := schedule([]*dag.Graph{g}, p, s.strat, DefaultMu, false)
	if err != nil {
		return nil, err
	}
	placed, err := Backfill(res.Placed, p.NumHosts())
	if err != nil {
		return nil, err
	}
	out := sched.NewResult(s.strat.String(), g, p)
	byID := make(map[string]*PlacedTask, len(placed))
	for i := range placed {
		byID[placed[i].ID] = &placed[i]
	}
	for _, nd := range g.Nodes() {
		t, ok := byID[fmt.Sprintf("a0:%s", nd.Name)]
		if !ok {
			return nil, fmt.Errorf("cra: task %q missing from placed schedule", nd.Name)
		}
		out.Assignments[nd.ID] = sched.Assignment{
			Hosts: append([]int(nil), t.Hosts...),
			Start: t.Start, Finish: t.End,
		}
		if t.End > out.Makespan {
			out.Makespan = t.End
		}
	}
	out.SetMeta("mu", fmt.Sprintf("%g", DefaultMu))
	return out, nil
}

// Strategy selects the share characteristic X_i.
type Strategy int

const (
	// Work shares processors proportionally to application work (CRA_WORK).
	Work Strategy = iota
	// Width shares proportionally to the maximal precedence-level width
	// (CRA_WIDTH).
	Width
	// Equal gives every application the same share (µ irrelevant).
	Equal
)

func (s Strategy) String() string {
	switch s {
	case Work:
		return "cra_work"
	case Width:
		return "cra_width"
	case Equal:
		return "cra_equal"
	default:
		return "strategy(?)"
	}
}

// PlacedTask is one task of the combined schedule with concrete times and
// hosts (cluster-local indices).
type PlacedTask struct {
	ID         string
	App        int
	Type       string
	Hosts      []int
	Start, End float64
	Deps       []string // IDs of same-application predecessors
}

// AppResult summarizes one application's outcome.
type AppResult struct {
	Share     int     // processors granted
	FirstHost int     // start of its host range
	Makespan  float64 // completion time inside the shared schedule
	Dedicated float64 // CPA makespan with the full cluster to itself
	Stretch   float64 // Makespan / Dedicated (>= 1 in practice)
}

// Result is the complete multi-DAG scheduling outcome.
type Result struct {
	Strategy Strategy
	Mu       float64
	Apps     []AppResult
	Placed   []PlacedTask
	Makespan float64
}

// Shares computes the integer processor shares for the applications. Every
// application receives at least one processor and the shares sum to exactly
// P; N > P is an error.
func Shares(graphs []*dag.Graph, strategy Strategy, mu float64, P int) ([]int, error) {
	n := len(graphs)
	if n == 0 {
		return nil, fmt.Errorf("cra: no applications")
	}
	if P < n {
		return nil, fmt.Errorf("cra: %d processors cannot host %d applications", P, n)
	}
	if mu < 0 || mu > 1 {
		return nil, fmt.Errorf("cra: µ = %g outside [0,1]", mu)
	}
	x := make([]float64, n)
	var total float64
	for i, g := range graphs {
		switch strategy {
		case Work:
			x[i] = g.TotalWork()
		case Width:
			sets, err := g.LevelSets()
			if err != nil {
				return nil, fmt.Errorf("cra: app %d: %w", i, err)
			}
			w := 0
			for _, s := range sets {
				if len(s) > w {
					w = len(s)
				}
			}
			x[i] = float64(w)
		case Equal:
			x[i] = 1
		default:
			return nil, fmt.Errorf("cra: unknown strategy %d", strategy)
		}
		total += x[i]
	}
	beta := make([]float64, n)
	for i := range beta {
		beta[i] = mu/float64(n) + (1-mu)*x[i]/total
	}
	// Integer shares: floor with at least 1, then hand out the remainder
	// by largest fractional part.
	shares := make([]int, n)
	used := 0
	type frac struct {
		i int
		f float64
	}
	fracs := make([]frac, n)
	for i := range shares {
		raw := beta[i] * float64(P)
		shares[i] = int(raw)
		if shares[i] < 1 {
			shares[i] = 1
		}
		fracs[i] = frac{i, raw - math.Floor(raw)}
		used += shares[i]
	}
	sort.SliceStable(fracs, func(a, b int) bool { return fracs[a].f > fracs[b].f })
	for k := 0; used < P; k = (k + 1) % n {
		shares[fracs[k].i]++
		used++
	}
	for used > P {
		// Shrink the largest share; everyone stays at >= 1 because N <= P.
		j := 0
		for i := range shares {
			if shares[i] > shares[j] {
				j = i
			}
		}
		shares[j]--
		used--
	}
	return shares, nil
}

// Schedule runs the full CRA pipeline: shares, per-application CPA inside
// disjoint host ranges, virtual execution, and metrics. The platform must
// be one homogeneous cluster.
func Schedule(graphs []*dag.Graph, p *platform.Platform, strategy Strategy, mu float64) (*Result, error) {
	return schedule(graphs, p, strategy, mu, true)
}

// schedule implements Schedule; withStretch controls whether the dedicated
// whole-cluster run behind the per-application stretch metric is performed
// (the registry adapter skips it — it would double the scheduling work for
// a number nobody reads).
func schedule(graphs []*dag.Graph, p *platform.Platform, strategy Strategy, mu float64, withStretch bool) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("cra: %w", err)
	}
	if len(p.Clusters) != 1 {
		return nil, fmt.Errorf("cra: CRA targets a single cluster")
	}
	P := p.NumHosts()
	speed := p.Hosts()[0].Speed
	shares, err := Shares(graphs, strategy, mu, P)
	if err != nil {
		return nil, err
	}
	res := &Result{Strategy: strategy, Mu: mu}
	offset := 0
	for i, g := range graphs {
		sub := platform.Homogeneous(shares[i], speed)
		cres, err := cpa.Schedule(g, sub, cpa.MCPA2)
		if err != nil {
			return nil, fmt.Errorf("cra: app %d: %w", i, err)
		}
		planned := cres.Planned()
		wr, err := sim.Execute(sub, planned, sim.ExecOptions{})
		if err != nil {
			return nil, fmt.Errorf("cra: app %d: %w", i, err)
		}
		app := AppResult{
			Share: shares[i], FirstHost: offset,
			Makespan: wr.Makespan,
		}
		if withStretch {
			// Dedicated run for the stretch metric.
			dres, err := cpa.Schedule(g, p, cpa.MCPA2)
			if err != nil {
				return nil, fmt.Errorf("cra: app %d dedicated: %w", i, err)
			}
			dwr, err := sim.Execute(p, dres.Planned(), sim.ExecOptions{})
			if err != nil {
				return nil, fmt.Errorf("cra: app %d dedicated: %w", i, err)
			}
			app.Dedicated = dwr.Makespan
			if app.Dedicated > 0 {
				app.Stretch = app.Makespan / app.Dedicated
			}
		}
		res.Apps = append(res.Apps, app)
		// Remap the planned tasks into the shared cluster.
		for _, pt := range planned {
			hosts := make([]int, len(pt.Hosts))
			for k, h := range pt.Hosts {
				hosts[k] = h + offset
			}
			placed := PlacedTask{
				ID:    fmt.Sprintf("a%d:%s", i, pt.ID),
				App:   i,
				Type:  fmt.Sprintf("app%d", i),
				Hosts: hosts,
				Start: wr.Start[pt.ID],
				End:   wr.Finish[pt.ID],
			}
			for _, d := range pt.Deps {
				placed.Deps = append(placed.Deps, fmt.Sprintf("a%d:%s", i, d.From))
			}
			res.Placed = append(res.Placed, placed)
		}
		if wr.Makespan > res.Makespan {
			res.Makespan = wr.Makespan
		}
		offset += shares[i]
	}
	return res, nil
}

// Backfill applies the conservative backfilling step of the case study: in
// order of original start time, every task is moved to the earliest instant
// at which its dependencies have finished and its own hosts are free. Tasks
// only ever move earlier, so no task is delayed — the property the paper
// checked with Jedule. The input is not modified.
func Backfill(placed []PlacedTask, hosts int) ([]PlacedTask, error) {
	out := append([]PlacedTask(nil), placed...)
	order := make([]int, len(out))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return out[order[a]].Start < out[order[b]].Start })
	finish := map[string]float64{}
	tl := sched.NewTimeline(hosts)
	for _, idx := range order {
		t := &out[idx]
		start := 0.0
		for _, d := range t.Deps {
			f, ok := finish[d]
			if !ok {
				return nil, fmt.Errorf("cra: backfill: dependency %q of %q not yet finished (schedule inconsistent)", d, t.ID)
			}
			if f > start {
				start = f
			}
		}
		for _, h := range t.Hosts {
			if h < 0 || h >= hosts {
				return nil, fmt.Errorf("cra: backfill: task %q uses host %d outside cluster", t.ID, h)
			}
			if f := tl.FreeAt(h); f > start {
				start = f
			}
		}
		if start > t.Start+1e-9 {
			return nil, fmt.Errorf("cra: backfill would delay task %q (%g -> %g)", t.ID, t.Start, start)
		}
		dur := t.End - t.Start
		t.Start = start
		t.End = start + dur
		finish[t.ID] = t.End
		tl.ReserveAll(t.Hosts, t.Start, t.End)
	}
	return out, nil
}

// Trace renders placed tasks as a Jedule schedule over one cluster of the
// given size; task types are app0..appN-1, ready for a per-application
// color map as in the paper's Figure 5.
func Trace(placed []PlacedTask, hosts int, meta ...core.Property) *core.Schedule {
	s := core.NewSingleCluster("cluster", hosts)
	for _, m := range meta {
		s.SetMeta(m.Name, m.Value)
	}
	for _, t := range placed {
		s.AddTask(core.Task{
			ID: t.ID, Type: t.Type, Start: t.Start, End: t.End,
			Allocations: []core.Allocation{{Cluster: 0, Hosts: core.RangesFromHosts(t.Hosts)}},
			Properties:  []core.Property{{Name: "app", Value: fmt.Sprintf("%d", t.App)}},
		})
	}
	s.SortTasks()
	return s
}

// Makespan returns the latest end time among placed tasks.
func Makespan(placed []PlacedTask) float64 {
	var m float64
	for i := range placed {
		if placed[i].End > m {
			m = placed[i].End
		}
	}
	return m
}

// TotalIdle returns the idle host-time of the placed schedule over [0,
// makespan] — the quantity whose reduction by backfilling "can also be
// easily quantified" per the paper.
func TotalIdle(placed []PlacedTask, hosts int) float64 {
	s := Trace(placed, hosts)
	return s.ComputeStats().IdleArea
}

// Unfairness returns max stretch minus min stretch; 0 is perfectly fair.
func (r *Result) Unfairness() float64 {
	if len(r.Apps) == 0 {
		return 0
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, a := range r.Apps {
		lo = math.Min(lo, a.Stretch)
		hi = math.Max(hi, a.Stretch)
	}
	return hi - lo
}
