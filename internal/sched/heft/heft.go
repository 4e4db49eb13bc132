// Package heft implements the Heterogeneous Earliest Finish Time algorithm
// (Topcuoglu et al.) used in the paper's third case study (section V):
// scheduling a scientific workflow of single-processor tasks onto a
// heterogeneous multi-cluster platform.
//
// HEFT sorts tasks by decreasing upward rank — the length of the critical
// path from the task to the exit task, computed with average execution and
// communication costs — and then assigns each task to the processor
// minimizing its Earliest Finish Time (EFT), using an insertion policy that
// may fill idle gaps between already-scheduled tasks. Communication costs
// follow the platform's route model, which is exactly where the Figure 8
// anomaly comes from: with a backbone as fast as the intra-cluster links,
// moving a task to another cluster costs (almost) nothing.
//
// Schedule returns the common *sched.Result. Trace (planned tasks with
// their ranks and transfers), ClustersUsedBy and CrossClusterEdges are free
// functions over it for the Figure 8/9 analysis.
package heft

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/sim"
)

func init() {
	sched.Register(sched.Func{Algo: "heft", Run: Schedule})
}

// Ranks returns the HEFT upward rank per node ID: execution at the
// platform's mean speed plus mean communication along the longest path to
// an exit node. It is deterministic, so Trace recomputes it for the
// per-task "rank" property instead of carrying it in the result.
func Ranks(g *dag.Graph, p *platform.Platform) ([]float64, error) {
	meanSpeed := p.MeanSpeed()
	return sched.UpwardRanks(g,
		func(nd *dag.Node) float64 { return nd.Work / meanSpeed },
		func(e *dag.Edge) float64 { return p.MeanCommTime(e.Bytes) })
}

// Schedule runs HEFT for the graph on the platform. Tasks are treated as
// single-processor (sequential) tasks, per the case study, so every
// assignment holds exactly one host. Host reservations go through the
// shared gap-inserting timeline.
func Schedule(g *dag.Graph, p *platform.Platform) (*sched.Result, error) {
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("heft: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("heft: %w", err)
	}
	rank, err := Ranks(g, p)
	if err != nil {
		return nil, err
	}
	res := sched.NewResult("heft", g, p)

	// Priority list: decreasing upward rank (stable on ties by ID).
	prio := append([]*dag.Node(nil), g.Nodes()...)
	sort.SliceStable(prio, func(i, j int) bool { return rank[prio[i].ID] > rank[prio[j].ID] })

	tl := sched.NewTimeline(p.NumHosts())
	for _, nd := range prio {
		bestHost, bestStart := -1, 0.0
		bestEFT := 0.0
		for _, h := range p.Hosts() {
			// Data-ready time on this host.
			ready := 0.0
			for _, e := range nd.Preds() {
				pred := res.Assignments[e.From.ID]
				ct, err := p.CommTime(pred.Hosts[0], h.Global, e.Bytes)
				if err != nil {
					return nil, err
				}
				if t := pred.Finish + ct; t > ready {
					ready = t
				}
			}
			dur := nd.Work / h.Speed
			start := tl.EarliestGap(h.Global, ready, dur)
			eft := start + dur
			if bestHost < 0 || eft < bestEFT {
				bestHost, bestStart, bestEFT = h.Global, start, eft
			}
		}
		res.Assignments[nd.ID] = sched.Assignment{Hosts: []int{bestHost}, Start: bestStart, Finish: bestEFT}
		tl.Reserve(bestHost, bestStart, bestEFT)
		if bestEFT > res.Makespan {
			res.Makespan = bestEFT
		}
	}
	return res, nil
}

// TraceOptions controls Trace.
type TraceOptions struct {
	// Transfers records inter-host data movements as "transfer" tasks
	// spanning source and destination.
	Transfers bool
	// TransferFloor suppresses transfers shorter than this duration.
	TransferFloor float64
}

// Trace renders a planned single-host schedule (HEFT's) as a Jedule
// document with each task's upward rank as its "rank" property and,
// optionally, the planned transfers between hosts. Task types follow the
// node types (Montage stage names), so a per-stage color map highlights the
// workflow structure as in the paper's Figure 8/9.
func Trace(r *sched.Result, opt TraceOptions) (*core.Schedule, error) {
	rank, err := Ranks(r.Graph, r.Platform)
	if err != nil {
		return nil, err
	}
	rec := sim.NewRecorder(r.Platform)
	rec.SetMeta("algorithm", r.Algorithm)
	rec.SetMeta("makespan", fmt.Sprintf("%.1f", r.Makespan))
	for _, nd := range r.Graph.Nodes() {
		a := r.Assignments[nd.ID]
		if err := rec.Record(nd.Name, nd.Type, a.Start, a.Finish, a.Hosts,
			core.Property{Name: "rank", Value: fmt.Sprintf("%.2f", rank[nd.ID])}); err != nil {
			return nil, err
		}
	}
	if opt.Transfers {
		i := 0
		for _, e := range r.Graph.Edges() {
			src, dst := r.Assignments[e.From.ID].Hosts[0], r.Assignments[e.To.ID].Hosts[0]
			if src == dst {
				continue
			}
			ct, err := r.Platform.CommTime(src, dst, e.Bytes)
			if err != nil {
				return nil, err
			}
			if ct < opt.TransferFloor {
				continue
			}
			i++
			start := r.Assignments[e.From.ID].Finish
			if err := rec.Record(fmt.Sprintf("x%d:%s->%s", i, e.From.Name, e.To.Name),
				"transfer", start, start+ct, []int{src, dst}); err != nil {
				return nil, err
			}
		}
	}
	return rec.Schedule(), nil
}

// ClustersUsedBy returns the sorted IDs of the clusters hosting nodes of
// the given type — the quantity behind the Figure 8 anomaly check
// (mBackground tasks scattered across clusters under the flawed platform
// description).
func ClustersUsedBy(r *sched.Result, nodeType string) []int {
	seen := map[int]bool{}
	for _, nd := range r.Graph.Nodes() {
		if nd.Type != nodeType {
			continue
		}
		for _, g := range r.Assignments[nd.ID].Hosts {
			if h, err := r.Platform.Host(g); err == nil {
				seen[h.Cluster] = true
			}
		}
	}
	out := make([]int, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Ints(out)
	return out
}

// CrossClusterEdges counts dependency edges whose endpoints' first hosts
// lie in different clusters.
func CrossClusterEdges(r *sched.Result) int {
	n := 0
	for _, e := range r.Graph.Edges() {
		ha, _ := r.Platform.Host(r.Assignments[e.From.ID].Hosts[0])
		hb, _ := r.Platform.Host(r.Assignments[e.To.ID].Hosts[0])
		if ha.Cluster != hb.Cluster {
			n++
		}
	}
	return n
}
