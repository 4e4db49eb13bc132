// Package cpa implements the two-step mixed-parallel scheduling algorithms
// of the paper's first case study (section III): CPA (Critical Path and
// Area-based scheduling, Radulescu & van Gemund), MCPA (modified CPA,
// Bansal et al.), and the MCPA2 poly-algorithm (Hunold) that picks whichever
// of the two produces the better schedule for the given DAG and platform.
//
// Both algorithms decouple the problem:
//
//	allocation phase — choose a processor count p(v) for every moldable
//	task, growing allocations of critical-path tasks while the critical
//	path T_CP exceeds the average area T_A = (1/P) Σ T(v,p(v))·p(v);
//
//	mapping phase — list-schedule the tasks with their fixed allocations
//	onto the homogeneous cluster by decreasing bottom level, picking for
//	each task the p(v) hosts that become free earliest.
//
// MCPA differs only in the allocation phase: it refuses to grow a task's
// allocation when the total allocation of its precedence level would exceed
// the cluster size, preserving task parallelism within a level — the very
// behavior whose failure mode (load imbalance under unequal sibling costs)
// Figure 4 of the paper exposes.
//
// Schedule returns the common *sched.Result. The allocation phase's bounds
// travel in its Meta as "tcp" and "ta", and MCPA2 records the variant it
// kept as "chosen"; Result.Execute replays the plan on the simulator.
package cpa

import (
	"fmt"
	"sort"

	"repro/internal/dag"
	"repro/internal/platform"
	"repro/internal/sched"
)

func init() {
	for _, v := range []Variant{CPA, MCPA, MCPA2} {
		sched.Register(sched.Func{Algo: v.String(), Run: func(g *dag.Graph, p *platform.Platform) (*sched.Result, error) {
			return Schedule(g, p, v)
		}})
	}
}

// Variant selects the allocation strategy.
type Variant int

const (
	// CPA is the original Critical Path and Area-based algorithm.
	CPA Variant = iota
	// MCPA caps per-precedence-level allocations at the cluster size.
	MCPA
	// MCPA2 runs both and keeps the schedule with the smaller predicted
	// makespan (the paper's poly-algorithm).
	MCPA2
)

func (v Variant) String() string {
	switch v {
	case CPA:
		return "cpa"
	case MCPA:
		return "mcpa"
	case MCPA2:
		return "mcpa2"
	default:
		return "variant(?)"
	}
}

// Schedule runs the selected variant for the graph on a platform of one
// homogeneous cluster.
func Schedule(g *dag.Graph, p *platform.Platform, variant Variant) (*sched.Result, error) {
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("cpa: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("cpa: %w", err)
	}
	if len(p.Clusters) != 1 {
		return nil, fmt.Errorf("cpa: CPA/MCPA target a single homogeneous cluster, platform has %d", len(p.Clusters))
	}
	switch variant {
	case CPA, MCPA:
		alloc, tcp, ta, err := allocate(g, p, variant == MCPA)
		if err != nil {
			return nil, err
		}
		res, err := mapTasks(g, p, alloc, variant.String())
		if err != nil {
			return nil, err
		}
		res.SetMeta("tcp", fmt.Sprintf("%.3f", tcp))
		res.SetMeta("ta", fmt.Sprintf("%.3f", ta))
		return res, nil
	case MCPA2:
		a, err := Schedule(g, p, CPA)
		if err != nil {
			return nil, err
		}
		b, err := Schedule(g, p, MCPA)
		if err != nil {
			return nil, err
		}
		best := a
		if b.Makespan < a.Makespan {
			best = b
		}
		best.SetMeta("chosen", best.Algorithm)
		best.Algorithm = MCPA2.String()
		return best, nil
	default:
		return nil, fmt.Errorf("cpa: unknown variant %d", variant)
	}
}

// allocate is the allocation phase shared by CPA and MCPA.
func allocate(g *dag.Graph, p *platform.Platform, levelCap bool) (alloc []int, tcp, ta float64, err error) {
	P := p.NumHosts()
	speed := p.Hosts()[0].Speed
	n := g.Len()
	alloc = make([]int, n)
	for i := range alloc {
		alloc[i] = 1
	}
	var levels []int
	levelAlloc := map[int]int{}
	if levelCap {
		levels, err = g.Levels()
		if err != nil {
			return nil, 0, 0, err
		}
		for _, n := range g.Nodes() {
			levelAlloc[levels[n.ID]] += 1
		}
	}
	timeOf := func(nd *dag.Node) float64 { return nd.Time(alloc[nd.ID], speed) }
	area := func() float64 {
		var sum float64
		for _, nd := range g.Nodes() {
			sum += timeOf(nd) * float64(alloc[nd.ID])
		}
		return sum / float64(P)
	}
	for {
		var path []int
		tcp, path, err = g.CriticalPath(timeOf)
		if err != nil {
			return nil, 0, 0, err
		}
		ta = area()
		if tcp <= ta {
			break
		}
		// Pick the critical-path task whose extra processor shortens it
		// the most, subject to the variant's constraints.
		best := -1
		bestGain := 0.0
		for _, id := range path {
			nd := g.Nodes()[id]
			if alloc[id] >= P {
				continue
			}
			if levelCap && levelAlloc[levels[id]]+1 > P {
				continue // MCPA: level is saturated
			}
			gain := nd.Time(alloc[id], speed) - nd.Time(alloc[id]+1, speed)
			if gain > bestGain {
				bestGain = gain
				best = id
			}
		}
		if best < 0 {
			break // nothing can grow: CP stays above TA
		}
		alloc[best]++
		if levelCap {
			levelAlloc[levels[best]]++
		}
	}
	return alloc, tcp, ta, nil
}

// mapTasks is the mapping phase: bottom-level list scheduling with
// earliest-available host selection, built on the shared sched toolkit
// (bottom levels + host timeline).
func mapTasks(g *dag.Graph, p *platform.Platform, alloc []int, algorithm string) (*sched.Result, error) {
	speed := p.Hosts()[0].Speed
	// Bottom levels with allocated times (communication excluded).
	blevel, err := sched.BottomLevels(g, func(nd *dag.Node) float64 {
		return nd.Time(alloc[nd.ID], speed)
	})
	if err != nil {
		return nil, err
	}

	tl := sched.NewTimeline(p.NumHosts())
	res := sched.NewResult(algorithm, g, p)
	pendingPreds := make([]int, g.Len())
	readyAt := make([]float64, g.Len())
	for _, nd := range g.Nodes() {
		pendingPreds[nd.ID] = len(nd.Preds())
	}
	var ready []*dag.Node
	for _, nd := range g.Nodes() {
		if pendingPreds[nd.ID] == 0 {
			ready = append(ready, nd)
		}
	}
	scheduled := 0
	for scheduled < g.Len() {
		if len(ready) == 0 {
			return nil, fmt.Errorf("cpa: mapping deadlock (cycle?)")
		}
		// Highest bottom level first.
		sort.SliceStable(ready, func(i, j int) bool { return blevel[ready[i].ID] > blevel[ready[j].ID] })
		nd := ready[0]
		ready = ready[1:]

		// Moldable tasks hold all their hosts for the whole duration, so the
		// tail free time is the binding constraint (no reusable gaps open up
		// behind a task the way they do for HEFT's sequential tasks).
		hosts := tl.EarliestHosts(alloc[nd.ID])
		start := readyAt[nd.ID]
		for _, h := range hosts {
			if f := tl.FreeAt(h); f > start {
				start = f
			}
		}
		end := start + nd.Time(len(hosts), speed)
		tl.ReserveAll(hosts, start, end)
		res.Assignments[nd.ID] = sched.Assignment{Hosts: hosts, Start: start, Finish: end}
		if end > res.Makespan {
			res.Makespan = end
		}
		scheduled++
		for _, e := range nd.Succs() {
			// Data availability: the redistribution target is unknown until
			// the successor is mapped, so the mapping phase counts only the
			// predecessor's finish; the simulator charges the exact
			// transfer during execution.
			if end > readyAt[e.To.ID] {
				readyAt[e.To.ID] = end
			}
			pendingPreds[e.To.ID]--
			if pendingPreds[e.To.ID] == 0 {
				ready = append(ready, e.To)
			}
		}
	}
	return res, nil
}
