package sched

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/platform"
	"repro/internal/sim"
)

// Assignment is one node's placement in a unified schedule: the global hosts
// it occupies and its planned start and finish times.
type Assignment struct {
	Hosts  []int
	Start  float64
	Finish float64
}

// Result is the unified outcome every Scheduler produces: one Assignment per
// graph node (indexed by node ID), the planned makespan, and algorithm meta
// data. It converts to the simulator's task list and to a Jedule
// core.Schedule, so campaigns, figures, and commands can treat algorithms
// interchangeably.
type Result struct {
	Algorithm   string
	Graph       *dag.Graph
	Platform    *platform.Platform
	Assignments []Assignment
	Makespan    float64
	// Meta carries algorithm-specific key/value pairs (e.g. CPA's T_CP and
	// T_A bounds, MCPA2's chosen variant) in insertion order; they follow
	// "algorithm" as schedule-level properties in traces.
	Meta []core.Property
}

// NewResult allocates a result shell for the graph and platform.
func NewResult(algorithm string, g *dag.Graph, p *platform.Platform) *Result {
	return &Result{
		Algorithm:   algorithm,
		Graph:       g,
		Platform:    p,
		Assignments: make([]Assignment, g.Len()),
	}
}

// SetMeta records (or replaces) one algorithm-specific property.
func (r *Result) SetMeta(name, value string) { r.Meta = core.SetProperty(r.Meta, name, value) }

// MetaValue returns the named algorithm-specific property, or "".
func (r *Result) MetaValue(name string) string { return core.PropertyValue(r.Meta, name) }

// Planned converts the result into simulator tasks for independent
// validation by the discrete-event kernel. Tasks are emitted in planned
// start order (ties by node ID): the simulator resolves same-instant host
// contention FIFO in list order, so the replay follows the plan's own
// dispatch order rather than graph construction order.
func (r *Result) Planned() []sim.PlannedTask {
	nodes := append([]*dag.Node(nil), r.Graph.Nodes()...)
	sort.SliceStable(nodes, func(i, j int) bool {
		return r.Assignments[nodes[i].ID].Start < r.Assignments[nodes[j].ID].Start
	})
	out := make([]sim.PlannedTask, 0, len(nodes))
	for _, nd := range nodes {
		a := r.Assignments[nd.ID]
		pt := sim.PlannedTask{
			ID: nd.Name, Type: nd.Type,
			Hosts:    append([]int(nil), a.Hosts...),
			Duration: a.Finish - a.Start,
		}
		for _, e := range nd.Preds() {
			pt.Deps = append(pt.Deps, sim.Dep{From: e.From.Name, Bytes: e.Bytes})
		}
		out = append(out, pt)
	}
	return out
}

// Execute replays the plan on the simulator and returns the trace with the
// algorithm meta data attached.
func (r *Result) Execute(opt sim.ExecOptions) (*sim.WorkflowResult, error) {
	wr, err := sim.Execute(r.Platform, r.Planned(), opt)
	if err != nil {
		return nil, err
	}
	wr.Schedule.SetMeta("algorithm", r.Algorithm)
	for _, m := range r.Meta {
		wr.Schedule.SetMeta(m.Name, m.Value)
	}
	return wr, nil
}

// Trace renders the planned times (not a simulation) as a Jedule schedule,
// mapping hosts back to the platform's cluster structure.
func (r *Result) Trace() (*core.Schedule, error) {
	rec := sim.NewRecorder(r.Platform)
	rec.SetMeta("algorithm", r.Algorithm)
	rec.SetMeta("makespan", fmt.Sprintf("%.3f", r.Makespan))
	for _, m := range r.Meta {
		rec.SetMeta(m.Name, m.Value)
	}
	for _, nd := range r.Graph.Nodes() {
		a := r.Assignments[nd.ID]
		if err := rec.Record(nd.Name, nd.Type, a.Start, a.Finish, a.Hosts); err != nil {
			return nil, err
		}
	}
	return rec.Schedule(), nil
}

// Validate is the one plan checker: every node placed on valid hosts over a
// non-negative interval, precedence respected (a task never starts before a predecessor finishes),
// and no host double-booked. It is deliberately communication-free: CPA's
// mapping phase and CRA's backfilling plan without redistribution costs,
// which only the simulator (Execute) charges, so a plan is valid when its
// order is feasible, and transfers can only push the replayed starts later.
func (r *Result) Validate() error {
	if len(r.Assignments) != r.Graph.Len() {
		return fmt.Errorf("sched: %s: %d assignments for %d nodes",
			r.Algorithm, len(r.Assignments), r.Graph.Len())
	}
	type slot struct {
		start, end float64
		id         string
	}
	byHost := map[int][]slot{}
	for _, nd := range r.Graph.Nodes() {
		a := r.Assignments[nd.ID]
		if len(a.Hosts) == 0 {
			return fmt.Errorf("sched: %s: node %q has no hosts", r.Algorithm, nd.Name)
		}
		if a.Start < 0 || a.Finish < a.Start {
			return fmt.Errorf("sched: %s: node %q planned over [%g, %g]", r.Algorithm, nd.Name, a.Start, a.Finish)
		}
		for _, h := range a.Hosts {
			if _, err := r.Platform.Host(h); err != nil {
				return fmt.Errorf("sched: %s: node %q: %w", r.Algorithm, nd.Name, err)
			}
			byHost[h] = append(byHost[h], slot{a.Start, a.Finish, nd.Name})
		}
	}
	for _, e := range r.Graph.Edges() {
		if r.Assignments[e.To.ID].Start < r.Assignments[e.From.ID].Finish-1e-9 {
			return fmt.Errorf("sched: %s: %s starts at %g before %s finishes at %g",
				r.Algorithm, e.To.Name, r.Assignments[e.To.ID].Start,
				e.From.Name, r.Assignments[e.From.ID].Finish)
		}
	}
	for h, list := range byHost {
		sort.Slice(list, func(i, j int) bool { return list[i].start < list[j].start })
		for i := 1; i < len(list); i++ {
			if list[i].start < list[i-1].end-1e-9 {
				return fmt.Errorf("sched: %s: host %d double-booked at %g (%s vs %s)",
					r.Algorithm, h, list[i].start, list[i-1].id, list[i].id)
			}
		}
	}
	return nil
}
