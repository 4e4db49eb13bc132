// Package core implements the Jedule schedule model, the primary
// contribution of Hunold, Hoffmann, and Suter, "Jedule: A Tool for
// Visualizing Schedules of Parallel Applications" (PSTI/ICPP 2010).
//
// A Schedule consists of a set of resource groups called clusters and a set
// of tasks. Each task has a start and a finish time, a user-defined type
// (for example "computation", "transfer", or "idle"), and one or more
// allocations. An allocation names a cluster and a set of hosts inside that
// cluster; the host set may be non-contiguous, which is how Jedule renders
// multiprocessor tasks whose resources are scattered. A task may hold
// allocations on several clusters at once (for example a transfer between
// clusters).
//
// The package also implements the two schedule-level operations the paper
// describes: composite-task construction (section II-C.3), which materializes
// the time intervals during which several tasks share a host, and time
// alignment (scaled versus aligned cluster views).
package core

import (
	"fmt"
	"sort"
	"strings"
)

// CompositeType is the task type assigned to automatically constructed
// composite tasks, as defined by the paper: "the type is set to 'composite'".
const CompositeType = "composite"

// HostRange is a contiguous run of hosts [Start, Start+N) inside a cluster.
// Non-contiguous allocations are expressed as several ranges.
type HostRange struct {
	Start int // first host index, 0-based within the cluster
	N     int // number of hosts, must be >= 1
}

// Contains reports whether host h falls inside the range.
func (r HostRange) Contains(h int) bool { return h >= r.Start && h < r.Start+r.N }

// End returns the first host index after the range.
func (r HostRange) End() int { return r.Start + r.N }

func (r HostRange) String() string {
	if r.N == 1 {
		return fmt.Sprintf("%d", r.Start)
	}
	return fmt.Sprintf("%d-%d", r.Start, r.Start+r.N-1)
}

// Allocation binds a task to a set of hosts of one cluster.
type Allocation struct {
	Cluster int         // cluster identifier, must exist in the schedule
	Hosts   []HostRange // host set; empty means "whole cluster" is NOT implied — it is invalid
}

// HostCount returns the number of hosts covered by the allocation.
// Overlapping ranges are counted once.
func (a Allocation) HostCount() int {
	return len(a.HostList())
}

// HostList returns the sorted, de-duplicated list of host indices.
func (a Allocation) HostList() []int {
	seen := map[int]bool{}
	for _, r := range a.Hosts {
		for h := r.Start; h < r.End(); h++ {
			seen[h] = true
		}
	}
	out := make([]int, 0, len(seen))
	for h := range seen {
		out = append(out, h)
	}
	sort.Ints(out)
	return out
}

// ContainsHost reports whether the allocation covers host h.
func (a Allocation) ContainsHost(h int) bool {
	for _, r := range a.Hosts {
		if r.Contains(h) {
			return true
		}
	}
	return false
}

// Contiguous reports whether the host set forms one contiguous run.
func (a Allocation) Contiguous() bool {
	hosts := a.HostList()
	if len(hosts) == 0 {
		return true
	}
	return hosts[len(hosts)-1]-hosts[0]+1 == len(hosts)
}

// RangesFromHosts builds a minimal sorted []HostRange from a host list.
func RangesFromHosts(hosts []int) []HostRange {
	if len(hosts) == 0 {
		return nil
	}
	sorted := append([]int(nil), hosts...)
	sort.Ints(sorted)
	var out []HostRange
	cur := HostRange{Start: sorted[0], N: 1}
	for _, h := range sorted[1:] {
		switch {
		case h == cur.Start+cur.N-1:
			// duplicate host, ignore
		case h == cur.Start+cur.N:
			cur.N++
		default:
			out = append(out, cur)
			cur = HostRange{Start: h, N: 1}
		}
	}
	return append(out, cur)
}

// Task is one scheduled entity: a job, a computation, a message transfer, a
// waiting period — the semantics are carried by Type and are up to the user.
type Task struct {
	ID          string
	Type        string
	Start, End  float64
	Allocations []Allocation
	// Properties carries arbitrary extra key/value pairs from the input
	// file (for example a user name or a node list) that the interactive
	// mode displays when the task is clicked.
	Properties []Property
}

// Property is one key/value pair of task or schedule meta information.
// An ordered slice (rather than a map) keeps file round-trips byte-stable.
type Property struct {
	Name, Value string
}

// Duration returns End - Start.
func (t *Task) Duration() float64 { return t.End - t.Start }

// TotalHosts returns the number of hosts the task occupies across all
// allocations. Hosts of different clusters are always distinct.
func (t *Task) TotalHosts() int {
	n := 0
	for _, a := range t.Allocations {
		n += a.HostCount()
	}
	return n
}

// AllocationOn returns the allocation of the task on the given cluster and
// true, or a zero Allocation and false.
func (t *Task) AllocationOn(cluster int) (Allocation, bool) {
	for _, a := range t.Allocations {
		if a.Cluster == cluster {
			return a, true
		}
	}
	return Allocation{}, false
}

// UsesCluster reports whether any allocation references the cluster.
func (t *Task) UsesCluster(cluster int) bool {
	_, ok := t.AllocationOn(cluster)
	return ok
}

// Property returns the value of the named task property, or "".
func (t *Task) Property(name string) string { return PropertyValue(t.Properties, name) }

// SetProperty sets (or replaces) a task property.
func (t *Task) SetProperty(name, value string) {
	t.Properties = SetProperty(t.Properties, name, value)
}

// PropertyValue returns the value of the named property in props, or "".
func PropertyValue(props []Property, name string) string {
	for _, p := range props {
		if p.Name == name {
			return p.Value
		}
	}
	return ""
}

// SetProperty returns props with the named property set: replaced in place
// when present, appended otherwise, so first-insertion order is kept.
func SetProperty(props []Property, name, value string) []Property {
	for i := range props {
		if props[i].Name == name {
			props[i].Value = value
			return props
		}
	}
	return append(props, Property{name, value})
}

// Cluster is a named group of hosts. Following the paper, the clusters
// partition the platform: host h of cluster c is a different resource from
// host h of cluster c'.
type Cluster struct {
	ID    int
	Name  string
	Hosts int // number of hosts; hosts are indexed 0 .. Hosts-1
}

// DisplayName returns the cluster name, falling back to "cluster<ID>" for
// unnamed clusters. It is the single naming rule shared by the renderer's
// panel headers and the HTTP viewers.
func (c Cluster) DisplayName() string {
	if c.Name != "" {
		return c.Name
	}
	return fmt.Sprintf("cluster%d", c.ID)
}

// Schedule is a complete Jedule document: clusters, tasks, and meta data.
type Schedule struct {
	Clusters []Cluster
	Tasks    []Task
	Meta     []Property
}

// New returns an empty schedule with the given clusters.
func New(clusters ...Cluster) *Schedule {
	return &Schedule{Clusters: append([]Cluster(nil), clusters...)}
}

// NewSingleCluster returns a schedule over one cluster of n hosts.
func NewSingleCluster(name string, n int) *Schedule {
	return New(Cluster{ID: 0, Name: name, Hosts: n})
}

// AddTask appends a task.
func (s *Schedule) AddTask(t Task) { s.Tasks = append(s.Tasks, t) }

// Add is a convenience for the common single-cluster contiguous case: it
// appends a task of the given type on hosts [firstHost, firstHost+n) of
// cluster 0.
func (s *Schedule) Add(id, typ string, start, end float64, firstHost, n int) {
	s.AddTask(Task{
		ID: id, Type: typ, Start: start, End: end,
		Allocations: []Allocation{{Cluster: 0, Hosts: []HostRange{{firstHost, n}}}},
	})
}

// Cluster returns the cluster with the given ID and true, or false.
func (s *Schedule) Cluster(id int) (Cluster, bool) {
	for _, c := range s.Clusters {
		if c.ID == id {
			return c, true
		}
	}
	return Cluster{}, false
}

// TotalHosts returns the platform size (sum over clusters).
func (s *Schedule) TotalHosts() int {
	n := 0
	for _, c := range s.Clusters {
		n += c.Hosts
	}
	return n
}

// Task returns a pointer to the task with the given ID, or nil.
func (s *Schedule) Task(id string) *Task {
	for i := range s.Tasks {
		if s.Tasks[i].ID == id {
			return &s.Tasks[i]
		}
	}
	return nil
}

// MetaValue returns the schedule-level meta value for name, or "".
func (s *Schedule) MetaValue(name string) string { return PropertyValue(s.Meta, name) }

// SetMeta sets (or replaces) a schedule-level meta entry.
func (s *Schedule) SetMeta(name, value string) { s.Meta = SetProperty(s.Meta, name, value) }

// TaskTypes returns the sorted set of task types present in the schedule.
func (s *Schedule) TaskTypes() []string {
	set := map[string]bool{}
	for i := range s.Tasks {
		set[s.Tasks[i].Type] = true
	}
	out := make([]string, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// TasksOn returns the indices of tasks that have an allocation on cluster id.
func (s *Schedule) TasksOn(cluster int) []int {
	var out []int
	for i := range s.Tasks {
		if s.Tasks[i].UsesCluster(cluster) {
			out = append(out, i)
		}
	}
	return out
}

// SubSchedule returns the self-contained schedule of one cluster (paper
// section II-C.3: "each cluster schedule is a self-contained schedule,
// containing all tasks within this cluster"). Tasks keep only their
// allocation on that cluster.
func (s *Schedule) SubSchedule(cluster int) *Schedule {
	c, ok := s.Cluster(cluster)
	if !ok {
		return &Schedule{}
	}
	sub := New(c)
	sub.Meta = append([]Property(nil), s.Meta...)
	for i := range s.Tasks {
		if a, ok := s.Tasks[i].AllocationOn(cluster); ok {
			t := s.Tasks[i]
			t.Allocations = []Allocation{a}
			sub.Tasks = append(sub.Tasks, t)
		}
	}
	return sub
}

// Filter returns a copy of the schedule containing only the tasks for
// which keep returns true. Clusters and meta data are preserved. Useful to
// compute statistics over one task type (for example busy profiles that
// must ignore explicit "waiting" tasks).
func (s *Schedule) Filter(keep func(*Task) bool) *Schedule {
	out := New(s.Clusters...)
	out.Meta = append([]Property(nil), s.Meta...)
	for i := range s.Tasks {
		if keep(&s.Tasks[i]) {
			out.Tasks = append(out.Tasks, s.Tasks[i])
		}
	}
	return out
}

// Clone returns a deep copy of the schedule.
func (s *Schedule) Clone() *Schedule {
	out := &Schedule{
		Clusters: append([]Cluster(nil), s.Clusters...),
		Meta:     append([]Property(nil), s.Meta...),
		Tasks:    make([]Task, len(s.Tasks)),
	}
	for i := range s.Tasks {
		t := s.Tasks[i]
		t.Properties = append([]Property(nil), t.Properties...)
		t.Allocations = make([]Allocation, len(s.Tasks[i].Allocations))
		for j, a := range s.Tasks[i].Allocations {
			a.Hosts = append([]HostRange(nil), a.Hosts...)
			t.Allocations[j] = a
		}
		out.Tasks[i] = t
	}
	return out
}

// SortTasks orders tasks by start time, then end time, then ID. Rendering
// and composite construction do not require sorted input; sorting exists for
// stable output files.
func (s *Schedule) SortTasks() {
	sort.SliceStable(s.Tasks, func(i, j int) bool {
		a, b := &s.Tasks[i], &s.Tasks[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.End != b.End {
			return a.End < b.End
		}
		return a.ID < b.ID
	})
}

// Validate checks the structural invariants of the schedule:
//   - at least one cluster is defined (required by the paper's format);
//   - cluster IDs are unique and host counts positive;
//   - task IDs are unique and non-empty;
//   - every task has Start <= End and at least one allocation;
//   - every allocation references an existing cluster, covers at least one
//     host, and stays within the cluster bounds.
func (s *Schedule) Validate() error {
	if len(s.Clusters) == 0 {
		return fmt.Errorf("core: schedule defines no cluster; at least one is required")
	}
	clusterHosts := make(map[int]int, len(s.Clusters))
	for _, c := range s.Clusters {
		if _, dup := clusterHosts[c.ID]; dup {
			return fmt.Errorf("core: duplicate cluster id %d", c.ID)
		}
		if c.Hosts <= 0 {
			return fmt.Errorf("core: cluster %d has non-positive host count %d", c.ID, c.Hosts)
		}
		clusterHosts[c.ID] = c.Hosts
	}
	// The ID set is sized up front: growing it incrementally rehashes a
	// million-task schedule's IDs many times over.
	ids := make(map[string]struct{}, len(s.Tasks))
	for i := range s.Tasks {
		t := &s.Tasks[i]
		if t.ID == "" {
			return fmt.Errorf("core: task %d has empty id", i)
		}
		if _, dup := ids[t.ID]; dup {
			return fmt.Errorf("core: duplicate task id %q", t.ID)
		}
		ids[t.ID] = struct{}{}
		if t.End < t.Start {
			return fmt.Errorf("core: task %q ends (%g) before it starts (%g)", t.ID, t.End, t.Start)
		}
		if len(t.Allocations) == 0 {
			return fmt.Errorf("core: task %q has no allocation", t.ID)
		}
		for _, a := range t.Allocations {
			hosts, ok := clusterHosts[a.Cluster]
			if !ok {
				return fmt.Errorf("core: task %q references undefined cluster %d", t.ID, a.Cluster)
			}
			if len(a.Hosts) == 0 {
				return fmt.Errorf("core: task %q has an empty allocation on cluster %d", t.ID, a.Cluster)
			}
			for _, r := range a.Hosts {
				if r.N <= 0 {
					return fmt.Errorf("core: task %q has a non-positive host range on cluster %d", t.ID, a.Cluster)
				}
				if r.Start < 0 || r.End() > hosts {
					return fmt.Errorf("core: task %q host range %v exceeds cluster %d size %d",
						t.ID, r, a.Cluster, hosts)
				}
			}
		}
	}
	return nil
}

// String summarizes the schedule for logs.
func (s *Schedule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "schedule{%d clusters, %d hosts, %d tasks", len(s.Clusters), s.TotalHosts(), len(s.Tasks))
	if len(s.Tasks) > 0 {
		ext := s.Extent()
		fmt.Fprintf(&b, ", t=[%g,%g]", ext.Min, ext.Max)
	}
	b.WriteString("}")
	return b.String()
}
