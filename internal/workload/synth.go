package workload

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/core"
)

// GenerateConfig parameterizes the scalable synthetic trace generator. It
// is the benchmark-scale sibling of ThunderConfig: where Thunder mimics one
// day of 834 jobs, Generate produces traces up to millions of jobs with the
// same statistical shape (power-of-two sizes, log-uniform runtimes, skewed
// users) while staying fully deterministic for a given config.
type GenerateConfig struct {
	Jobs    int   // trace length in jobs
	Nodes   int   // cluster size
	Users   int   // distinct users
	Horizon int64 // trace length in seconds; arrivals spread uniformly
	Seed    int64
}

// DefaultGenerateConfig sizes a config for n jobs: the horizon grows
// linearly past the ~150k jobs a single day of the reference machine can
// absorb, so the generated load stays placeable and a full view of a
// million-job trace is dominated by sub-pixel tasks — the LOD stress shape.
func DefaultGenerateConfig(n int) GenerateConfig {
	h := int64(86_400)
	if n > 150_000 {
		h = 86_400 * int64(n) / 150_000
	}
	return GenerateConfig{Jobs: n, Nodes: 1024, Users: 64, Horizon: h, Seed: 1}
}

// Generate produces a deterministic synthetic SWF trace in submit order.
// Unlike Thunder it scales to millions of jobs: sizes skew small so the
// cluster can hold the load, and runtimes are log-uniform from half a
// minute to ten minutes — short against the horizon, so a full view is
// dominated by sub-pixel tasks while a deep zoom shows only the thin
// slice of the trace that actually intersects the window.
func Generate(cfg GenerateConfig) []Job {
	// Draw every job first and sort the small draws: a Job is 144 bytes,
	// and moving those through a sort costs more than drawing them. IDs are
	// unique, so the order is total.
	type draw struct {
		submit, run     int64
		id, procs, user int
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	draws := make([]draw, cfg.Jobs)
	logLo, logHi := math.Log(30), math.Log(600)
	for i := range draws {
		run := int64(math.Exp(logLo + rng.Float64()*(logHi-logLo)))
		submit := int64(rng.Float64() * float64(cfg.Horizon))
		procs := 1 << rng.Intn(4) // 1, 2, 4, 8
		user := 6000 + int(math.Floor(math.Pow(rng.Float64(), 2)*float64(cfg.Users)))
		draws[i] = draw{submit: submit, run: run, id: i + 1, procs: procs, user: user}
	}
	slices.SortFunc(draws, func(a, b draw) int {
		return cmp.Or(cmp.Compare(a.submit, b.submit), cmp.Compare(a.id, b.id))
	})
	jobs := make([]Job, len(draws))
	for i, d := range draws {
		jobs[i] = Job{
			ID: d.id, Submit: d.submit, Wait: 0, Run: d.run,
			Procs: d.procs, AvgCPU: -1, Memory: -1,
			ReqProcs: -1, ReqTime: -1, ReqMemory: -1,
			Status: 1, User: d.user, Group: -1,
			Executable: -1, Queue: 1, Partition: 1, Preceding: -1, ThinkTime: -1,
		}
	}
	return jobs
}

// GenerateSchedule builds the render-ready schedule of a synthetic trace
// directly, bypassing the O(n·nodes·log nodes) FCFS placement: each job
// gets a contiguous node run from a rotating cursor (wrapping allocations
// split into two host ranges). The result is not a feasible machine
// schedule — jobs on the same node may overlap — but it has exactly the
// geometry the renderer must survive: n tasks spread over the horizon and
// the node axis, mostly sub-pixel at full view. Deterministic in cfg, O(n).
func GenerateSchedule(cfg GenerateConfig) *core.Schedule {
	jobs := Generate(cfg)
	s := core.NewSingleCluster("synthetic", cfg.Nodes)
	s.SetMeta("jobs", fmt.Sprintf("%d", len(jobs)))
	s.Tasks = make([]core.Task, 0, len(jobs))
	cursor := 0
	for _, j := range jobs {
		procs := j.Procs
		if procs > cfg.Nodes {
			procs = cfg.Nodes
		}
		var hosts []core.HostRange
		if cursor+procs <= cfg.Nodes {
			hosts = []core.HostRange{{Start: cursor, N: procs}}
		} else {
			head := cfg.Nodes - cursor
			hosts = []core.HostRange{
				{Start: cursor, N: head},
				{Start: 0, N: procs - head},
			}
		}
		cursor = (cursor + procs) % cfg.Nodes
		s.AddTask(core.Task{
			ID:    fmt.Sprintf("j%d", j.ID),
			Type:  "job",
			Start: float64(j.Submit),
			End:   float64(j.Submit + j.Run),
			Allocations: []core.Allocation{
				{Cluster: 0, Hosts: hosts},
			},
		})
	}
	s.SortTasks()
	return s
}
