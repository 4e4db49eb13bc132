// Package figures regenerates every figure of the paper's evaluation. Each
// FigN function builds the exact scenario of the corresponding figure and
// returns the schedule(s) to render; the cmd/figures binary writes them to
// image files and the root benchmark harness measures them.
package figures

import (
	"fmt"
	"io"
	"math/rand"

	"repro/internal/colormap"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/platform"
	"repro/internal/sched/cpa"
	"repro/internal/sched/cra"
	"repro/internal/sched/heft"
	"repro/internal/sim"
	"repro/internal/taskpool"
	"repro/internal/workload"
)

// Fig1Schedule builds the schedule whose first task matches the XML
// listing of Figure 1: task "1", type computation, [0, 0.31], eight hosts
// of cluster 0.
func Fig1Schedule() *core.Schedule {
	s := core.NewSingleCluster("cluster-0", 8)
	s.Add("1", "computation", 0, 0.310, 0, 8)
	return s
}

// Fig3Composite builds a schedule exhibiting composite tasks as in
// Figure 3: blue computations, red transfers, and orange composite bands
// where they overlap on shared hosts.
func Fig3Composite() *core.Schedule {
	s := core.NewSingleCluster("cluster", 8)
	s.Add("c1", "computation", 0, 4, 0, 8)
	s.Add("t1", "transfer", 3, 5, 0, 4) // overlaps c1 on hosts 0-3
	s.Add("c2", "computation", 5, 9, 0, 4)
	s.Add("c3", "computation", 4.5, 9, 4, 4)
	s.Add("t2", "transfer", 8, 10, 2, 4) // overlaps c2 and c3
	return s.WithComposites()
}

// Fig4Result bundles the CPA-vs-MCPA comparison of Figure 4.
type Fig4Result struct {
	CPA, MCPA     *core.Schedule
	MakespanCPA   float64
	MakespanMCPA  float64
	UtilCPA       float64
	UtilMCPA      float64
	MCPA2Chose    string
	MCPA2Makespan float64
}

// Fig4 schedules the imbalanced-layer DAG with CPA and MCPA on a
// 16-processor cluster, reproducing the load-imbalance hole of Figure 4.
func Fig4() (*Fig4Result, error) {
	g := dag.ImbalancedLayer(14, 10)
	p := platform.Homogeneous(16, 1e9)
	out := &Fig4Result{}
	for _, variant := range []cpa.Variant{cpa.CPA, cpa.MCPA} {
		res, err := cpa.Schedule(g, p, variant)
		if err != nil {
			return nil, err
		}
		wr, err := res.Execute(sim.ExecOptions{})
		if err != nil {
			return nil, err
		}
		st := wr.Schedule.ComputeStats()
		if variant == cpa.CPA {
			out.CPA, out.MakespanCPA, out.UtilCPA = wr.Schedule, wr.Makespan, st.Utilization
		} else {
			out.MCPA, out.MakespanMCPA, out.UtilMCPA = wr.Schedule, wr.Makespan, st.Utilization
		}
	}
	res2, err := cpa.Schedule(g, p, cpa.MCPA2)
	if err != nil {
		return nil, err
	}
	out.MCPA2Chose = res2.MetaValue("chosen")
	out.MCPA2Makespan = res2.Makespan
	return out, nil
}

// Fig5Result bundles the multi-DAG schedule of Figure 5.
type Fig5Result struct {
	Schedule   *core.Schedule
	Backfilled *core.Schedule
	Result     *cra.Result
	IdleBefore float64
	IdleAfter  float64
}

// Fig5 schedules four mixed-parallel applications on a 20-processor
// cluster with CRA_WORK, plus the conservative backfilling comparison the
// case study describes.
func Fig5() (*Fig5Result, error) {
	graphs := []*dag.Graph{
		dag.Montage(6),
		mustGen(dag.ShapeForkJoin, 24, 11),
		mustGen(dag.ShapeRandom, 30, 12),
		mustGen(dag.ShapeLong, 18, 13),
	}
	p := platform.Homogeneous(20, 1e9)
	res, err := cra.Schedule(graphs, p, cra.Work, 0.5)
	if err != nil {
		return nil, err
	}
	bf, err := cra.Backfill(res.Placed, 20)
	if err != nil {
		return nil, err
	}
	meta := core.Property{Name: "algorithm", Value: res.Strategy.String()}
	return &Fig5Result{
		Schedule:   cra.Trace(res.Placed, 20, meta),
		Backfilled: cra.Trace(bf, 20, meta, core.Property{Name: "backfilled", Value: "yes"}),
		Result:     res,
		IdleBefore: cra.TotalIdle(res.Placed, 20),
		IdleAfter:  cra.TotalIdle(bf, 20),
	}, nil
}

func mustGen(shape dag.Shape, nodes int, seed int64) *dag.Graph {
	return dag.Generate(shape, dag.DefaultGenOptions(nodes), newRand(seed))
}

// Fig6DOT writes the Montage(12) structure (50 compute nodes) in DOT form,
// the textual equivalent of Figure 6.
func Fig6DOT(w io.Writer) error {
	return dag.Montage(12).WriteDOT(w)
}

// Fig8And9Result bundles the HEFT experiment pair.
type Fig8And9Result struct {
	Flawed, Realistic        *core.Schedule
	MakespanFlawed           float64
	MakespanRealistic        float64
	CrossEdgesFlawed         int
	CrossEdgesRealistic      int
	BackgroundClustersFlawed int
	BackgroundClustersReal   int
}

// Fig8And9 runs HEFT for Montage(12) on the Figure 7 platform twice: with
// the flawed backbone latency (Figure 8) and the realistic one (Figure 9).
func Fig8And9() (*Fig8And9Result, error) {
	g := dag.Montage(12)
	out := &Fig8And9Result{}
	for _, realistic := range []bool{false, true} {
		lat := platform.Figure7FlawedLatency
		if realistic {
			lat = platform.Figure7RealisticLatency
		}
		p := platform.Figure7(lat)
		res, err := heft.Schedule(g, p)
		if err != nil {
			return nil, err
		}
		trace, err := heft.Trace(res, heft.TraceOptions{Transfers: true, TransferFloor: 0.05})
		if err != nil {
			return nil, err
		}
		trace.SetMeta("backbone_latency", fmt.Sprintf("%g", lat))
		if realistic {
			out.Realistic = trace
			out.MakespanRealistic = res.Makespan
			out.CrossEdgesRealistic = heft.CrossClusterEdges(res)
			out.BackgroundClustersReal = len(heft.ClustersUsedBy(res, "mBackground"))
		} else {
			out.Flawed = trace
			out.MakespanFlawed = res.Makespan
			out.CrossEdgesFlawed = heft.CrossClusterEdges(res)
			out.BackgroundClustersFlawed = len(heft.ClustersUsedBy(res, "mBackground"))
		}
	}
	return out, nil
}

// Fig11 simulates quicksort over 10M random integers on the 32-worker task
// pool (Figure 11).
func Fig11() (*taskpool.Result, error) {
	return taskpool.RunQuicksort(taskpool.DefaultConfig(), taskpool.Figure11Config())
}

// Fig12 simulates quicksort over 200M inversely sorted integers with
// middle pivots (Figure 12).
func Fig12() (*taskpool.Result, error) {
	return taskpool.RunQuicksort(taskpool.DefaultConfig(), taskpool.Figure12Config())
}

// Fig13 builds the synthetic LLNL Thunder day (Figure 13).
func Fig13() (*workload.Placed, error) {
	return workload.ThunderDay(workload.Figure13Config())
}

// MontageMap returns a color map with one color per Montage stage, like
// the per-type coloring of Figures 6/8/9.
func MontageMap() *colormap.Map {
	stages := dag.MontageStages()
	return colormap.Palette(len(stages), func(i int) string { return stages[i] })
}

// AppMap returns a per-application color map for n applications (Figure 5:
// "each application has its own color").
func AppMap(n int) *colormap.Map {
	return colormap.Palette(n, func(i int) string { return fmt.Sprintf("app%d", i) })
}

// newRand returns a deterministic generator for the figure scenarios.
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
