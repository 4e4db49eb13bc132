// Package repro's root benchmark harness: one benchmark per figure of the
// paper's evaluation (the paper has no numeric tables), plus rendering and
// scalability benches and ablations. Run with
//
//	go test -bench=. -benchmem
//
// Each BenchmarkFigNN regenerates the complete artifact of figure NN; the
// reported time is the cost of reproducing that experiment end to end.
package repro

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/api"
	"repro/internal/campaign"
	"repro/internal/colormap"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/figures"
	"repro/internal/jedxml"
	"repro/internal/pdf"
	"repro/internal/persist"
	"repro/internal/platform"
	"repro/internal/raster"
	"repro/internal/render"
	"repro/internal/sched"
	"repro/internal/sched/cpa"
	"repro/internal/sched/cra"
	"repro/internal/sched/heft"
	"repro/internal/sim"
	"repro/internal/svg"
	"repro/internal/taskpool"
	"repro/internal/workload"
)

// --- Figures -------------------------------------------------------------

func BenchmarkFig01XMLRoundTrip(b *testing.B) {
	s := figures.Fig1Schedule()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := jedxml.Write(&buf, s); err != nil {
			b.Fatal(err)
		}
		if _, err := jedxml.Read(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig02ColorMap(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := colormap.Write(&buf, colormap.Default()); err != nil {
			b.Fatal(err)
		}
		m, err := colormap.Read(&buf)
		if err != nil {
			b.Fatal(err)
		}
		_ = m.LookupComposite([]string{"computation", "transfer"})
	}
}

func BenchmarkFig03Composite(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := figures.Fig3Composite()
		if len(s.Tasks) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkFig04CPAvsMCPA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := figures.Fig4()
		if err != nil {
			b.Fatal(err)
		}
		if r.MakespanCPA >= r.MakespanMCPA {
			b.Fatal("figure 4 property violated")
		}
	}
}

func BenchmarkFig05CRA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := figures.Fig5()
		if err != nil {
			b.Fatal(err)
		}
		if r.IdleAfter > r.IdleBefore+1e-6 {
			b.Fatal("backfilling increased idle time")
		}
	}
}

func BenchmarkFig06MontageDOT(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := figures.Fig6DOT(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig07Platform(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := platform.Figure7(platform.Figure7RealisticLatency)
		if err := p.Validate(); err != nil {
			b.Fatal(err)
		}
		if _, err := p.CommTime(0, 11, 1e7); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig08HEFTFlawed(b *testing.B) {
	g := dag.Montage(12)
	p := platform.Figure7(platform.Figure7FlawedLatency)
	for i := 0; i < b.N; i++ {
		if _, err := heft.Schedule(g, p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig09HEFTRealistic(b *testing.B) {
	g := dag.Montage(12)
	p := platform.Figure7(platform.Figure7RealisticLatency)
	for i := 0; i < b.N; i++ {
		if _, err := heft.Schedule(g, p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11QuicksortRandom(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := figures.Fig11()
		if err != nil {
			b.Fatal(err)
		}
		if r.Executed < 100 {
			b.Fatal("too few tasks")
		}
	}
}

func BenchmarkFig12QuicksortInverse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := figures.Fig12()
		if err != nil {
			b.Fatal(err)
		}
		if f := r.BusyFractionWithOneWorker(200); f < 0.2 {
			b.Fatal("serial prefix lost")
		}
	}
}

func BenchmarkFig13Workload(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := figures.Fig13()
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Schedule.Tasks) != 834 {
			b.Fatal("job count wrong")
		}
	}
}

// --- Rendering backends (ablation: raster vs pdf vs svg) -----------------

func benchSchedule() *core.Schedule {
	r, err := figures.Fig13()
	if err != nil {
		panic(err)
	}
	return r.Schedule
}

func BenchmarkRenderPNG(b *testing.B) {
	s := benchSchedule()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := raster.New(1200, 800)
		render.Render(c, s, render.Options{})
	}
}

func BenchmarkRenderPDF(b *testing.B) {
	s := benchSchedule()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := pdf.New(1200, 800)
		render.Render(c, s, render.Options{})
		if err := c.Encode(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRenderSVG(b *testing.B) {
	s := benchSchedule()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := svg.New(1200, 800)
		render.Render(c, s, render.Options{})
		if err := c.Encode(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Parallel rasterization (per-panel/per-band sharding) ----------------

// parallelBenchSchedule is the acceptance workload of the parallel render
// pipeline: 4 clusters, 200k tasks ("some experiments ... created more than
// 200,000 individual tasks"), randomly placed — a multi-megapixel Gantt
// export dominated by per-task rasterization.
func parallelBenchSchedule() *core.Schedule {
	clusters := make([]core.Cluster, 4)
	for i := range clusters {
		clusters[i] = core.Cluster{ID: i, Name: string(rune('a' + i)), Hosts: 64}
	}
	s := core.New(clusters...)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200_000; i++ {
		start := rng.Float64() * 1e4
		s.AddTask(core.Task{
			ID: taskID(i), Type: []string{"computation", "transfer"}[i%2],
			Start: start, End: start + 0.5 + rng.Float64()*5,
			Allocations: []core.Allocation{{
				Cluster: i % 4,
				Hosts:   []core.HostRange{{Start: rng.Intn(63), N: 1 + rng.Intn(2)}},
			}},
		})
	}
	return s
}

func benchRenderWorkers(b *testing.B, workers int) {
	s := parallelBenchSchedule()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := raster.New(1600, 1000)
		render.Render(c, s, render.Options{Workers: workers})
	}
}

func BenchmarkRenderSerial(b *testing.B)   { benchRenderWorkers(b, 1) }
func BenchmarkRenderParallel(b *testing.B) { benchRenderWorkers(b, 4) }

// --- Ablations ------------------------------------------------------------

// Composite construction: sweep vs naive reference on a dense schedule.
func compositeInput() *core.Schedule {
	rng := rand.New(rand.NewSource(9))
	s := core.NewSingleCluster("c", 32)
	for i := 0; i < 400; i++ {
		start := rng.Float64() * 100
		first := rng.Intn(32)
		n := 1 + rng.Intn(32-first)
		s.Add(taskID(i), []string{"computation", "transfer"}[i%2],
			start, start+rng.Float64()*10, first, n)
	}
	return s
}

func taskID(i int) string {
	return string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('a'+i/676))
}

func BenchmarkAblationCompositeSweep(b *testing.B) {
	s := compositeInput()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := s.CompositeTasks(); len(got) == 0 {
			b.Fatal("no composites")
		}
	}
}

func BenchmarkAblationCompositeNaive(b *testing.B) {
	s := compositeInput()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := s.CompositeTasksNaive(); len(got) == 0 {
			b.Fatal("no composites")
		}
	}
}

// Task pool organization: central queue vs work stealing.
func BenchmarkAblationPoolCentral(b *testing.B) {
	cfg := taskpool.DefaultConfig()
	cfg.Pool = taskpool.Central
	for i := 0; i < b.N; i++ {
		if _, err := taskpool.RunQuicksort(cfg, taskpool.Figure11Config()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationPoolStealing(b *testing.B) {
	cfg := taskpool.DefaultConfig()
	cfg.Pool = taskpool.Stealing
	for i := 0; i < b.N; i++ {
		if _, err := taskpool.RunQuicksort(cfg, taskpool.Figure11Config()); err != nil {
			b.Fatal(err)
		}
	}
}

// CPA variants across DAG shapes (allocation-phase sensitivity).
func BenchmarkAblationCPAVariants(b *testing.B) {
	g := dag.Generate(dag.ShapeRandom, dag.DefaultGenOptions(60), rand.New(rand.NewSource(3)))
	p := platform.Homogeneous(32, 1e9)
	for _, v := range []cpa.Variant{cpa.CPA, cpa.MCPA, cpa.MCPA2} {
		b.Run(v.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := cpa.Schedule(g, p, v); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// CRA share strategies.
func BenchmarkAblationCRAStrategies(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	graphs := []*dag.Graph{
		dag.Generate(dag.ShapeRandom, dag.DefaultGenOptions(20), rng),
		dag.Generate(dag.ShapeForkJoin, dag.DefaultGenOptions(20), rng),
		dag.Generate(dag.ShapeLong, dag.DefaultGenOptions(20), rng),
	}
	p := platform.Homogeneous(24, 1e9)
	for _, strat := range []cra.Strategy{cra.Work, cra.Width, cra.Equal} {
		b.Run(strat.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := cra.Schedule(graphs, p, strat, 0.5); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Scalability ----------------------------------------------------------

// The simulator kernel on large synthetic workflows.
func BenchmarkSimLargeWorkflow(b *testing.B) {
	p := platform.Homogeneous(64, 1e9)
	rng := rand.New(rand.NewSource(8))
	n := 2000
	tasks := make([]sim.PlannedTask, n)
	for i := range tasks {
		tasks[i] = sim.PlannedTask{
			ID: taskID(i), Type: "computation",
			Hosts: []int{rng.Intn(64)}, Duration: rng.Float64(),
		}
		if i > 0 {
			tasks[i].Deps = []sim.Dep{{From: taskID(rng.Intn(i)), Bytes: 1e6}}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Execute(p, tasks, sim.ExecOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// Big-trace handling: "some experiments ... created more than 200,000
// individual tasks". Parse-and-stat a 200k-task schedule.
func BenchmarkLargeTraceStats(b *testing.B) {
	s := core.NewSingleCluster("big", 64)
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 200_000; i++ {
		start := rng.Float64() * 1e4
		s.Add(taskID(i), "computation", start, start+rng.Float64(), rng.Intn(64), 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := s.ComputeStats()
		if st.TaskCount != 200_000 {
			b.Fatal("task count")
		}
	}
}

// SWF parsing throughput.
func BenchmarkSWFParse(b *testing.B) {
	jobs := workload.Thunder(workload.Figure13Config())
	var buf bytes.Buffer
	if err := workload.WriteSWF(&buf, jobs, nil); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := workload.ReadSWF(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// The case-study-III experiment campaign (CPA vs MCPA factorial).
func BenchmarkCampaign(b *testing.B) {
	cfg := campaign.DefaultConfig()
	cfg.Replicates = 2
	for i := 0; i < b.N; i++ {
		res, err := campaign.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Total == 0 {
			b.Fatal("no runs")
		}
	}
}

// A cross-family campaign: every cell compares CPA variants against HEFT
// through the scheduler registry.
func BenchmarkCampaignCrossAlgo(b *testing.B) {
	cfg := campaign.Config{
		Shapes:       []dag.Shape{dag.ShapeRandom, dag.ShapeForkJoin},
		DAGSizes:     []int{20, 40},
		ClusterSizes: []int{32},
		Algos:        []string{"cpa", "mcpa2", "heft"},
		Replicates:   2,
		Seed:         1,
	}
	for i := 0; i < b.N; i++ {
		res, err := campaign.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Total == 0 {
			b.Fatal("no runs")
		}
	}
}

// Every registered scheduler on the same DAG through the unified interface.
func BenchmarkRegistrySchedulers(b *testing.B) {
	g := dag.Generate(dag.ShapeRandom, dag.DefaultGenOptions(60), rand.New(rand.NewSource(3)))
	p := platform.Homogeneous(32, 1e9)
	for _, name := range sched.List() {
		s, err := sched.Lookup(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := s.Schedule(g, p)
				if err != nil {
					b.Fatal(err)
				}
				if res.Makespan <= 0 {
					b.Fatal("no makespan")
				}
			}
		})
	}
}

// The shared host timeline under heavy gap insertion (the list-scheduling
// hot path shared by HEFT and the CPA mapping phase).
func BenchmarkTimelineGapInsert(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	type req struct{ ready, dur float64 }
	reqs := make([]req, 5000)
	for i := range reqs {
		reqs[i] = req{ready: rng.Float64() * 1000, dur: 0.1 + rng.Float64()}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tl := sched.NewTimeline(1)
		for _, r := range reqs {
			start := tl.EarliestGap(0, r.ready, r.dur)
			tl.Reserve(0, start, start+r.dur)
		}
	}
}

// --- Million-task fast path --------------------------------------------------

// The 1M-task synthetic trace and its render index are built once and
// shared: the benchmarks measure rendering and scanning, not generation.
var bench1M struct {
	once sync.Once
	s    *core.Schedule
	idx  *render.TaskIndex
	win  core.Extent
}

func schedule1M() (*core.Schedule, *render.TaskIndex, core.Extent) {
	bench1M.once.Do(func() {
		cfg := workload.DefaultGenerateConfig(1_000_000)
		bench1M.s = workload.GenerateSchedule(cfg)
		bench1M.idx = render.BuildIndex(bench1M.s)
		// A deep zoom: 0.05% of the horizon, the interactive pan/zoom shape.
		h := float64(cfg.Horizon)
		bench1M.win = core.Extent{Min: 0.5 * h, Max: 0.5005 * h}
	})
	return bench1M.s, bench1M.idx, bench1M.win
}

// BenchmarkRender1M: a zoomed-in window over the 1M-task trace with the
// prebuilt index — the per-panel binary search visits only the tasks that
// can intersect the window.
func BenchmarkRender1M(b *testing.B) {
	s, idx, win := schedule1M()
	opt := render.Options{Workers: 1, Index: idx, Window: &win, LOD: true}
	// The canvas is reused across iterations: every pixel a render touches
	// is overwritten deterministically, and allocating the 3.8 MB backing
	// image would otherwise dominate the fast path being measured.
	c := raster.New(1200, 800)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		render.Render(c, s, opt)
	}
}

// BenchmarkRender1MFullScan is the ablation baseline: the same render with
// culling and LOD disabled, so every panel pass scans all indexed tasks —
// the pre-index code path. The acceptance criterion is Render1M >= 10x
// faster than this.
func BenchmarkRender1MFullScan(b *testing.B) {
	s, idx, win := schedule1M()
	opt := render.Options{Workers: 1, Index: idx, Window: &win, NoCull: true}
	c := raster.New(1200, 800)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		render.Render(c, s, opt)
	}
}

// BenchmarkRender1MLODFull: the bird's-eye view of the whole trace with
// density-band aggregation — the paper's Figure 13 shape at a thousand
// times the job count.
func BenchmarkRender1MLODFull(b *testing.B) {
	s, idx, _ := schedule1M()
	opt := render.Options{Workers: 1, Index: idx, LOD: true}
	c := raster.New(1200, 800)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		render.Render(c, s, opt)
	}
}

// BenchmarkRender1MEncodePNG: the PNG encode of a finished 1200x800 frame
// of the 1M-task trace, the stage an uncached /render waits on after
// rasterization, for the bird's-eye view and the deep zoom.
func BenchmarkRender1MEncodePNG(b *testing.B) {
	s, idx, win := schedule1M()
	for _, v := range []struct {
		name   string
		window *core.Extent
	}{{"full", nil}, {"zoom", &win}} {
		b.Run(v.name, func(b *testing.B) {
			c := raster.New(1200, 800)
			render.Render(c, s, render.Options{Index: idx, Window: v.window, LOD: true, Labels: true})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.EncodePNG(io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScanSWF1M: streaming parse of a million-job SWF trace; the
// allocs/op column is the O(1)-allocations-per-job acceptance criterion.
func BenchmarkScanSWF1M(b *testing.B) {
	jobs := workload.Generate(workload.DefaultGenerateConfig(1_000_000))
	var buf bytes.Buffer
	if err := workload.WriteSWF(&buf, jobs, nil); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		err := workload.ScanSWF(bytes.NewReader(data), nil, func(workload.Job) error {
			n++
			return nil
		})
		if err != nil || n != len(jobs) {
			b.Fatalf("scan: %v (%d jobs)", err, n)
		}
	}
}

// BenchmarkRenderColorMemo: a composite-heavy render; the per-render color
// memo resolves each composite's member types once instead of per panel
// pass, which shows up in the allocs/op column.
func BenchmarkRenderColorMemo(b *testing.B) {
	s := compositeInput().WithComposites()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := raster.New(800, 500)
		render.Render(c, s, render.Options{Workers: 1})
	}
}

// Multi-page PDF documents ("documents with hundreds of schedule pictures").
func BenchmarkPDFBook(b *testing.B) {
	s := benchSchedule()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doc := pdf.NewDocument()
		for p := 0; p < 10; p++ {
			render.Render(doc.AddPage(800, 500), s, render.Options{})
		}
		if err := doc.Encode(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// Side-by-side comparison rendering (the Figure 4 layout).
func BenchmarkSideBySide(b *testing.B) {
	r, err := figures.Fig4()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := raster.New(1400, 500)
		render.SideBySide(c, "cpa vs mcpa", []*core.Schedule{r.CPA, r.MCPA},
			[]render.Options{{Labels: true}, {Labels: true}})
	}
}

// BenchmarkRender1MHTTP: the full HTTP path of the interactive pan/zoom
// shape — obs middleware, routing, rate-limit check, render cache — over the
// 1M-task trace. The warm-up request populates the render cache, so the
// steady state measured here is exactly the per-request overhead the
// observability middleware must keep inside the render regression gate.
func BenchmarkRender1MHTTP(b *testing.B) {
	s, _, win := schedule1M()
	srv := api.NewServer(api.NewStore())
	defer srv.Close()
	sess := srv.Store().Add("bench1m", "generated", s)
	h := srv.Handler()
	target := fmt.Sprintf("/api/v1/sessions/%s/render?width=1200&height=800&lod=true&window=%g,%g",
		sess.ID, win.Min, win.Max)
	run := func() {
		req := httptest.NewRequest("GET", target, nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != 200 {
			b.Fatalf("render = %d: %s", rec.Code, rec.Body.String())
		}
	}
	run() // warm the render cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// --- Durable state -------------------------------------------------------

// persistPayload is a session-descriptor-sized record: what one jedserve
// write-path Put carries.
func persistPayload() []byte {
	payload := make([]byte, 512)
	rng := rand.New(rand.NewSource(7))
	rng.Read(payload)
	return payload
}

// BenchmarkPersistPutMemory is the write path of the default in-memory
// backend — the floor the filesystem backend is compared against.
func BenchmarkPersistPutMemory(b *testing.B) {
	ps := persist.Memory()
	defer ps.Close()
	payload := persistPayload()
	keys := make([]string, 256)
	for i := range keys {
		keys[i] = fmt.Sprintf("j%d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ps.Put("jobs", keys[i%len(keys)], payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPersistPutFS is the filesystem backend's non-durable append path
// (the per-cell journal write of a running campaign job), including the
// compactions it periodically triggers.
func BenchmarkPersistPutFS(b *testing.B) {
	ps, err := persist.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer ps.Close()
	payload := persistPayload()
	keys := make([]string, 256)
	for i := range keys {
		keys[i] = fmt.Sprintf("j%d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ps.Put("jobs", keys[i%len(keys)], payload); err != nil {
			b.Fatal(err)
		}
	}
}
