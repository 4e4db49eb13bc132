package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// sizes are the input sizes and run lengths of every workload. They are
// constants of the benchmark (fullSizes); tests pass tiny ones.
type sizes struct {
	seconds   float64 // length of the timed phase
	setupReps int     // set-up repetitions; setup_s is their median

	ingestTasks int // tasks per uploaded document
	ingestDocs  int // distinct documents the iterations cycle through

	panTasks   int // tasks of the preloaded trace
	panClients int // closed-loop viewers
	panDepth   int // zoom-in steps of a gesture (x4 each)
	panPans    int // half-window pans at the deepest zoom
	panVerify  int // miss bodies re-rendered in-process after the run

	campaignSpec  campaignSpec // one timed campaign
	campaignWarm  campaignSpec // the discarded warm-up campaign
	campaignCheck int          // timed campaigns re-run in-process after the run

	restartSessions int // durable uploads before the first restart
	restartTasks    int // tasks per uploaded document
	restartJob      campaignSpec

	shadowCells int // campaign cells replayed serially in a traced run
}

// campaignSpec is the body of POST /api/v1/campaigns and /api/v1/jobs
// (jobs ignore Shards).
type campaignSpec struct {
	Algos        []string `json:"algos"`
	Shapes       []string `json:"shapes,omitempty"`
	DAGSizes     []int    `json:"dag_sizes,omitempty"`
	ClusterSizes []int    `json:"cluster_sizes,omitempty"`
	Replicates   int      `json:"replicates"`
	Seed         int64    `json:"seed"`
	Workers      int      `json:"workers,omitempty"`
	Shards       int      `json:"shards,omitempty"`
}

// fullSizes are the benchmark's sizes. One run of a workload takes about
// 30 s on a 2-core machine, 18 s of it timed, so a pass over the four stays
// near two minutes.
var fullSizes = sizes{
	seconds:   18,
	setupReps: 5,

	ingestTasks: 25_000,
	ingestDocs:  2,

	panTasks:   1_000_000,
	panClients: 2,
	panDepth:   6,
	panPans:    6,
	panVerify:  3,

	// The default 45-cell factorial (5 shapes x 3 DAG sizes x 3 clusters).
	// Three replicates keep a campaign near 1.5 s, so a run's median is
	// taken over about a dozen campaigns.
	campaignSpec:  campaignSpec{Algos: []string{"cpa", "mcpa", "heft"}, Replicates: 3, Workers: 1, Shards: 16},
	campaignWarm:  campaignSpec{Algos: []string{"cpa", "mcpa", "heft"}, Replicates: 1, Workers: 1, Shards: 16},
	campaignCheck: 2,

	restartSessions: 40,
	restartTasks:    2_000,
	restartJob:      campaignSpec{Algos: []string{"cpa", "mcpa"}, DAGSizes: []int{20}, ClusterSizes: []int{32}, Replicates: 2},

	shadowCells: 15,
}

// workload is one traffic mix. The runner calls prepare once, setup
// sizes.setupReps times (teardown between), begin once, op until the timed
// phase ends, then finish and teardown.
type workload interface {
	// prepare generates every input from the seed. It is not set-up: it is
	// the benchmark's own work, done once.
	prepare(r *run) error
	// setup builds the program state the ops run against, under op
	// (opSetup when the repetition is traced).
	setup(r *run, op int64) error
	// begin records untimed reference state once set-up is final.
	begin(r *run) error
	// clients is the number of closed-loop clients.
	clients() int
	// op runs one timed op and returns the latency the user waits for.
	// Correctness failures go through r.fail; an error is a failed op.
	op(r *run, client int, op int64) (time.Duration, error)
	// finish runs the untimed checks against in-process references and,
	// in a traced run, the serial shadow replay.
	finish(r *run) error
	teardown()
}

// run is the shared state of one workload run.
type run struct {
	seed int64
	sz   sizes
	tr   *tracer // nil when untraced

	mu        sync.Mutex
	samples   map[string][]float64 // per-layer observations by metric name
	failures  []string
	failed    int
	attempted int
	layers    map[string]metric // per-layer metrics computed by the workload
}

func (r *run) sample(name string, v float64) {
	r.mu.Lock()
	r.samples[name] = append(r.samples[name], v)
	r.mu.Unlock()
}

func (r *run) samplesOf(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]float64(nil), r.samples[name]...)
}

// fail counts one failed op or check and keeps its description.
func (r *run) fail(format string, args ...any) {
	r.mu.Lock()
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
	r.mu.Unlock()
}

// check counts one post-run check, failing it when err is non-nil.
func (r *run) check(what string, err error) {
	r.mu.Lock()
	r.attempted++
	r.mu.Unlock()
	if err != nil {
		r.fail("%s: %v", what, err)
	}
}

// counters adds the server's counters accumulated between two reads of
// GET /api/v1/meta: the LOD work, and the event bus totals, a guard that no
// layer should move.
func (r *run) counters(before, after meta) {
	for name, d := range map[string]float64{
		"render.lod_tasks_aggregated": float64(after.LODTasks - before.LODTasks),
		"events.published":            after.Events.Published - before.Events.Published,
		"events.dropped":              after.Events.Dropped - before.Events.Dropped,
	} {
		m := r.layers[name]
		r.layers[name] = metric{Value: m.Value + d, N: m.N + 1}
	}
}

// metric is one reported number with its unit and sample count.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// result is the outcome of one workload run.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	Spans     []span            `json:"-"`
	Summary   []layerRow        `json:"-"`
	lat       []float64         // op latencies in ms
}

func newWorkload(name string, sz sizes) (workload, error) {
	switch name {
	case "ingest":
		return &ingest{sz: sz}, nil
	case "pan_zoom":
		return &panZoom{sz: sz}, nil
	case "campaign":
		return &campaignLoad{sz: sz}, nil
	case "restart":
		return &restart{sz: sz}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want %s or all)", name, strings.Join(workloadNames, ", "))
}

var workloadNames = []string{"ingest", "pan_zoom", "campaign", "restart"}

// execute runs one workload and computes every metric it reports.
func execute(name string, seed int64, trace bool, sz sizes) (*result, error) {
	w, err := newWorkload(name, sz)
	if err != nil {
		return nil, err
	}
	r := &run{seed: seed, sz: sz, samples: map[string][]float64{}, layers: map[string]metric{}}
	if trace {
		r.tr = newTracer()
	}
	if err := w.prepare(r); err != nil {
		return nil, fmt.Errorf("%s: preparing inputs: %w", name, err)
	}

	var setups []float64
	for rep := 0; rep < sz.setupReps; rep++ {
		if rep > 0 {
			w.teardown()
		}
		// Each repetition starts from the same heap: garbage of the previous
		// one must not be collected inside this one's timing.
		runtime.GC()
		debug.FreeOSMemory()
		op := opNone
		if trace && rep == sz.setupReps-1 {
			op = opSetup
		}
		r.tr.setOp(op)
		start := time.Now()
		if err := w.setup(r, op); err != nil {
			w.teardown()
			return nil, fmt.Errorf("%s: set-up: %w", name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	r.tr.setOp(opNone)
	defer w.teardown()
	if err := w.begin(r); err != nil {
		return nil, fmt.Errorf("%s: recording references: %w", name, err)
	}

	lat, traced, untraced, elapsed := timedPhase(r, w)
	// Memory is read before the checks, whose in-process references would
	// count as the program's.
	peak := peakRSSMB()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if err := w.finish(r); err != nil {
		return nil, fmt.Errorf("%s: finishing: %w", name, err)
	}

	res := &result{Workload: name, Seed: seed, Seconds: sz.seconds, Trace: trace,
		Attempted: r.attempted, Failed: r.failed, Failures: r.failures,
		Metrics: map[string]metric{}, lat: lat}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	res.Metrics["setup_s"] = metric{median(setups), "s", len(setups)}
	res.Metrics["op_ms"] = metric{median(lat), "ms", len(lat)}
	res.Metrics["ops_per_s"] = metric{float64(len(lat)) / elapsed.Seconds(), "1/s", len(lat)}
	res.Metrics["heap_live_mb"] = metric{float64(ms.HeapAlloc) / (1 << 20), "MB", 1}
	res.Metrics["peak_rss_mb"] = metric{peak, "MB", 1}
	if trace {
		res.Spans = r.tr.snapshot()
		res.Summary = summarize(res.Spans)
		layerMetrics(r, res, traced, untraced)
	}
	return res, nil
}

// timedPhase runs the closed-loop clients until the run length has passed
// and returns every op latency in ms (and, in a traced run, the traced and
// untraced ones apart) plus the phase's wall time, to the last op's end.
func timedPhase(r *run, w workload) (lat, traced, untraced []float64, elapsed time.Duration) {
	var (
		mu     sync.Mutex
		nextOp atomic.Int64
		wg     sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(time.Duration(r.sz.seconds * float64(time.Second)))
	for c := 0; c < w.clients(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				op := nextOp.Add(1)
				r.tr.setOp(op)
				d, err := w.op(r, c, op)
				r.mu.Lock()
				r.attempted++
				r.mu.Unlock()
				if err != nil {
					r.fail("op %d: %v", op, err)
					continue
				}
				ms := float64(d.Nanoseconds()) / 1e6
				mu.Lock()
				lat = append(lat, ms)
				if r.tr.traced(op) {
					traced = append(traced, ms)
				} else {
					untraced = append(untraced, ms)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed = time.Since(start)
	r.tr.setOp(opNone)
	return lat, traced, untraced, elapsed
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// metricDef names one metric of BENCHMARK.json with its unit.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"}, {"op_ms", "ms"}, {"ops_per_s", "1/s"}, {"heap_live_mb", "MB"},
}

// perLayer lists the traced-run metrics. A layer a workload does not reach
// reports 0 there.
var perLayer = []metricDef{
	{"jedxml.read_ms", "ms"}, {"jedxml.read_mb_per_s", "MB/s"},
	{"core.validate_ms", "ms"},
	{"render.index_ms", "ms"}, {"render.layout_ms", "ms"}, {"render.lod_ms", "ms"},
	{"render.raster_ms", "ms"}, {"render.lod_tasks_aggregated", "count"},
	{"raster.encode_ms", "ms"}, {"pdf.encode_ms", "ms"},
	{"api.render_unattributed_ms", "ms"}, {"api.cache_hit_ratio", "ratio"}, {"api.cache_hit_ms", "ms"},
	{"api.upload_unattributed_ms", "ms"}, {"api.durable_upload_ms", "ms"},
	{"dag.generate_ms", "ms"}, {"sched.cpa_ms", "ms"}, {"sched.mcpa_ms", "ms"}, {"sched.heft_ms", "ms"},
	{"sim.execute_ms", "ms"}, {"campaign.shard_ms", "ms"},
	{"fleet.dispatch_wait_ms", "ms"}, {"fleet.lease_rtt_ms", "ms"}, {"fleet.complete_rtt_ms", "ms"},
	{"fleet.idle_polls", "count"}, {"fleet.useful_ratio", "ratio"},
	{"coord.tail_ms", "ms"}, {"jobs.queue_wait_ms", "ms"},
	{"persist.open_ms", "ms"}, {"persist.load_ms", "ms"}, {"persist.put_durable_ms", "ms"},
	{"persist.bytes_written", "count"}, {"api.recover_sessions_ms", "ms"}, {"jobs.recover_ms", "ms"},
	{"events.published", "count"}, {"events.dropped", "count"},
	{"op.p90_ms", "ms"}, {"op.upload_ms", "ms"}, {"op.first_render_ms", "ms"}, {"op.export_pdf_ms", "ms"},
	{"op.cells_per_s", "1/s"}, {"op.recovery_ms", "ms"}, {"op.hydrate_render_ms", "ms"},
	{"peak_rss_mb", "MB"}, {"trace_overhead_pct", "%"},
}

// spanMetrics maps per-layer metrics to the span whose median self time
// they report.
var spanMetrics = map[string]string{
	"jedxml.read_ms":             "jedxml.read",
	"core.validate_ms":           "core.validate",
	"render.index_ms":            "render.index",
	"render.layout_ms":           "render.layout",
	"render.lod_ms":              "render.lod",
	"render.raster_ms":           "render.raster",
	"raster.encode_ms":           "raster.encode",
	"pdf.encode_ms":              "pdf.encode",
	"api.render_unattributed_ms": "api.render_miss",
	"api.cache_hit_ms":           "api.render_hit",
	"dag.generate_ms":            "dag.generate",
	"sched.cpa_ms":               "sched.cpa",
	"sched.mcpa_ms":              "sched.mcpa",
	"sched.heft_ms":              "sched.heft",
	"sim.execute_ms":             "sim.execute",
	"campaign.shard_ms":          "campaign.shard",
	"fleet.dispatch_wait_ms":     "fleet.dispatch_wait",
	"fleet.lease_rtt_ms":         "fleet.lease_rtt",
	"fleet.complete_rtt_ms":      "fleet.complete_rtt",
	"coord.tail_ms":              "coord.tail",
	"jobs.queue_wait_ms":         "jobs.queue_wait",
	"persist.open_ms":            "persist.open",
	"persist.load_ms":            "persist.load",
	"persist.put_durable_ms":     "persist.put_durable",
	"api.recover_sessions_ms":    "api.recover_sessions",
	"jobs.recover_ms":            "jobs.recover",
}

// sampleMetrics maps per-layer metrics to the op observations whose median
// they report.
var sampleMetrics = []string{
	"api.durable_upload_ms", "op.upload_ms", "op.first_render_ms", "op.export_pdf_ms",
	"op.recovery_ms", "op.hydrate_render_ms",
}

// layerMetrics fills every per-layer metric of a traced run: span medians,
// op observations, the workload's own counters, and the tracing overhead.
// Spans of the traced set-up repetition count only for durable writes,
// which restart makes only while it populates; elsewhere a warm-up would
// skew the timed phase's medians.
func layerMetrics(r *run, res *result, traced, untraced []float64) {
	units := map[string]string{}
	for _, d := range perLayer {
		units[d.name] = d.unit
		res.Metrics[d.name] = metric{0, d.unit, 0}
	}
	var timed []span
	for _, s := range res.Spans {
		if s.Op != opSetup {
			timed = append(timed, s)
		}
	}
	rows := summarize(timed)
	for name, spanName := range spanMetrics {
		row := find(rows, spanName)
		if name == "persist.put_durable_ms" {
			row = find(res.Summary, spanName)
		}
		res.Metrics[name] = metric{median(row.selfMS), units[name], row.Count}
	}
	for _, name := range sampleMetrics {
		xs := r.samplesOf(name)
		res.Metrics[name] = metric{median(xs), units[name], len(xs)}
	}
	hits, misses := find(rows, "api.render_hit").Count, find(rows, "api.render_miss").Count
	if hits+misses > 0 {
		res.Metrics["api.cache_hit_ratio"] = metric{float64(hits) / float64(hits+misses), "ratio", hits + misses}
	}
	res.Metrics["op.p90_ms"] = metric{percentile(res.lat, 90), "ms", len(res.lat)}
	if m := median(untraced); m > 0 && len(traced) > 0 {
		res.Metrics["trace_overhead_pct"] = metric{(median(traced) - m) / m * 100, "%", len(res.lat)}
	}
	for name, m := range r.layers {
		m.Unit = units[name]
		res.Metrics[name] = m
	}
}

// printTable prints every metric of a result with its unit and sample
// count, and the op latency at the highest percentile the sample count
// supports.
func printTable(w io.Writer, res *result) {
	fmt.Fprintf(w, "== %s seed=%d trace=%v correct=%v attempted=%d failed=%d\n",
		res.Workload, res.Seed, res.Trace, res.Correct, res.Attempted, res.Failed)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "%-28s %14.4f %-6s n=%d\n", n, m.Value, m.Unit, m.N)
	}
	if p := tailPercentile(len(res.lat)); p > 0 {
		fmt.Fprintf(w, "%-28s %14.4f %-6s n=%d\n", fmt.Sprintf("op tail (p%g)", p), percentile(res.lat, p), "ms", len(res.lat))
	}
	for _, f := range res.Failures {
		fmt.Fprintf(w, "FAIL %s\n", f)
	}
}
