package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"path"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/campaign"
	"repro/internal/dag"
	"repro/internal/fleet"
	"repro/internal/jobs"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/sim"
)

// campaignLoad is the paper's case-study-III corner-case hunt run as a
// service: sequential campaigns dispatched through the elastic fleet to two
// in-process workers that pull shards over HTTP. DAG generation, the
// schedulers, the simulator and the lease round trips do all the work; the
// render layer does none.
type campaignLoad struct {
	sz   sizes
	srv  *server
	cl   *client
	stop context.CancelFunc
	wg   sync.WaitGroup
	tr   *tracer

	idle         atomic.Int64 // lease polls answered with no work
	submitted    atomic.Int64 // unix ns of the running campaign's submission
	lastComplete atomic.Int64 // unix ns the latest shard completion was sent

	mu     sync.Mutex
	tables map[int64]string // op -> merged /result table
	cells  int              // cells per campaign
	secs   float64          // summed submit-to-done time
	meta0  meta
	idle0  int64
}

const fleetWorkers = 2

func (w *campaignLoad) clients() int { return 1 }

// spec returns the campaign of op (0 is the warm-up): every campaign of a
// run has its own seed, derived from the run's.
func (w *campaignLoad) spec(r *run, op int64) campaignSpec {
	s := w.sz.campaignSpec
	if op == 0 {
		s = w.sz.campaignWarm
	}
	s.Seed = r.seed*1000 + op + 1
	return s
}

// resolve turns a spec into the campaign config the server runs, through
// the same resolution the server uses.
func resolve(s campaignSpec) (campaign.Config, error) {
	cfg, _, err := jobs.CampaignSpec{Algos: s.Algos, Shapes: s.Shapes, DAGSizes: s.DAGSizes,
		ClusterSizes: s.ClusterSizes, Replicates: s.Replicates, Seed: s.Seed}.Resolve()
	return cfg, err
}

func (w *campaignLoad) prepare(r *run) error {
	cfg, err := resolve(w.spec(r, 1))
	if err != nil {
		return err
	}
	w.cells = len(campaign.Cells(cfg))
	return nil
}

func (w *campaignLoad) setup(r *run, op int64) error {
	srv := api.NewServer(api.NewStore())
	srv.SetFleet(fleet.NewManager(fleet.Config{}), fleetWorkers)
	s, err := serve(srv)
	if err != nil {
		return err
	}
	w.srv, w.cl, w.tr = s, newClient(1, r.tr), r.tr
	ctx, cancel := context.WithCancel(context.Background())
	w.stop = cancel
	for i := 0; i < fleetWorkers; i++ {
		cfg := fleet.WorkerConfig{
			Coordinator: s.base,
			Name:        fmt.Sprintf("w%d", i+1),
			Poll:        50 * time.Millisecond,
			Run:         w.runShard,
			HTTP:        &http.Client{Transport: &fleetTransport{w: w, base: &http.Transport{}}},
		}
		w.wg.Add(1)
		go func() {
			defer w.wg.Done()
			fleet.RunWorker(ctx, cfg) //nolint:errcheck // ends with ctx.Err() when teardown cancels it
		}()
	}
	_, err = w.runCampaign(r, op, w.spec(r, 0))
	return err
}

func (w *campaignLoad) begin(r *run) error {
	w.tables = map[int64]string{}
	w.idle0 = w.idle.Load()
	var err error
	w.meta0, err = w.cl.meta(w.srv.base)
	return err
}

func (w *campaignLoad) op(r *run, _ int, op int64) (time.Duration, error) {
	d, err := w.runCampaign(r, op, w.spec(r, op))
	if err == nil {
		w.mu.Lock()
		w.secs += d.Seconds()
		w.mu.Unlock()
	}
	return d, err
}

// runCampaign submits one campaign, waits until it is done, and fetches its
// merged result. It returns the submit-to-done time.
func (w *campaignLoad) runCampaign(r *run, op int64, spec campaignSpec) (time.Duration, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return 0, err
	}
	base := w.srv.base + "/api/v1/campaigns"
	start := time.Now()
	w.submitted.Store(start.UnixNano())
	rep, err := w.cl.do(op, "api.campaign_submit", http.MethodPost, base, body, "application/json", http.StatusAccepted)
	if err != nil {
		return 0, err
	}
	var info jobState
	if err := json.Unmarshal(rep.body, &info); err != nil {
		return 0, fmt.Errorf("campaign reply: %w", err)
	}
	st, doneAt, err := w.cl.awaitJob(op, "api.campaign_wait", base+"/"+info.ID)
	if err != nil {
		return 0, err
	}
	elapsed := doneAt.Sub(start)
	if last := time.Unix(0, w.lastComplete.Load()); last.After(start) {
		r.tr.add(op, 0, "coord.tail", "coord", last, doneAt)
	}
	if !st.Started.IsZero() {
		r.tr.add(op, 0, "jobs.queue_wait", "jobs", st.Created, st.Started)
	}
	var res struct {
		Table string `json:"table"`
	}
	if _, err := w.cl.getJSON(op, "api.campaign_result", base+"/"+info.ID+"/result", &res); err != nil {
		return 0, err
	}
	if op > 0 {
		w.mu.Lock()
		w.tables[op] = res.Table
		w.mu.Unlock()
	}
	return elapsed, nil
}

// runShard is the workers' fleet.WorkerConfig.Run: fleet.RunAssignment,
// timed, plus the wait since the campaign was submitted.
func (w *campaignLoad) runShard(ctx context.Context, a *fleet.Assignment) (campaign.Header, []campaign.Cell, error) {
	start := time.Now()
	h, cells, err := fleet.RunAssignment(ctx, a)
	op, _ := w.tr.context()
	w.tr.add(op, 0, "fleet.dispatch_wait", "fleet", time.Unix(0, w.submitted.Load()), start)
	w.tr.add(op, 0, "campaign.shard", "campaign", start, time.Now())
	return h, cells, err
}

// fleetTransport is the workers' fleet.WorkerConfig.HTTP transport: it
// times each worker-protocol round trip by route and counts idle polls.
type fleetTransport struct {
	w    *campaignLoad
	base http.RoundTripper
}

func (t *fleetTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	route := path.Base(req.URL.Path)
	if route == "complete" {
		// Stored before the round trip: the coordinator may finish the
		// campaign, and the client see it done, before this reply arrives.
		t.w.lastComplete.Store(start.UnixNano())
	}
	resp, err := t.base.RoundTrip(req)
	end := time.Now()
	if err != nil {
		return resp, err
	}
	switch route {
	case "lease":
		if resp.StatusCode == http.StatusNoContent {
			t.w.idle.Add(1)
		}
	case "workers":
		route = "join"
	default:
		if req.Method == http.MethodDelete {
			route = "leave"
		}
	}
	op, _ := t.w.tr.context()
	t.w.tr.add(op, 0, "fleet."+route+"_rtt", "fleet", start, end)
	return resp, nil
}

func (w *campaignLoad) finish(r *run) error {
	// The workers keep polling while the checks below run: read the
	// counters of the timed phase first.
	idle := w.idle.Load() - w.idle0
	m, err := w.cl.meta(w.srv.base)
	if err != nil {
		return err
	}
	// A fixed sample of the campaigns — the first and the last — must
	// equal the same campaign run in-process.
	ops := make([]int64, 0, len(w.tables))
	for op := range w.tables {
		ops = append(ops, op)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i] < ops[j] })
	var pick []int64
	for i := 0; i < w.sz.campaignCheck && i < len(ops); i++ {
		pick = append(pick, ops[i*(len(ops)-1)/max(1, w.sz.campaignCheck-1)])
	}
	for _, op := range pick {
		r.check(fmt.Sprintf("campaign op %d", op), w.verify(r, op))
	}
	if r.tr == nil {
		return nil
	}
	if len(ops) > 0 {
		if err := w.shadow(r, w.spec(r, ops[0])); err != nil {
			return err
		}
	}
	granted := m.Fleet.LeasesGranted - w.meta0.Fleet.LeasesGranted
	if granted > 0 {
		r.layers["fleet.useful_ratio"] = metric{Value: (m.Fleet.ShardsCompleted - w.meta0.Fleet.ShardsCompleted) / granted, N: int(granted)}
	}
	r.layers["fleet.idle_polls"] = metric{Value: float64(idle), N: 1}
	if w.secs > 0 {
		r.layers["op.cells_per_s"] = metric{Value: float64(w.cells*len(ops)) / w.secs, N: len(ops)}
	}
	r.counters(w.meta0, m)
	return nil
}

// verify re-runs op's campaign in-process and compares the tables.
func (w *campaignLoad) verify(r *run, op int64) error {
	cfg, err := resolve(w.spec(r, op))
	if err != nil {
		return err
	}
	res, err := campaign.Run(cfg)
	if err != nil {
		return err
	}
	var want strings.Builder
	if err := res.WriteTable(&want); err != nil {
		return err
	}
	if w.tables[op] != want.String() {
		return fmt.Errorf("merged /result table differs from campaign.Run")
	}
	return nil
}

// shadow replays a spread of the campaign's cells serially, first
// replicate only: DAG generation, each scheduler, and the simulator.
func (w *campaignLoad) shadow(r *run, spec campaignSpec) error {
	cfg, err := resolve(spec)
	if err != nil {
		return err
	}
	scheds, err := sched.LookupAll(cfg.Algos)
	if err != nil {
		return err
	}
	cells := campaign.Cells(cfg)
	n := min(w.sz.shadowCells, len(cells))
	for i := 0; i < n; i++ {
		c := cells[i*len(cells)/n]
		seed := campaign.ReplicateSeed(cfg.Seed, c.Shape, c.DAGSize, c.Cluster, 0)
		var g *dag.Graph
		r.tr.timed(opShadow, 0, "dag.generate", "dag", func() {
			g = dag.Generate(c.Shape, dag.DefaultGenOptions(c.DAGSize), rand.New(rand.NewSource(seed)))
		})
		p := platform.Homogeneous(c.Cluster, 1e9)
		for _, s := range scheds {
			var res *sched.Result
			r.tr.timed(opShadow, 0, "sched."+s.Name(), "sched", func() { res, err = s.Schedule(g, p) })
			if err != nil {
				return err
			}
			r.tr.timed(opShadow, 0, "sim.execute", "sim", func() { _, err = res.Execute(sim.ExecOptions{}) })
			if err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *campaignLoad) teardown() {
	if w.srv == nil {
		return
	}
	w.stop()
	w.wg.Wait()
	w.srv.close()
	w.cl.close()
	w.srv, w.cl = nil, nil
}
