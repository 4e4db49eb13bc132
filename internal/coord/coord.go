// Package coord is the distributed campaign coordinator: it splits one
// campaign into k/n shards along the deterministic cell enumeration, queues
// them on an elastic worker fleet (internal/fleet), and merges the verified
// shard results into the full factorial — byte-identical to a
// single-process run, because cells depend only on (config, index), never
// on which machine computed them.
//
// Workers join the fleet and pull shards at their own pace, so a fast
// machine takes more of the campaign than a slow one. Liveness is the
// fleet's business: a worker that misses heartbeats is retired and a shard
// held past its lease is stolen back, bounded by a per-shard attempt
// budget. Every completion is verified against the campaign identity header
// before it is merged, so no worker can smuggle cells of a different
// campaign into the result.
//
// A coordinator keeps no state of its own: Run takes the cells a caller
// already holds and skips the shards they cover, and hands every newly
// merged cell to Config.OnCell. Where cells are kept between runs is the
// caller's business — the CLIs keep a JSONL checkpoint
// (campaign.OpenCheckpoint), the REST surface a run journal in its
// persistence store.
package coord

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/fleet"
	"repro/internal/obs"
)

// Config describes one coordinated campaign.
type Config struct {
	// Fleet is the worker fleet the shards are queued on (required): joined
	// workers lease them at their own pace, so a fast machine naturally
	// takes more of the campaign than a slow one.
	Fleet *fleet.Manager
	// MinWorkers makes the run wait until that many workers have joined
	// before queueing the first shard (0 means 1).
	MinWorkers int
	// Spec is the campaign to run. Spec.Shard must be empty — sharding is
	// the coordinator's job.
	Spec campaign.Spec
	// Shards is the number of k/n partitions to queue; 0 means four per
	// MinWorkers. Small shards are what lets a fast worker overtake a slow
	// one, and they bound the work lost when a worker dies.
	Shards int
	// MaxAttempts bounds how often one shard may be leased before the run
	// fails (0 means 3).
	MaxAttempts int
	// OnCell, when set, receives every newly merged cell (serialized on
	// Run's goroutine, never a cell Run was given) — where a caller keeps
	// the run's cells for a later resume. An error aborts the run.
	OnCell func(campaign.Cell) error
	// OnShard, when set, observes every shard the coordinator marks done
	// (completed by a worker, or already covered by the cells Run was
	// given) with the post-transition snapshot — the event-bus hook. Like
	// OnCell it runs on Run's goroutine.
	OnShard func(ShardProgress)
	// Logf, when set, receives human-readable progress lines.
	Logf func(format string, args ...any)
	// Metrics, when set, receives the completed-shard counter and the
	// per-shard wall-time histogram (jed_coord_*). Nil is fine: the handles
	// still work, they just aren't exported anywhere.
	Metrics *obs.Registry
	// Trace, when set, is propagated to every worker through the lease
	// assignment and collects one span per completed shard, so `jedcoord
	// -v` can print where the run's wall time went.
	Trace *obs.Trace
}

// ShardProgress is the state of one shard in a Progress snapshot.
type ShardProgress struct {
	Shard    int    `json:"shard"` // 1-based k of k/n
	State    string `json:"state"` // pending | running | done
	Worker   string `json:"worker,omitempty"`
	Attempts int    `json:"attempts"`
}

// WorkerProgress is the state of one fleet worker in a Progress snapshot.
type WorkerProgress struct {
	URL   string `json:"url"`   // the worker's fleet ID, plus its name in parentheses
	State string `json:"state"` // active | draining
}

// Progress is a point-in-time snapshot of a coordinated run.
type Progress struct {
	Shards     int              `json:"shards"`
	ShardsDone int              `json:"shards_done"`
	Cells      int              `json:"cells"`
	CellsDone  int              `json:"cells_done"`
	Shard      []ShardProgress  `json:"shard"`
	Workers    []WorkerProgress `json:"workers"`
}

// Coordinator runs one coordinated campaign. Create with New, run once with
// Run; Progress may be read concurrently while the run is in flight.
type Coordinator struct {
	cfg    Config
	ccfg   campaign.Config
	header campaign.Header
	specs  []campaign.CellSpec
	shards int

	mu        sync.Mutex
	shardStat []ShardProgress       // index k-1
	cells     map[int]campaign.Cell // released once Run returns
	cellsDone int
	started   bool
	fleetRun  *fleet.Run // live shard queue while the run is in flight

	// Metric handles, resolved once in New so series exist (at zero)
	// before the first shard completes. Nil-registry safe.
	mShardSeconds *obs.Histogram
	mDispatched   *obs.Counter
}

// New validates the configuration and resolves the campaign. The spec is
// resolved with the same code path workers use, so the coordinator's idea
// of the cell enumeration and identity header matches theirs exactly.
func New(cfg Config) (*Coordinator, error) {
	if cfg.Fleet == nil {
		return nil, fmt.Errorf("coord: no worker fleet")
	}
	if cfg.Spec.Shard != "" {
		return nil, fmt.Errorf("coord: spec must not set shard %q (sharding is the coordinator's job)", cfg.Spec.Shard)
	}
	ccfg, _, err := cfg.Spec.Resolve()
	if err != nil {
		return nil, err
	}
	if cfg.MinWorkers < 1 {
		cfg.MinWorkers = 1
	}
	if cfg.Shards == 0 {
		cfg.Shards = 4 * cfg.MinWorkers
	}
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("coord: bad shard count %d", cfg.Shards)
	}
	if cfg.MaxAttempts == 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.MaxAttempts < 1 {
		return nil, fmt.Errorf("coord: bad attempt budget %d", cfg.MaxAttempts)
	}
	c := &Coordinator{
		cfg:    cfg,
		ccfg:   ccfg,
		header: campaign.NewHeader(ccfg),
		specs:  campaign.Cells(ccfg),
		shards: cfg.Shards,
		cells:  map[int]campaign.Cell{},
	}
	if c.shards > len(c.specs) {
		// More shards than cells would queue provably empty shards.
		c.shards = len(c.specs)
	}
	c.mShardSeconds = cfg.Metrics.Histogram("jed_coord_shard_seconds",
		"Wall time of one completed shard dispatch, in seconds.", obs.DefBuckets())
	c.mDispatched = cfg.Metrics.Counter("jed_coord_shards_dispatched_total",
		"Shards completed by fleet workers and merged.")
	c.shardStat = make([]ShardProgress, c.shards)
	for k := 1; k <= c.shards; k++ {
		c.shardStat[k-1] = ShardProgress{Shard: k, State: "pending"}
	}
	return c, nil
}

// Header returns the campaign identity every completed shard is checked
// against.
func (c *Coordinator) Header() campaign.Header { return c.header }

// Cells returns the size of the full factorial.
func (c *Coordinator) Cells() int { return len(c.specs) }

// Progress snapshots the run. The worker list reflects the fleet's live
// registry (workers join and leave at will) and the running shard states
// come from the fleet's lease table.
func (c *Coordinator) Progress() Progress {
	c.mu.Lock()
	if run := c.fleetRun; run != nil {
		for _, s := range run.Snapshot() {
			st := &c.shardStat[s.K-1]
			if st.State == "done" {
				continue // completion already recorded; lease table may lag
			}
			st.State, st.Worker, st.Attempts = s.State, s.Worker, s.Attempts
		}
	}
	p := Progress{
		Shards:    c.shards,
		Cells:     len(c.specs),
		CellsDone: c.cellsDone,
		Shard:     append([]ShardProgress(nil), c.shardStat...),
	}
	for _, s := range c.shardStat {
		if s.State == "done" {
			p.ShardsDone++
		}
	}
	c.mu.Unlock()
	for _, w := range c.cfg.Fleet.Workers() {
		name := w.ID
		if w.Name != "" {
			name = fmt.Sprintf("%s (%s)", w.ID, w.Name)
		}
		p.Workers = append(p.Workers, WorkerProgress{URL: name, State: w.State})
	}
	return p
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// Run executes the coordinated campaign and returns the merged full
// factorial. done holds the cells the caller already has (a resumed
// checkpoint or run journal): they join the result as they are, and only
// the shards they do not fully cover are queued. It may be called once.
func (c *Coordinator) Run(ctx context.Context, done []campaign.Cell) (*campaign.Result, error) {
	c.mu.Lock()
	if c.started {
		c.mu.Unlock()
		return nil, fmt.Errorf("coord: Run called twice")
	}
	c.started = true
	for _, cell := range done {
		if cell.Index < 0 || cell.Index >= len(c.specs) {
			c.mu.Unlock()
			return nil, fmt.Errorf("coord: resumed cell %d outside the %d-cell factorial", cell.Index, len(c.specs))
		}
		c.cells[cell.Index] = c.shareAlgos(cell)
	}
	c.cellsDone = len(c.cells)
	c.mu.Unlock()
	// The cell map exists only to assemble the result; release it when the
	// run ends so a tracker holding terminal coordinators (the REST
	// campaign surface) does not pin a second copy of every cell.
	defer func() {
		c.mu.Lock()
		c.cells = nil
		c.mu.Unlock()
	}()

	// Shards whose cells the caller already holds are done before anything
	// is dispatched.
	var pending []int
	for k := 1; k <= c.shards; k++ {
		if c.shardCovered(k) {
			c.setShardState(k, func(s *ShardProgress) { s.State = "done" })
			continue
		}
		pending = append(pending, k)
	}
	if len(pending) < c.shards {
		c.logf("coord: %d of %d shards already complete", c.shards-len(pending), c.shards)
	}

	if len(pending) > 0 {
		if err := c.dispatch(ctx, pending); err != nil {
			return nil, err
		}
	}
	return c.result()
}

// dispatch runs the pending shards through the elastic fleet: wait for
// the worker quorum, put the shards on the pull queue, and fold verified
// completions into the cell map as they arrive. Lease expiry, stealing, and
// retirement all happen inside the manager; from here a dead worker is just
// a shard that comes back from someone else.
func (c *Coordinator) dispatch(ctx context.Context, pending []int) error {
	m := c.cfg.Fleet
	if n := c.cfg.MinWorkers; m.ActiveWorkers() < n {
		c.logf("coord: waiting for %d fleet workers (have %d)", n, m.ActiveWorkers())
		if err := m.WaitWorkers(ctx, n); err != nil {
			return fmt.Errorf("coord: waiting for %d workers: %w", n, err)
		}
	}
	run, err := m.StartRun(fleet.RunConfig{
		Spec:        c.cfg.Spec,
		Shards:      c.shards,
		Pending:     pending,
		Header:      c.header,
		CellCount:   len(c.specs),
		MaxAttempts: c.cfg.MaxAttempts,
		Trace:       c.cfg.Trace.ID(),
	})
	if err != nil {
		return err
	}
	defer run.End()
	c.mu.Lock()
	c.fleetRun = run
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		c.fleetRun = nil
		c.mu.Unlock()
	}()
	c.logf("coord: %d shards queued for the fleet (%d workers active)",
		len(pending), m.ActiveWorkers())

	// The ticker drives lease/heartbeat expiry while every worker is busy
	// (or gone): worker traffic expires lazily, a silent fleet would not.
	tick := m.HeartbeatInterval() / 2
	if lt := m.LeaseTTL() / 4; lt < tick {
		tick = lt
	}
	if tick < 50*time.Millisecond {
		tick = 50 * time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()

	remaining := len(pending)
	for remaining > 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ticker.C:
			m.Tick()
		case d := <-run.Completions():
			if d.Err != nil {
				return d.Err
			}
			if err := c.recordCells(d.K, d.Cells); err != nil {
				return err
			}
			c.mDispatched.Inc()
			c.mShardSeconds.Observe(d.Elapsed.Seconds())
			c.cfg.Trace.AddSpan(fmt.Sprintf("shard %d/%d %s", d.K, c.shards, d.Worker),
				time.Now().Add(-d.Elapsed), d.Elapsed)
			c.setShardState(d.K, func(s *ShardProgress) {
				s.State, s.Worker = "done", d.Worker
			})
			remaining--
		}
	}
	return nil
}

// shardCovered reports whether every cell of shard k is already recorded.
func (c *Coordinator) shardCovered(k int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	sh := campaign.Shard{K: k, N: c.shards}
	for _, spec := range c.specs {
		if !sh.Includes(spec.Index) {
			continue
		}
		if _, ok := c.cells[spec.Index]; !ok {
			return false
		}
	}
	return true
}

// recordCells folds a completed shard into the cell map and hands the cells
// it did not already hold to OnCell.
func (c *Coordinator) recordCells(k int, cells []campaign.Cell) error {
	c.mu.Lock()
	var fresh []campaign.Cell
	for _, cell := range cells {
		if _, ok := c.cells[cell.Index]; ok {
			continue
		}
		cell = c.shareAlgos(cell)
		c.cells[cell.Index] = cell
		c.cellsDone++
		fresh = append(fresh, cell)
	}
	c.mu.Unlock()
	if c.cfg.OnCell != nil {
		for _, cell := range fresh {
			if err := c.cfg.OnCell(cell); err != nil {
				return fmt.Errorf("coord: cell %s: %w", cell.Key(), err)
			}
		}
	}
	c.logf("coord: shard %d/%d complete (%d cells, %d new)", k, c.shards, len(cells), len(fresh))
	return nil
}

// shareAlgos points the cell's Algos at the campaign's own list when the
// two are equal. Every cell decoded from a worker or a journal otherwise
// keeps its own copy, and a finished campaign's result holds all of them.
func (c *Coordinator) shareAlgos(cell campaign.Cell) campaign.Cell {
	if slices.Equal(cell.Algos, c.ccfg.Algos) {
		cell.Algos = c.ccfg.Algos
	}
	return cell
}

// setShardState applies one shard transition and fires the OnShard observer
// with the post-transition snapshot, outside the lock.
func (c *Coordinator) setShardState(k int, mut func(*ShardProgress)) {
	c.mu.Lock()
	mut(&c.shardStat[k-1])
	snap := c.shardStat[k-1]
	c.mu.Unlock()
	if c.cfg.OnShard != nil {
		c.cfg.OnShard(snap)
	}
}

// result assembles the merged full-factorial result from the recorded cells
// and verifies it is complete.
func (c *Coordinator) result() (*campaign.Result, error) {
	c.mu.Lock()
	res := &campaign.Result{
		Algos: append([]string(nil), c.ccfg.Algos...),
		Cells: make([]campaign.Cell, 0, len(c.cells)),
	}
	for _, cell := range c.cells {
		res.Cells = append(res.Cells, cell)
	}
	c.mu.Unlock()
	sort.Slice(res.Cells, func(i, j int) bool { return res.Cells[i].Index < res.Cells[j].Index })
	for _, cell := range res.Cells {
		res.Total += cell.Runs
	}
	if err := res.Complete(len(c.specs)); err != nil {
		return nil, err
	}
	return res, nil
}
