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
// campaign into the result. Merged cells stream into a local JSONL
// checkpoint (the cmd/campaign format) and, optionally, a run journal in a
// persistence store, so a torn coordinator resumes without re-running
// finished shards.
package coord

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/fleet"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/persist"
)

// runNS is the persistence namespace coordinated runs journal into.
const runNS = "runs"

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
	Spec jobs.CampaignSpec
	// Shards is the number of k/n partitions to queue; 0 means four per
	// MinWorkers. Small shards are what lets a fast worker overtake a slow
	// one, and they bound the work lost when a worker dies.
	Shards int
	// MaxAttempts bounds how often one shard may be leased before the run
	// fails (0 means 3).
	MaxAttempts int
	// Checkpoint is the path of the local JSONL checkpoint the merged
	// cells stream into ("" disables). The file uses the cmd/campaign
	// format, so `campaign -merge` reads it directly.
	Checkpoint string
	// Resume loads an existing checkpoint first and skips the shards whose
	// cells are all persisted; a torn final record is cut, exactly like
	// `campaign -resume`.
	Resume bool
	// Persist, when set, journals run progress (identity header plus every
	// recorded cell) into the shared persistence store under RunID — the
	// store-backed sibling of Checkpoint, which makes a coordinator's
	// checkpoint shareable across processes pointed at one state directory.
	// With Resume, the persisted cells preload exactly like a file resume.
	Persist persist.Store
	// RunID names this run in the persistence store. Required with Persist;
	// the REST surface uses the campaign job's ID.
	RunID string
	// OnCell, when set, observes every newly recorded cell (serialized on
	// the coordinator goroutine) — the aggregate-progress hook.
	OnCell func(campaign.Cell)
	// OnShard, when set, observes every shard the coordinator marks done
	// (completed by a worker, or already covered by a resumed checkpoint)
	// with the post-transition snapshot — the event-bus hook.
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
	Job      string `json:"job,omitempty"`
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
	if cfg.Persist != nil && cfg.RunID == "" {
		return nil, fmt.Errorf("coord: persistence needs a run ID")
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

// SetOnShard installs (or replaces) the per-shard transition observer. It
// must be called before Run — the REST surface uses it to wire job progress
// and shard events to a coordinator whose job handle does not exist until
// after submission.
func (c *Coordinator) SetOnShard(fn func(ShardProgress)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cfg.OnShard = fn
}

// SetPersist installs (or replaces) the run journal. Like SetOnShard it
// must be called before Run — the REST surface names the run after the
// campaign job, whose ID does not exist until after submission.
func (c *Coordinator) SetPersist(ps persist.Store, runID string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cfg.Persist = ps
	c.cfg.RunID = runID
}

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
// factorial. It may be called once.
func (c *Coordinator) Run(ctx context.Context) (*campaign.Result, error) {
	c.mu.Lock()
	if c.started {
		c.mu.Unlock()
		return nil, fmt.Errorf("coord: Run called twice")
	}
	c.started = true
	c.mu.Unlock()
	// The cell map exists only to assemble the result; release it when the
	// run ends so a tracker holding terminal coordinators (the REST
	// campaign surface) does not pin a second copy of every cell.
	defer func() {
		c.mu.Lock()
		c.cells = nil
		c.mu.Unlock()
	}()

	cw, closeCP, err := c.openCheckpoint()
	if err != nil {
		return nil, err
	}
	defer closeCP()
	journaled, err := c.openRunJournal()
	if err != nil {
		return nil, err
	}
	if cw != nil {
		// Cells only the journal held must reach the checkpoint too, or a
		// resumed checkpoint stays short of the full factorial and
		// `campaign -merge` rejects it.
		sort.Slice(journaled, func(i, j int) bool { return journaled[i].Index < journaled[j].Index })
		for _, cell := range journaled {
			if err := cw.writer.WriteCell(cell); err != nil {
				return nil, fmt.Errorf("coord: checkpoint: %w", err)
			}
		}
	}

	// Shards whose cells all came out of the resumed checkpoint are done
	// before anything is dispatched.
	var pending []int
	for k := 1; k <= c.shards; k++ {
		if c.shardCovered(k) {
			c.setShardState(k, func(s *ShardProgress) { s.State = "done" })
			continue
		}
		pending = append(pending, k)
	}
	if len(pending) < c.shards {
		c.logf("coord: %d of %d shards already complete in checkpoint", c.shards-len(pending), c.shards)
	}

	if len(pending) > 0 {
		if err := c.dispatch(ctx, pending, cw); err != nil {
			return nil, err
		}
	}
	if cw != nil {
		if err := cw.sync(); err != nil {
			return nil, err
		}
	}
	res, err := c.result()
	if err == nil && c.cfg.Persist != nil {
		// The run is merged and complete; its journal has served its purpose.
		// Best-effort — a leftover journal only costs a header check next run.
		if derr := c.cfg.Persist.DeletePrefix(runNS, c.cfg.RunID+"/"); derr != nil {
			c.logf("coord: dropping run journal: %v", derr)
		}
	}
	return res, err
}

// runCellKey zero-pads the index so lexical key order is numeric cell order.
func runCellKey(runID string, index int) string {
	return fmt.Sprintf("%s/c/%08d", runID, index)
}

// openRunJournal prepares the store-backed run journal per Config. With
// Resume and a persisted header that matches this campaign, the journaled
// cells preload into the cell map exactly like a file resume; otherwise any
// stale record under this run ID is dropped and a fresh identity header is
// written durably, so the next resume can verify the journal belongs here.
// It returns the preloaded cells the cell map did not already hold.
func (c *Coordinator) openRunJournal() ([]campaign.Cell, error) {
	ps := c.cfg.Persist
	if ps == nil {
		return nil, nil
	}
	id := c.cfg.RunID
	if c.cfg.Resume {
		raw, ok, err := ps.Get(runNS, id+"/header")
		if err != nil {
			return nil, err
		}
		if ok {
			var h campaign.Header
			if err := json.Unmarshal(raw, &h); err != nil {
				return nil, fmt.Errorf("coord: run %s: corrupt persisted header: %w", id, err)
			}
			if err := h.Matches(c.ccfg); err != nil {
				return nil, fmt.Errorf("coord: run %s: %w (use a fresh run ID to start over)", id, err)
			}
			all, err := ps.Load(runNS)
			if err != nil {
				return nil, err
			}
			prefix := id + "/c/"
			var fresh []campaign.Cell
			c.mu.Lock()
			for k, v := range all {
				if !strings.HasPrefix(k, prefix) {
					continue
				}
				var cell campaign.Cell
				if err := json.Unmarshal(v, &cell); err != nil {
					continue // a corrupt cell just gets recomputed
				}
				if _, dup := c.cells[cell.Index]; !dup {
					c.cells[cell.Index] = cell
					c.cellsDone++
					fresh = append(fresh, cell)
				}
			}
			c.mu.Unlock()
			c.logf("coord: resuming run %s from store: %d journaled cells", id, len(fresh))
			return fresh, nil
		}
	}
	if err := ps.DeletePrefix(runNS, id+"/"); err != nil {
		return nil, err
	}
	b, err := json.Marshal(c.header)
	if err != nil {
		return nil, err
	}
	return nil, ps.PutDurable(runNS, id+"/header", b)
}

// dispatch runs the pending shards through the elastic fleet: wait for
// the worker quorum, put the shards on the pull queue, and fold verified
// completions into the cell map as they arrive. Lease expiry, stealing, and
// retirement all happen inside the manager; from here a dead worker is just
// a shard that comes back from someone else.
func (c *Coordinator) dispatch(ctx context.Context, pending []int, cw *checkpointFile) error {
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
			if err := c.recordCells(d.K, d.Cells, cw); err != nil {
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

// recordCells folds a completed shard into the cell map, appending the cells
// not already persisted to the checkpoint and firing OnCell for each.
func (c *Coordinator) recordCells(k int, cells []campaign.Cell, cw *checkpointFile) error {
	c.mu.Lock()
	var fresh []campaign.Cell
	for _, cell := range cells {
		if _, ok := c.cells[cell.Index]; ok {
			continue
		}
		c.cells[cell.Index] = cell
		c.cellsDone++
		fresh = append(fresh, cell)
	}
	c.mu.Unlock()
	for _, cell := range fresh {
		if cw != nil {
			if err := cw.writer.WriteCell(cell); err != nil {
				return fmt.Errorf("coord: checkpoint: %w", err)
			}
		}
		if ps := c.cfg.Persist; ps != nil {
			// Best-effort: a lost journal record only means recomputing the
			// cell after a crash, never a wrong result.
			if b, err := json.Marshal(cell); err == nil {
				if err := ps.Put(runNS, runCellKey(c.cfg.RunID, cell.Index), b); err != nil {
					c.logf("coord: run journal: %v", err)
				}
			}
		}
		if c.cfg.OnCell != nil {
			c.cfg.OnCell(cell)
		}
	}
	c.logf("coord: shard %d/%d complete (%d cells, %d new)", k, c.shards, len(cells), len(fresh))
	return nil
}

// setShardState applies one shard transition and fires the OnShard observer
// with the post-transition snapshot, outside the lock.
func (c *Coordinator) setShardState(k int, mut func(*ShardProgress)) {
	c.mu.Lock()
	mut(&c.shardStat[k-1])
	snap := c.shardStat[k-1]
	fn := c.cfg.OnShard
	c.mu.Unlock()
	if fn != nil {
		fn(snap)
	}
}

// result assembles the merged full-factorial result from the recorded cells
// and verifies it is complete.
func (c *Coordinator) result() (*campaign.Result, error) {
	c.mu.Lock()
	res := &campaign.Result{Algos: append([]string(nil), c.ccfg.Algos...)}
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

// checkpointFile bundles the JSONL writer with its backing file.
type checkpointFile struct {
	f      *os.File
	writer *campaign.CheckpointWriter
}

func (cf *checkpointFile) sync() error { return cf.writer.Sync() }

// openCheckpoint prepares the local checkpoint per Config: fresh, resumed
// (with the torn tail cut and the persisted cells preloaded), or disabled.
// The returned close function is safe to call on every path.
func (c *Coordinator) openCheckpoint() (*checkpointFile, func(), error) {
	if c.cfg.Checkpoint == "" {
		return nil, func() {}, nil
	}
	if c.cfg.Resume {
		f, err := os.Open(c.cfg.Checkpoint)
		switch {
		case errors.Is(err, fs.ErrNotExist):
			// Nothing to resume: fall through to a fresh checkpoint.
		case err != nil:
			return nil, nil, err
		default:
			cp, err := campaign.LoadCheckpoint(f)
			f.Close()
			if err != nil {
				return nil, nil, fmt.Errorf("%s: %w", c.cfg.Checkpoint, err)
			}
			if err := cp.Header.Matches(c.ccfg); err != nil {
				return nil, nil, fmt.Errorf("%s: %w (rerun without resume to start over)", c.cfg.Checkpoint, err)
			}
			wf, err := os.OpenFile(c.cfg.Checkpoint, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return nil, nil, err
			}
			// Cut a torn final record before appending, or the first new
			// record would be concatenated onto it and lost with it.
			if err := wf.Truncate(cp.ValidSize); err != nil {
				wf.Close()
				return nil, nil, err
			}
			for _, cell := range cp.Cells {
				c.cells[cell.Index] = cell
			}
			c.cellsDone = len(c.cells)
			c.logf("coord: resuming %s: %d cells already done", c.cfg.Checkpoint, len(cp.Cells))
			cf := &checkpointFile{f: wf, writer: campaign.ResumeCheckpointWriter(wf)}
			return cf, func() { wf.Close() }, nil
		}
	}
	f, err := os.Create(c.cfg.Checkpoint)
	if err != nil {
		return nil, nil, err
	}
	cw, err := campaign.NewCheckpointWriter(f, c.ccfg)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return &checkpointFile{f: f, writer: cw}, func() { f.Close() }, nil
}
