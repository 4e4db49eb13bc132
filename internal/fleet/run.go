package fleet

import (
	"fmt"
	"time"

	"repro/internal/campaign"
	"repro/internal/jobs"
)

// RunConfig describes one campaign's shard queue. The coordinator resolves
// the spec, enumerates the cells, and decides which shards still need to
// run (resume skips the ones already checkpointed); the fleet only hands
// them out and verifies what comes back.
type RunConfig struct {
	// Spec is the shardless campaign spec; assignments carry it with Shard
	// set to the leased "k/n".
	Spec jobs.CampaignSpec
	// Shards is the n of k/n.
	Shards int
	// Pending lists the 1-based shard numbers still to execute.
	Pending []int
	// Header is the campaign identity every completion is verified against.
	Header campaign.Header
	// CellCount is the full factorial size, bounding cell indices.
	CellCount int
	// MaxAttempts bounds how often one shard may be leased before the run
	// fails (0 means 3). Lease expiry and verification failure burn an
	// attempt; a discarded duplicate does not.
	MaxAttempts int
	// Trace is the coordinator's request-trace ID. It rides along on every
	// lease assignment so workers can stamp their logs with it, and comes
	// back on each completion.
	Trace string
}

// ShardDone is one delivery on a Run's completion channel: a verified shard
// with its cells, or the terminal error that failed the run.
type ShardDone struct {
	K      int
	Worker string
	Cells  []campaign.Cell
	Err    error
	// Elapsed is the wall time from lease grant to verified completion —
	// the fleet's per-shard latency measure.
	Elapsed time.Duration
	// Trace echoes the trace ID the completing worker reported.
	Trace string
}

// ShardState mirrors the coordinator's per-shard progress view.
type ShardState struct {
	K        int
	State    string // pending | running | done
	Worker   string
	Attempts int
}

// shardTask is one queued shard plus its attempt history.
type shardTask struct {
	k        int
	attempts int
}

// shardLease is one granted shard: who holds it and until when.
type shardLease struct {
	id       string
	run      *Run
	k        int
	worker   string
	granted  time.Time
	expires  time.Time
	attempts int
}

// Run is the shard queue of one campaign. All state is guarded by the
// owning Manager's mutex.
type Run struct {
	id          string
	m           *Manager
	spec        jobs.CampaignSpec
	shards      int
	header      campaign.Header
	cellCount   int
	maxAttempts int
	trace       string

	queue       []shardTask
	leases      map[string]*shardLease // lease ID -> lease
	done        map[int]bool
	remaining   int
	ended       bool
	endCh       chan struct{} // closed when the run ends
	completions chan ShardDone
}

// StartRun opens a shard queue for the campaign; workers pulling leases
// will start receiving its shards immediately. The returned Run's
// Completions channel delivers each shard exactly once (or one terminal
// error), and is buffered to the full shard count so the manager never
// blocks on a slow consumer.
func (m *Manager) StartRun(rc RunConfig) (*Run, error) {
	if rc.Shards < 1 {
		return nil, fmt.Errorf("fleet: bad shard count %d", rc.Shards)
	}
	if rc.MaxAttempts == 0 {
		rc.MaxAttempts = 3
	}
	if rc.MaxAttempts < 1 {
		return nil, fmt.Errorf("fleet: bad attempt budget %d", rc.MaxAttempts)
	}
	if rc.Spec.Shard != "" {
		return nil, fmt.Errorf("fleet: spec must not set shard %q", rc.Spec.Shard)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.runSeq++
	r := &Run{
		id:          fmt.Sprintf("r%d", m.runSeq),
		m:           m,
		spec:        rc.Spec,
		shards:      rc.Shards,
		header:      rc.Header,
		cellCount:   rc.CellCount,
		maxAttempts: rc.MaxAttempts,
		trace:       rc.Trace,
		leases:      map[string]*shardLease{},
		done:        map[int]bool{},
		remaining:   len(rc.Pending),
		endCh:       make(chan struct{}),
		completions: make(chan ShardDone, len(rc.Pending)+1),
	}
	for _, k := range rc.Pending {
		if k < 1 || k > rc.Shards {
			return nil, fmt.Errorf("fleet: pending shard %d outside 1..%d", k, rc.Shards)
		}
		r.queue = append(r.queue, shardTask{k: k})
	}
	m.runs = append(m.runs, r)
	m.logf("fleet: run %s opened (%d shards pending)", r.id, len(rc.Pending))
	m.event(Event{Type: "run_start", Run: r.id, Shards: rc.Shards})
	m.wakeLocked()
	return r, nil
}

// ID returns the manager-assigned run identifier.
func (r *Run) ID() string { return r.id }

// Completions is the delivery channel: one ShardDone per verified shard,
// or a single ShardDone carrying the terminal error.
func (r *Run) Completions() <-chan ShardDone { return r.completions }

// Snapshot reports per-shard progress for the pending shards.
func (r *Run) Snapshot() []ShardState {
	r.m.mu.Lock()
	defer r.m.mu.Unlock()
	states := map[int]ShardState{}
	for _, t := range r.queue {
		states[t.k] = ShardState{K: t.k, State: "pending", Attempts: t.attempts}
	}
	for _, l := range r.leases {
		states[l.k] = ShardState{K: l.k, State: "running", Worker: l.worker, Attempts: l.attempts}
	}
	for k := range r.done {
		states[k] = ShardState{K: k, State: "done"}
	}
	out := make([]ShardState, 0, len(states))
	for k := 1; k <= r.shards; k++ {
		if s, ok := states[k]; ok {
			out = append(out, s)
		}
	}
	return out
}

// End closes the queue: outstanding leases become inert (their completions
// are discarded) and no further shards are handed out. Idempotent; safe
// after the run finished on its own.
func (r *Run) End() {
	r.m.mu.Lock()
	defer r.m.mu.Unlock()
	r.m.endRunLocked(r)
}

func (m *Manager) endRunLocked(r *Run) {
	if r.ended {
		return
	}
	r.ended = true
	close(r.endCh)
	for _, l := range r.leases {
		if w, ok := m.workers[l.worker]; ok && w.lease == l {
			w.lease = nil
		}
	}
	r.leases = map[string]*shardLease{}
	r.queue = nil
	for i, run := range m.runs {
		if run == r {
			m.runs = append(m.runs[:i], m.runs[i+1:]...)
			break
		}
	}
	m.logf("fleet: run %s closed", r.id)
	m.event(Event{Type: "run_end", Run: r.id})
}

// fail ends the run with a terminal error on the completion channel.
func (r *Run) fail(err error) {
	r.m.mu.Lock()
	defer r.m.mu.Unlock()
	r.failLocked(err)
}

// failLocked is fail with the manager lock held.
func (r *Run) failLocked(err error) {
	if r.ended {
		return
	}
	r.completions <- ShardDone{Err: err}
	r.m.endRunLocked(r)
}

// Assignment is one leased shard, as sent to the worker: the campaign spec
// with Shard set, plus the lease identity the completion must echo.
type Assignment struct {
	Run      string            `json:"run"`
	Lease    string            `json:"lease"`
	Shard    int               `json:"shard"`  // k
	Shards   int               `json:"shards"` // n
	Spec     jobs.CampaignSpec `json:"spec"`
	LeaseTTL float64           `json:"lease_ttl_seconds"`
	// Trace is the coordinated run's trace ID; the worker stamps it on its
	// logs and echoes it in the completion report.
	Trace string `json:"trace,omitempty"`
}

// Lease hands the next unowned shard to the worker — the pull that makes
// work stealing automatic. nil with a nil error means no work is available
// (queues empty, or the worker is draining). A lease request is proof of
// life, so it also renews the worker's registration.
func (m *Manager) Lease(workerID string) (*Assignment, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	a, _, err := m.leaseLocked(workerID)
	return a, err
}

// leaseLocked is Lease with the manager lock held; it also returns the run
// the assignment belongs to.
func (m *Manager) leaseLocked(workerID string) (*Assignment, *Run, error) {
	m.expireLocked(m.now())
	w, ok := m.workers[workerID]
	if !ok {
		return nil, nil, ErrUnknownWorker
	}
	w.lastSeen = m.now()
	if w.draining {
		return nil, nil, nil
	}
	if l := w.lease; l != nil {
		// A worker asking for new work while we think it still holds a
		// shard has abandoned it (crashed loop, lost response): requeue.
		w.lease = nil
		m.requeueLocked(l, false)
	}
	for _, r := range m.runs {
		if len(r.queue) == 0 {
			continue
		}
		t := r.queue[0]
		r.queue = r.queue[1:]
		m.leaseSeq++
		l := &shardLease{
			id:       fmt.Sprintf("l%d", m.leaseSeq),
			run:      r,
			k:        t.k,
			worker:   w.id,
			granted:  m.now(),
			expires:  m.now().Add(m.cfg.LeaseTTL),
			attempts: t.attempts + 1,
		}
		r.leases[l.id] = l
		w.lease = l
		m.stats.LeasesGranted++
		spec := r.spec
		spec.Shard = fmt.Sprintf("%d/%d", t.k, r.shards)
		m.logf("fleet: shard %s of %s -> worker %s (lease %s, attempt %d)",
			spec.Shard, r.id, w.id, l.id, l.attempts)
		m.event(Event{Type: "lease", Worker: w.id, Run: r.id, Shard: t.k, Shards: r.shards})
		return &Assignment{
			Run: r.id, Lease: l.id, Shard: t.k, Shards: r.shards,
			Spec:     spec,
			LeaseTTL: m.cfg.LeaseTTL.Seconds(),
			Trace:    r.trace,
		}, r, nil
	}
	return nil, nil, nil
}

// requeueLocked returns a leased shard to the front of its run's queue (a
// reclaimed shard should be picked up before untouched ones). stolen marks
// the reassigned-while-healthy case for the counters. A shard that already
// burned its attempt budget fails the whole run instead.
func (m *Manager) requeueLocked(l *shardLease, stolen bool) {
	r := l.run
	delete(r.leases, l.id)
	if r.ended || r.done[l.k] {
		return
	}
	m.stats.LeasesExpired++
	if stolen {
		m.stats.ShardsStolen++
		m.logf("fleet: shard %d/%d of %s stolen from %s (lease %s expired)",
			l.k, r.shards, r.id, l.worker, l.id)
		m.event(Event{Type: "steal", Worker: l.worker, Run: r.id, Shard: l.k, Shards: r.shards})
	} else {
		m.event(Event{Type: "requeue", Worker: l.worker, Run: r.id, Shard: l.k, Shards: r.shards})
	}
	if l.attempts >= r.maxAttempts {
		r.failLocked(fmt.Errorf("fleet: shard %d/%d failed after %d attempts (last lease %s on %s expired)",
			l.k, r.shards, l.attempts, l.id, l.worker))
		return
	}
	r.queue = append([]shardTask{{k: l.k, attempts: l.attempts}}, r.queue...)
	m.wakeLocked()
}

// CompleteRequest is a worker reporting one finished shard.
type CompleteRequest struct {
	Run    string          `json:"run"`
	Lease  string          `json:"lease"`
	Shard  int             `json:"shard"`
	Header campaign.Header `json:"header"`
	Cells  []campaign.Cell `json:"cells"`
	// Trace echoes the Assignment's trace ID back to the coordinator.
	Trace string `json:"trace,omitempty"`
}

// CompleteResponse tells the worker what happened to its result. Accepted
// false with a reason is not an error: the shard was already completed by
// someone else (a stolen lease racing its original holder) or the run
// ended — the worker just moves on.
type CompleteResponse struct {
	Accepted bool   `json:"accepted"`
	Reason   string `json:"reason,omitempty"`
}

// Complete verifies and records one finished shard. The first verified
// result for a shard wins, regardless of whether the reporting lease has
// expired meanwhile; later duplicates are discarded. A result failing the
// campaign-identity or cell-bounds check is an error (the fleet's version
// of the coordinator's header guard) and requeues the shard.
func (m *Manager) Complete(workerID string, req CompleteRequest) (CompleteResponse, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.expireLocked(m.now())
	w, ok := m.workers[workerID]
	if !ok {
		return CompleteResponse{}, ErrUnknownWorker
	}
	w.lastSeen = m.now()
	var r *Run
	for _, run := range m.runs {
		if run.id == req.Run {
			r = run
			break
		}
	}
	if r == nil {
		return CompleteResponse{Reason: fmt.Sprintf("run %s ended", req.Run)}, nil
	}
	if req.Shard < 1 || req.Shard > r.shards {
		return CompleteResponse{}, fmt.Errorf("fleet: shard %d outside 1..%d", req.Shard, r.shards)
	}
	if r.done[req.Shard] {
		m.stats.DuplicatesDiscarded++
		if w.lease != nil && w.lease.run == r && w.lease.k == req.Shard {
			delete(r.leases, w.lease.id)
			w.lease = nil
		}
		m.logf("fleet: duplicate completion of shard %d/%d of %s by %s discarded",
			req.Shard, r.shards, r.id, w.id)
		m.event(Event{Type: "duplicate", Worker: w.id, Run: r.id, Shard: req.Shard, Shards: r.shards})
		return CompleteResponse{Reason: "shard already complete (first verified result won)"}, nil
	}
	if err := m.verifyLocked(r, req); err != nil {
		// The result is unusable; if this worker held the live lease, the
		// shard goes back to the queue with the attempt burned.
		if w.lease != nil && w.lease.run == r && w.lease.k == req.Shard {
			l := w.lease
			w.lease = nil
			m.requeueLocked(l, false)
		}
		return CompleteResponse{}, err
	}
	// Accept: drop every live lease on this shard — the holder's own, and a
	// thief's still in flight (its eventual completion becomes a duplicate).
	// The reporting worker's own lease (when still live) dates the shard's
	// wall time; a completion whose lease already expired reports zero.
	var elapsed time.Duration
	for id, l := range r.leases {
		if l.k != req.Shard {
			continue
		}
		if l.worker == w.id {
			elapsed = m.now().Sub(l.granted)
		}
		if lw, ok := m.workers[l.worker]; ok && lw.lease == l {
			lw.lease = nil
		}
		delete(r.leases, id)
	}
	for i, t := range r.queue {
		if t.k == req.Shard {
			r.queue = append(r.queue[:i], r.queue[i+1:]...)
			break
		}
	}
	r.done[req.Shard] = true
	r.remaining--
	w.shardsDone++
	m.stats.ShardsCompleted++
	m.logf("fleet: shard %d/%d of %s completed by %s (%d cells, %d shards left)",
		req.Shard, r.shards, r.id, w.id, len(req.Cells), r.remaining)
	m.event(Event{Type: "complete", Worker: w.id, Run: r.id, Shard: req.Shard, Shards: r.shards})
	r.completions <- ShardDone{K: req.Shard, Worker: w.id, Cells: req.Cells,
		Elapsed: elapsed, Trace: req.Trace}
	if r.remaining == 0 {
		m.endRunLocked(r)
	}
	return CompleteResponse{Accepted: true}, nil
}

// verifyLocked is the identity and bounds guard on a completion: the header
// must match the campaign exactly, and the cells must be precisely the
// shard's slice of the enumeration — no more, no less, no strays.
func (m *Manager) verifyLocked(r *Run, req CompleteRequest) error {
	if err := req.Header.Equal(r.header); err != nil {
		return err
	}
	want := 0
	if req.Shard <= r.cellCount {
		want = (r.cellCount-req.Shard)/r.shards + 1
	}
	if len(req.Cells) != want {
		return fmt.Errorf("fleet: shard %d/%d returned %d cells, want %d",
			req.Shard, r.shards, len(req.Cells), want)
	}
	seen := map[int]bool{}
	for _, cell := range req.Cells {
		if cell.Index < 0 || cell.Index >= r.cellCount || cell.Index%r.shards != req.Shard-1 {
			return fmt.Errorf("fleet: cell %d outside shard %d/%d", cell.Index, req.Shard, r.shards)
		}
		if seen[cell.Index] {
			return fmt.Errorf("fleet: cell %d duplicated within shard %d/%d", cell.Index, req.Shard, r.shards)
		}
		seen[cell.Index] = true
	}
	return nil
}
