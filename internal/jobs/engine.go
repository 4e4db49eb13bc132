// Package jobs is the asynchronous job engine behind long-running work on
// the REST surface: a bounded worker pool executing submitted functions,
// with job states (pending → running → done/failed/cancelled), monotonic
// progress counters, and context-based cancellation. HTTP handlers submit
// work and return immediately; clients poll the job until it reaches a
// terminal state and then fetch the result.
//
// The engine is generic — a job is any func(ctx, *Job) (any, error). The
// API server runs every campaign on it as a coordinated run over a worker
// fleet; campaign.go holds the campaign spec and outcome those jobs share.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// State is a job's lifecycle phase.
type State string

// The job lifecycle: Pending → Running → one of the terminal states.
// Cancellation can also strike a job while it is still queued.
const (
	Pending   State = "pending"
	Running   State = "running"
	Done      State = "done"
	Failed    State = "failed"
	Cancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == Done || s == Failed || s == Cancelled
}

// Fn is the work a job runs. It must honor ctx — returning promptly with
// ctx.Err() (or an error wrapping it) once cancelled — and may report
// progress through the job's SetTotal/Advance.
type Fn func(ctx context.Context, j *Job) (any, error)

// Observer receives job lifecycle notifications: change is "submitted",
// "started", "progress", or the terminal state name ("done", "failed",
// "cancelled"). Like the journal, it is captured per job at submission time
// and always invoked outside the job's lock — it may call Status freely but
// must not block for long.
type Observer func(j *Job, change string)

// Status is a point-in-time snapshot of a job, safe to hold after the job
// moved on.
type Status struct {
	ID    string
	Kind  string
	State State
	// Done and Total are the progress counters ("cells completed" for
	// campaigns); Total 0 means the job has no known extent.
	Done, Total int
	// Err is the failure or cancellation cause, empty otherwise.
	Err                        string
	Created, Started, Finished time.Time
}

// Job is one unit of asynchronous work tracked by an Engine.
type Job struct {
	id       string
	kind     string
	fn       Fn
	meta     []byte   // opaque submission descriptor, persisted for recovery
	journal  Journal  // engine journal at submission time; nil = no journaling
	observer Observer // engine observer at submission time; nil = none
	ctx      context.Context
	cancel   context.CancelFunc

	mu                         sync.Mutex
	state                      State
	done, total                int
	err                        error
	result                     any
	created, started, finished time.Time
	finishedCh                 chan struct{}
}

// ID returns the engine-assigned identifier ("j1", "j2", ...).
func (j *Job) ID() string { return j.id }

// Meta returns the opaque submission descriptor attached by SubmitWithMeta
// (nil otherwise). Callers must not mutate it.
func (j *Job) Meta() []byte { return j.meta }

// Status snapshots the job.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID: j.id, Kind: j.kind, State: j.state,
		Done: j.done, Total: j.total,
		Created: j.created, Started: j.started, Finished: j.finished,
	}
	if j.err != nil {
		st.Err = j.err.Error()
	}
	return st
}

// Result returns the job's return value; ok is false until the job is Done.
func (j *Job) Result() (any, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.state == Done
}

// SetTotal sets the progress extent.
func (j *Job) SetTotal(total int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.total = total
}

// Advance increments the progress counter by n.
func (j *Job) Advance(n int) {
	j.mu.Lock()
	j.done += n
	j.mu.Unlock()
	j.notify("progress")
}

// notify fires the observer, if any. Callers must not hold j.mu.
func (j *Job) notify(change string) {
	if j.observer != nil {
		j.observer(j, change)
	}
}

// Cancel requests cancellation: a queued job is cancelled immediately, a
// running one has its context cancelled and finishes as Cancelled when its
// Fn returns. Terminal jobs are unaffected. Cancel is idempotent.
func (j *Job) Cancel() {
	j.cancel()
	j.mu.Lock()
	finished := false
	if j.state == Pending {
		j.state = Cancelled
		j.err = context.Canceled
		j.finished = time.Now()
		finished = true
	}
	j.mu.Unlock()
	if finished {
		if j.journal != nil {
			j.journal.JobFinished(j)
		}
		close(j.finishedCh)
		j.notify(string(Cancelled))
	}
}

// Wait blocks until the job reaches a terminal state or ctx expires; the
// error is ctx's in the latter case, nil otherwise.
func (j *Job) Wait(ctx context.Context) error {
	select {
	case <-j.finishedCh:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// run executes the job on a worker goroutine.
func (j *Job) run() {
	j.mu.Lock()
	if j.state != Pending { // cancelled while queued; Cancel closes finishedCh
		j.mu.Unlock()
		return
	}
	j.state = Running
	j.started = time.Now()
	j.mu.Unlock()
	j.notify("started")

	result, err := j.fn(j.ctx, j)

	j.mu.Lock()
	switch {
	case err == nil:
		j.state, j.result = Done, result
	case errors.Is(err, context.Canceled) || j.ctx.Err() != nil:
		j.state, j.err = Cancelled, err
	default:
		j.state, j.err = Failed, err
	}
	terminal := j.state
	j.finished = time.Now()
	j.mu.Unlock()
	// Journal the terminal transition after unlocking: the journal reads
	// the job's status itself, and a durable write has no place under j.mu.
	// Wait returns only after it: a job a caller saw finish is on record
	// as finished.
	if j.journal != nil {
		j.journal.JobFinished(j)
	}
	close(j.finishedCh)
	j.notify(string(terminal))
}

// Engine runs submitted jobs on a fixed pool of worker goroutines. The
// submission queue is unbounded — Submit never blocks, so an HTTP handler
// can always accept a job and answer 202.
type Engine struct {
	mu       sync.Mutex
	cond     *sync.Cond
	seq      int
	retain   int
	jobs     map[string]*Job
	order    []*Job
	queue    []*Job
	closed   bool
	journal  Journal  // nil = no persistence
	observer Observer // nil = no lifecycle notifications
	wg       sync.WaitGroup

	evictions atomic.Int64
}

// NewEngine starts an engine with the given worker count (0 means
// GOMAXPROCS).
func NewEngine(workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	e := &Engine{jobs: map[string]*Job{}}
	e.cond = sync.NewCond(&e.mu)
	e.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go e.worker()
	}
	return e
}

// Submit queues a job. total is the progress extent if known up front (0
// otherwise); kind labels the job family ("campaign"). Submission after
// Close returns an already-failed job rather than panicking, so shutdown
// races stay harmless.
func (e *Engine) Submit(kind string, total int, fn Fn) *Job {
	return e.SubmitWithMeta(kind, total, nil, fn)
}

// SubmitWithMeta is Submit with an opaque descriptor attached to the job:
// what the persistence journal stores so an interrupted job can be
// re-submitted after a restart (the API server attaches the campaign
// request JSON).
func (e *Engine) SubmitWithMeta(kind string, total int, meta []byte, fn Fn) *Job {
	ctx, cancel := context.WithCancel(context.Background())
	j := &Job{
		kind: kind, fn: fn, meta: meta, ctx: ctx, cancel: cancel,
		state: Pending, total: total,
		created:    time.Now(),
		finishedCh: make(chan struct{}),
	}
	e.mu.Lock()
	e.seq++
	j.id = fmt.Sprintf("j%d", e.seq)
	j.journal = e.journal
	j.observer = e.observer
	e.jobs[j.id] = j
	e.order = append(e.order, j)
	if e.closed {
		e.mu.Unlock()
		j.mu.Lock()
		j.state = Failed
		j.err = fmt.Errorf("jobs: engine closed")
		j.finished = time.Now()
		close(j.finishedCh)
		j.mu.Unlock()
		j.notify(string(Failed))
		return j
	}
	e.queue = append(e.queue, j)
	evicted := e.pruneLocked()
	e.cond.Signal()
	e.mu.Unlock()
	if j.journal != nil {
		j.journal.JobSubmitted(j)
	}
	j.notify("submitted")
	e.notifyEvicted(evicted)
	return j
}

// Resubmit queues a job under a pre-assigned ID — how an interrupted job
// from a previous process re-enters the engine with its published identity
// intact. No submission journal entry is written; the job's persisted
// record already exists.
func (e *Engine) Resubmit(id, kind string, total int, meta []byte, fn Fn) (*Job, error) {
	if id == "" {
		return nil, fmt.Errorf("jobs: resubmit needs an ID")
	}
	ctx, cancel := context.WithCancel(context.Background())
	j := &Job{
		id: id, kind: kind, fn: fn, meta: meta, ctx: ctx, cancel: cancel,
		state: Pending, total: total,
		created:    time.Now(),
		finishedCh: make(chan struct{}),
	}
	e.mu.Lock()
	if _, taken := e.jobs[id]; taken {
		e.mu.Unlock()
		cancel()
		return nil, fmt.Errorf("jobs: job %q already exists", id)
	}
	if e.closed {
		e.mu.Unlock()
		cancel()
		return nil, fmt.Errorf("jobs: engine closed")
	}
	j.journal = e.journal
	j.observer = e.observer
	e.jobs[id] = j
	e.order = append(e.order, j)
	e.bumpSeqLocked(id)
	e.queue = append(e.queue, j)
	e.cond.Signal()
	e.mu.Unlock()
	j.notify("submitted")
	return j, nil
}

// RestoreTerminal inserts an already-finished job from a persisted record:
// a restarted server lists it and serves its result exactly as the previous
// process did. The state must be terminal and the ID free.
func (e *Engine) RestoreTerminal(st Status, meta []byte, result any) (*Job, error) {
	if !st.State.Terminal() {
		return nil, fmt.Errorf("jobs: cannot restore non-terminal state %q", st.State)
	}
	if st.ID == "" {
		return nil, fmt.Errorf("jobs: restore needs an ID")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // nothing left to cancel
	j := &Job{
		id: st.ID, kind: st.Kind, ctx: ctx, cancel: cancel,
		state: st.State, done: st.Done, total: st.Total,
		meta: meta, result: result,
		created: st.Created, started: st.Started, finished: st.Finished,
		finishedCh: make(chan struct{}),
	}
	if st.Err != "" {
		j.err = errors.New(st.Err)
	}
	close(j.finishedCh)
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, taken := e.jobs[st.ID]; taken {
		return nil, fmt.Errorf("jobs: job %q already exists", st.ID)
	}
	e.jobs[st.ID] = j
	e.order = append(e.order, j)
	e.bumpSeqLocked(st.ID)
	return j, nil
}

// bumpSeqLocked keeps the generated-ID sequence past an externally assigned
// ID, so the next Submit cannot mint a colliding one.
func (e *Engine) bumpSeqLocked(id string) {
	if !strings.HasPrefix(id, "j") {
		return
	}
	if n, err := strconv.Atoi(id[1:]); err == nil && n > e.seq {
		e.seq = n
	}
}

// SetJournal attaches a persistence journal: from now on, submissions,
// terminal transitions, and retention evictions are reported to it. Call
// before the first Submit; nil (the default) disables journaling.
func (e *Engine) SetJournal(jn Journal) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.journal = jn
}

// SetObserver attaches a lifecycle observer (the API server feeds it into
// the event bus). Call before the first Submit; nil (the default) disables
// notifications.
func (e *Engine) SetObserver(fn Observer) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.observer = fn
}

// Evictions counts terminal jobs dropped by the retention cap — each one a
// result that is no longer fetchable. Served on /api/v1/meta.
func (e *Engine) Evictions() int64 { return e.evictions.Load() }

// QueueDepth reports how many submitted jobs are waiting for a worker.
func (e *Engine) QueueDepth() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.queue)
}

// notifyEvicted counts and journals retention evictions, outside e.mu.
func (e *Engine) notifyEvicted(ids []string) {
	if len(ids) == 0 {
		return
	}
	e.evictions.Add(int64(len(ids)))
	e.mu.Lock()
	jn := e.journal
	e.mu.Unlock()
	if jn == nil {
		return
	}
	for _, id := range ids {
		jn.JobEvicted(id)
	}
}

// SetRetention caps how many terminal (done/failed/cancelled) jobs the
// engine keeps around for result fetches; 0 means unlimited. Beyond the
// cap the oldest terminal jobs are dropped on the next Submit — results
// must be fetched while the job is still retained, which bounds the memory
// a long-lived server pins for past campaigns.
func (e *Engine) SetRetention(n int) {
	e.mu.Lock()
	e.retain = n
	evicted := e.pruneLocked()
	e.mu.Unlock()
	e.notifyEvicted(evicted)
}

// pruneLocked drops the oldest terminal jobs beyond the retention cap,
// returning the evicted IDs so the caller can count and journal them after
// unlocking.
func (e *Engine) pruneLocked() []string {
	if e.retain <= 0 {
		return nil
	}
	terminal := 0
	for _, j := range e.order {
		if j.Status().State.Terminal() {
			terminal++
		}
	}
	if terminal <= e.retain {
		return nil
	}
	var evicted []string
	kept := e.order[:0]
	for _, j := range e.order {
		if terminal > e.retain && j.Status().State.Terminal() {
			terminal--
			delete(e.jobs, j.id)
			evicted = append(evicted, j.id)
			continue
		}
		kept = append(kept, j)
	}
	e.order = kept
	return evicted
}

// Get returns the job with the given ID.
func (e *Engine) Get(id string) (*Job, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	j, ok := e.jobs[id]
	return j, ok
}

// Wait blocks until the job with the given ID reaches a terminal state or
// ctx expires, returning the job either way it exists. This is the wait
// primitive pollers should use instead of sleep-looping over Get — the
// HTTP job surface exposes it as the ?wait= long-poll parameter.
func (e *Engine) Wait(ctx context.Context, id string) (*Job, error) {
	j, ok := e.Get(id)
	if !ok {
		return nil, fmt.Errorf("jobs: no job %q", id)
	}
	if err := j.Wait(ctx); err != nil {
		return j, err
	}
	return j, nil
}

// List returns every job in submission order.
func (e *Engine) List() []*Job {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]*Job(nil), e.order...)
}

// Cancel cancels the job with the given ID, reporting whether it exists.
func (e *Engine) Cancel(id string) (*Job, bool) {
	j, ok := e.Get(id)
	if !ok {
		return nil, false
	}
	j.Cancel()
	return j, true
}

// Close cancels every job, stops the workers, and waits for them to drain.
// Jobs still queued finish as Cancelled.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	jobs := append([]*Job(nil), e.order...)
	e.cond.Broadcast()
	e.mu.Unlock()
	for _, j := range jobs {
		j.Cancel()
	}
	e.wg.Wait()
}

// worker pops and runs queued jobs until the engine closes.
func (e *Engine) worker() {
	defer e.wg.Done()
	for {
		e.mu.Lock()
		for len(e.queue) == 0 && !e.closed {
			e.cond.Wait()
		}
		if len(e.queue) == 0 && e.closed {
			e.mu.Unlock()
			return
		}
		j := e.queue[0]
		e.queue = e.queue[1:]
		e.mu.Unlock()
		j.run()
	}
}
