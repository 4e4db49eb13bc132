// Package fleet is the elastic worker fleet behind distributed campaigns:
// instead of the coordinator pushing shards at a hand-listed pool of
// machines, workers *join* the coordinator, hold a heartbeat lease proving
// they are alive, and *pull* shards from a coordinator-owned queue. Fast
// workers come back for more work sooner, so load balances itself — the
// pull loop is the work-stealing mechanism — and capacity is elastic: a
// worker may join or leave mid-campaign without anyone editing a flag.
//
// Liveness is lease-based on two clocks. A worker silent past the worker
// TTL (a small multiple of the advertised heartbeat interval) is retired
// and its in-flight shards return to the queue. Independently, a shard
// lease held past the lease TTL is requeued even if the holder still
// heartbeats — a healthy-but-slow machine loses the shard to a faster one
// (counted as stolen), and whichever copy finishes first wins: the first
// verified completion is accepted, late duplicates are discarded. Both
// TTLs come from an injectable clock, so expiry paths are unit-testable
// without sleeping.
package fleet

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// Default protocol pacing: workers heartbeat every HeartbeatInterval, are
// retired after workerTTLFactor missed beats, and hold a shard for at most
// LeaseTTL before it is requeued for stealing.
const (
	DefaultHeartbeatInterval = 5 * time.Second
	DefaultLeaseTTL          = 2 * time.Minute
	workerTTLFactor          = 3
)

// ErrUnknownWorker is returned for worker IDs that never joined, already
// left, or were retired after missing heartbeats — the worker's cue to
// rejoin under a fresh identity.
var ErrUnknownWorker = fmt.Errorf("fleet: unknown worker (lease expired or never joined; rejoin)")

// Config tunes a Manager.
type Config struct {
	// HeartbeatInterval is advertised to joining workers; a worker silent
	// for workerTTLFactor intervals is retired. 0 means the default.
	HeartbeatInterval time.Duration
	// LeaseTTL bounds how long one worker may hold a shard before it is
	// requeued for another worker to steal. 0 means the default.
	LeaseTTL time.Duration
	// Clock overrides time.Now for tests.
	Clock func() time.Time
	// Logf, when set, receives human-readable fleet events.
	Logf func(format string, args ...any)
}

// Event is one fleet lifecycle notification: a worker joining or going
// away, a shard changing hands, a run opening or closing. The API server
// forwards these onto its event bus as topic "fleet". Types: join, left,
// retired, drain, lease, steal, requeue, complete, duplicate, run_start,
// run_end.
type Event struct {
	Type   string `json:"type"`
	Worker string `json:"worker,omitempty"`
	Run    string `json:"run,omitempty"`
	Shard  int    `json:"shard,omitempty"`  // k of k/n
	Shards int    `json:"shards,omitempty"` // n of k/n
	Detail string `json:"detail,omitempty"`
}

// Stats is the counter snapshot exposed on GET /api/v1/meta.
type Stats struct {
	WorkersJoined       int64 `json:"workers_joined"`
	WorkersActive       int   `json:"workers_active"`
	WorkersDraining     int   `json:"workers_draining"`
	WorkersRetired      int64 `json:"workers_retired"`
	WorkersLeft         int64 `json:"workers_left"`
	LeasesGranted       int64 `json:"leases_granted"`
	LeasesExpired       int64 `json:"leases_expired"`
	ShardsStolen        int64 `json:"shards_stolen"`
	ShardsCompleted     int64 `json:"shards_completed"`
	DuplicatesDiscarded int64 `json:"duplicates_discarded"`
	QueueDepth          int   `json:"queue_depth"`
	ActiveLeases        int   `json:"active_leases"`
	ActiveRuns          int   `json:"active_runs"`
}

// Worker is the externally visible state of one fleet member.
type Worker struct {
	ID           string            `json:"id"`
	Name         string            `json:"name,omitempty"`
	Capabilities map[string]string `json:"capabilities,omitempty"`
	State        string            `json:"state"` // active | draining
	Joined       time.Time         `json:"joined"`
	LastSeen     time.Time         `json:"last_seen"`
	ShardsDone   int               `json:"shards_done"`
	Lease        string            `json:"lease,omitempty"` // "k/n of <run>" while holding a shard
}

// workerState is the registry entry behind a Worker snapshot.
type workerState struct {
	id         string
	name       string
	caps       map[string]string
	joined     time.Time
	lastSeen   time.Time
	draining   bool
	shardsDone int
	lease      *shardLease // at most one outstanding shard per worker
}

// Manager owns the registry and the shard queues of the active runs. All
// state shares one mutex: every operation is a handful of map and slice
// touches, and fleets are measured in machines, not thousands.
type Manager struct {
	cfg Config

	mu        sync.Mutex
	workerSeq int
	leaseSeq  int
	runSeq    int
	workers   map[string]*workerState
	runs      []*Run
	wake      chan struct{} // closed and replaced on every join, new run, and requeue
	stats     Stats
	onEvent   func(Event)
}

// NewManager validates the config and returns an empty fleet.
func NewManager(cfg Config) *Manager {
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = DefaultHeartbeatInterval
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = DefaultLeaseTTL
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	return &Manager{
		cfg:     cfg,
		workers: map[string]*workerState{},
		wake:    make(chan struct{}),
	}
}

// HeartbeatInterval returns the pacing advertised to joining workers.
func (m *Manager) HeartbeatInterval() time.Duration { return m.cfg.HeartbeatInterval }

// LeaseTTL returns the shard lease bound.
func (m *Manager) LeaseTTL() time.Duration { return m.cfg.LeaseTTL }

func (m *Manager) now() time.Time { return m.cfg.Clock() }

// workerTTL is how long a worker may stay silent before retirement.
func (m *Manager) workerTTL() time.Duration {
	return m.cfg.HeartbeatInterval * workerTTLFactor
}

func (m *Manager) logf(format string, args ...any) {
	if m.cfg.Logf != nil {
		m.cfg.Logf(format, args...)
	}
}

// SetOnEvent registers fn to receive every fleet lifecycle Event. fn runs
// with the manager lock held, so it must not call back into the Manager;
// publishing to an event bus (which never blocks) is the intended use.
func (m *Manager) SetOnEvent(fn func(Event)) {
	m.mu.Lock()
	m.onEvent = fn
	m.mu.Unlock()
}

// event fires the lifecycle hook. Callers hold m.mu.
func (m *Manager) event(e Event) {
	if m.onEvent != nil {
		m.onEvent(e)
	}
}

// Join registers a worker and returns its identity plus the protocol
// pacing. Workers that lose their registration (ErrUnknownWorker anywhere)
// simply join again.
func (m *Manager) Join(name string, caps map[string]string) Worker {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.expireLocked(m.now())
	m.workerSeq++
	w := &workerState{
		id:       fmt.Sprintf("w%d", m.workerSeq),
		name:     name,
		caps:     caps,
		joined:   m.now(),
		lastSeen: m.now(),
	}
	m.workers[w.id] = w
	m.stats.WorkersJoined++
	m.logf("fleet: worker %s (%s) joined", w.id, w.name)
	m.event(Event{Type: "join", Worker: w.id, Detail: w.name})
	m.wakeLocked()
	return m.snapshotLocked(w)
}

// wakeLocked wakes everyone blocked on the wake channel: WaitWorkers counts
// workers again, an idle local worker asks for a shard again.
func (m *Manager) wakeLocked() {
	close(m.wake)
	m.wake = make(chan struct{})
}

// Heartbeat renews the worker's registration lease.
func (m *Manager) Heartbeat(id string) (Worker, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.expireLocked(m.now())
	w, ok := m.workers[id]
	if !ok {
		return Worker{}, ErrUnknownWorker
	}
	w.lastSeen = m.now()
	return m.snapshotLocked(w), nil
}

// Drain marks the worker draining: it receives no further shards but may
// finish and complete the one it holds — the graceful-shutdown half of the
// protocol (jedserve -join runs it on SIGTERM).
func (m *Manager) Drain(id string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.expireLocked(m.now())
	w, ok := m.workers[id]
	if !ok {
		return ErrUnknownWorker
	}
	w.lastSeen = m.now()
	if !w.draining {
		w.draining = true
		m.logf("fleet: worker %s draining", w.id)
		m.event(Event{Type: "drain", Worker: w.id})
	}
	return nil
}

// Leave deregisters the worker immediately, requeueing any shard it still
// holds. Leaving twice (or after retirement) is not an error.
func (m *Manager) Leave(id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	w, ok := m.workers[id]
	if !ok {
		return
	}
	m.dropWorkerLocked(w, "left")
	m.stats.WorkersLeft++
}

// dropWorkerLocked removes a worker from the registry and requeues its
// outstanding shard lease. cause is for the log line.
func (m *Manager) dropWorkerLocked(w *workerState, cause string) {
	if l := w.lease; l != nil {
		w.lease = nil
		m.requeueLocked(l, false)
	}
	delete(m.workers, w.id)
	m.logf("fleet: worker %s (%s) %s", w.id, w.name, cause)
	typ := "retired"
	if cause == "left" {
		typ = "left"
	}
	m.event(Event{Type: typ, Worker: w.id, Detail: cause})
}

// Workers snapshots the registry, joined-order sorted by ID sequence.
func (m *Manager) Workers() []Worker {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.expireLocked(m.now())
	out := make([]Worker, 0, len(m.workers))
	for _, w := range m.workers {
		out = append(out, m.snapshotLocked(w))
	}
	sortWorkers(out)
	return out
}

func sortWorkers(ws []Worker) {
	// IDs are "w<seq>": compare numerically via length-then-lexicographic.
	for i := 1; i < len(ws); i++ {
		for j := i; j > 0 && lessID(ws[j].ID, ws[j-1].ID); j-- {
			ws[j], ws[j-1] = ws[j-1], ws[j]
		}
	}
}

func lessID(a, b string) bool {
	if len(a) != len(b) {
		return len(a) < len(b)
	}
	return a < b
}

func (m *Manager) snapshotLocked(w *workerState) Worker {
	out := Worker{
		ID: w.id, Name: w.name, Capabilities: w.caps,
		State:  "active",
		Joined: w.joined, LastSeen: w.lastSeen,
		ShardsDone: w.shardsDone,
	}
	if w.draining {
		out.State = "draining"
	}
	if w.lease != nil {
		out.Lease = fmt.Sprintf("%d/%d of %s", w.lease.k, w.lease.run.shards, w.lease.run.id)
	}
	return out
}

// ActiveWorkers counts the workers currently able to take shards.
func (m *Manager) ActiveWorkers() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.expireLocked(m.now())
	return m.activeLocked()
}

func (m *Manager) activeLocked() int {
	n := 0
	for _, w := range m.workers {
		if !w.draining {
			n++
		}
	}
	return n
}

// Stats snapshots the fleet counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.expireLocked(m.now())
	st := m.stats
	for _, w := range m.workers {
		if w.draining {
			st.WorkersDraining++
		} else {
			st.WorkersActive++
		}
		if w.lease != nil {
			st.ActiveLeases++
		}
	}
	for _, r := range m.runs {
		st.QueueDepth += len(r.queue)
	}
	st.ActiveRuns = len(m.runs)
	return st
}

// Tick drives lease and registration expiry. Worker traffic already expires
// lazily on every call; a coordinator loop tickles Tick so a fleet gone
// completely silent still retires its dead.
func (m *Manager) Tick() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.expireLocked(m.now())
}

// expireLocked retires workers silent past the worker TTL and requeues
// shard leases held past the lease TTL. Retirement requeues the victim's
// shard immediately — no point waiting out a lease nobody will complete.
func (m *Manager) expireLocked(now time.Time) {
	ttl := m.workerTTL()
	for _, w := range m.workers {
		if now.Sub(w.lastSeen) > ttl {
			m.dropWorkerLocked(w, "retired (missed heartbeats)")
			m.stats.WorkersRetired++
		}
	}
	// Snapshot the run list: a requeue exhausting a shard's attempt budget
	// fails and removes its run mid-iteration.
	runs := append([]*Run(nil), m.runs...)
	for _, r := range runs {
		for _, l := range r.leases {
			if now.After(l.expires) {
				// The holder is still registered (retirement above already
				// requeued the dead), so this is a steal: a healthy-but-slow
				// worker loses the shard to whoever pulls next.
				if w, ok := m.workers[l.worker]; ok && w.lease == l {
					w.lease = nil
				}
				m.requeueLocked(l, true)
			}
		}
	}
}

// WaitWorkers blocks until at least n workers are active (joined, not
// draining) or ctx expires — the "-min-workers" gate a fleet coordinator
// applies before dispatching the first shard.
func (m *Manager) WaitWorkers(ctx context.Context, n int) error {
	for {
		m.mu.Lock()
		m.expireLocked(m.now())
		count := m.activeLocked()
		wake := m.wake
		m.mu.Unlock()
		if count >= n {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-wake:
		case <-time.After(m.workerTTL() / 2):
			// Re-check on a timer too: joins wake us, but retirements do not.
		}
	}
}
