// Package api is the versioned REST surface of the tool: a concurrent-safe
// session store, where each session owns one schedule, and a stateless
// read surface (render, export, stats, tasks, meta) mounted at /api/v1/.
//
// Sessions are created by uploading a schedule document (Jedule XML or CSV)
// or generated server-side by running any scheduler registered with
// internal/sched on a described DAG and platform — the first point where
// the viewer and the scheduling pipeline meet. All view parameters (window,
// cluster selection, mode, grayscale, size, format) travel as query
// parameters of each request, so any number of clients can read the same
// session concurrently without interfering.
//
// Campaigns (POST /api/v1/campaigns, alias /api/v1/jobs) live in one typed
// campaign table (campaigntable.go): each record holds its request, its
// coordinator, its state and its outcome, and runs on its own goroutine
// behind four run slots. With persistence on, the table journals its
// records and each run's cells; closing the server stops the runs without
// ending them, so the next process resumes them.
package api

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/persist"
	"repro/internal/render"
)

// Session is one schedule held by the server. The schedule pointer is
// swapped atomically under the session lock (Replace supports the legacy
// viewer's reread), and the core.Schedule itself is treated as read-only by
// every API handler, so concurrent renders need no further coordination.
type Session struct {
	ID     string
	Name   string
	Source string // "upload", "generated", "file", "viewer"

	mu      sync.RWMutex
	sched   *core.Schedule // nil for a recovered session until first access
	prep    *prepared      // render preparation of sched; swapped together with it
	rev     int64          // bumped by Replace; part of the ETag of stateless reads
	fp      uint64         // content fingerprint of the schedule, computed on swap
	summary Summary        // cached schedule shape, served by list/info reads
	recipe  *Recipe        // rebuilds sched after a restart; nil = synthesized on persist

	store      *Store       // owning store; drop notifications on Replace
	lastUse    atomic.Int64 // store clock tick of the last Get (LRU eviction)
	lastAccess atomic.Int64 // wall-clock nanos of the last Get (TTL expiry)
}

// fingerprintOf hashes the schedule's observable content. It anchors the
// ETag of stateless reads: a revision counter alone would repeat across
// server restarts even if the underlying file changed, serving stale 304s.
func fingerprintOf(s *core.Schedule) uint64 {
	h := fnv.New64a()
	// One reused buffer instead of a fmt call per task: the bytes are those
	// of the original "%d|%d|%d", "|m:%s=%s" and "|%s/%s/%g/%g/%d" formats
	// (strconv's 'g' with precision -1 is fmt's %g), so hashes, and the
	// ETags built on them, stay stable across versions.
	b := strconv.AppendInt(nil, int64(len(s.Clusters)), 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(s.TotalHosts()), 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(len(s.Tasks)), 10)
	h.Write(b) //nolint:errcheck // hash writes never fail
	for _, p := range s.Meta {
		b = append(b[:0], "|m:"...)
		b = append(b, p.Name...)
		b = append(b, '=')
		b = append(b, p.Value...)
		h.Write(b) //nolint:errcheck
	}
	for i := range s.Tasks {
		t := &s.Tasks[i]
		b = append(b[:0], '|')
		b = append(b, t.ID...)
		b = append(b, '/')
		b = append(b, t.Type...)
		b = append(b, '/')
		b = strconv.AppendFloat(b, t.Start, 'g', -1, 64)
		b = append(b, '/')
		b = strconv.AppendFloat(b, t.End, 'g', -1, 64)
		b = append(b, '/')
		b = strconv.AppendInt(b, int64(len(t.Allocations)), 10)
		h.Write(b) //nolint:errcheck
	}
	return h.Sum64()
}

// Schedule returns the session's current schedule, hydrating a recovered
// session first. Store.Get is the gate that surfaces hydration errors; this
// defensive path degrades to an empty schedule rather than a nil pointer.
func (s *Session) Schedule() *core.Schedule {
	s.mu.RLock()
	sched := s.sched
	s.mu.RUnlock()
	if sched != nil {
		return sched
	}
	s.ensureHydrated() //nolint:errcheck // Get reports hydration failures
	s.mu.RLock()
	sched = s.sched
	s.mu.RUnlock()
	if sched == nil {
		sched = &core.Schedule{}
	}
	return sched
}

// prepared is what a render needs from a schedule beyond its tasks: the
// result of Validate and, for a valid schedule, the render task index. It is
// computed once, on the first render of a schedule revision, and replaced
// together with the schedule, so the check runs once per revision instead of
// once per request.
type prepared struct {
	once sync.Once
	idx  *render.TaskIndex // nil when err != nil
	err  error             // core.Schedule.Validate of the schedule
}

// ScheduleWithIndex returns the current schedule together with its render
// task index and its validation result. The first call after a schedule is
// stored (Add, Put, Replace, or hydration after a restart) validates it and,
// when valid, builds the index; concurrent first callers share that one
// computation and every later call reuses it. A non-nil error means the
// schedule must not be rendered. The returned triple is always consistent:
// a concurrent Replace never pairs one schedule with another's index.
func (s *Session) ScheduleWithIndex() (*core.Schedule, *render.TaskIndex, error) {
	if err := s.ensureHydrated(); err != nil {
		return &core.Schedule{}, nil, err
	}
	s.mu.RLock()
	sched, p := s.sched, s.prep
	s.mu.RUnlock()
	p.once.Do(func() {
		if p.err = sched.Validate(); p.err == nil {
			p.idx = render.BuildIndex(sched)
		}
	})
	return sched, p.idx, p.err
}

// Replace swaps in a new schedule (the viewer's fast-reread path) and bumps
// the revision, invalidating cached renders of the old schedule.
func (s *Session) Replace(sched *core.Schedule) {
	fp := fingerprintOf(sched)
	sum := summaryOf(sched)
	s.mu.Lock()
	s.sched = sched
	s.prep = &prepared{}
	s.fp = fp
	s.summary = sum
	s.recipe = nil // the old recipe describes the old schedule
	s.rev++
	s.mu.Unlock()
	if s.store != nil {
		s.store.persistSession(s)
		s.store.notifyDrop(s.ID)
		s.store.notifyEvent("replaced", s.ID)
	}
}

// Revision counts how often the session's schedule was replaced.
func (s *Session) Revision() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.rev
}

// Fingerprint returns the content hash of the current schedule.
func (s *Session) Fingerprint() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.fp
}

// Summary returns the cached shape of the session's schedule. For a
// recovered, not-yet-hydrated session this is the persisted summary, so
// listing sessions never forces a hydration.
func (s *Session) Summary() Summary {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.summary
}

// Store is the concurrent-safe session registry behind the REST API.
type Store struct {
	mu       sync.RWMutex
	seq      int
	max      int
	ttl      time.Duration
	now      func() time.Time // injectable for TTL tests
	onDrop   func(sessionID string)
	onEvent  func(kind, sessionID string)
	sessions map[string]*Session
	clock    atomic.Int64

	persist         persist.Store // nil = persistence off (the default)
	recovered       atomic.Int64
	hydrationFailed atomic.Int64
	persistErrors   atomic.Int64

	janitorStop chan struct{}
}

// NewStore returns an empty store without a session cap or TTL.
func NewStore() *Store {
	return &Store{sessions: map[string]*Session{}, now: time.Now}
}

// OnDrop registers fn to be called with the ID of every session that leaves
// the store — explicit Delete, LRU eviction, TTL expiry — and of every
// session whose schedule is swapped by Replace. The render cache hooks in
// here to invalidate memoized bodies. fn must not call back into the store.
func (st *Store) OnDrop(fn func(sessionID string)) {
	st.mu.Lock()
	st.onDrop = fn
	st.mu.Unlock()
}

// OnEvent registers fn to be called with every session lifecycle change:
// kind is "created", "replaced", "deleted", "evicted", or "expired". The
// event bus hooks in here. Like OnDrop, fn runs outside the store lock and
// must not call back into the store.
func (st *Store) OnEvent(fn func(kind, sessionID string)) {
	st.mu.Lock()
	st.onEvent = fn
	st.mu.Unlock()
}

// notifyEvent invokes the lifecycle hook outside any store lock.
func (st *Store) notifyEvent(kind string, ids ...string) {
	if len(ids) == 0 {
		return
	}
	st.mu.RLock()
	fn := st.onEvent
	st.mu.RUnlock()
	if fn == nil {
		return
	}
	for _, id := range ids {
		fn(kind, id)
	}
}

// notifyDrop invokes the drop hook outside any store lock.
func (st *Store) notifyDrop(ids ...string) {
	if len(ids) == 0 {
		return
	}
	st.mu.RLock()
	fn := st.onDrop
	st.mu.RUnlock()
	if fn == nil {
		return
	}
	for _, id := range ids {
		fn(id)
	}
}

// SetMaxSessions caps the store at n sessions (0 removes the cap). When an
// Add or Put would exceed the cap, the least recently used session is
// evicted — the API-hardening guard that keeps a long-lived server from
// accumulating uploads without bound. A lowered cap evicts immediately.
func (st *Store) SetMaxSessions(n int) {
	st.mu.Lock()
	st.max = n
	dropped := st.evictLocked()
	st.mu.Unlock()
	st.dropPersisted(dropped...)
	st.notifyDrop(dropped...)
	st.notifyEvent("evicted", dropped...)
}

// SetTTL sets the idle lifetime of sessions: a session not accessed for d is
// expired lazily on its next access and proactively by a janitor goroutine
// that ticks at a fraction of d. SetTTL(0) removes the TTL and stops the
// janitor.
func (st *Store) SetTTL(d time.Duration) {
	st.mu.Lock()
	st.ttl = d
	stop := st.janitorStop
	st.janitorStop = nil
	if d > 0 {
		st.janitorStop = make(chan struct{})
	}
	start := st.janitorStop
	st.mu.Unlock()
	if stop != nil {
		close(stop)
	}
	if start != nil {
		every := d / 4
		if every < time.Second {
			every = time.Second
		}
		go st.janitor(start, every)
	}
}

// TTL returns the configured idle session lifetime (0 = sessions never
// expire).
func (st *Store) TTL() time.Duration {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.ttl
}

// Close stops the janitor goroutine, if any. The store remains usable.
func (st *Store) Close() { st.SetTTL(0) }

func (st *Store) janitor(stop chan struct{}, every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			st.Sweep()
		}
	}
}

// Sweep removes every expired session now and reports how many it dropped.
// The janitor calls it on a tick; tests call it directly.
func (st *Store) Sweep() int {
	st.mu.Lock()
	var dropped []string
	for id, s := range st.sessions {
		if st.expiredLocked(s) {
			delete(st.sessions, id)
			dropped = append(dropped, id)
		}
	}
	st.mu.Unlock()
	st.dropPersisted(dropped...)
	st.notifyDrop(dropped...)
	st.notifyEvent("expired", dropped...)
	return len(dropped)
}

// expiredLocked reports whether the session sat idle past the TTL. Callers
// hold st.mu (read or write).
func (st *Store) expiredLocked(s *Session) bool {
	return st.ttl > 0 && st.now().Sub(time.Unix(0, s.lastAccess.Load())) > st.ttl
}

// touch marks the session as recently used.
func (st *Store) touch(s *Session) {
	s.lastUse.Store(st.clock.Add(1))
	s.lastAccess.Store(st.now().UnixNano())
}

// evictLocked removes least-recently-used sessions until the cap holds,
// returning the evicted IDs so the caller can notify after unlocking.
func (st *Store) evictLocked() []string {
	if st.max <= 0 {
		return nil
	}
	var dropped []string
	for len(st.sessions) > st.max {
		var victim *Session
		for _, s := range st.sessions {
			if victim == nil || s.lastUse.Load() < victim.lastUse.Load() ||
				(s.lastUse.Load() == victim.lastUse.Load() && s.ID < victim.ID) {
				victim = s
			}
		}
		delete(st.sessions, victim.ID)
		dropped = append(dropped, victim.ID)
	}
	return dropped
}

// Add registers a schedule under a fresh generated ID ("s1", "s2", ...).
func (st *Store) Add(name, source string, sched *core.Schedule) *Session {
	return st.AddRecipe(name, source, sched, nil)
}

// AddRecipe is Add with an explicit persistence recipe: how to rebuild the
// schedule after a restart. A nil recipe persists the schedule as canonical
// Jedule XML.
func (st *Store) AddRecipe(name, source string, sched *core.Schedule, rec *Recipe) *Session {
	st.mu.Lock()
	for {
		st.seq++
		id := fmt.Sprintf("s%d", st.seq)
		if _, taken := st.sessions[id]; taken {
			continue // an explicit Put used the ID; keep counting
		}
		s := st.putLocked(id, name, source, sched, rec)
		dropped := st.evictLocked()
		st.mu.Unlock()
		st.persistSession(s)
		st.dropPersisted(dropped...)
		st.notifyDrop(dropped...)
		st.notifyEvent("evicted", dropped...)
		st.notifyEvent("created", s.ID)
		return s
	}
}

// Put registers a schedule under an explicit ID (pre-registered sessions:
// the legacy viewer's "default", jedserve's per-file sessions). It fails on
// an empty or already-taken ID.
func (st *Store) Put(id, name, source string, sched *core.Schedule) (*Session, error) {
	return st.PutRecipe(id, name, source, sched, nil)
}

// PutRecipe is Put with an explicit persistence recipe (see AddRecipe).
func (st *Store) PutRecipe(id, name, source string, sched *core.Schedule, rec *Recipe) (*Session, error) {
	if id == "" {
		return nil, fmt.Errorf("api: empty session id")
	}
	st.mu.Lock()
	if _, taken := st.sessions[id]; taken {
		st.mu.Unlock()
		return nil, fmt.Errorf("api: session %q already exists", id)
	}
	s := st.putLocked(id, name, source, sched, rec)
	dropped := st.evictLocked()
	st.mu.Unlock()
	st.persistSession(s)
	st.dropPersisted(dropped...)
	st.notifyDrop(dropped...)
	st.notifyEvent("evicted", dropped...)
	st.notifyEvent("created", id)
	return s, nil
}

func (st *Store) putLocked(id, name, source string, sched *core.Schedule, rec *Recipe) *Session {
	s := &Session{
		ID: id, Name: name, Source: source,
		sched: sched, prep: &prepared{}, fp: fingerprintOf(sched), summary: summaryOf(sched),
		recipe: rec, store: st,
	}
	st.touch(s)
	st.sessions[id] = s
	return s
}

// Get returns the session with the given ID, marking it recently used. A
// session idle past the TTL is expired here (lazy expiry) and reported as
// absent. A recovered session is hydrated here — its first access after a
// restart rebuilds the schedule from the persisted recipe; a session whose
// recipe fails is dropped and counted.
func (st *Store) Get(id string) (*Session, bool) {
	s, ok := st.getLive(id)
	if !ok {
		return nil, false
	}
	if err := s.ensureHydrated(); err != nil {
		st.hydrationFailed.Add(1)
		st.Delete(id)
		return nil, false
	}
	return s, true
}

func (st *Store) getLive(id string) (*Session, bool) {
	st.mu.RLock()
	s, ok := st.sessions[id]
	expired := ok && st.expiredLocked(s)
	if ok && !expired {
		st.touch(s)
	}
	st.mu.RUnlock()
	if !expired {
		return s, ok
	}
	// Upgrade to a write lock and re-check: a concurrent Get may have
	// refreshed the session, or a Delete/Put may have replaced it.
	st.mu.Lock()
	cur, ok := st.sessions[id]
	if ok && cur == s && st.expiredLocked(s) {
		delete(st.sessions, id)
		st.mu.Unlock()
		st.dropPersisted(id)
		st.notifyDrop(id)
		st.notifyEvent("expired", id)
		return nil, false
	}
	if ok {
		st.touch(cur)
	}
	st.mu.Unlock()
	return cur, ok
}

// Delete removes a session, reporting whether it existed.
func (st *Store) Delete(id string) bool {
	st.mu.Lock()
	_, ok := st.sessions[id]
	delete(st.sessions, id)
	st.mu.Unlock()
	if ok {
		st.dropPersisted(id)
		st.notifyDrop(id)
		st.notifyEvent("deleted", id)
	}
	return ok
}

// List returns all live (non-expired) sessions sorted by ID.
func (st *Store) List() []*Session {
	st.mu.RLock()
	defer st.mu.RUnlock()
	out := make([]*Session, 0, len(st.sessions))
	for _, s := range st.sessions {
		if !st.expiredLocked(s) {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Len returns the number of live (non-expired) sessions.
func (st *Store) Len() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	n := 0
	for _, s := range st.sessions {
		if !st.expiredLocked(s) {
			n++
		}
	}
	return n
}
