package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"regexp"
	"sort"
	"strconv"

	"repro/internal/core"
	"repro/internal/jedxml"
	"repro/internal/persist"
)

// Recipe is how a session's schedule is rebuilt after a restart. Sessions
// are persisted as descriptors, not parsed schedules: the descriptor keeps
// whichever input produced the schedule, and the schedule itself is
// re-derived lazily on first access — re-parsing an uploaded document,
// re-running a deterministic {algo,dag,platform} spec, or re-reading a
// registered file. An uploaded document is journaled on its own, in the
// docs namespace under the session ID, so recovering a session reads only
// its small descriptor.
type Recipe struct {
	Kind    string          `json:"kind"`              // "doc", "generate", "file"
	Format  string          `json:"format,omitempty"`  // doc: parser registry name
	Request json.RawMessage `json:"request,omitempty"` // generate: the CreateRequest body
	Path    string          `json:"path,omitempty"`    // file: schedule file to re-parse
	// Doc carries the uploaded bytes of a "doc" recipe to persistSession,
	// which journals them under docsNS and drops them from the session.
	// They are never part of the descriptor.
	Doc []byte `json:"-"`
}

// Namespaces of the session store: one descriptor per session, and the
// documents of "doc" recipes.
const (
	sessionsNS = "sessions"
	docsNS     = "docs"
)

// build re-derives the schedule the recipe describes; doc is the journaled
// document of a "doc" recipe.
func (r *Recipe) build(doc []byte) (*core.Schedule, error) {
	switch r.Kind {
	case "doc":
		format := r.Format
		if format == "" {
			format = "jedule"
		}
		return jedxml.ReadFormat(format, bytes.NewReader(doc))
	case "generate":
		var req CreateRequest
		if err := json.Unmarshal(r.Request, &req); err != nil {
			return nil, fmt.Errorf("api: bad generate recipe: %w", err)
		}
		return req.Build()
	case "file":
		return ReadScheduleFile(r.Path)
	}
	return nil, fmt.Errorf("api: unknown recipe kind %q", r.Kind)
}

// Summary is the cached shape of a session's schedule — what the session
// list and info endpoints serve. Persisting it lets a restarted server list
// every recovered session without hydrating a single schedule.
type Summary struct {
	Clusters int     `json:"clusters"`
	Hosts    int     `json:"hosts"`
	Tasks    int     `json:"tasks"`
	Makespan float64 `json:"makespan"`
}

func summaryOf(s *core.Schedule) Summary {
	if s == nil {
		return Summary{}
	}
	return Summary{
		Clusters: len(s.Clusters),
		Hosts:    s.TotalHosts(),
		Tasks:    len(s.Tasks),
		Makespan: s.Extent().Span(),
	}
}

// sessionRecord is the persisted descriptor of one session ("sessions"
// namespace, keyed by session ID). Rev and Fingerprint survive the restart
// so the ETags of stateless reads stay byte-identical.
type sessionRecord struct {
	ID          string  `json:"id"`
	Name        string  `json:"name,omitempty"`
	Source      string  `json:"source"`
	Rev         int64   `json:"rev"`
	Fingerprint uint64  `json:"fp"`
	Summary     Summary `json:"summary"`
	Recipe      *Recipe `json:"recipe,omitempty"`
}

// SetPersist attaches a persistence backend: every session registered from
// now on is journaled as a descriptor, and RecoverSessions restores the
// descriptors of a previous process. Call before registering sessions; nil
// (the default) keeps persistence off with zero overhead.
func (st *Store) SetPersist(ps persist.Store) {
	st.mu.Lock()
	st.persist = ps
	st.mu.Unlock()
}

// PersistEnabled reports whether a persistence backend is attached.
func (st *Store) PersistEnabled() bool { return st.persistStore() != nil }

func (st *Store) persistStore() persist.Store {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.persist
}

// RecoveredSessions returns how many sessions the last RecoverSessions call
// restored.
func (st *Store) RecoveredSessions() int64 { return st.recovered.Load() }

// HydrationFailures counts recovered sessions dropped because their recipe
// no longer produced a schedule (deleted file, unregistered algorithm, ...).
func (st *Store) HydrationFailures() int64 { return st.hydrationFailed.Load() }

// PersistErrors counts best-effort persistence writes that failed.
func (st *Store) PersistErrors() int64 { return st.persistErrors.Load() }

// persistSession journals one session descriptor durably. An uploaded
// document goes first, durably, into docsNS, and the session lets go of its
// bytes; a session without a recipe (one added in-process by Add) is
// journaled the same way, as a canonical Jedule XML document. A crash
// between the two writes leaves a document without a descriptor, which
// RecoverSessions deletes, never a descriptor without its document.
// Best-effort: a failed write is counted, not propagated — the session
// stays live.
func (st *Store) persistSession(s *Session) {
	ps := st.persistStore()
	if ps == nil {
		return
	}
	var doc []byte
	s.mu.Lock()
	if r := s.recipe; r != nil && r.Kind == "doc" && r.Doc != nil {
		doc = r.Doc
		s.recipe = &Recipe{Kind: r.Kind, Format: r.Format}
	}
	rec := sessionRecord{
		ID: s.ID, Name: s.Name, Source: s.Source,
		Rev: s.rev, Fingerprint: s.fp, Summary: s.summary, Recipe: s.recipe,
	}
	sched := s.sched
	s.mu.Unlock()
	if rec.Recipe == nil && sched != nil {
		var buf bytes.Buffer
		if err := jedxml.Write(&buf, sched); err != nil {
			st.persistErrors.Add(1)
			return
		}
		doc = buf.Bytes()
		rec.Recipe = &Recipe{Kind: "doc", Format: "jedule"}
	}
	if doc != nil {
		if err := ps.PutDurable(docsNS, s.ID, doc); err != nil {
			st.persistErrors.Add(1)
			return
		}
	}
	b, err := json.Marshal(rec)
	if err != nil {
		st.persistErrors.Add(1)
		return
	}
	if err := ps.PutDurable(sessionsNS, s.ID, b); err != nil {
		st.persistErrors.Add(1)
	}
}

// persistedRev returns the revision a previous process journaled for the
// file session id read from the same path, or 0: a reread file session
// keeps its revision, and so its ETags, across a restart.
func (st *Store) persistedRev(id string, rec *Recipe) int64 {
	ps := st.persistStore()
	if ps == nil || rec == nil || rec.Kind != "file" {
		return 0
	}
	var old sessionRecord
	if raw, ok, err := ps.Get(sessionsNS, id); err != nil || !ok || json.Unmarshal(raw, &old) != nil ||
		old.Recipe == nil || old.Recipe.Kind != "file" || old.Recipe.Path != rec.Path {
		return 0
	}
	return old.Rev
}

// dropPersisted removes the descriptors of sessions that left the store for
// good (Delete, LRU eviction, TTL expiry) — not of reread ones — and then
// their documents, so a crash in between leaves only an orphan document.
func (st *Store) dropPersisted(ids ...string) {
	ps := st.persistStore()
	if ps == nil || len(ids) == 0 {
		return
	}
	for _, id := range ids {
		if err := ps.Delete(sessionsNS, id); err != nil {
			st.persistErrors.Add(1)
		}
		if err := ps.Delete(docsNS, id); err != nil {
			st.persistErrors.Add(1)
		}
	}
}

var sessionSeqPat = regexp.MustCompile(`^s([0-9]+)$`)

// RecoverSessions restores the session descriptors a previous process
// persisted. Schedules are NOT rebuilt and documents are NOT read here:
// each session hydrates lazily on its first access, so a restart decodes
// the descriptors and lists the documents' keys, and a damaged document
// fails only its own session's hydration. A document whose descriptor is
// gone — a crash between the two writes of persistSession or
// dropPersisted — is deleted. Call after pre-registering file sessions
// (RegisterDir) — a persisted descriptor never displaces a live session
// with the same ID, so freshly re-registered files win. Returns how many
// sessions were restored.
func (st *Store) RecoverSessions() (int, error) {
	ps := st.persistStore()
	if ps == nil {
		return 0, nil
	}
	records, err := ps.Load(sessionsNS)
	if err != nil {
		return 0, err
	}
	ids := make([]string, 0, len(records))
	for id := range records {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	n := 0
	hasDoc := map[string]bool{}
	st.mu.Lock()
	for _, id := range ids {
		var rec sessionRecord
		if err := json.Unmarshal(records[id], &rec); err != nil || rec.ID == "" {
			st.persistErrors.Add(1)
			continue
		}
		if rec.Recipe != nil && rec.Recipe.Kind == "doc" {
			hasDoc[id] = true
		}
		// Keep the generated-ID sequence past every recovered ID, or the
		// next Add would collide with a recovered "sN" and skip it.
		if m := sessionSeqPat.FindStringSubmatch(id); m != nil {
			if v, err := strconv.Atoi(m[1]); err == nil && v > st.seq {
				st.seq = v
			}
		}
		if _, taken := st.sessions[id]; taken {
			continue
		}
		s := &Session{
			ID: id, Name: rec.Name, Source: rec.Source,
			fp: rec.Fingerprint, rev: rec.Rev,
			summary: rec.Summary, recipe: rec.Recipe, store: st,
		}
		st.touch(s)
		st.sessions[id] = s
		n++
	}
	dropped := st.evictLocked()
	st.mu.Unlock()
	if err := st.dropOrphanDocs(ps, hasDoc); err != nil {
		return 0, err
	}
	st.dropPersisted(dropped...)
	st.notifyDrop(dropped...)
	st.recovered.Store(int64(n))
	return n, nil
}

// dropOrphanDocs deletes every journaled document that no "doc" descriptor
// points at. It lists the documents' keys and reads none of their bytes.
func (st *Store) dropOrphanDocs(ps persist.Store, hasDoc map[string]bool) error {
	ids, err := ps.Keys(docsNS)
	if err != nil {
		return err
	}
	for _, id := range ids {
		if !hasDoc[id] {
			if err := ps.Delete(docsNS, id); err != nil {
				st.persistErrors.Add(1)
			}
		}
	}
	return nil
}

// ensureHydrated rebuilds the schedule of a recovered session on its first
// access, reading the journaled document of a "doc" recipe. The revision is
// NOT bumped — a hydration is not a content change, and the persisted
// revision plus a deterministic recipe keep ETags byte-identical across the
// restart. Hydration runs under the session write lock, so concurrent first
// readers share one rebuild.
func (s *Session) ensureHydrated() error {
	s.mu.RLock()
	hydrated := s.sched != nil
	s.mu.RUnlock()
	if hydrated {
		return nil
	}
	var ps persist.Store
	if s.store != nil {
		ps = s.store.persistStore() // before s.mu: the store lock never nests inside it
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sched != nil {
		return nil
	}
	if s.recipe == nil {
		return fmt.Errorf("api: session %s has no schedule and no recipe", s.ID)
	}
	var doc []byte
	if s.recipe.Kind == "doc" {
		var ok bool
		var err error
		if ps != nil {
			doc, ok, err = ps.Get(docsNS, s.ID)
		}
		if err == nil && !ok {
			err = errors.New("its document is missing")
		}
		if err != nil {
			return fmt.Errorf("api: hydrating session %s: %w", s.ID, err)
		}
	}
	sched, err := s.recipe.build(doc)
	if err != nil {
		return fmt.Errorf("api: hydrating session %s: %w", s.ID, err)
	}
	s.sched = sched
	s.prep = &prepared{}
	// Recompute rather than trust the persisted fingerprint: a "file"
	// recipe may legitimately re-parse a changed file, and the ETag must
	// tell its readers.
	s.fp = fingerprintOf(sched)
	s.summary = summaryOf(sched)
	return nil
}
