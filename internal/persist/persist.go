// Package persist is the pluggable durable-state subsystem behind the
// server's stateful layers: the session store and the campaign table
// journal their state through one small namespaced key-value interface, so
// a jedserve killed mid-flight can be restarted (or replaced by another
// replica pointed at the same state directory) without losing sessions,
// finished campaign results, or campaign progress.
//
// Two stdlib-only implementations ship: Memory, which keeps records in a
// map and therefore reproduces the pre-persistence behavior (state dies
// with the process), and the filesystem store returned by Open, which
// writes each namespace as an append-only record log (<ns>.log) next to a
// periodically compacted snapshot (<ns>.snap). Both files start with a JSON
// header line naming the schema version and the namespace; every record
// after it is a frame
//
//	<hcrc> <op> <vlen> <vcrc> <key>\n<value>\n
//
// with the raw value bytes, its length, a CRC-32C of the value (vcrc) and a
// CRC-32C of the header line itself (hcrc). Open reads frame headers only:
// it checks each header's CRC and fields and that the value and its
// terminating newline are all there, then skips the value unread, keeping
// only where it sits and the CRC it must match. Get and Load read a value
// with ReadAt and check that CRC, so every byte handed to a caller is
// checked, and a damaged value fails the reads of its own key only; Keys
// reads no value at all. A record counts once its frame is complete, so a
// crash mid-write costs at most the final record, never the file; a
// complete frame whose header or terminator fails a check is corruption,
// and Open refuses the directory.
//
// The schema version is 2. Open refuses a directory of any other version —
// including version 1, which stored each value as base64 inside a JSON
// line — with an error naming both versions, and changes no byte of it;
// start such a server on an empty -state-dir.
package persist

import (
	"fmt"
	"maps"
	"slices"
	"sync"
)

// Store is the persistence interface the stateful layers write through.
// Implementations must be safe for concurrent use.
//
// A namespace groups the records of one subsystem ("sessions", "jobs",
// "runs", ...); keys are free-form within it. Values are opaque bytes —
// callers own their encoding (all current callers write JSON).
type Store interface {
	// Put upserts one record. Durability is best-effort: the record is in
	// the OS page cache, not necessarily on stable storage.
	Put(ns, key string, value []byte) error
	// PutDurable upserts one record and does not return before the record
	// is synced to stable storage — for critical records (session
	// descriptors, terminal job outcomes, run headers) whose loss would
	// silently restart finished work.
	PutDurable(ns, key string, value []byte) error
	// Delete removes one record. Deleting an absent key is a no-op.
	Delete(ns, key string) error
	// DeletePrefix removes every record whose key starts with prefix — how
	// a job's journaled cells are dropped in one append when the job
	// reaches a terminal state or is evicted.
	DeletePrefix(ns, prefix string) error
	// Get returns the current value of one record.
	Get(ns, key string) (value []byte, ok bool, err error)
	// Load returns a copy of every record in the namespace — the recovery
	// read a restarted server performs once per subsystem. It fails when
	// any value of the namespace fails its check.
	Load(ns string) (map[string][]byte, error)
	// Keys returns the sorted keys of every record in the namespace
	// without reading a value.
	Keys(ns string) ([]string, error)
	// Compact rewrites the namespace to its minimal form now (the
	// filesystem store also compacts automatically once a log grows well
	// past its live record count). A no-op for Memory.
	Compact(ns string) error
	// Stats snapshots the operation counters.
	Stats() Stats
	// Close flushes and releases the store. The store must not be used
	// afterwards.
	Close() error
}

// Stats are the observable counters of a store, served under the "persist"
// key of GET /api/v1/meta.
type Stats struct {
	Backend     string `json:"backend"`
	Namespaces  int    `json:"namespaces"`
	Records     int    `json:"records"`
	Puts        int64  `json:"puts"`
	Syncs       int64  `json:"syncs"`
	Deletes     int64  `json:"deletes"`
	Compactions int64  `json:"compactions"`
}

// validNS reports whether the namespace is filename- and wire-safe:
// non-empty ASCII letters, digits, '_', '-'.
func validNS(ns string) error {
	if ns == "" {
		return fmt.Errorf("persist: empty namespace")
	}
	for _, r := range ns {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '_', r == '-':
		default:
			return fmt.Errorf("persist: bad namespace %q (want [A-Za-z0-9_-]+)", ns)
		}
	}
	return nil
}

// memory is the in-process implementation: the pre-persistence default,
// useful as the zero-configuration backend and for tests of the wiring.
type memory struct {
	mu     sync.Mutex
	spaces map[string]map[string][]byte
	stats  Stats
}

// Memory returns an empty in-memory store. Records live exactly as long as
// the process — the behavior every layer had before persistence existed.
func Memory() Store {
	return &memory{spaces: map[string]map[string][]byte{}, stats: Stats{Backend: "memory"}}
}

func (m *memory) space(ns string) (map[string][]byte, error) {
	if err := validNS(ns); err != nil {
		return nil, err
	}
	sp, ok := m.spaces[ns]
	if !ok {
		sp = map[string][]byte{}
		m.spaces[ns] = sp
	}
	return sp, nil
}

func (m *memory) Put(ns, key string, value []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	sp, err := m.space(ns)
	if err != nil {
		return err
	}
	sp[key] = append([]byte(nil), value...)
	m.stats.Puts++
	return nil
}

func (m *memory) PutDurable(ns, key string, value []byte) error {
	if err := m.Put(ns, key, value); err != nil {
		return err
	}
	m.mu.Lock()
	m.stats.Syncs++
	m.mu.Unlock()
	return nil
}

func (m *memory) Delete(ns, key string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	sp, err := m.space(ns)
	if err != nil {
		return err
	}
	delete(sp, key)
	m.stats.Deletes++
	return nil
}

func (m *memory) DeletePrefix(ns, prefix string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	sp, err := m.space(ns)
	if err != nil {
		return err
	}
	for k := range sp {
		if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
			delete(sp, k)
		}
	}
	m.stats.Deletes++
	return nil
}

func (m *memory) Get(ns, key string) ([]byte, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	sp, err := m.space(ns)
	if err != nil {
		return nil, false, err
	}
	v, ok := sp[key]
	if !ok {
		return nil, false, nil
	}
	return append([]byte(nil), v...), true, nil
}

func (m *memory) Load(ns string) (map[string][]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	sp, err := m.space(ns)
	if err != nil {
		return nil, err
	}
	out := make(map[string][]byte, len(sp))
	for k, v := range sp {
		out[k] = append([]byte(nil), v...)
	}
	return out, nil
}

func (m *memory) Keys(ns string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	sp, err := m.space(ns)
	if err != nil {
		return nil, err
	}
	return slices.Sorted(maps.Keys(sp)), nil
}

func (m *memory) Compact(ns string) error { return validNS(ns) }

func (m *memory) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.stats
	st.Namespaces = len(m.spaces)
	for _, sp := range m.spaces {
		st.Records += len(sp)
	}
	return st
}

func (m *memory) Close() error { return nil }
