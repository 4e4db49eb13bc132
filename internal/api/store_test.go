package api

import (
	"fmt"
	"hash/fnv"
	"math"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/jedxml"
)

// fileSession registers sched as a file-backed session, the kind that
// rereads its schedule; reread rewrites the file with next and rereads it.
func fileSession(t *testing.T, st *Store, sched *core.Schedule) (sess *Session, reread func(next *core.Schedule)) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "s.jed")
	if err := jedxml.WriteFile(path, sched); err != nil {
		t.Fatal(err)
	}
	sess, err := RegisterFile(st, path)
	if err != nil {
		t.Fatal(err)
	}
	return sess, func(next *core.Schedule) {
		t.Helper()
		if err := jedxml.WriteFile(path, next); err != nil {
			t.Error(err)
			return
		}
		if err := sess.Reread(); err != nil {
			t.Error(err)
		}
	}
}

func demoSchedule() *core.Schedule {
	s := core.New(
		core.Cluster{ID: 0, Name: "alpha", Hosts: 8},
		core.Cluster{ID: 1, Name: "beta", Hosts: 4},
	)
	s.Add("t1", "computation", 0, 60, 0, 4)
	s.Add("t2", "computation", 20, 80, 4, 4)
	s.AddTask(core.Task{
		ID: "t3", Type: "transfer", Start: 60, End: 120,
		Allocations: []core.Allocation{
			{Cluster: 0, Hosts: []core.HostRange{{Start: 0, N: 2}}},
			{Cluster: 1, Hosts: []core.HostRange{{Start: 0, N: 2}}},
		},
	})
	s.SetMeta("algorithm", "demo")
	return s
}

func TestStoreLifecycle(t *testing.T) {
	st := NewStore()
	a := st.Add("first", "upload", demoSchedule())
	if a.ID != "s1" {
		t.Fatalf("generated id = %q", a.ID)
	}
	b, err := st.PutRecipe("named", "second", "file", demoSchedule(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.PutRecipe("named", "dup", "file", demoSchedule(), nil); err == nil {
		t.Fatal("duplicate Put should fail")
	}
	if _, err := st.PutRecipe("", "x", "file", demoSchedule(), nil); err == nil {
		t.Fatal("empty id should fail")
	}
	got, ok := st.Get("named")
	if !ok || got != b {
		t.Fatal("Get(named) failed")
	}
	list := st.List()
	if len(list) != 2 || list[0].ID != "named" || list[1].ID != "s1" {
		t.Fatalf("List = %v", []string{list[0].ID, list[1].ID})
	}
	if !st.Delete("s1") || st.Delete("s1") {
		t.Fatal("Delete semantics broken")
	}
	if st.Len() != 1 {
		t.Fatalf("Len = %d", st.Len())
	}
}

// TestStoreGeneratedIDSkipsTaken pins the Add/Put interaction: explicit IDs
// in the generated namespace must not be handed out twice.
func TestStoreGeneratedIDSkipsTaken(t *testing.T) {
	st := NewStore()
	if _, err := st.PutRecipe("s1", "taken", "file", demoSchedule(), nil); err != nil {
		t.Fatal(err)
	}
	got := st.Add("auto", "upload", demoSchedule())
	if got.ID != "s2" {
		t.Fatalf("Add skipped to %q, want s2", got.ID)
	}
}

// TestStoreLRUEviction pins the MaxSessions cap: adding past the cap
// evicts the least recently used session, where Get counts as use.
func TestStoreLRUEviction(t *testing.T) {
	st := NewStore()
	st.SetMaxSessions(3)
	var ids []string
	for i := 0; i < 3; i++ {
		ids = append(ids, st.Add(fmt.Sprintf("n%d", i), "upload", demoSchedule()).ID)
	}
	// Touch s1 and s3; s2 becomes the LRU victim.
	st.Get(ids[0])
	st.Get(ids[2])
	d := st.Add("n3", "upload", demoSchedule())
	if st.Len() != 3 {
		t.Fatalf("Len = %d, want 3", st.Len())
	}
	if _, ok := st.Get(ids[1]); ok {
		t.Fatalf("LRU session %s survived", ids[1])
	}
	for _, id := range []string{ids[0], ids[2], d.ID} {
		if _, ok := st.Get(id); !ok {
			t.Fatalf("session %s evicted wrongly", id)
		}
	}

	// Lowering the cap evicts immediately, keeping the most recent uses.
	st.Get(d.ID)
	st.SetMaxSessions(1)
	if st.Len() != 1 {
		t.Fatalf("Len after cap drop = %d", st.Len())
	}
	if _, ok := st.Get(d.ID); !ok {
		t.Fatal("most recently used session evicted")
	}

	// Cap 0 removes the limit again.
	st.SetMaxSessions(0)
	for i := 0; i < 5; i++ {
		st.Add(fmt.Sprintf("x%d", i), "upload", demoSchedule())
	}
	if st.Len() != 6 {
		t.Fatalf("uncapped Len = %d", st.Len())
	}
}

// TestStoreEvictionUnderConcurrency hammers a capped store; with -race
// this pins that touch/evict bookkeeping is data-race free.
func TestStoreEvictionUnderConcurrency(t *testing.T) {
	st := NewStore()
	st.SetMaxSessions(8)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				sess := st.Add(fmt.Sprintf("w%d-%d", i, j), "upload", demoSchedule())
				st.Get(sess.ID)
				st.List()
			}
		}(i)
	}
	wg.Wait()
	if st.Len() != 8 {
		t.Fatalf("Len = %d, want cap 8", st.Len())
	}
}

func TestSessionRevision(t *testing.T) {
	st := NewStore()
	sess, reread := fileSession(t, st, demoSchedule())
	if sess.Revision() != 0 {
		t.Fatalf("fresh revision = %d", sess.Revision())
	}
	reread(demoSchedule())
	reread(demoSchedule())
	if sess.Revision() != 2 {
		t.Fatalf("revision = %d, want 2", sess.Revision())
	}
}

// TestFingerprintSurvivesRestart pins the restart scenario the revision
// counter alone cannot cover: the "same" session re-created under the same
// ID (rev 0 again) but with changed content must produce a different ETag,
// while identical content keeps validators stable.
func TestFingerprintSurvivesRestart(t *testing.T) {
	put := func(s *core.Schedule) *Session {
		st := NewStore()
		sess, err := st.PutRecipe("file-a", "a.jed", "file", s, nil)
		if err != nil {
			t.Fatal(err)
		}
		return sess
	}
	a := put(demoSchedule())
	b := put(demoSchedule())
	if etagFor(a, nil) != etagFor(b, nil) {
		t.Fatal("identical content produced different ETags across restarts")
	}
	changed := demoSchedule()
	changed.Add("t4", "computation", 120, 130, 0, 2)
	c := put(changed)
	if etagFor(a, nil) == etagFor(c, nil) {
		t.Fatal("changed content kept the old ETag across a restart (stale 304)")
	}
	// Replace detects content changes too, independent of the revision.
	if a.Fingerprint() == c.Fingerprint() {
		t.Fatal("fingerprint blind to an added task")
	}
}

// fingerprintFmt is the original fmt-based formula of fingerprintOf, kept
// as the reference the allocation-free version must reproduce byte for
// byte: persisted fingerprints and every ETag depend on it.
func fingerprintFmt(s *core.Schedule) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%d|%d", len(s.Clusters), s.TotalHosts(), len(s.Tasks))
	for _, p := range s.Meta {
		fmt.Fprintf(h, "|m:%s=%s", p.Name, p.Value)
	}
	for i := range s.Tasks {
		t := &s.Tasks[i]
		fmt.Fprintf(h, "|%s/%s/%g/%g/%d", t.ID, t.Type, t.Start, t.End, len(t.Allocations))
	}
	return h.Sum64()
}

// TestFingerprintMatchesFmtFormula checks fingerprintOf against the fmt
// reference on meta properties, zero and negative times, float extremes
// and non-ASCII text.
func TestFingerprintMatchesFmtFormula(t *testing.T) {
	s := demoSchedule()
	s.SetMeta("generator", "jedgen v2")
	s.SetMeta("note", "ünïcode = yes|no")
	times := [][2]float64{
		{0, 0}, {-0.5, 0}, {-1e300, -1e-300}, {1e21, 1e22}, {1e-7, 123456789.125},
		{math.SmallestNonzeroFloat64, math.MaxFloat64}, {0.1, 0.30000000000000004},
		{-3, 7}, {1 << 53, 1<<53 + 2}, {math.Inf(-1), math.Inf(1)},
	}
	for i, tm := range times {
		s.AddTask(core.Task{
			ID: fmt.Sprintf("x%d", i), Type: "type/" + fmt.Sprint(i), Start: tm[0], End: tm[1],
			Allocations: make([]core.Allocation, i%3),
		})
	}
	if got, want := fingerprintOf(s), fingerprintFmt(s); got != want {
		t.Fatalf("fingerprintOf = %#x, fmt reference = %#x", got, want)
	}
	empty := &core.Schedule{}
	if got, want := fingerprintOf(empty), fingerprintFmt(empty); got != want {
		t.Fatalf("empty schedule: fingerprintOf = %#x, fmt reference = %#x", got, want)
	}
}

// TestStoreConcurrent hammers the store from many goroutines; run with
// -race this is the store's concurrency contract.
func TestStoreConcurrent(t *testing.T) {
	st := NewStore()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		file, reread := fileSession(t, st, demoSchedule())
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				sess := st.Add(fmt.Sprintf("w%d-%d", i, j), "upload", demoSchedule())
				if _, ok := st.Get(sess.ID); !ok {
					t.Error("session vanished")
					return
				}
				st.List()
				reread(demoSchedule())
				_ = file.Schedule().Extent()
				if j%2 == 0 {
					st.Delete(sess.ID)
				}
			}
		}(i)
	}
	wg.Wait()
	if st.Len() != 16*25+16 {
		t.Fatalf("Len = %d, want %d", st.Len(), 16*25+16)
	}
}

// --- Session TTL ------------------------------------------------------------

// fakeClock drives the store's injectable time source.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func TestStoreTTLLazyExpiry(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	st := NewStore()
	st.now = clk.Now
	st.SetTTL(time.Minute)
	defer st.Close()

	sess := st.Add("a", "upload", demoSchedule())
	if _, ok := st.Get(sess.ID); !ok {
		t.Fatal("fresh session missing")
	}

	// Accesses inside the TTL keep the session alive.
	clk.Advance(40 * time.Second)
	if _, ok := st.Get(sess.ID); !ok {
		t.Fatal("session expired before the TTL")
	}
	clk.Advance(40 * time.Second) // 40s since last access, alive
	if _, ok := st.Get(sess.ID); !ok {
		t.Fatal("refreshed session expired")
	}

	// Idle past the TTL: the next Get expires it lazily.
	clk.Advance(2 * time.Minute)
	if _, ok := st.Get(sess.ID); ok {
		t.Fatal("idle session survived the TTL")
	}
	if st.Len() != 0 {
		t.Fatalf("Len = %d after lazy expiry", st.Len())
	}
}

func TestStoreTTLSweepAndOnDrop(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	st := NewStore()
	st.now = clk.Now
	st.SetTTL(time.Minute)
	defer st.Close()

	var mu sync.Mutex
	var dropped []string
	st.OnDrop(func(id string) {
		mu.Lock()
		dropped = append(dropped, id)
		mu.Unlock()
	})

	a := st.Add("a", "upload", demoSchedule())
	clk.Advance(45 * time.Second)
	b := st.Add("b", "upload", demoSchedule())
	clk.Advance(30 * time.Second) // a idle 75s (expired), b idle 30s

	if n := st.Sweep(); n != 1 {
		t.Fatalf("Sweep dropped %d sessions, want 1", n)
	}
	mu.Lock()
	got := append([]string(nil), dropped...)
	mu.Unlock()
	if len(got) != 1 || got[0] != a.ID {
		t.Fatalf("OnDrop saw %v, want [%s]", got, a.ID)
	}
	if _, ok := st.Get(b.ID); !ok {
		t.Fatal("young session swept")
	}
	// List and Len hide expired-but-unswept sessions too.
	clk.Advance(2 * time.Minute)
	if st.Len() != 0 || len(st.List()) != 0 {
		t.Fatalf("expired sessions visible: Len=%d List=%d", st.Len(), len(st.List()))
	}
}

func TestStoreTTLZeroNeverExpires(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	st := NewStore()
	st.now = clk.Now
	sess := st.Add("a", "upload", demoSchedule())
	clk.Advance(1000 * time.Hour)
	if _, ok := st.Get(sess.ID); !ok {
		t.Fatal("session expired without a TTL")
	}
	if st.TTL() != 0 {
		t.Fatalf("TTL = %v", st.TTL())
	}
}

func TestStoreJanitorTick(t *testing.T) {
	// Real clock, tiny TTL: the janitor (1s floor on the tick) must remove
	// the idle session without any access touching it.
	st := NewStore()
	st.SetTTL(10 * time.Millisecond)
	defer st.Close()
	st.Add("a", "upload", demoSchedule())
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		st.mu.RLock()
		n := len(st.sessions)
		st.mu.RUnlock()
		if n == 0 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("janitor never removed the expired session")
}

func TestSessionReplaceNotifiesDrop(t *testing.T) {
	st := NewStore()
	var mu sync.Mutex
	var dropped []string
	st.OnDrop(func(id string) {
		mu.Lock()
		dropped = append(dropped, id)
		mu.Unlock()
	})
	sess, reread := fileSession(t, st, demoSchedule())
	reread(demoSchedule())
	mu.Lock()
	defer mu.Unlock()
	if len(dropped) != 1 || dropped[0] != sess.ID {
		t.Fatalf("OnDrop saw %v, want [%s]", dropped, sess.ID)
	}
}
