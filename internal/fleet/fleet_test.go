package fleet_test

// The manager tests drive lease and registration expiry through the
// injectable clock, so every liveness path — retirement, stealing, attempt
// exhaustion, late duplicates — is pinned without a single sleep.

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/fleet"
	_ "repro/internal/sched/all"
)

// fakeClock is a hand-advanced time source.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// testSpec is the 4-cell campaign the coordinator tests use.
func testSpec() campaign.Spec {
	return campaign.Spec{
		Algos:        []string{"cpa", "mcpa"},
		Shapes:       []string{"serial", "wide"},
		DAGSizes:     []int{15},
		ClusterSizes: []int{16, 32},
		Replicates:   2,
		Seed:         11,
	}
}

// testIdentity resolves the spec into the header and cell count a RunConfig
// needs.
func testIdentity(t *testing.T) (campaign.Header, int) {
	t.Helper()
	cfg, _, err := testSpec().Resolve()
	if err != nil {
		t.Fatal(err)
	}
	return campaign.NewHeader(cfg), len(campaign.Cells(cfg))
}

// shardCells fabricates a shard's exact cell-index slice. The manager
// verifies identity and bounds, not cell payloads, so index-only cells are
// enough for queue tests.
func shardCells(k, n, total int) []campaign.Cell {
	var out []campaign.Cell
	for i := k - 1; i < total; i += n {
		out = append(out, campaign.Cell{Index: i})
	}
	return out
}

// startTestRun opens a 2-shard run over the test campaign.
func startTestRun(t *testing.T, m *fleet.Manager, pending []int, maxAttempts int) (*fleet.Run, campaign.Header, int) {
	t.Helper()
	header, cells := testIdentity(t)
	run, err := m.StartRun(fleet.RunConfig{
		Spec: testSpec(), Shards: 2, Pending: pending,
		Header: header, CellCount: cells, MaxAttempts: maxAttempts,
	})
	if err != nil {
		t.Fatal(err)
	}
	return run, header, cells
}

// TestLeaseExpiryStealAndDuplicate is the work-stealing core: a healthy but
// slow worker's lease expires, the shard is requeued and taken by the fast
// worker, and the slow worker's late completion is discarded — first
// verified result wins.
func TestLeaseExpiryStealAndDuplicate(t *testing.T) {
	clk := newFakeClock()
	m := fleet.NewManager(fleet.Config{
		HeartbeatInterval: 10 * time.Second, // worker TTL 30s
		LeaseTTL:          5 * time.Second,
		Clock:             clk.Now,
	})
	slow := m.Join("slow", nil)
	busy := m.Join("busy", nil)
	thief := m.Join("thief", nil)
	run, header, cells := startTestRun(t, m, []int{1, 2}, 3)

	a1, err := m.Lease(slow.ID)
	if err != nil || a1 == nil {
		t.Fatalf("slow lease = %v, %v", a1, err)
	}

	// The slow worker sits on its lease past the TTL while heartbeating: the
	// shard is requeued as stolen, ahead of the untouched second shard.
	clk.Advance(6 * time.Second)
	for _, id := range []string{slow.ID, busy.ID, thief.ID} {
		if _, err := m.Heartbeat(id); err != nil {
			t.Fatalf("heartbeat %s: %v", id, err)
		}
	}
	m.Tick()
	st := m.Stats()
	if st.ShardsStolen != 1 || st.LeasesExpired != 1 {
		t.Fatalf("stats after expiry = %+v, want 1 stolen / 1 expired", st)
	}

	// The thief takes the requeued shard and completes it first; the run is
	// still live (the second shard is outstanding).
	a3, err := m.Lease(thief.ID)
	if err != nil || a3 == nil || a3.Shard != a1.Shard {
		t.Fatalf("steal lease = %v, %v (want shard %d)", a3, err, a1.Shard)
	}
	resp, err := m.Complete(thief.ID, fleet.CompleteRequest{
		Run: a3.Run, Lease: a3.Lease, Shard: a3.Shard,
		Header: header, Cells: shardCells(a3.Shard, 2, cells),
	})
	if err != nil || !resp.Accepted {
		t.Fatalf("stolen completion = %+v, %v", resp, err)
	}

	// The slow worker finally reports the same shard: discarded, not merged.
	resp, err = m.Complete(slow.ID, fleet.CompleteRequest{
		Run: a1.Run, Lease: a1.Lease, Shard: a1.Shard,
		Header: header, Cells: shardCells(a1.Shard, 2, cells),
	})
	if err != nil || resp.Accepted {
		t.Fatalf("late duplicate = %+v, %v (want discarded)", resp, err)
	}

	// The busy worker picks up the remaining shard and finishes the run.
	a2, err := m.Lease(busy.ID)
	if err != nil || a2 == nil || a2.Shard == a1.Shard {
		t.Fatalf("busy lease = %v, %v", a2, err)
	}
	resp, err = m.Complete(busy.ID, fleet.CompleteRequest{
		Run: a2.Run, Lease: a2.Lease, Shard: a2.Shard,
		Header: header, Cells: shardCells(a2.Shard, 2, cells),
	})
	if err != nil || !resp.Accepted {
		t.Fatalf("busy completion = %+v, %v", resp, err)
	}
	if st := m.Stats(); st.DuplicatesDiscarded != 1 || st.ShardsCompleted != 2 {
		t.Fatalf("stats = %+v, want 1 duplicate / 2 completed", st)
	}

	// Both shards were delivered exactly once, neither by the slow worker.
	for i := 0; i < 2; i++ {
		select {
		case d := <-run.Completions():
			if d.Err != nil || d.Worker == slow.ID {
				t.Fatalf("completion %d = %+v", i, d)
			}
		default:
			t.Fatalf("completion %d missing", i)
		}
	}
	want := map[string]int{slow.ID: 0, busy.ID: 1, thief.ID: 1}
	for _, w := range m.Workers() {
		if w.ShardsDone != want[w.ID] {
			t.Fatalf("worker %s did %d shards, want %d", w.ID, w.ShardsDone, want[w.ID])
		}
	}
}

// TestWorkerRetirement pins the registration-TTL half of liveness: a silent
// worker is retired, its shard requeues immediately (not counted stolen),
// and every endpoint answers ErrUnknownWorker afterwards.
func TestWorkerRetirement(t *testing.T) {
	clk := newFakeClock()
	m := fleet.NewManager(fleet.Config{
		HeartbeatInterval: 10 * time.Second, // worker TTL 30s
		LeaseTTL:          2 * time.Minute,
		Clock:             clk.Now,
	})
	w1 := m.Join("doomed", nil)
	_, header, cells := startTestRun(t, m, []int{1}, 3)
	a1, err := m.Lease(w1.ID)
	if err != nil || a1 == nil {
		t.Fatalf("lease = %v, %v", a1, err)
	}

	clk.Advance(31 * time.Second)
	w2 := m.Join("successor", nil) // any manager call expires the silent
	st := m.Stats()
	if st.WorkersRetired != 1 || st.ShardsStolen != 0 {
		t.Fatalf("stats = %+v, want 1 retired / 0 stolen", st)
	}
	if _, err := m.Heartbeat(w1.ID); err == nil {
		t.Fatal("retired worker still heartbeats")
	}
	if _, err := m.Complete(w1.ID, fleet.CompleteRequest{
		Run: a1.Run, Lease: a1.Lease, Shard: a1.Shard,
		Header: header, Cells: shardCells(a1.Shard, 2, cells),
	}); err == nil {
		t.Fatal("retired worker's completion accepted")
	}

	// The requeued shard goes to the successor.
	a2, err := m.Lease(w2.ID)
	if err != nil || a2 == nil || a2.Shard != a1.Shard {
		t.Fatalf("successor lease = %v, %v", a2, err)
	}
}

// TestAttemptExhaustionFailsRun pins the attempt budget: a shard whose
// leases keep expiring fails the run with a terminal error instead of
// cycling forever.
func TestAttemptExhaustionFailsRun(t *testing.T) {
	clk := newFakeClock()
	m := fleet.NewManager(fleet.Config{
		HeartbeatInterval: 10 * time.Second,
		LeaseTTL:          5 * time.Second,
		Clock:             clk.Now,
	})
	w := m.Join("stuck", nil)
	run, _, _ := startTestRun(t, m, []int{1}, 2)

	for attempt := 1; attempt <= 2; attempt++ {
		a, err := m.Lease(w.ID)
		if err != nil || a == nil {
			t.Fatalf("lease attempt %d = %v, %v", attempt, a, err)
		}
		clk.Advance(6 * time.Second)
		if _, err := m.Heartbeat(w.ID); err != nil {
			t.Fatal(err)
		}
		m.Tick()
	}
	select {
	case d := <-run.Completions():
		if d.Err == nil || !strings.Contains(d.Err.Error(), "after 2 attempts") {
			t.Fatalf("terminal delivery = %+v, want attempt exhaustion", d)
		}
	default:
		t.Fatal("no terminal delivery after exhausting attempts")
	}
	if st := m.Stats(); st.ActiveRuns != 0 {
		t.Fatalf("failed run still active: %+v", st)
	}
}

// TestDrainAndLeave pins graceful shutdown: a draining worker gets no new
// shards but may complete the one it holds; Leave requeues anything left.
func TestDrainAndLeave(t *testing.T) {
	clk := newFakeClock()
	m := fleet.NewManager(fleet.Config{Clock: clk.Now})
	w := m.Join("leaver", nil)
	_, header, cells := startTestRun(t, m, []int{1, 2}, 3)

	a, err := m.Lease(w.ID)
	if err != nil || a == nil {
		t.Fatalf("lease = %v, %v", a, err)
	}
	if err := m.Drain(w.ID); err != nil {
		t.Fatal(err)
	}
	if ws := m.Workers(); len(ws) != 1 || ws[0].State != "draining" {
		t.Fatalf("workers = %+v, want one draining", ws)
	}
	if extra, err := m.Lease(w.ID); err != nil || extra != nil {
		t.Fatalf("draining worker got shard %v (err %v)", extra, err)
	}
	resp, err := m.Complete(w.ID, fleet.CompleteRequest{
		Run: a.Run, Lease: a.Lease, Shard: a.Shard,
		Header: header, Cells: shardCells(a.Shard, 2, cells),
	})
	if err != nil || !resp.Accepted {
		t.Fatalf("draining completion = %+v, %v", resp, err)
	}

	m.Leave(w.ID)
	st := m.Stats()
	if st.WorkersLeft != 1 || st.WorkersActive != 0 || st.WorkersDraining != 0 {
		t.Fatalf("stats after leave = %+v", st)
	}
	// The untouched shard is still queued for whoever joins next.
	w2 := m.Join("next", nil)
	if a2, err := m.Lease(w2.ID); err != nil || a2 == nil {
		t.Fatalf("post-leave lease = %v, %v", a2, err)
	}
}

// TestCompletionVerification pins the identity guard: wrong header, wrong
// cell count, and out-of-shard indices are all rejected (requeueing the
// shard), and only the exact shard slice is accepted.
func TestCompletionVerification(t *testing.T) {
	clk := newFakeClock()
	m := fleet.NewManager(fleet.Config{Clock: clk.Now})
	w := m.Join("liar", nil)
	_, header, cells := startTestRun(t, m, []int{1}, 10)

	lease := func() *fleet.Assignment {
		t.Helper()
		a, err := m.Lease(w.ID)
		if err != nil || a == nil {
			t.Fatalf("lease = %v, %v", a, err)
		}
		return a
	}

	a := lease()
	wrongHeader := header
	wrongHeader.Seed = 999
	if _, err := m.Complete(w.ID, fleet.CompleteRequest{
		Run: a.Run, Lease: a.Lease, Shard: a.Shard,
		Header: wrongHeader, Cells: shardCells(a.Shard, 2, cells),
	}); err == nil || !strings.Contains(err.Error(), "header") {
		t.Fatalf("wrong header accepted (err %v)", err)
	}

	a = lease()
	if _, err := m.Complete(w.ID, fleet.CompleteRequest{
		Run: a.Run, Lease: a.Lease, Shard: a.Shard,
		Header: header, Cells: shardCells(a.Shard, 2, cells)[:1],
	}); err == nil || !strings.Contains(err.Error(), "cells") {
		t.Fatalf("short shard accepted (err %v)", err)
	}

	a = lease()
	stray := shardCells(2, 2, cells) // the other shard's indices
	if _, err := m.Complete(w.ID, fleet.CompleteRequest{
		Run: a.Run, Lease: a.Lease, Shard: a.Shard,
		Header: header, Cells: stray,
	}); err == nil || !strings.Contains(err.Error(), "outside shard") {
		t.Fatalf("stray cells accepted (err %v)", err)
	}

	a = lease()
	resp, err := m.Complete(w.ID, fleet.CompleteRequest{
		Run: a.Run, Lease: a.Lease, Shard: a.Shard,
		Header: header, Cells: shardCells(a.Shard, 2, cells),
	})
	if err != nil || !resp.Accepted {
		t.Fatalf("honest completion = %+v, %v", resp, err)
	}
}

// TestCompletionForEndedRun pins that a completion racing the run's end is
// a polite no (not an error): the worker just moves on.
func TestCompletionForEndedRun(t *testing.T) {
	clk := newFakeClock()
	m := fleet.NewManager(fleet.Config{Clock: clk.Now})
	w := m.Join("late", nil)
	run, header, cells := startTestRun(t, m, []int{1}, 3)
	a, err := m.Lease(w.ID)
	if err != nil || a == nil {
		t.Fatalf("lease = %v, %v", a, err)
	}
	run.End()
	resp, err := m.Complete(w.ID, fleet.CompleteRequest{
		Run: a.Run, Lease: a.Lease, Shard: a.Shard,
		Header: header, Cells: shardCells(a.Shard, 2, cells),
	})
	if err != nil || resp.Accepted {
		t.Fatalf("completion for ended run = %+v, %v", resp, err)
	}
	if !strings.Contains(resp.Reason, "ended") {
		t.Fatalf("reason = %q", resp.Reason)
	}
}
