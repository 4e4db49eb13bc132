package coord_test

// The coordinator tests queue shards on a real fleet.Manager served over
// httptest and let real fleet.RunWorker loops pull them, so leasing,
// completion verification, retirement and the merge are exercised over
// genuine HTTP. Failure paths use injected runners (a worker computing the
// wrong campaign, one that always fails) and a transport that cuts a worker
// off mid-run, the in-process stand-in for a machine that crashed.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/coord"
	"repro/internal/fleet"
	_ "repro/internal/sched/all"
)

// testSpec is a small two-shape campaign (4 cells) that completes in well
// under a second per shard.
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

// singleProcess runs the same campaign in-process — the golden result every
// coordinated run must reproduce exactly.
func singleProcess(t *testing.T, spec campaign.Spec) *campaign.Result {
	t.Helper()
	cfg, _, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	res, err := campaign.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// summaryOf renders the canonical summary text used for byte-equality
// comparisons.
func summaryOf(t *testing.T, res *campaign.Result) string {
	t.Helper()
	var sb strings.Builder
	if err := res.WriteSummary(&sb, 1.2); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// fastFleet is a fleet whose dead workers are retired within 300ms (three
// missed 100ms heartbeats) and whose leases never expire during a test, so
// a shard only changes hands through retirement.
func fastFleet(t *testing.T) (*fleet.Manager, string) {
	t.Helper()
	return newFleet(t, fleet.Config{
		HeartbeatInterval: 100 * time.Millisecond,
		LeaseTTL:          time.Minute,
	})
}

// errGone is what every request of a dead worker fails with.
var errGone = errors.New("worker machine gone")

// dyingTransport carries one worker's protocol traffic until the worker
// "dies", then fails every request: no completion, no heartbeat and no
// graceful leave reach the coordinator, exactly as after a machine crash.
// With dieOnLease the worker dies when its first shard is granted, before
// the assignment reaches it.
type dyingTransport struct {
	dieOnLease bool
	once       sync.Once
	gone       chan struct{} // closed on death
}

func newDyingTransport(dieOnLease bool) *dyingTransport {
	return &dyingTransport{dieOnLease: dieOnLease, gone: make(chan struct{})}
}

func (d *dyingTransport) die() { d.once.Do(func() { close(d.gone) }) }

func (d *dyingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	select {
	case <-d.gone:
		return nil, errGone
	default:
	}
	resp, err := http.DefaultTransport.RoundTrip(r)
	if err == nil && d.dieOnLease && resp.StatusCode == http.StatusOK && strings.HasSuffix(r.URL.Path, "/lease") {
		resp.Body.Close()
		d.die()
		return nil, errGone
	}
	return resp, err
}

// runAfter is a runner that holds its shard until gone is closed, so the
// worker using it cannot finish the campaign before the other one dies.
func runAfter(gone <-chan struct{}) fleet.Runner {
	return func(ctx context.Context, a *fleet.Assignment) (campaign.Header, []campaign.Cell, error) {
		select {
		case <-gone:
		case <-ctx.Done():
			return campaign.Header{}, nil, ctx.Err()
		}
		return fleet.RunAssignment(ctx, a)
	}
}

// shardsDoneBy reports how many shards the named registered worker
// completed (-1 when no such worker is registered).
func shardsDoneBy(m *fleet.Manager, name string) int {
	for _, w := range m.Workers() {
		if w.Name == name {
			return w.ShardsDone
		}
	}
	return -1
}

// TestCoordinatedMatchesSingleProcess is the acceptance path: two workers,
// four shards, merged result byte-identical to the in-process run, with
// every cell observed once and every worker still registered.
func TestCoordinatedMatchesSingleProcess(t *testing.T) {
	m, url := fastFleet(t)
	startFleetWorker(t, url, "w-a", nil)
	startFleetWorker(t, url, "w-b", nil)
	var cells int64
	c, err := coord.New(coord.Config{
		Fleet:      m,
		MinWorkers: 2,
		Spec:       testSpec(),
		Shards:     4,
		OnCell:     func(campaign.Cell) error { atomic.AddInt64(&cells, 1); return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := singleProcess(t, testSpec())
	if got, wantS := summaryOf(t, res), summaryOf(t, want); got != wantS {
		t.Fatalf("coordinated summary differs:\n%s\nvs\n%s", got, wantS)
	}
	if atomic.LoadInt64(&cells) != int64(len(want.Cells)) {
		t.Fatalf("OnCell fired %d times, want %d", cells, len(want.Cells))
	}
	p := c.Progress()
	if p.ShardsDone != 4 || p.CellsDone != len(want.Cells) {
		t.Fatalf("progress = %+v", p)
	}
	if len(p.Workers) != 2 {
		t.Fatalf("progress workers = %+v, want both registered", p.Workers)
	}
	for _, wp := range p.Workers {
		if wp.State != "active" {
			t.Fatalf("worker %s = %s", wp.URL, wp.State)
		}
	}
}

// TestWorkerDownAtDispatch has one of the two quorum workers go down just
// as its first shard is dispatched: the lease is granted but never
// received. The coordinator retires the silent worker on missed heartbeats,
// the live worker takes every shard, and the merged output stays
// byte-identical.
func TestWorkerDownAtDispatch(t *testing.T) {
	m, url := fastFleet(t)
	down := newDyingTransport(true)
	runWorker(t, fleet.WorkerConfig{Coordinator: url, Name: "down", HTTP: &http.Client{Transport: down}})
	startFleetWorker(t, url, "live", runAfter(down.gone))
	c, err := coord.New(coord.Config{Fleet: m, MinWorkers: 2, Spec: testSpec(), Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := summaryOf(t, res), summaryOf(t, singleProcess(t, testSpec())); got != want {
		t.Fatalf("summary differs with a worker down:\n%s\nvs\n%s", got, want)
	}
	if n := shardsDoneBy(m, "live"); n != 4 {
		t.Fatalf("live worker completed %d shards, want 4", n)
	}
	if st := m.Stats(); st.WorkersRetired != 1 || st.LeasesExpired < 1 {
		t.Fatalf("fleet stats = %+v, want the down worker retired and its lease requeued", st)
	}
}

// TestWorkerDiesMidShard cuts a worker off while it holds a shard: its
// result never arrives, the coordinator retires it on missed heartbeats,
// the shard goes to the survivor, and the merged output stays
// byte-identical.
func TestWorkerDiesMidShard(t *testing.T) {
	m, url := fastFleet(t)
	dying := newDyingTransport(false)
	runWorker(t, fleet.WorkerConfig{
		Coordinator: url,
		Name:        "dying",
		HTTP:        &http.Client{Transport: dying},
		Run: func(ctx context.Context, a *fleet.Assignment) (campaign.Header, []campaign.Cell, error) {
			dying.die()
			return fleet.RunAssignment(ctx, a)
		},
	})
	// The stable worker holds back until the other one has died holding a
	// shard, so the death always strikes mid-shard.
	startFleetWorker(t, url, "stable", runAfter(dying.gone))
	c, err := coord.New(coord.Config{Fleet: m, MinWorkers: 2, Spec: testSpec(), Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := summaryOf(t, res), summaryOf(t, singleProcess(t, testSpec())); got != want {
		t.Fatalf("summary differs after mid-shard death:\n%s\nvs\n%s", got, want)
	}
	if st := m.Stats(); st.WorkersRetired < 1 || st.ShardsCompleted != 4 {
		t.Fatalf("fleet stats = %+v, want the dead worker retired and 4 shards completed", st)
	}
	if n := shardsDoneBy(m, "stable"); n != 4 {
		t.Fatalf("stable worker completed %d shards, want 4", n)
	}
}

// TestAllWorkersDead pins the no-live-workers mode: when the only worker
// dies as its first shard is dispatched, the run neither succeeds nor hangs past its context. It
// waits for a replacement, with the dead worker retired and its shard
// handed back to the queue.
func TestAllWorkersDead(t *testing.T) {
	m, url := fastFleet(t)
	dying := newDyingTransport(true)
	runWorker(t, fleet.WorkerConfig{Coordinator: url, Name: "only", HTTP: &http.Client{Transport: dying}})
	c, err := coord.New(coord.Config{Fleet: m, MinWorkers: 1, Spec: testSpec(), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := c.Run(ctx, nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("run with no live workers = %v, want the context deadline", err)
	}
	if st := m.Stats(); st.WorkersRetired != 1 || st.LeasesExpired < 1 || st.ShardsCompleted != 0 {
		t.Fatalf("fleet stats = %+v, want the worker retired and its lease requeued", st)
	}
}

// TestShardAttemptsExhausted pins that a shard failing on a healthy worker
// burns the attempt budget and fails the run (rather than looping forever).
func TestShardAttemptsExhausted(t *testing.T) {
	m, url := fastFleet(t)
	startFleetWorker(t, url, "broken", func(context.Context, *fleet.Assignment) (campaign.Header, []campaign.Cell, error) {
		return campaign.Header{}, nil, errors.New("runner always fails")
	})
	c, err := coord.New(coord.Config{Fleet: m, Spec: testSpec(), Shards: 1, MaxAttempts: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Run(context.Background(), nil)
	if err == nil || !strings.Contains(err.Error(), "after 2 attempts") {
		t.Fatalf("err = %v, want attempt exhaustion", err)
	}
}

// TestHeaderGuard pins the campaign-identity check: a worker answering with
// cells of a different campaign must never be merged. Its completion is
// rejected for the header mismatch and the run fails once the shard's
// attempt budget is spent.
func TestHeaderGuard(t *testing.T) {
	m, url := fastFleet(t)
	var mu sync.Mutex
	var logs []string
	runWorker(t, fleet.WorkerConfig{
		Coordinator: url,
		Name:        "foreign",
		// The worker truthfully runs a *different* campaign: same shard,
		// another seed, so its result header mismatches the coordinator's.
		Run: func(ctx context.Context, a *fleet.Assignment) (campaign.Header, []campaign.Cell, error) {
			a.Spec.Seed = 999
			return fleet.RunAssignment(ctx, a)
		},
		Logf: func(format string, args ...any) {
			mu.Lock()
			defer mu.Unlock()
			logs = append(logs, fmt.Sprintf(format, args...))
		},
	})
	c, err := coord.New(coord.Config{Fleet: m, Spec: testSpec(), Shards: 1, MaxAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Run(context.Background(), nil)
	if err == nil || !strings.Contains(err.Error(), "after 1 attempts") {
		t.Fatalf("err = %v, want the shard failed after its one attempt", err)
	}
	if st := m.Stats(); st.ShardsCompleted != 0 {
		t.Fatalf("a foreign result was accepted: %+v", st)
	}
	// The worker's log line can trail the run's end by one round trip.
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		joined := strings.Join(logs, "\n")
		mu.Unlock()
		if strings.Contains(joined, "rejected") && strings.Contains(joined, "header") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker never saw a header rejection; log:\n%s", joined)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCheckpointAndResume resumes a run from the cells a caller already
// holds — what a resumed checkpoint gives Run: only the shards those cells
// do not cover are leased, OnCell fires exactly for the cells that were
// missing, and the summary is byte-identical to a fresh run's.
func TestCheckpointAndResume(t *testing.T) {
	m, url := fastFleet(t)
	startFleetWorker(t, url, "w", nil)
	want := singleProcess(t, testSpec())

	// Four 1-cell shards; the caller holds every cell but the third, as if
	// the third shard's record had been torn off its checkpoint.
	var done []campaign.Cell
	for _, cell := range want.Cells {
		if cell.Index != 2 {
			done = append(done, cell)
		}
	}
	var fired []int
	c, err := coord.New(coord.Config{
		Fleet:  m,
		Spec:   testSpec(),
		Shards: 4,
		OnCell: func(cell campaign.Cell) error {
			fired = append(fired, cell.Index)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background(), done)
	if err != nil {
		t.Fatal(err)
	}
	if got, wantS := summaryOf(t, res), summaryOf(t, want); got != wantS {
		t.Fatalf("resumed summary differs:\n%s\nvs\n%s", got, wantS)
	}
	if st := m.Stats(); st.LeasesGranted != 1 || st.ShardsCompleted != 1 {
		t.Fatalf("fleet stats = %+v, want the one uncovered shard leased and completed", st)
	}
	if len(fired) != 1 || fired[0] != 2 {
		t.Fatalf("OnCell fired for cells %v, want [2]", fired)
	}
	p := c.Progress()
	if p.ShardsDone != 4 || p.CellsDone != 4 {
		t.Fatalf("progress = %+v", p)
	}
	for _, sh := range p.Shard {
		if covered := sh.Shard != 3; covered != (sh.Worker == "") {
			t.Fatalf("shard %d worker = %q", sh.Shard, sh.Worker)
		}
	}

	// A cell outside the factorial is refused.
	c2, err := coord.New(coord.Config{Fleet: m, Spec: testSpec(), Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Run(context.Background(), []campaign.Cell{{Index: 99}}); err == nil {
		t.Fatal("a resumed cell outside the factorial was accepted")
	}
}

// TestMergedCellsShareAlgos: every merged cell, whether resumed or leased
// and decoded from a worker's answer, shares one backing array for its
// algorithm list instead of keeping its own copy.
func TestMergedCellsShareAlgos(t *testing.T) {
	m, url := fastFleet(t)
	startFleetWorker(t, url, "w", nil)
	// The caller resumes the first two cells, each with its own copy.
	var done []campaign.Cell
	for _, cell := range singleProcess(t, testSpec()).Cells[:2] {
		cell.Algos = slices.Clone(cell.Algos)
		done = append(done, cell)
	}
	c, err := coord.New(coord.Config{Fleet: m, Spec: testSpec(), Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background(), done)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 4 || !slices.Equal(res.Cells[0].Algos, testSpec().Algos) {
		t.Fatalf("cells = %+v", res.Cells)
	}
	shared := &res.Cells[0].Algos[0]
	for _, cell := range res.Cells {
		if &cell.Algos[0] != shared {
			t.Errorf("cell %d keeps its own algos slice", cell.Index)
		}
	}
}

// TestOnCellErrorAbortsRun pins that a failed OnCell — a checkpoint write
// that did not land — aborts the run with that error.
func TestOnCellErrorAbortsRun(t *testing.T) {
	m, url := fastFleet(t)
	startFleetWorker(t, url, "w", nil)
	errDisk := errors.New("disk full")
	c, err := coord.New(coord.Config{
		Fleet:  m,
		Spec:   testSpec(),
		Shards: 4,
		OnCell: func(campaign.Cell) error { return errDisk },
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(context.Background(), nil); !errors.Is(err, errDisk) {
		t.Fatalf("err = %v, want the OnCell error", err)
	}
}

// TestConfigValidation covers New's rejects plus the run-once guard.
func TestConfigValidation(t *testing.T) {
	m, url := fastFleet(t)
	spec := testSpec()
	if _, err := coord.New(coord.Config{Spec: spec}); err == nil {
		t.Error("config without a fleet accepted")
	}
	withShard := spec
	withShard.Shard = "1/2"
	if _, err := coord.New(coord.Config{Fleet: m, Spec: withShard}); err == nil {
		t.Error("pre-sharded spec accepted")
	}
	bad := spec
	bad.Algos = []string{"cpa"}
	if _, err := coord.New(coord.Config{Fleet: m, Spec: bad}); err == nil {
		t.Error("one-algo spec accepted")
	}
	if _, err := coord.New(coord.Config{Fleet: m, Spec: spec, Shards: -1}); err == nil {
		t.Error("negative shard count accepted")
	}
	if _, err := coord.New(coord.Config{Fleet: m, Spec: spec, MaxAttempts: -1}); err == nil {
		t.Error("negative attempt budget accepted")
	}
	startFleetWorker(t, url, "w", nil)
	c, err := coord.New(coord.Config{Fleet: m, Spec: spec, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(context.Background(), nil); err == nil {
		t.Error("second Run accepted")
	}
}

// TestCancelMidRun pins that cancelling the coordinator's context aborts
// the run with an error instead of hanging.
func TestCancelMidRun(t *testing.T) {
	m, url := fastFleet(t)
	startFleetWorker(t, url, "w", nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c, err := coord.New(coord.Config{
		Fleet:  m,
		Spec:   testSpec(),
		Shards: 4,
		// Strike as soon as the first shard lands, while others are pending.
		OnCell: func(campaign.Cell) error { cancel(); return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(ctx, nil); err == nil {
		t.Fatal("cancelled run succeeded")
	}
}
