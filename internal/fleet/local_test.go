package fleet_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/fleet"
)

// startLocal runs m's local worker with run until the test ends.
func startLocal(t *testing.T, m *fleet.Manager, run fleet.Runner) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		m.RunLocal(ctx, "local", run)
	}()
	t.Cleanup(func() { cancel(); <-done })
}

// nextDone waits for the run's next completion.
func nextDone(t *testing.T, run *fleet.Run) fleet.ShardDone {
	t.Helper()
	select {
	case d := <-run.Completions():
		return d
	case <-time.After(30 * time.Second):
		t.Fatal("no completion")
		return fleet.ShardDone{}
	}
}

// TestLocalWorkerComputesRun runs a whole campaign on the in-process worker
// with a heartbeat interval far longer than the test: every shard is picked
// up through the wake channel, never by a timer, and the merged cells equal
// the single-process run.
func TestLocalWorkerComputesRun(t *testing.T) {
	m := fleet.NewManager(fleet.Config{HeartbeatInterval: time.Hour})
	startLocal(t, m, nil)
	header, cells := testIdentity(t)
	run, err := m.StartRun(fleet.RunConfig{
		Spec: testSpec(), Shards: 2, Pending: []int{1, 2},
		Header: header, CellCount: cells,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := &campaign.Result{Algos: testSpec().Algos}
	for i := 0; i < 2; i++ {
		d := nextDone(t, run)
		if d.Err != nil {
			t.Fatal(d.Err)
		}
		got.Cells = append(got.Cells, d.Cells...)
	}
	cfg, _, err := testSpec().Resolve()
	if err != nil {
		t.Fatal(err)
	}
	want, err := campaign.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range got.Cells {
		got.Total += c.Runs
	}
	merged, err := campaign.Merge(got)
	if err != nil {
		t.Fatal(err)
	}
	var a, b strings.Builder
	if err := merged.WriteTable(&a); err != nil {
		t.Fatal(err)
	}
	if err := want.WriteTable(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("local worker table differs:\n%s\nvs\n%s", a.String(), b.String())
	}
	if st := m.Stats(); st.WorkersActive != 1 || st.ShardsCompleted != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestLocalWorkerRunEndFreesWorker ends a run while its shard computes: the
// shard's context ends with the run, and the worker takes the next run's
// shard at once.
func TestLocalWorkerRunEndFreesWorker(t *testing.T) {
	m := fleet.NewManager(fleet.Config{HeartbeatInterval: time.Hour})
	started := make(chan string, 2)
	stopped := make(chan error, 1)
	startLocal(t, m, func(ctx context.Context, a *fleet.Assignment) (campaign.Header, []campaign.Cell, error) {
		started <- a.Run
		if a.Run == "r1" {
			<-ctx.Done() // a shard that would never finish on its own
			stopped <- ctx.Err()
			return campaign.Header{}, nil, ctx.Err()
		}
		header, cells := testIdentity(t)
		return header, shardCells(a.Shard, a.Shards, cells), nil
	})
	blocked, _, _ := startTestRun(t, m, []int{1}, 0)
	if r := <-started; r != "r1" {
		t.Fatalf("first shard from %s", r)
	}
	next, _, _ := startTestRun(t, m, []int{1, 2}, 0)
	blocked.End()
	select {
	case err := <-stopped:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("blocked shard ended with %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("ending the run did not end its shard")
	}
	for i := 0; i < 2; i++ {
		if d := nextDone(t, next); d.Err != nil {
			t.Fatal(d.Err)
		}
	}
}

// TestLocalWorkerFailureFailsRun pins the no-lease-wait failure path: a
// shard the local worker cannot compute fails its run immediately, with the
// cause, on the first attempt.
func TestLocalWorkerFailureFailsRun(t *testing.T) {
	m := fleet.NewManager(fleet.Config{HeartbeatInterval: time.Hour, LeaseTTL: time.Hour})
	startLocal(t, m, func(context.Context, *fleet.Assignment) (campaign.Header, []campaign.Cell, error) {
		return campaign.Header{}, nil, errors.New("disk on fire")
	})
	run, _, _ := startTestRun(t, m, []int{1, 2}, 3)
	d := nextDone(t, run)
	if d.Err == nil || !strings.Contains(d.Err.Error(), "disk on fire") {
		t.Fatalf("completion = %+v, want the runner's error", d)
	}
	if st := m.Stats(); st.ActiveRuns != 0 || st.LeasesGranted != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestLocalWorkerHeartbeats keeps the worker registered through idle time
// and a shard that runs for many worker TTLs, on the real clock.
func TestLocalWorkerHeartbeats(t *testing.T) {
	m := fleet.NewManager(fleet.Config{HeartbeatInterval: 10 * time.Millisecond})
	startLocal(t, m, func(ctx context.Context, a *fleet.Assignment) (campaign.Header, []campaign.Cell, error) {
		time.Sleep(200 * time.Millisecond) // 6+ worker TTLs
		header, cells := testIdentity(t)
		return header, shardCells(a.Shard, a.Shards, cells), nil
	})
	time.Sleep(100 * time.Millisecond) // idle
	run, _, _ := startTestRun(t, m, []int{1}, 0)
	if d := nextDone(t, run); d.Err != nil {
		t.Fatal(d.Err)
	}
	if st := m.Stats(); st.WorkersRetired != 0 || st.WorkersJoined != 1 || st.ShardsCompleted != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestLocalWorkerStops leaves the fleet when its context ends, handing back
// a shard it holds.
func TestLocalWorkerStops(t *testing.T) {
	m := fleet.NewManager(fleet.Config{HeartbeatInterval: time.Hour})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	leased := make(chan struct{})
	go func() {
		defer close(done)
		m.RunLocal(ctx, "local", func(ctx context.Context, _ *fleet.Assignment) (campaign.Header, []campaign.Cell, error) {
			close(leased)
			<-ctx.Done()
			return campaign.Header{}, nil, ctx.Err()
		})
	}()
	run, _, _ := startTestRun(t, m, []int{1}, 0)
	defer run.End()
	<-leased
	cancel()
	<-done
	if st := m.Stats(); st.WorkersLeft != 1 || st.WorkersActive != 0 || st.QueueDepth != 1 {
		t.Fatalf("stats after stop = %+v", st)
	}
}
