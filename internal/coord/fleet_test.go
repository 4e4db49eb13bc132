package coord_test

// Elasticity tests: real fleet.Manager behind a real HTTP handler, real
// fleet.RunWorker loops pulling shards, and the coordinator merging their
// completions while workers stall, steal and join, held to the same
// byte-identical standard as a single-process run.

import (
	"context"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/coord"
	"repro/internal/fleet"
)

// wideSpec is an 8-cell campaign — enough shards that stealing one still
// leaves plenty to balance.
func wideSpec() campaign.Spec {
	return campaign.Spec{
		Algos:        []string{"cpa", "mcpa"},
		Shapes:       []string{"serial", "wide"},
		DAGSizes:     []int{15, 20},
		ClusterSizes: []int{16, 32},
		Replicates:   2,
		Seed:         7,
	}
}

// newFleet builds a manager and serves its worker protocol over httptest.
func newFleet(t *testing.T, cfg fleet.Config) (*fleet.Manager, string) {
	t.Helper()
	m := fleet.NewManager(cfg)
	ts := httptest.NewServer(fleet.Handler(m))
	t.Cleanup(ts.Close)
	return m, ts.URL
}

// startFleetWorker runs a worker loop until the test ends; runner nil means
// the genuine shard computation.
func startFleetWorker(t *testing.T, url, name string, runner fleet.Runner) {
	t.Helper()
	runWorker(t, fleet.WorkerConfig{Coordinator: url, Name: name, Run: runner})
}

// runWorker runs one worker loop with a fast idle poll until the test ends.
func runWorker(t *testing.T, cfg fleet.WorkerConfig) {
	t.Helper()
	cfg.Poll = 10 * time.Millisecond
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		fleet.RunWorker(ctx, cfg) //nolint:errcheck // exits on cancel
	}()
	t.Cleanup(func() { cancel(); <-done })
}

// TestFleetMatchesSingleProcess is fleet-mode acceptance: two pull workers,
// four shards, merged summary and checkpoint byte-identical to the
// in-process run — and the coordinator waited for the -min-workers quorum.
func TestFleetMatchesSingleProcess(t *testing.T) {
	m, url := newFleet(t, fleet.Config{
		HeartbeatInterval: 100 * time.Millisecond,
		LeaseTTL:          time.Minute,
	})
	startFleetWorker(t, url, "w-a", nil)
	startFleetWorker(t, url, "w-b", nil)

	// The checkpoint is wired the way jedcoord -out wires it.
	path := filepath.Join(t.TempDir(), "fleet.jsonl")
	ccfg, _, err := testSpec().Resolve()
	if err != nil {
		t.Fatal(err)
	}
	cpf, err := campaign.OpenCheckpoint(path, ccfg, false)
	if err != nil {
		t.Fatal(err)
	}
	defer cpf.Close()
	c, err := coord.New(coord.Config{
		Fleet:      m,
		MinWorkers: 2,
		Spec:       testSpec(),
		Shards:     4,
		OnCell:     cpf.WriteCell,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := summaryOf(t, res), summaryOf(t, singleProcess(t, testSpec())); got != want {
		t.Fatalf("fleet summary differs:\n%s\nvs\n%s", got, want)
	}

	// The checkpoint is complete and in the cmd/campaign format.
	cp, err := campaign.LoadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.Result().Complete(cp.Header.Cells); err != nil {
		t.Fatalf("fleet checkpoint incomplete: %v", err)
	}

	st := m.Stats()
	if st.ShardsCompleted != 4 || st.WorkersJoined < 2 {
		t.Fatalf("fleet stats = %+v", st)
	}
	p := c.Progress()
	if p.ShardsDone != 4 || len(p.Workers) < 2 {
		t.Fatalf("progress = %+v", p)
	}
}

// TestFleetWorkStealing wedges one worker on its first shard: the lease
// expires, the healthy worker steals the shard, and the run completes
// byte-identically — with the imbalance visible in the per-worker and
// fleet counters (the acceptance criterion's "slow worker finished fewer
// shards").
func TestFleetWorkStealing(t *testing.T) {
	m, url := newFleet(t, fleet.Config{
		HeartbeatInterval: 100 * time.Millisecond,
		LeaseTTL:          400 * time.Millisecond,
	})

	// The stuck runner blocks its first (and only) assignment until the test
	// tears it down; its heartbeats keep the worker registered throughout,
	// so losing the shard is a steal, not a retirement.
	stuck := func(ctx context.Context, a *fleet.Assignment) (campaign.Header, []campaign.Cell, error) {
		<-ctx.Done()
		return campaign.Header{}, nil, ctx.Err()
	}
	startFleetWorker(t, url, "stuck", stuck)
	startFleetWorker(t, url, "healthy", nil)

	c, err := coord.New(coord.Config{
		Fleet:      m,
		MinWorkers: 2,
		Spec:       wideSpec(),
		Shards:     8,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := summaryOf(t, res), summaryOf(t, singleProcess(t, wideSpec())); got != want {
		t.Fatalf("summary differs after stealing:\n%s\nvs\n%s", got, want)
	}

	st := m.Stats()
	if st.ShardsStolen < 1 {
		t.Fatalf("no shard was stolen: %+v", st)
	}
	if st.ShardsCompleted != 8 {
		t.Fatalf("shards completed = %d, want 8", st.ShardsCompleted)
	}
	var stuckDone, healthyDone = -1, -1
	for _, w := range m.Workers() {
		switch w.Name {
		case "stuck":
			stuckDone = w.ShardsDone
		case "healthy":
			healthyDone = w.ShardsDone
		}
	}
	if stuckDone != 0 || healthyDone != 8 {
		t.Fatalf("shards done: stuck=%d healthy=%d, want 0 and 8", stuckDone, healthyDone)
	}
}

// TestFleetWorkerJoinsMidRun starts the campaign with one worker and adds a
// second while shards are still queued: the newcomer participates with no
// reconfiguration, which is the elasticity the subsystem exists for.
func TestFleetWorkerJoinsMidRun(t *testing.T) {
	m, url := newFleet(t, fleet.Config{
		HeartbeatInterval: 100 * time.Millisecond,
		LeaseTTL:          time.Minute,
	})
	startFleetWorker(t, url, "founder", nil)

	// Join the latecomer as soon as the first shard lands.
	joined := make(chan struct{})
	c, err := coord.New(coord.Config{
		Fleet:      m,
		MinWorkers: 1,
		Spec:       wideSpec(),
		Shards:     8,
		OnCell: func(campaign.Cell) error {
			select {
			case <-joined:
			default:
				close(joined)
				startFleetWorker(t, url, "latecomer", nil)
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := summaryOf(t, res), summaryOf(t, singleProcess(t, wideSpec())); got != want {
		t.Fatalf("summary differs after mid-run join:\n%s\nvs\n%s", got, want)
	}
	if st := m.Stats(); st.WorkersJoined < 2 {
		t.Fatalf("latecomer never joined: %+v", st)
	}
}

// TestFleetConfigValidation pins the fleet reject and the quorum-scaled
// default shard count.
func TestFleetConfigValidation(t *testing.T) {
	m := fleet.NewManager(fleet.Config{})
	if _, err := coord.New(coord.Config{Spec: testSpec()}); err == nil {
		t.Error("config without a fleet accepted")
	}
	// The default shard count scales with the quorum.
	c, err := coord.New(coord.Config{Fleet: m, MinWorkers: 2, Spec: wideSpec()})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(c.Progress().Shard); got != 8 {
		t.Errorf("default fleet shards = %d, want 8 (4x min-workers)", got)
	}
}

// TestFleetMinWorkersTimeout pins that a fleet run with nobody joining is
// cancellable rather than hung.
func TestFleetMinWorkersTimeout(t *testing.T) {
	m, _ := newFleet(t, fleet.Config{})
	c, err := coord.New(coord.Config{Fleet: m, MinWorkers: 1, Spec: testSpec(), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if _, err := c.Run(ctx, nil); err == nil {
		t.Fatal("run with no workers succeeded")
	}
}
