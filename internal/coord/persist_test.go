package coord_test

// Store-backed run journal: a coordinator pointed at a persist.Store writes
// its identity header and every fetched cell under its run ID, so a second
// coordinator sharing the store resumes exactly like a file-checkpoint
// resume — and refuses a journal written by a different campaign.

import (
	"context"
	"encoding/json"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/internal/campaign"
	"repro/internal/coord"
	"repro/internal/fleet"
	"repro/internal/jobs"
	"repro/internal/persist"
)

func TestRunJournalResume(t *testing.T) {
	ps, err := persist.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	m, url := fastFleet(t)
	startFleetWorker(t, url, "w", nil)

	// First coordinator: one worker processes the four 1-cell shards
	// serially; cancel after the first recorded cell tears the run down
	// with the rest of the factorial unfetched.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var firstRun int64
	c1, err := coord.New(coord.Config{
		Fleet:   m,
		Spec:    testSpec(),
		Shards:  4,
		Persist: ps,
		RunID:   "r1",
		OnCell: func(campaign.Cell) {
			if atomic.AddInt64(&firstRun, 1) == 1 {
				cancel()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Run(ctx); err == nil {
		t.Fatal("interrupted run reported success")
	}
	if _, ok, err := ps.Get("runs", "r1/header"); err != nil || !ok {
		t.Fatalf("run header not journaled (ok=%v err=%v)", ok, err)
	}

	// Second coordinator, same store and run ID: the journaled cells
	// preload, the rest is fetched, and the merged result matches the
	// single-process run byte for byte.
	var secondRun int64
	c2, err := coord.New(coord.Config{
		Fleet:   m,
		Spec:    testSpec(),
		Shards:  4,
		Persist: ps,
		RunID:   "r1",
		Resume:  true,
		OnCell:  func(campaign.Cell) { atomic.AddInt64(&secondRun, 1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := singleProcess(t, testSpec())
	if got, wantS := summaryOf(t, res), summaryOf(t, want); got != wantS {
		t.Fatalf("resumed summary differs:\n%s\nvs\n%s", got, wantS)
	}
	total := atomic.LoadInt64(&firstRun) + atomic.LoadInt64(&secondRun)
	if total != int64(len(want.Cells)) {
		t.Fatalf("cells fetched across both runs = %d, want %d (journaled cells were recomputed)",
			total, len(want.Cells))
	}
	// A completed run drops its journal.
	if _, ok, err := ps.Get("runs", "r1/header"); err != nil || ok {
		t.Fatalf("journal of completed run not dropped (ok=%v err=%v)", ok, err)
	}
}

func TestRunJournalHeaderMismatch(t *testing.T) {
	ps, err := persist.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()

	// Journal a header of a *different* campaign under the run ID.
	other := testSpec()
	other.Seed = 99
	cfg, _, err := other.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(campaign.NewHeader(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if err := ps.PutDurable("runs", "r1/header", b); err != nil {
		t.Fatal(err)
	}

	m, url := fastFleet(t)
	startFleetWorker(t, url, "w", nil)
	c, err := coord.New(coord.Config{
		Fleet:   m,
		Spec:    testSpec(),
		Shards:  2,
		Persist: ps,
		RunID:   "r1",
		Resume:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(context.Background()); err == nil {
		t.Fatal("resume against a foreign run journal succeeded")
	}

	// Without Resume the stale journal is simply replaced.
	c2, err := coord.New(coord.Config{
		Fleet:   m,
		Spec:    testSpec(),
		Shards:  2,
		Persist: ps,
		RunID:   "r1",
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestPersistNeedsRunID(t *testing.T) {
	ps := persist.Memory()
	_, err := coord.New(coord.Config{
		Fleet:   fleet.NewManager(fleet.Config{}),
		Spec:    jobs.CampaignSpec{Algos: []string{"cpa", "mcpa"}},
		Persist: ps,
	})
	if err == nil {
		t.Fatal("Persist without RunID accepted")
	}
}

// TestResumedCheckpointHoldsJournaledCells resumes a run from its store
// journal into a fresh checkpoint file: the file must end up holding the
// whole factorial, journaled cells included, so `campaign -merge` of it
// reproduces the single-process summary.
func TestResumedCheckpointHoldsJournaledCells(t *testing.T) {
	ps, err := persist.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	m, url := fastFleet(t)
	startFleetWorker(t, url, "w", nil)
	dir := t.TempDir()

	// Run 1 journals and checkpoints to a.jsonl until the first cell lands.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c1, err := coord.New(coord.Config{
		Fleet:      m,
		Spec:       testSpec(),
		Shards:     4,
		Persist:    ps,
		RunID:      "r1",
		Checkpoint: filepath.Join(dir, "a.jsonl"),
		OnCell:     func(campaign.Cell) { cancel() },
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Run(ctx); err == nil {
		t.Fatal("interrupted run reported success")
	}

	// Run 2 resumes from the journal into b.jsonl.
	b := filepath.Join(dir, "b.jsonl")
	c2, err := coord.New(coord.Config{
		Fleet:      m,
		Spec:       testSpec(),
		Shards:     4,
		Persist:    ps,
		RunID:      "r1",
		Resume:     true,
		Checkpoint: b,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	cp := loadCheckpoint(t, b)
	merged, err := campaign.Merge(cp.Result())
	if err != nil {
		t.Fatal(err)
	}
	if err := merged.Complete(cp.Header.Cells); err != nil {
		t.Fatalf("resumed checkpoint incomplete: %v", err)
	}
	if got, want := summaryOf(t, merged), summaryOf(t, singleProcess(t, testSpec())); got != want {
		t.Fatalf("merged checkpoint summary differs:\n%s\nvs\n%s", got, want)
	}
}
