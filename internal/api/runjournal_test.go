package api

// Run journal tests: a campaign job journals its identity header and every
// merged cell under "runs/<job>/", a restarted server resumes the run from
// it, and a job that reaches a terminal state leaves no journal behind.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/fleet"
	"repro/internal/persist"
)

// seedRunJournal writes, into a closed state dir, the records a server
// killed mid-campaign leaves: job j1 running with its request, and a run
// journal holding header plus the given cells.
func seedRunJournal(t *testing.T, dir string, header campaign.Header, cells []campaign.Cell) {
	t.Helper()
	var req campaignRequest
	if err := json.Unmarshal([]byte(fmt.Sprintf(smallJobSpec, `, "shards": 4`)), &req); err != nil {
		t.Fatal(err)
	}
	spec, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	job, err := json.Marshal(map[string]any{"id": "j1", "kind": "campaign", "state": "running",
		"total": 4, "created": time.Now().UTC(), "spec": json.RawMessage(spec)})
	if err != nil {
		t.Fatal(err)
	}
	h, err := json.Marshal(header)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := persist.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	puts := map[[2]string][]byte{{"jobs", "j1"}: job, {"runs", "j1/header"}: h}
	for _, cell := range cells {
		b, err := json.Marshal(cell)
		if err != nil {
			t.Fatal(err)
		}
		puts[[2]string{"runs", fmt.Sprintf("j1/c/%08d", cell.Index)}] = b
	}
	for k, v := range puts {
		if err := ps.PutDurable(k[0], k[1], v); err != nil {
			t.Fatal(err)
		}
	}
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}
}

// runKeys lists the run-journal keys of job id.
func runKeys(t *testing.T, ps persist.Store, id string) []string {
	t.Helper()
	runs, err := ps.Load(runNS)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range runs {
		if strings.HasPrefix(k, id+"/") {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestRunJournalResume restarts on a run journal holding the cells of the
// first two of four shards: those shards are done without a worker, the
// other two are computed, the result matches a single-process run, and the
// finished job drops its journal.
func TestRunJournalResume(t *testing.T) {
	var spec campaign.Spec
	if err := json.Unmarshal([]byte(fmt.Sprintf(smallJobSpec, "")), &spec); err != nil {
		t.Fatal(err)
	}
	cfg, _, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	full, err := campaign.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	seedRunJournal(t, dir, campaign.NewHeader(cfg), full.Cells[:2])

	h := startPersistServer(t, dir, "")
	defer h.stop(t)
	if r := h.srv.RecoveredJobs(); r.Resumed != 1 {
		t.Fatalf("recovered = %+v", r)
	}
	final := waitCampaign(t, h.ts, h.srv, "j1")
	if final["state"] != "done" {
		t.Fatalf("resumed campaign = %v", final)
	}
	for _, sh := range final["coordination"].(map[string]any)["shard"].([]any) {
		sh := sh.(map[string]any)
		journaled := sh["shard"].(float64) <= 2
		if sh["state"] != "done" || journaled != (sh["worker"] == nil) {
			t.Fatalf("shard %v: journaled cells were recomputed or missing cells skipped: %v",
				sh["shard"], final["coordination"])
		}
	}
	if code, got := doJSON(t, "GET", h.ts.URL+"/api/v1/campaigns/j1/result", nil, ""); code != 200 ||
		got["table"] != singleProcessTable(t, smallJobSpec) {
		t.Fatalf("result = %d %v", code, got)
	}
	if keys := runKeys(t, h.ps, "j1"); len(keys) != 0 {
		t.Fatalf("finished run kept its journal: %v", keys)
	}
}

// TestRunJournalHeaderMismatch restarts on a run journal written by a
// different campaign under the job's ID: the resumed job fails instead of
// mixing incomparable cells, and drops the foreign journal.
func TestRunJournalHeaderMismatch(t *testing.T) {
	var spec campaign.Spec
	if err := json.Unmarshal([]byte(fmt.Sprintf(smallJobSpec, "")), &spec); err != nil {
		t.Fatal(err)
	}
	spec.Seed = 99
	cfg, _, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	seedRunJournal(t, dir, campaign.NewHeader(cfg), nil)

	h := startPersistServer(t, dir, "")
	defer h.stop(t)
	final := waitCampaign(t, h.ts, h.srv, "j1")
	if final["state"] != "failed" || !strings.Contains(final["error"].(string), "does not match") {
		t.Fatalf("campaign on a foreign journal = %v", final)
	}
	if keys := runKeys(t, h.ps, "j1"); len(keys) != 0 {
		t.Fatalf("failed run kept its journal: %v", keys)
	}
}

// TestRunJournalDroppedWhenTerminal is the journal-leak regression: after
// a done, a cancelled mid-run and a failed campaign — and again after a
// restart that finds stale journals — no terminal job has a run journal.
func TestRunJournalDroppedWhenTerminal(t *testing.T) {
	const (
		seedCancel = 101 // shards after the first block until cancelled
		seedFail   = 102 // every shard fails
	)
	runner := func(ctx context.Context, a *fleet.Assignment) (campaign.Header, []campaign.Cell, error) {
		switch {
		case a.Spec.Seed == seedFail:
			return campaign.Header{}, nil, fmt.Errorf("injected shard failure")
		case a.Spec.Seed == seedCancel && a.Shard > 1:
			<-ctx.Done()
			return campaign.Header{}, nil, ctx.Err()
		}
		return fleet.RunAssignment(ctx, a)
	}
	dir := t.TempDir()
	start := func() (*httptest.Server, *Server, persist.Store, func()) {
		ps, err := persist.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		m := fleet.NewManager(fleet.Config{})
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() { defer close(done); m.RunLocal(ctx, "local", runner) }()
		srv := NewServer(NewStore())
		srv.SetFleet(m, 1)
		if err := srv.EnablePersistence(ps); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		return ts, srv, ps, func() {
			ts.Close()
			srv.Close()
			cancel()
			<-done
			if err := ps.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	ts, srv, ps, stop := start()
	post := func(seed int, extra string) string {
		spec := fmt.Sprintf(`{"algos": ["cpa", "mcpa"], "shapes": ["serial", "wide"], "dag_sizes": [15],
			"cluster_sizes": [16, 32], "replicates": 2, "seed": %d, "shards": 4%s}`, seed, extra)
		code, info := doJSON(t, "POST", ts.URL+"/api/v1/campaigns", strings.NewReader(spec), "application/json")
		if code != 202 {
			t.Fatalf("create = %d %v", code, info)
		}
		return info["id"].(string)
	}

	done := post(11, "")
	if st := waitCampaign(t, ts, srv, done); st["state"] != "done" {
		t.Fatalf("%s = %v", done, st)
	}
	cancelled := post(seedCancel, "")
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if keys := runKeys(t, ps, cancelled); len(keys) > 1 { // header plus a cell
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the campaign to cancel journaled no cell")
		}
	}
	if code, _ := doJSON(t, "DELETE", ts.URL+"/api/v1/campaigns/"+cancelled, nil, ""); code != 200 {
		t.Fatalf("cancel = %d", code)
	}
	if st := waitCampaign(t, ts, srv, cancelled); st["state"] != "cancelled" {
		t.Fatalf("%s = %v", cancelled, st)
	}
	failed := post(seedFail, `, "max_attempts": 1`)
	if st := waitCampaign(t, ts, srv, failed); st["state"] != "failed" {
		t.Fatalf("%s = %v", failed, st)
	}
	for _, id := range []string{done, cancelled, failed} {
		if keys := runKeys(t, ps, id); len(keys) != 0 {
			t.Fatalf("terminal job %s kept its run journal: %v", id, keys)
		}
	}

	// Journals a crash could have left: a finished job's (killed between
	// its terminal record and the drop), an interrupted job's that cannot
	// resume (no request on record), and one whose job is gone.
	rec, err := json.Marshal(map[string]any{"id": "j7", "kind": "campaign", "state": "running",
		"total": 4, "created": time.Now().UTC()})
	if err != nil {
		t.Fatal(err)
	}
	for _, put := range [][3]string{
		{"jobs", "j7", string(rec)},
		{runNS, done + "/header", "{}"},
		{runNS, "j7/header", "{}"},
		{runNS, "j9/c/00000000", "{}"},
	} {
		if err := ps.PutDurable(put[0], put[1], []byte(put[2])); err != nil {
			t.Fatal(err)
		}
	}
	stop()

	_, srv, ps, stop = start()
	defer stop()
	if r := srv.RecoveredJobs(); r.Restored != 3 || r.Interrupted != 1 {
		t.Fatalf("recovered = %+v", r)
	}
	if runs, err := ps.Load(runNS); err != nil || len(runs) != 0 {
		t.Fatalf("run journals after restart = %v (err %v), want none", runs, err)
	}
}
