package jobs_test

// Campaign table tests. The job engine this package held is gone: the API
// server keeps every campaign in its own table, and these tests pin on
// that table what the engine's tests pinned — lifecycle, failure,
// cancellation, the run slots, retention, ?wait=, shutdown and recovery.
// They drive a real server through HTTP and its store only, with request
// bodies spelled jobs.CampaignSpec as the repository benchmark spells
// them, and move to internal/api when this package is deleted.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/campaign"
	"repro/internal/fleet"
	"repro/internal/jobs"
	"repro/internal/persist"
)

// request is the body of POST /api/v1/campaigns.
type request struct {
	jobs.CampaignSpec
	MaxAttempts int `json:"max_attempts,omitempty"`
}

// small is a campaign of 4 cells, 8 runs.
func small(seed int64) request {
	return request{CampaignSpec: jobs.CampaignSpec{
		Algos: []string{"cpa", "mcpa"}, Shapes: []string{"serial", "wide"},
		DAGSizes: []int{15}, ClusterSizes: []int{16, 32}, Replicates: 2, Seed: seed,
	}}
}

// tiny is a campaign of one cell, for the tests that run hundreds.
func tiny(seed int64) request {
	return request{CampaignSpec: jobs.CampaignSpec{
		Algos: []string{"cpa", "mcpa"}, Shapes: []string{"serial"},
		DAGSizes: []int{15}, ClusterSizes: []int{16}, Replicates: 1, Seed: seed,
	}}
}

// campaignRetain is the table's cap on terminal campaigns.
const campaignRetain = 256

// server is one API server process. Its campaigns run on the in-process
// worker unless a fleet is mounted (one campaign waits for one joined
// worker), and it journals into a store when one is given.
type server struct {
	srv  *api.Server
	url  string // of the campaign surface
	stop func()
}

func start(t *testing.T, m *fleet.Manager, ps persist.Store) *server {
	t.Helper()
	store := api.NewStore()
	srv := api.NewServer(store)
	if m != nil {
		srv.SetFleet(m, 1)
	}
	if ps != nil {
		if err := srv.EnablePersistence(ps); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(srv.Handler())
	var once sync.Once
	s := &server{srv: srv, url: ts.URL + "/api/v1/campaigns", stop: func() {
		once.Do(func() {
			ts.Close()
			srv.Close()
			store.Close()
		})
	}}
	t.Cleanup(s.stop)
	return s
}

// localFleet is a fleet of n in-process workers computing shards with run,
// stopped when the test ends.
func localFleet(t *testing.T, n int, run fleet.Runner) *fleet.Manager {
	t.Helper()
	m := fleet.NewManager(fleet.Config{})
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.RunLocal(ctx, fmt.Sprintf("local-%d", i), run)
		}()
	}
	t.Cleanup(func() {
		cancel()
		wg.Wait()
	})
	return m
}

// send makes one request, with body as JSON when given, and returns the
// status and the raw answer.
func send(t *testing.T, method, url string, body any) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// call is send with the answer decoded as a JSON object.
func call(t *testing.T, method, url string, body any) (int, map[string]any) {
	t.Helper()
	code, raw := send(t, method, url, body)
	var out map[string]any
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("%s %s = %d %q: %v", method, url, code, raw, err)
	}
	return code, out
}

// post submits a campaign and returns its ID.
func (s *server) post(t *testing.T, req request) string {
	t.Helper()
	code, info := call(t, "POST", s.url, req)
	if code != 202 || info["kind"] != "campaign" || (info["state"] != "pending" && info["state"] != "running") {
		t.Fatalf("submit = %d %v", code, info)
	}
	return info["id"].(string)
}

// wait long-polls campaign id until it is terminal.
func (s *server) wait(t *testing.T, id string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		code, info := call(t, "GET", s.url+"/"+id+"?wait=30s", nil)
		if code != 200 {
			t.Fatalf("wait %s = %d %v", id, code, info)
		}
		switch info["state"] {
		case "done", "failed", "cancelled":
			return info
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s stuck: %v", id, info)
		}
	}
}

// runDone submits and finishes n tiny campaigns, one after the other.
func (s *server) runDone(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if st := s.wait(t, s.post(t, tiny(int64(100+i)))); st["state"] != "done" {
			t.Fatalf("tiny campaign = %v", st)
		}
	}
}

// list returns the IDs and the states of the table, in submission order.
func (s *server) list(t *testing.T) (ids []string, states map[string]int) {
	t.Helper()
	code, out := call(t, "GET", s.url, nil)
	if code != 200 {
		t.Fatalf("list = %d %v", code, out)
	}
	states = map[string]int{}
	for _, c := range out["campaigns"].([]any) {
		c := c.(map[string]any)
		ids = append(ids, c["id"].(string))
		states[c["state"].(string)]++
	}
	return ids, states
}

// waitStates polls the listing until its states are exactly want.
func (s *server) waitStates(t *testing.T, want map[string]int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, got := s.list(t)
		if fmt.Sprint(got) == fmt.Sprint(want) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign states = %v, want %v", got, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// metric reads one unlabelled series off /api/v1/metrics.
func (s *server) metric(t *testing.T, name string) string {
	t.Helper()
	_, raw := send(t, "GET", strings.TrimSuffix(s.url, "campaigns")+"metrics", nil)
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			return v
		}
	}
	t.Fatalf("no series %s on /metrics:\n%s", name, raw)
	return ""
}

// meta reads /api/v1/meta.
func (s *server) meta(t *testing.T) map[string]any {
	t.Helper()
	_, meta := call(t, "GET", strings.TrimSuffix(s.url, "campaigns")+"meta", nil)
	return meta
}

// stamp reads timestamp key of a campaign's JSON description.
func stamp(t *testing.T, info map[string]any, key string) time.Time {
	t.Helper()
	raw, ok := info[key].(string)
	if !ok {
		t.Fatalf("no %s in %v", key, info)
	}
	ts, err := time.Parse(time.RFC3339Nano, raw)
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

// putRecord writes a campaign record the way a previous server left it.
func putRecord(t *testing.T, ps persist.Store, ns string, rec map[string]any) {
	t.Helper()
	b, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := ps.PutDurable(ns, rec["id"].(string), b); err != nil {
		t.Fatal(err)
	}
}

// heldErr is the error of a cancelled campaign still waiting for a worker.
const heldErr = "coord: waiting for 1 workers: context canceled"

// TestJobLifecycle runs one campaign through pending → running → done: its
// ID, progress and timestamps, and its result.
func TestJobLifecycle(t *testing.T) {
	s := start(t, nil, nil)
	if id := s.post(t, small(11)); id != "j1" {
		t.Fatalf("id = %q", id)
	}
	st := s.wait(t, "j1")
	if st["state"] != "done" {
		t.Fatalf("final state = %v", st)
	}
	if prog := st["progress"].(map[string]any); prog["done"] != 4.0 || prog["total"] != 4.0 {
		t.Fatalf("progress = %v", prog)
	}
	created, started, finished := stamp(t, st, "created"), stamp(t, st, "started"), stamp(t, st, "finished")
	if started.Before(created) || finished.Before(started) {
		t.Fatalf("timestamps out of order: %v", st)
	}
	if code, res := call(t, "GET", s.url+"/j1/result", nil); code != 200 || res["total"] != 8.0 {
		t.Fatalf("result = %d %v", code, res)
	}
}

// TestJobFailure fails every shard of a campaign: it ends failed with the
// shard's error and serves no result.
func TestJobFailure(t *testing.T) {
	m := localFleet(t, 1, func(context.Context, *fleet.Assignment) (campaign.Header, []campaign.Cell, error) {
		return campaign.Header{}, nil, errors.New("boom")
	})
	s := start(t, m, nil)
	req := small(11)
	req.MaxAttempts = 1
	st := s.wait(t, s.post(t, req))
	if st["state"] != "failed" || !strings.Contains(st["error"].(string), "boom") {
		t.Fatalf("failed campaign = %v", st)
	}
	if code, res := call(t, "GET", s.url+"/j1/result", nil); code != 500 {
		t.Fatalf("result of a failed campaign = %d %v", code, res)
	}
}

// TestCancelRunningJob cancels a running campaign, held waiting for a
// worker that never joins.
func TestCancelRunningJob(t *testing.T) {
	s := start(t, fleet.NewManager(fleet.Config{}), nil)
	id := s.post(t, small(11))
	s.waitStates(t, map[string]int{"running": 1})
	if code, info := call(t, "DELETE", s.url+"/"+id, nil); code != 200 {
		t.Fatalf("cancel = %d %v", code, info)
	}
	if st := s.wait(t, id); st["state"] != "cancelled" || st["error"] != heldErr {
		t.Fatalf("cancelled campaign = %v", st)
	}
}

// TestCancelQueuedJob cancels a fifth campaign pending behind four held
// ones: it is cancelled at once, and never starts when a slot frees.
func TestCancelQueuedJob(t *testing.T) {
	s := start(t, fleet.NewManager(fleet.Config{}), nil)
	for i := 0; i < 4; i++ {
		s.post(t, small(11))
	}
	s.waitStates(t, map[string]int{"running": 4})
	queued := s.post(t, small(11))
	s.waitStates(t, map[string]int{"running": 4, "pending": 1})
	if code, info := call(t, "DELETE", s.url+"/"+queued, nil); code != 200 || info["state"] != "cancelled" {
		t.Fatalf("cancel pending = %d %v", code, info)
	}

	call(t, "DELETE", s.url+"/j1", nil)
	if st := s.wait(t, "j1"); st["state"] != "cancelled" {
		t.Fatalf("j1 = %v", st)
	}
	s.waitStates(t, map[string]int{"running": 3, "cancelled": 2})
	if _, st := call(t, "GET", s.url+"/"+queued, nil); st["state"] != "cancelled" || st["started"] != nil {
		t.Fatalf("cancelled pending campaign = %v", st)
	}
}

// TestCancelIdempotent cancels one running campaign from eight requests at
// once, and once more after it ended: every request succeeds, and the
// campaign is cancelled once.
func TestCancelIdempotent(t *testing.T) {
	s := start(t, fleet.NewManager(fleet.Config{}), nil)
	id := s.post(t, small(11))
	s.waitStates(t, map[string]int{"running": 1})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, err := http.NewRequest("DELETE", s.url+"/"+id, nil)
			if err != nil {
				t.Error(err)
				return
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != 200 {
				t.Errorf("concurrent cancel = %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	if st := s.wait(t, id); st["state"] != "cancelled" || st["error"] != heldErr {
		t.Fatalf("cancelled campaign = %v", st)
	}
	if code, info := call(t, "DELETE", s.url+"/"+id, nil); code != 200 || info["state"] != "cancelled" {
		t.Fatalf("cancel after cancelled = %d %v", code, info)
	}
}

// TestEngineGetListCancel reads campaigns by ID and as a list in
// submission order, 404s unknown IDs, and leaves a done campaign done on
// DELETE.
func TestEngineGetListCancel(t *testing.T) {
	s := start(t, nil, nil)
	for i := 0; i < 3; i++ {
		id := s.post(t, small(int64(11+i)))
		if st := s.wait(t, id); st["state"] != "done" {
			t.Fatalf("%s = %v", id, st)
		}
		if code, st := call(t, "GET", s.url+"/"+id, nil); code != 200 || st["id"] != id {
			t.Fatalf("get %s = %d %v", id, code, st)
		}
	}
	if ids, _ := s.list(t); fmt.Sprint(ids) != "[j1 j2 j3]" {
		t.Fatalf("list = %v", ids)
	}
	for _, method := range []string{"GET", "DELETE"} {
		if code, _ := call(t, method, s.url+"/j99", nil); code != 404 {
			t.Fatalf("%s of an unknown ID = %d", method, code)
		}
	}
	if code, info := call(t, "DELETE", s.url+"/j1", nil); code != 200 || info["state"] != "done" {
		t.Fatalf("cancel after done = %d %v", code, info)
	}
}

// TestSubmitAfterClose submits to a closed server: the campaign fails at
// once and reaches no journal, and closing again is harmless.
func TestSubmitAfterClose(t *testing.T) {
	ps := persist.Memory()
	s := start(t, nil, ps)
	s.srv.Close()
	if code, info := call(t, "POST", s.url, small(11)); code != 202 || info["state"] != "failed" || info["error"] != "api: server shut down" {
		t.Fatalf("submit after close = %d %v", code, info)
	}
	if recs, err := ps.Load("jobs"); err != nil || len(recs) != 0 {
		t.Fatalf("journal after a closed submit = %v (err %v)", recs, err)
	}
	s.srv.Close()
}

// TestRetention fills the table past its cap of terminal campaigns: the
// next submission evicts the oldest terminal one, while a live campaign
// older than all of them stays.
func TestRetention(t *testing.T) {
	const heldSeed = 7
	release := make(chan struct{})
	m := localFleet(t, 2, func(ctx context.Context, a *fleet.Assignment) (campaign.Header, []campaign.Cell, error) {
		if a.Spec.Seed == heldSeed {
			select {
			case <-release:
			case <-ctx.Done():
				return campaign.Header{}, nil, ctx.Err()
			}
		}
		return fleet.RunAssignment(ctx, a)
	})
	s := start(t, m, nil)
	live := s.post(t, tiny(heldSeed))
	s.waitStates(t, map[string]int{"running": 1})
	s.runDone(t, campaignRetain+2)

	if _, st := call(t, "GET", s.url+"/"+live, nil); st["state"] != "running" {
		t.Fatalf("live campaign = %v", st)
	}
	if code, _ := call(t, "GET", s.url+"/j2", nil); code != 404 {
		t.Fatalf("oldest terminal campaign answers %d", code)
	}
	ids, states := s.list(t)
	if len(ids) != campaignRetain+2 || ids[0] != live || ids[1] != "j3" || states["done"] != campaignRetain+1 {
		t.Fatalf("table holds %d campaigns from %v: %v", len(ids), ids[:2], states)
	}
	close(release)
	if st := s.wait(t, live); st["state"] != "done" {
		t.Fatalf("released campaign = %v", st)
	}
}

// TestWorkerPoolBound holds eight campaigns waiting for a worker: four run
// and four wait for a slot, in the queue gauge too, and a cancelled run
// hands its slot to the next pending campaign.
func TestWorkerPoolBound(t *testing.T) {
	s := start(t, fleet.NewManager(fleet.Config{}), nil)
	for i := 0; i < 8; i++ {
		s.post(t, small(11))
	}
	s.waitStates(t, map[string]int{"running": 4, "pending": 4})
	time.Sleep(50 * time.Millisecond)
	s.waitStates(t, map[string]int{"running": 4, "pending": 4})
	if got := s.metric(t, "jed_jobs_queue_depth"); got != "4" {
		t.Fatalf("queue depth = %s", got)
	}
	for _, id := range []string{"j1", "j2"} {
		call(t, "DELETE", s.url+"/"+id, nil)
	}
	s.waitStates(t, map[string]int{"running": 4, "pending": 2, "cancelled": 2})
	if got := s.metric(t, "jed_jobs_queue_depth"); got != "2" {
		t.Fatalf("queue depth = %s", got)
	}
}

// TestEngineWait pins ?wait=: it answers with the live state once the
// duration elapses, as soon as the campaign ends, at once for a terminal
// one, 400 for a malformed duration and 404 for an unknown ID.
func TestEngineWait(t *testing.T) {
	s := start(t, fleet.NewManager(fleet.Config{}), nil)
	id := s.post(t, small(11))
	begin := time.Now()
	code, info := call(t, "GET", s.url+"/"+id+"?wait=20ms", nil)
	if code != 200 || (info["state"] != "pending" && info["state"] != "running") || time.Since(begin) < 20*time.Millisecond {
		t.Fatalf("wait on a live campaign = %d %v after %v", code, info, time.Since(begin))
	}
	go func() {
		time.Sleep(20 * time.Millisecond)
		req, _ := http.NewRequest("DELETE", s.url+"/"+id, nil)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	for range 2 { // the second answers at once: the campaign is terminal
		begin = time.Now()
		code, info = call(t, "GET", s.url+"/"+id+"?wait=30s", nil)
		if code != 200 || info["state"] != "cancelled" || time.Since(begin) > 10*time.Second {
			t.Fatalf("wait across the cancel = %d %v after %v", code, info, time.Since(begin))
		}
	}
	if code, info := call(t, "GET", s.url+"/"+id+"?wait=soon", nil); code != 400 || info["error"].(map[string]any)["code"] != "bad_wait" {
		t.Fatalf("bad wait = %d %v", code, info)
	}
	if code, _ := call(t, "GET", s.url+"/j99?wait=1s", nil); code != 404 {
		t.Fatalf("wait on an unknown ID = %d", code)
	}
}

// TestPersistTerminalRoundTrip restarts on a done campaign: it comes back
// under its ID with its result byte for byte, and the next submission
// takes a fresh ID.
func TestPersistTerminalRoundTrip(t *testing.T) {
	ps := persist.Memory()
	a := start(t, nil, ps)
	id := a.post(t, small(11))
	if st := a.wait(t, id); st["state"] != "done" {
		t.Fatalf("%s = %v", id, st)
	}
	_, want := send(t, "GET", a.url+"/"+id+"/result", nil)
	a.stop()

	b := start(t, nil, ps)
	if r := b.srv.RecoveredJobs(); r != (api.RecoverStats{Restored: 1}) {
		t.Fatalf("recovered = %+v", r)
	}
	_, st := call(t, "GET", b.url+"/"+id, nil)
	if prog := st["progress"].(map[string]any); st["state"] != "done" || prog["done"] != prog["total"] {
		t.Fatalf("restored campaign = %v", st)
	}
	if code, got := send(t, "GET", b.url+"/"+id+"/result", nil); code != 200 || !bytes.Equal(got, want) {
		t.Fatalf("restored result = %d:\n%s\nwant\n%s", code, got, want)
	}
	if next := b.post(t, small(12)); next == id {
		t.Fatalf("sequence not bumped past restored %s", id)
	}
}

// TestPersistResumeInterruptedCampaign restarts on the record a crash
// leaves behind — running, no terminal write: the campaign runs again
// under its ID to the single-process result, and later submissions take
// fresh IDs.
func TestPersistResumeInterruptedCampaign(t *testing.T) {
	req := small(11)
	cfg, _, err := req.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := campaign.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var table strings.Builder
	if err := direct.WriteTable(&table); err != nil {
		t.Fatal(err)
	}
	cells, err := json.Marshal(direct.Cells)
	if err != nil {
		t.Fatal(err)
	}
	ps := persist.Memory()
	now := time.Now().UTC()
	putRecord(t, ps, "jobs", map[string]any{"id": "j1", "kind": "campaign", "state": "running",
		"done": 2, "total": 4, "created": now, "started": now, "spec": req})

	s := start(t, nil, ps)
	if r := s.srv.RecoveredJobs(); r != (api.RecoverStats{Resumed: 1}) {
		t.Fatalf("recovered = %+v", r)
	}
	st := s.wait(t, "j1")
	if prog := st["progress"].(map[string]any); st["state"] != "done" || prog["done"] != 4.0 || prog["total"] != 4.0 {
		t.Fatalf("resumed campaign = %v", st)
	}
	code, raw := send(t, "GET", s.url+"/j1/result", nil)
	var res struct {
		Cells []campaign.Cell `json:"cells"`
		Table string          `json:"table"`
	}
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(res.Cells)
	if err != nil {
		t.Fatal(err)
	}
	if code != 200 || res.Table != table.String() || !bytes.Equal(got, cells) {
		t.Fatalf("resumed result = %d %s\nwant cells %s", code, raw, cells)
	}
	if next := s.post(t, small(12)); next == "j1" {
		t.Fatal("sequence not bumped past the resumed campaign")
	}
}

// TestPersistInterruptedUnknownKind restarts on interrupted records that
// cannot resume — one of an unknown kind without a request, one whose
// request no longer builds a campaign: both come back failed, and their
// rewritten records make the next restart restore them.
func TestPersistInterruptedUnknownKind(t *testing.T) {
	ps := persist.Memory()
	now := time.Now().UTC()
	putRecord(t, ps, "jobs", map[string]any{"id": "j1", "kind": "demo", "state": "running",
		"total": 3, "created": now})
	putRecord(t, ps, "jobs", map[string]any{"id": "j2", "kind": "campaign", "state": "running",
		"created": now, "spec": map[string]any{"algos": []string{"cpa"}}})

	s := start(t, nil, ps)
	if r := s.srv.RecoveredJobs(); r != (api.RecoverStats{Interrupted: 2}) {
		t.Fatalf("recovered = %+v", r)
	}
	for _, id := range []string{"j1", "j2"} {
		if code, st := call(t, "GET", s.url+"/"+id, nil); code != 200 ||
			st["state"] != "failed" || st["error"] != "interrupted by server restart" {
			t.Fatalf("%s = %d %v", id, code, st)
		}
	}
	if next := s.post(t, small(11)); next != "j3" {
		t.Fatalf("next ID = %s, want j3", next)
	}
	s.wait(t, "j3")
	s.stop()

	s = start(t, nil, ps)
	if r := s.srv.RecoveredJobs(); r != (api.RecoverStats{Restored: 3}) {
		t.Fatalf("second recovery = %+v", r)
	}
}

// TestPersistAdopt restarts on a state dir whose done campaign an older
// server kept in its second namespace ("cjobs", ID "c1", kind
// "campaign-coordinated") next to a torn record: the campaign is listed
// under its own ID as a campaign with its result, the torn record is
// dropped and counted, and the old namespace is emptied.
func TestPersistAdopt(t *testing.T) {
	psA := persist.Memory()
	a := start(t, nil, psA)
	id := a.post(t, small(11))
	if st := a.wait(t, id); st["state"] != "done" {
		t.Fatalf("%s = %v", id, st)
	}
	_, want := call(t, "GET", a.url+"/"+id+"/result", nil)
	raw, found, err := psA.Get("jobs", id)
	if err != nil || !found {
		t.Fatalf("record %s found=%v (err %v)", id, found, err)
	}
	a.stop()
	var rec map[string]json.RawMessage
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatal(err)
	}
	rec["id"], rec["kind"] = json.RawMessage(`"c1"`), json.RawMessage(`"campaign-coordinated"`)
	old, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	ps := persist.Memory()
	for key, val := range map[string][]byte{"c1": old, "c2": []byte("{torn")} {
		if err := ps.Put("cjobs", key, val); err != nil {
			t.Fatal(err)
		}
	}

	b := start(t, nil, ps)
	if r := b.srv.RecoveredJobs(); r != (api.RecoverStats{Restored: 1}) {
		t.Fatalf("recovered = %+v", r)
	}
	if n := b.meta(t)["persist"].(map[string]any)["job_errors"]; n != 1.0 {
		t.Fatalf("job_errors = %v, want 1 for the torn record", n)
	}
	if left, err := ps.Load("cjobs"); err != nil || len(left) != 0 {
		t.Fatalf("old namespace keeps %v (err %v)", left, err)
	}
	if code, st := call(t, "GET", b.url+"/c1", nil); code != 200 || st["kind"] != "campaign" || st["state"] != "done" {
		t.Fatalf("adopted campaign = %d %v", code, st)
	}
	_, got := call(t, "GET", b.url+"/c1/result", nil)
	if fmt.Sprint(got["merged"]) != "[c1]" {
		t.Fatalf("adopted result merged = %v", got["merged"])
	}
	delete(got, "merged")
	delete(want, "merged")
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("adopted result differs:\n%v\nvs\n%v", got, want)
	}
}

// TestEvictionNotifiesJournal evicts the oldest of the terminal campaigns
// past the cap: its record leaves the store, the next one's stays, and the
// eviction is counted on /meta and /metrics.
func TestEvictionNotifiesJournal(t *testing.T) {
	ps := persist.Memory()
	s := start(t, nil, ps)
	s.runDone(t, campaignRetain+2)
	for id, want := range map[string]bool{"j1": false, "j2": true} {
		if _, found, err := ps.Get("jobs", id); err != nil || found != want {
			t.Fatalf("record %s found=%v (err %v), want %v", id, found, err, want)
		}
	}
	if n := s.meta(t)["jobs_evicted"]; n != 1.0 {
		t.Fatalf("jobs_evicted = %v", n)
	}
	if n := s.metric(t, "jed_jobs_evicted_total"); n != "1" {
		t.Fatalf("jed_jobs_evicted_total = %s", n)
	}
}
