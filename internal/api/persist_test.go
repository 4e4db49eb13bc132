package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/events"
	"repro/internal/jedxml"
	"repro/internal/persist"
)

// persistHarness is one "process" of the durable-state tests: a server wired
// to the filesystem store in dir, restartable by stop + startPersistServer.
type persistHarness struct {
	ts    *httptest.Server
	srv   *Server
	store *Store
	ps    persist.Store
	cs    *crashStore // what the server writes through
}

// crashStore drops every write once crashed — a kill -9 as the state
// directory sees it: nothing the dying process does afterwards lands.
type crashStore struct {
	persist.Store
	crashed atomic.Bool
}

func (s *crashStore) Put(ns, key string, v []byte) error {
	if s.crashed.Load() {
		return nil
	}
	return s.Store.Put(ns, key, v)
}

func (s *crashStore) PutDurable(ns, key string, v []byte) error {
	if s.crashed.Load() {
		return nil
	}
	return s.Store.PutDurable(ns, key, v)
}

func (s *crashStore) Delete(ns, key string) error {
	if s.crashed.Load() {
		return nil
	}
	return s.Store.Delete(ns, key)
}

func (s *crashStore) DeletePrefix(ns, prefix string) error {
	if s.crashed.Load() {
		return nil
	}
	return s.Store.DeletePrefix(ns, prefix)
}

// startPersistServer boots a server against dir, in the same order jedserve
// runs: open store, register files, recover sessions, recover jobs.
func startPersistServer(t *testing.T, dir, fileDir string) *persistHarness {
	t.Helper()
	return startPersistServerOver(t, dir, fileDir, nil)
}

// startPersistServerOver is startPersistServer with the server writing and
// reading through wrap's store around the crash store (wrap may be nil).
func startPersistServerOver(t *testing.T, dir, fileDir string, wrap func(persist.Store) persist.Store) *persistHarness {
	t.Helper()
	ps, err := persist.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cs := &crashStore{Store: ps}
	var through persist.Store = cs
	if wrap != nil {
		through = wrap(cs)
	}
	store := NewStore()
	store.SetPersist(through)
	if fileDir != "" {
		if _, err := RegisterDir(store, fileDir); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := store.RecoverSessions(); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store)
	if err := srv.EnablePersistence(through); err != nil {
		t.Fatal(err)
	}
	return &persistHarness{ts: httptest.NewServer(srv.Handler()), srv: srv, store: store, ps: ps, cs: cs}
}

// crash stops the server the way kill -9 would: no write after this call
// reaches the state directory.
func (h *persistHarness) crash(t *testing.T) {
	t.Helper()
	h.cs.crashed.Store(true)
	h.stop(t)
}

func (h *persistHarness) stop(t *testing.T) {
	t.Helper()
	h.ts.Close()
	h.srv.Close()
	h.store.Close()
	if err := h.ps.Close(); err != nil {
		t.Fatal(err)
	}
}

func rawGet(t *testing.T, url string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, body
}

// writeScheduleFile drops a registrable demo schedule into dir.
func writeScheduleFile(t *testing.T, dir, name string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	var buf bytes.Buffer
	if err := jedxml.Write(&buf, demoSchedule()); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestPersistSessionsSurviveRestart registers all three recipe kinds — a
// file session, an uploaded document, a generated schedule — restarts, and
// asserts the listing, the exported documents, and the render ETags come
// back identical.
func TestPersistSessionsSurviveRestart(t *testing.T) {
	stateDir, fileDir := t.TempDir(), t.TempDir()
	writeScheduleFile(t, fileDir, "demo.jed")

	h1 := startPersistServer(t, stateDir, fileDir)
	upID := createUpload(t, h1.ts, "uploaded")
	if sess, _ := h1.store.getLive(upID); sess.recipe.Doc != nil {
		t.Fatal("session keeps its upload bytes after journaling them")
	}
	code, info := doJSON(t, "POST", h1.ts.URL+"/api/v1/sessions",
		strings.NewReader(`{"algo": "cpa"}`), "application/json")
	if code != 201 {
		t.Fatalf("generate = %d %v", code, info)
	}
	genID := info["id"].(string)

	type capture struct {
		export, render []byte
		etag           string
	}
	snap := map[string]capture{}
	for _, id := range []string{"demo", upID, genID} {
		_, _, export := rawGet(t, h1.ts.URL+"/api/v1/sessions/"+id+"/export?format=jedule")
		rcode, hdr, render := rawGet(t, h1.ts.URL+"/api/v1/sessions/"+id+"/render?format=svg")
		if rcode != 200 {
			t.Fatalf("render %s = %d", id, rcode)
		}
		snap[id] = capture{export: export, render: render, etag: hdr.Get("ETag")}
	}
	h1.stop(t)

	h2 := startPersistServer(t, stateDir, fileDir)
	defer h2.stop(t)
	if got := h2.store.Len(); got != len(snap) {
		t.Fatalf("recovered %d sessions, want %d", got, len(snap))
	}
	for id, want := range snap {
		_, _, export := rawGet(t, h2.ts.URL+"/api/v1/sessions/"+id+"/export?format=jedule")
		if !bytes.Equal(export, want.export) {
			t.Fatalf("session %s export differs after restart", id)
		}
		rcode, hdr, render := rawGet(t, h2.ts.URL+"/api/v1/sessions/"+id+"/render?format=svg")
		if rcode != 200 {
			t.Fatalf("render %s = %d", id, rcode)
		}
		if got := hdr.Get("ETag"); got != want.etag {
			t.Fatalf("session %s ETag %q != %q after restart", id, got, want.etag)
		}
		if !bytes.Equal(render, want.render) {
			t.Fatalf("session %s render differs after restart", id)
		}
	}
}

// TestPersistRecoveredSessionHydratesLazily asserts the recovery contract:
// listing recovered sessions must not re-build their schedules; the first
// real access does.
func TestPersistRecoveredSessionHydratesLazily(t *testing.T) {
	stateDir := t.TempDir()
	h1 := startPersistServer(t, stateDir, "")
	id := createUpload(t, h1.ts, "lazy")
	h1.stop(t)

	h2 := startPersistServer(t, stateDir, "")
	defer h2.stop(t)
	if code, list := doJSON(t, "GET", h2.ts.URL+"/api/v1/sessions", nil, ""); code != 200 ||
		len(list["sessions"].([]any)) != 1 {
		t.Fatalf("list = %d %v", code, list)
	}
	sessions := h2.store.List()
	if len(sessions) != 1 {
		t.Fatalf("store lists %d sessions", len(sessions))
	}
	sess := sessions[0]
	sess.mu.RLock()
	hydrated := sess.sched != nil
	sess.mu.RUnlock()
	if hydrated {
		t.Fatal("listing hydrated the recovered session")
	}
	if code, _, _ := rawGet(t, h2.ts.URL+"/api/v1/sessions/"+id+"/stats"); code != 200 {
		t.Fatalf("stats after restart = %d", code)
	}
	sess.mu.RLock()
	hydrated = sess.sched != nil
	sess.mu.RUnlock()
	if !hydrated {
		t.Fatal("first access did not hydrate the session")
	}
	if n := h2.store.RecoveredSessions(); n != 1 {
		t.Fatalf("recovered counter = %d", n)
	}
}

// TestPersistHydrationFailureDropsSession deletes the file behind a
// file-recipe session between restarts: the session re-lists, but its first
// access fails hydration, drops it, and counts the failure.
func TestPersistHydrationFailureDropsSession(t *testing.T) {
	stateDir, fileDir := t.TempDir(), t.TempDir()
	path := writeScheduleFile(t, fileDir, "gone.jed")

	h1 := startPersistServer(t, stateDir, fileDir)
	if h1.store.Len() != 1 {
		t.Fatalf("registered %d sessions", h1.store.Len())
	}
	h1.stop(t)
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}

	h2 := startPersistServer(t, stateDir, "")
	defer h2.stop(t)
	if h2.store.Len() != 1 {
		t.Fatalf("recovered %d sessions", h2.store.Len())
	}
	if code, _, _ := rawGet(t, h2.ts.URL+"/api/v1/sessions/gone/stats"); code != 404 {
		t.Fatalf("stats of unhydratable session = %d, want 404", code)
	}
	if n := h2.store.HydrationFailures(); n != 1 {
		t.Fatalf("hydration failures = %d", n)
	}
	if h2.store.Len() != 0 {
		t.Fatal("unhydratable session still listed")
	}
}

// TestPersistOrphanDocDeleted hand-edits a state directory into what a
// crash between the two writes of an upload leaves — a journaled document
// whose descriptor never landed — and restarts: RecoverSessions deletes the
// orphan and keeps the complete session.
func TestPersistOrphanDocDeleted(t *testing.T) {
	stateDir := t.TempDir()
	h1 := startPersistServer(t, stateDir, "")
	keep := createUpload(t, h1.ts, "keep")
	lost := createUpload(t, h1.ts, "lost")
	h1.stop(t)
	ps, err := persist.Open(stateDir)
	if err != nil {
		t.Fatal(err)
	}
	if err := ps.Delete(sessionsNS, lost); err != nil {
		t.Fatal(err)
	}
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}

	h2 := startPersistServer(t, stateDir, "")
	defer h2.stop(t)
	if n := h2.store.RecoveredSessions(); n != 1 {
		t.Fatalf("recovered %d sessions, want 1", n)
	}
	docs, err := h2.ps.Load(docsNS)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := docs[keep]; !ok || len(docs) != 1 {
		t.Fatalf("docs after recovery: %d, keep present %v; want only %s", len(docs), ok, keep)
	}
	if code, _, _ := rawGet(t, h2.ts.URL+"/api/v1/sessions/"+keep+"/render?format=svg"); code != 200 {
		t.Fatalf("render of the complete session = %d", code)
	}
}

// TestPersistDocMissingOrDamaged hand-edits a state directory before the
// server opens it: one descriptor's document is gone, another's is damaged
// on disk. The server starts and lists every session, a third session
// renders, and each of the two broken ones is dropped on its first access
// and counts one hydration failure instead of panicking.
func TestPersistDocMissingOrDamaged(t *testing.T) {
	stateDir := t.TempDir()
	h1 := startPersistServer(t, stateDir, "")
	healthy := createUpload(t, h1.ts, "healthy")
	missing := createUpload(t, h1.ts, "missing")
	damaged := createUpload(t, h1.ts, "damaged")
	h1.stop(t)
	ps, err := persist.Open(stateDir)
	if err != nil {
		t.Fatal(err)
	}
	if err := ps.Delete(docsNS, missing); err != nil {
		t.Fatal(err)
	}
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}
	// The damaged session's document is the last one journaled, so the
	// log's last closing tag lies inside it.
	path := filepath.Join(stateDir, docsNS+".log")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("<?"), int64(bytes.LastIndex(raw, []byte("</")))); err != nil {
		t.Fatal(err)
	}
	f.Close()

	h2 := startPersistServer(t, stateDir, "")
	defer h2.stop(t)
	if h2.store.Len() != 3 {
		t.Fatalf("recovered %d sessions, want 3", h2.store.Len())
	}
	if code, _, _ := rawGet(t, h2.ts.URL+"/api/v1/sessions/"+healthy+"/render?format=svg"); code != 200 {
		t.Fatalf("render of the healthy session = %d, want 200", code)
	}
	if n := h2.store.HydrationFailures(); n != 0 {
		t.Fatalf("hydration failures after the healthy session = %d, want 0", n)
	}
	for i, id := range []string{missing, damaged} {
		if code, _, _ := rawGet(t, h2.ts.URL+"/api/v1/sessions/"+id+"/stats"); code != 404 {
			t.Fatalf("stats of %s = %d, want 404", id, code)
		}
		if n := h2.store.HydrationFailures(); n != int64(i+1) {
			t.Fatalf("hydration failures after %s = %d, want %d", id, n, i+1)
		}
	}
	if h2.store.Len() != 1 {
		t.Fatalf("%d sessions still listed, want the healthy one", h2.store.Len())
	}
	if left, err := h2.ps.Keys(sessionsNS); err != nil || len(left) != 1 || left[0] != healthy {
		t.Fatalf("descriptors left: %q (err %v), want %s", left, err, healthy)
	}
}

// docsGate fails every read of the docs namespace until it is opened.
type docsGate struct {
	persist.Store
	open atomic.Bool
}

func (g *docsGate) Get(ns, key string) ([]byte, bool, error) {
	if ns == docsNS && !g.open.Load() {
		return nil, false, fmt.Errorf("document %s read before the first render", key)
	}
	return g.Store.Get(ns, key)
}

func (g *docsGate) Load(ns string) (map[string][]byte, error) {
	if ns == docsNS && !g.open.Load() {
		return nil, fmt.Errorf("documents read before the first render")
	}
	return g.Store.Load(ns)
}

// TestPersistRecoveryReadsNoDocument restarts over a store that fails every
// read of a document until the first render: recovery and the session list
// succeed without one, and the renders after the gate opens hydrate from
// the journaled documents.
func TestPersistRecoveryReadsNoDocument(t *testing.T) {
	stateDir := t.TempDir()
	h1 := startPersistServer(t, stateDir, "")
	ids := []string{createUpload(t, h1.ts, "a"), createUpload(t, h1.ts, "b")}
	h1.stop(t)

	gate := &docsGate{}
	h2 := startPersistServerOver(t, stateDir, "", func(s persist.Store) persist.Store {
		gate.Store = s
		return gate
	})
	defer h2.stop(t)
	code, list := doJSON(t, "GET", h2.ts.URL+"/api/v1/sessions", nil, "")
	if code != 200 || len(list["sessions"].([]any)) != len(ids) {
		t.Fatalf("sessions after restart = %d %v", code, list)
	}
	gate.open.Store(true)
	for _, id := range ids {
		if code, _, _ := rawGet(t, h2.ts.URL+"/api/v1/sessions/"+id+"/render?format=svg"); code != 200 {
			t.Fatalf("render of %s = %d, want 200", id, code)
		}
	}
	if n := h2.store.HydrationFailures(); n != 0 {
		t.Fatalf("hydration failures = %d, want 0", n)
	}
}

// TestPersistJobResultSurvivesRestart finishes a campaign job, restarts,
// and asserts /jobs/{id}/result serves byte-identical content plus the
// recovery counters on /api/v1/meta.
func TestPersistJobResultSurvivesRestart(t *testing.T) {
	stateDir := t.TempDir()
	h1 := startPersistServer(t, stateDir, "")
	id := launchJob(t, h1.ts, fmt.Sprintf(smallJobSpec, ""))
	if state := pollJob(t, h1.ts, id)["state"]; state != "done" {
		t.Fatalf("job state = %v", state)
	}
	code, _, want := rawGet(t, h1.ts.URL+"/api/v1/jobs/"+id+"/result")
	if code != 200 {
		t.Fatalf("result = %d", code)
	}
	h1.stop(t)

	h2 := startPersistServer(t, stateDir, "")
	defer h2.stop(t)
	code, list := doJSON(t, "GET", h2.ts.URL+"/api/v1/jobs", nil, "")
	if code != 200 || len(list["jobs"].([]any)) != 1 {
		t.Fatalf("jobs after restart = %d %v", code, list)
	}
	code, _, got := rawGet(t, h2.ts.URL+"/api/v1/jobs/"+id+"/result")
	if code != 200 {
		t.Fatalf("restored result = %d", code)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("job result differs after restart:\n%s\nvs\n%s", got, want)
	}
	code, meta := doJSON(t, "GET", h2.ts.URL+"/api/v1/meta", nil, "")
	if code != 200 {
		t.Fatalf("meta = %d", code)
	}
	persistMeta, ok := meta["persist"].(map[string]any)
	if !ok {
		t.Fatalf("meta has no persist section: %v", meta)
	}
	if got := persistMeta["jobs"].(map[string]any)["restored"].(float64); got != 1 {
		t.Fatalf("restored jobs = %v", got)
	}
	if _, ok := persistMeta["campaigns"]; ok {
		t.Fatalf("persist meta still reports a second engine: %v", persistMeta)
	}
	if _, ok := meta["jobs_evicted"]; !ok {
		t.Fatalf("meta has no jobs_evicted counter: %v", meta)
	}
}

// resultBytes fetches a campaign result with its "merged" job-ID list
// dropped — the bytes two runs of one spec must share.
func resultBytes(t *testing.T, url string) []byte {
	t.Helper()
	code, _, body := rawGet(t, url)
	if code != 200 {
		t.Fatalf("GET %s = %d %s", url, code, body)
	}
	var res map[string]json.RawMessage
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	delete(res, "merged")
	out, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// waitShardDone blocks until the bus carries the first completed shard.
func waitShardDone(t *testing.T, sub *events.Subscriber) {
	t.Helper()
	timeout := time.After(60 * time.Second)
	for {
		select {
		case <-sub.Notify():
		case <-timeout:
			t.Fatal("no shard completed")
		}
		evs, _ := sub.Drain()
		for _, e := range evs {
			if e.Type == "done" {
				return
			}
		}
	}
}

// TestPersistCampaignResumesAfterCrash kills a server mid-campaign — after
// its first shard, with the rest still queued — on either surface, and
// checks the restarted server resumes the campaign from the coordinator's
// run journal to the bytes of a fresh run.
func TestPersistCampaignResumesAfterCrash(t *testing.T) {
	spec := `{"algos": ["cpa", "mcpa"], "shapes": ["random", "forkjoin", "wide", "long"],
		"dag_sizes": [40, 80], "cluster_sizes": [32, 64, 128], "replicates": 3, "seed": 5, "shards": 8}`
	for _, surface := range []string{"jobs", "campaigns"} {
		t.Run(surface, func(t *testing.T) {
			stateDir := t.TempDir()
			h1 := startPersistServer(t, stateDir, "")
			sub := h1.srv.Bus().Subscribe(events.Filter{Topics: []events.Topic{events.TopicShard}}, 0)
			code, info := doJSON(t, "POST", h1.ts.URL+"/api/v1/"+surface, strings.NewReader(spec), "application/json")
			if code != 202 {
				t.Fatalf("create = %d %v", code, info)
			}
			id := info["id"].(string)
			waitShardDone(t, sub)
			sub.Close()
			h1.crash(t)

			// The state dir holds a running record and part of the run.
			ps, err := persist.Open(stateDir)
			if err != nil {
				t.Fatal(err)
			}
			runs, err := ps.Load("runs")
			if err != nil {
				t.Fatal(err)
			}
			journaled := 0
			for k := range runs {
				if strings.HasPrefix(k, id+"/c/") {
					journaled++
				}
			}
			if err := ps.Close(); err != nil {
				t.Fatal(err)
			}
			if journaled == 0 || journaled >= 24 {
				t.Fatalf("run journal holds %d of 24 cells at the crash", journaled)
			}

			h2 := startPersistServer(t, stateDir, "")
			defer h2.stop(t)
			if r := h2.srv.RecoveredJobs(); r.Resumed != 1 || r.Interrupted != 0 {
				t.Fatalf("recovered = %+v", r)
			}
			final := waitCampaign(t, h2.ts, h2.srv, id)
			prog := final["progress"].(map[string]any)
			if final["state"] != "done" || prog["done"] != prog["total"] {
				t.Fatalf("resumed campaign = %v", final)
			}
			// Shards the journal covered are done without a worker.
			fromJournal := 0
			for _, sh := range final["coordination"].(map[string]any)["shard"].([]any) {
				if sh := sh.(map[string]any); sh["state"] == "done" && sh["worker"] == nil {
					fromJournal++
				}
			}
			if fromJournal == 0 {
				t.Fatalf("no shard resumed from the run journal: %v", final["coordination"])
			}
			resumed := resultBytes(t, h2.ts.URL+"/api/v1/"+surface+"/"+id+"/result")

			code, info = doJSON(t, "POST", h2.ts.URL+"/api/v1/"+surface, strings.NewReader(spec), "application/json")
			if code != 202 {
				t.Fatalf("create fresh = %d %v", code, info)
			}
			fresh := info["id"].(string)
			if st := waitCampaign(t, h2.ts, h2.srv, fresh); st["state"] != "done" {
				t.Fatalf("fresh campaign = %v", st)
			}
			if want := resultBytes(t, h2.ts.URL+"/api/v1/"+surface+"/"+fresh+"/result"); !bytes.Equal(resumed, want) {
				t.Fatalf("resumed result differs from a fresh run:\n%s\nvs\n%s", resumed, want)
			}
		})
	}
}

// TestPersistCampaignResumesAfterStop stops a server gracefully
// mid-campaign: a shutdown is not a cancellation, so the state dir keeps
// the campaign's live record and run journal, and the restarted server
// resumes it to the bytes of a fresh run.
func TestPersistCampaignResumesAfterStop(t *testing.T) {
	spec := `{"algos": ["cpa", "mcpa"], "shapes": ["random", "forkjoin", "wide", "long"],
		"dag_sizes": [40, 80], "cluster_sizes": [32, 64, 128], "replicates": 3, "seed": 5, "shards": 8}`
	stateDir := t.TempDir()
	h1 := startPersistServer(t, stateDir, "")
	sub := h1.srv.Bus().Subscribe(events.Filter{Topics: []events.Topic{events.TopicShard}}, 0)
	id := launchJob(t, h1.ts, spec)
	waitShardDone(t, sub)
	sub.Close()
	h1.stop(t)

	h2 := startPersistServer(t, stateDir, "")
	defer h2.stop(t)
	if r := h2.srv.RecoveredJobs(); r.Resumed != 1 || r.Restored != 0 {
		t.Fatalf("recovered after a stop = %+v", r)
	}
	if st := waitCampaign(t, h2.ts, h2.srv, id); st["state"] != "done" {
		t.Fatalf("resumed campaign = %v", st)
	}
	resumed := resultBytes(t, h2.ts.URL+"/api/v1/campaigns/"+id+"/result")
	fresh := launchJob(t, h2.ts, spec)
	if fresh == id {
		t.Fatalf("fresh campaign reused the resumed ID %s", id)
	}
	if st := waitCampaign(t, h2.ts, h2.srv, fresh); st["state"] != "done" {
		t.Fatalf("fresh campaign = %v", st)
	}
	if want := resultBytes(t, h2.ts.URL+"/api/v1/campaigns/"+fresh+"/result"); !bytes.Equal(resumed, want) {
		t.Fatalf("resumed result differs from a fresh run:\n%s\nvs\n%s", resumed, want)
	}
}
