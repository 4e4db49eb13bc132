package api

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

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
}

// startPersistServer boots a server against dir, in the same order jedserve
// runs: open store, register files, recover sessions, recover jobs.
func startPersistServer(t *testing.T, dir, fileDir string) *persistHarness {
	t.Helper()
	ps, err := persist.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	store := NewStore()
	store.SetPersist(ps)
	if fileDir != "" {
		if _, err := RegisterDir(store, fileDir); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := store.RecoverSessions(); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store)
	if err := srv.EnablePersistence(ps); err != nil {
		t.Fatal(err)
	}
	return &persistHarness{ts: httptest.NewServer(srv.Handler()), srv: srv, store: store, ps: ps}
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
	if _, ok := meta["jobs_evicted"]; !ok {
		t.Fatalf("meta has no jobs_evicted counter: %v", meta)
	}
}
