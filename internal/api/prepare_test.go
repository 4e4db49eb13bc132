package api

import (
	"os"
	"strings"
	"testing"

	"repro/internal/core"
)

// invalidSchedule is demoSchedule plus a task whose host range runs past
// the 8 hosts of cluster 0: structurally well-formed, but not renderable.
func invalidSchedule() *core.Schedule {
	s := demoSchedule()
	s.Add("overflow", "computation", 10, 20, 6, 4)
	return s
}

// renderStatus GETs a render or export URL and returns the status and, for
// an error envelope, its code and message.
func renderStatus(t *testing.T, url string) (status int, code, message string) {
	t.Helper()
	status, body := doJSON(t, "GET", url, nil, "")
	if e, ok := body["error"].(map[string]any); ok {
		code, _ = e["code"].(string)
		message, _ = e["message"].(string)
	}
	return status, code, message
}

func sessionPrep(s *Session) *prepared {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.prep
}

// TestInvalidScheduleNeverRenders stores a schedule that fails Validate and
// asserts every image read refuses it with the same 500 render_failed the
// per-request check used to produce, on every request, without a render
// cache entry or miss for the session — and that the check ran once.
func TestInvalidScheduleNeverRenders(t *testing.T) {
	ts, srv := newTestServer(t)
	store := srv.Store()
	bad := invalidSchedule()
	verr := bad.Validate()
	if verr == nil {
		t.Fatal("fixture schedule validates")
	}
	sess := store.Add("bad", "upload", bad)
	base := ts.URL + "/api/v1/sessions/" + sess.ID
	for _, endpoint := range []string{"render", "export"} {
		for _, format := range []string{"png", "svg", "pdf"} {
			url := base + "/" + endpoint + "?format=" + format + "&width=200&height=100"
			for i := 0; i < 2; i++ {
				status, code, msg := renderStatus(t, url)
				if status != 500 || code != "render_failed" {
					t.Fatalf("%s %s request %d = %d %q, want 500 render_failed", endpoint, format, i, status, code)
				}
				if want := "render: " + verr.Error(); msg != want {
					t.Fatalf("message = %q, want %q", msg, want)
				}
			}
		}
	}
	if status, code, _ := renderStatus(t, base+"/tasks?x=10&y=10"); status != 500 || code != "render_failed" {
		t.Fatalf("hit test = %d %q, want 500 render_failed", status, code)
	}
	if st := srv.RenderCacheStats(); st.Entries != 0 || st.Misses != 0 || st.Hits != 0 {
		t.Fatalf("invalid session reached the render cache: %+v", st)
	}
	p := sessionPrep(sess)
	if p.err == nil || p.idx != nil {
		t.Fatalf("prepared = %+v, want the cached validation error and no index", p)
	}
	if _, _, err := sess.ScheduleWithIndex(); err != p.err || sessionPrep(sess) != p {
		t.Fatal("accessor re-prepared an unchanged revision")
	}
}

// TestReplaceSwitchesValidity rereads a file session through a valid, an
// invalid and another valid file: each accepted revision is judged on its
// own, freshly prepared, and an invalid file never replaces the schedule.
func TestReplaceSwitchesValidity(t *testing.T) {
	ts, store := newTestAPI(t)
	sess, _ := fileSession(t, store, demoSchedule())
	url := ts.URL + "/api/v1/sessions/" + sess.ID + "/render?width=200&height=100"
	path := sess.recipe.Path
	grown := demoSchedule()
	grown.Add("t4", "computation", 120, 150, 0, 8)
	// A document the writer would refuse: cluster 0 with no hosts.
	invalid := strings.Replace(xmlBody(t, demoSchedule()).String(), `hosts="8"`, `hosts="0"`, 1)
	seen := map[*prepared]bool{}
	for i, step := range []struct {
		doc    string
		reread int // status of POST .../reread; 0 = no reread
	}{
		{"", 0},
		{invalid, 422},
		{xmlBody(t, grown).String(), 200},
	} {
		before := sessionPrep(sess)
		if step.doc != "" {
			if err := os.WriteFile(path, []byte(step.doc), 0o644); err != nil {
				t.Fatal(err)
			}
			if status, body := doJSON(t, "POST", ts.URL+"/api/v1/sessions/"+sess.ID+"/reread", nil, ""); status != step.reread {
				t.Fatalf("step %d: reread = %d %v, want %d", i, status, body, step.reread)
			}
		}
		if status, code, _ := renderStatus(t, url); status != 200 {
			t.Fatalf("step %d: render = %d %q, want 200", i, status, code)
		}
		p := sessionPrep(sess)
		switch {
		case step.reread == 422 && p != before:
			t.Fatalf("step %d: a refused reread replaced the preparation", i)
		case step.reread != 422 && seen[p]:
			t.Fatalf("step %d: Reread kept the previous revision's preparation", i)
		}
		seen[p] = true
		if p.err != nil || p.idx == nil {
			t.Fatalf("step %d: prepared = %+v", i, p)
		}
	}
	if got := sess.Schedule(); len(got.Tasks) != 4 {
		t.Fatalf("schedule after rereads has %d tasks, want 4", len(got.Tasks))
	}
}

// TestHydratedSessionPreparesOnFirstRender restarts a durable server and
// asserts the recovered session is validated and indexed by its first
// render, not before and not from the previous process's state.
func TestHydratedSessionPreparesOnFirstRender(t *testing.T) {
	stateDir := t.TempDir()
	h1 := startPersistServer(t, stateDir, "")
	id := createUpload(t, h1.ts, "hydrate")
	h1.stop(t)

	h2 := startPersistServer(t, stateDir, "")
	defer h2.stop(t)
	sessions := h2.store.List()
	if len(sessions) != 1 {
		t.Fatalf("recovered %d sessions", len(sessions))
	}
	sess := sessions[0]
	if sessionPrep(sess) != nil {
		t.Fatal("recovered session prepared before hydration")
	}
	if status, _, _ := renderStatus(t, h2.ts.URL+"/api/v1/sessions/"+id+"/render?width=200&height=100"); status != 200 {
		t.Fatalf("first render after restart = %d", status)
	}
	p := sessionPrep(sess)
	if p == nil || p.err != nil || p.idx == nil {
		t.Fatalf("first render left prepared = %+v, want an index and no error", p)
	}
}
