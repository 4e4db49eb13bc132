package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"image/png"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/jedxml"
	"repro/internal/render"
	_ "repro/internal/sched/all"
)

func newTestAPI(t *testing.T) (*httptest.Server, *Store) {
	t.Helper()
	ts, srv := newTestServer(t)
	return ts, srv.Store()
}

// newTestServer exposes the Server itself for tests that reach into the
// job engine.
func newTestServer(t *testing.T) (*httptest.Server, *Server) {
	t.Helper()
	store := NewStore()
	t.Cleanup(store.Close)
	srv := NewServer(store)
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, srv
}

func xmlBody(t *testing.T, s *core.Schedule) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	if err := jedxml.Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	return &buf
}

func doJSON(t *testing.T, method, url string, body io.Reader, ct string) (int, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	if ct != "" {
		req.Header.Set("Content-Type", ct)
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
	var out map[string]any
	if len(raw) > 0 && strings.Contains(resp.Header.Get("Content-Type"), "json") {
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("bad JSON %q: %v", raw, err)
		}
	}
	return resp.StatusCode, out
}

func createUpload(t *testing.T, ts *httptest.Server, name string) string {
	t.Helper()
	code, info := doJSON(t, "POST", ts.URL+"/api/v1/sessions?name="+name,
		xmlBody(t, demoSchedule()), "application/xml")
	if code != 201 {
		t.Fatalf("upload = %d %v", code, info)
	}
	return info["id"].(string)
}

func TestSessionLifecycle(t *testing.T) {
	ts, _ := newTestAPI(t)

	// Empty store.
	code, list := doJSON(t, "GET", ts.URL+"/api/v1/sessions", nil, "")
	if code != 200 || len(list["sessions"].([]any)) != 0 {
		t.Fatalf("empty list = %d %v", code, list)
	}

	// Create by upload; check Location and metadata.
	resp, err := http.Post(ts.URL+"/api/v1/sessions?name=demo", "application/xml",
		xmlBody(t, demoSchedule()))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 201 {
		t.Fatalf("create = %d %s", resp.StatusCode, body)
	}
	if loc := resp.Header.Get("Location"); loc != "/api/v1/sessions/s1" {
		t.Fatalf("Location = %q", loc)
	}
	var info map[string]any
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info["id"] != "s1" || info["source"] != "upload" ||
		info["tasks"].(float64) != 3 || info["hosts"].(float64) != 12 ||
		info["makespan"].(float64) != 120 {
		t.Fatalf("info = %v", info)
	}

	// Get, list, delete, get again.
	if code, _ := doJSON(t, "GET", ts.URL+"/api/v1/sessions/s1", nil, ""); code != 200 {
		t.Fatalf("get = %d", code)
	}
	code, list = doJSON(t, "GET", ts.URL+"/api/v1/sessions", nil, "")
	if code != 200 || len(list["sessions"].([]any)) != 1 {
		t.Fatalf("list = %d %v", code, list)
	}
	if code, _ := doJSON(t, "DELETE", ts.URL+"/api/v1/sessions/s1", nil, ""); code != 204 {
		t.Fatalf("delete = %d", code)
	}
	if code, _ := doJSON(t, "GET", ts.URL+"/api/v1/sessions/s1", nil, ""); code != 404 {
		t.Fatalf("get after delete = %d", code)
	}
	if code, _ := doJSON(t, "DELETE", ts.URL+"/api/v1/sessions/s1", nil, ""); code != 404 {
		t.Fatalf("double delete = %d", code)
	}
}

func TestCreateFromCSV(t *testing.T) {
	ts, _ := newTestAPI(t)
	csv := "cluster,0,alpha,4\ntask,t1,computation,0,10,0,0,4\n"
	code, info := doJSON(t, "POST", ts.URL+"/api/v1/sessions",
		strings.NewReader(csv), "text/csv")
	if code != 201 || info["tasks"].(float64) != 1 {
		t.Fatalf("csv create = %d %v", code, info)
	}
}

// TestCreateGenerated is the acceptance path: a session created purely
// server-side via a registered scheduler name, no file on disk.
func TestCreateGenerated(t *testing.T) {
	ts, store := newTestAPI(t)
	for _, algo := range []string{"random", "heft"} {
		body := fmt.Sprintf(
			`{"algo": %q, "dag": {"shape": "wide", "nodes": 12, "seed": 7}, "platform": {"hosts": 4}}`, algo)
		code, info := doJSON(t, "POST", ts.URL+"/api/v1/sessions",
			strings.NewReader(body), "application/json")
		if code != 201 {
			t.Fatalf("%s: create = %d %v", algo, code, info)
		}
		if info["source"] != "generated" || info["name"] != algo {
			t.Fatalf("%s: info = %v", algo, info)
		}
		if info["hosts"].(float64) != 4 || info["tasks"].(float64) != 12 {
			t.Fatalf("%s: wrong shape %v", algo, info)
		}
		sess, ok := store.Get(info["id"].(string))
		if !ok {
			t.Fatalf("%s: session not in store", algo)
		}
		if got := sess.Schedule().MetaValue("algorithm"); got != algo {
			t.Fatalf("algorithm meta = %q", got)
		}
		code, st := doJSON(t, "GET", ts.URL+"/api/v1/sessions/"+sess.ID+"/stats", nil, "")
		if code != 200 || st["makespan"].(float64) <= 0 || st["task_count"].(float64) != 12 {
			t.Fatalf("%s: stats = %d %v", algo, code, st)
		}
	}
}

func TestCreateGeneratedSimulated(t *testing.T) {
	ts, _ := newTestAPI(t)
	body := `{"algo": "heft", "simulate": true,
		"dag": {"shape": "forkjoin", "nodes": 15, "seed": 2},
		"platform": {"clusters": [{"name": "a", "hosts": 2, "speed": 2e9}, {"name": "b", "hosts": 4}]}}`
	code, info := doJSON(t, "POST", ts.URL+"/api/v1/sessions",
		strings.NewReader(body), "application/json")
	if code != 201 || info["clusters"].(float64) != 2 || info["hosts"].(float64) != 6 {
		t.Fatalf("simulated create = %d %v", code, info)
	}
}

func TestRenderFormatsAndParams(t *testing.T) {
	ts, _ := newTestAPI(t)
	id := createUpload(t, ts, "demo")
	base := ts.URL + "/api/v1/sessions/" + id

	// PNG honors the requested size.
	resp, err := http.Get(base + "/render?width=320&height=240")
	if err != nil {
		t.Fatal(err)
	}
	img, err := png.Decode(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.Get("Content-Type") != "image/png" {
		t.Errorf("png content type = %q", resp.Header.Get("Content-Type"))
	}
	if img.Bounds().Dx() != 320 || img.Bounds().Dy() != 240 {
		t.Fatalf("png size = %v", img.Bounds())
	}

	// SVG and PDF with view parameters.
	for url, want := range map[string]string{
		base + "/render?format=svg&window=10,50&clusters=0&mode=scaled&gray=1": "<svg",
		base + "/render?format=pdf&composites=1&legend=1":                      "%PDF",
	} {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 || !strings.Contains(string(body), want) {
			t.Fatalf("%s = %d, prefix %q", url, resp.StatusCode, body[:min(len(body), 8)])
		}
	}
}

func TestExportDispositions(t *testing.T) {
	ts, _ := newTestAPI(t)
	id := createUpload(t, ts, "demo")
	base := ts.URL + "/api/v1/sessions/" + id + "/export"
	for format, wantCT := range map[string]string{
		"png": "image/png", "svg": "image/svg+xml", "pdf": "application/pdf",
		"jedule": "application/xml",
	} {
		resp, err := http.Get(base + "?format=" + format)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("%s export = %d", format, resp.StatusCode)
		}
		if got := resp.Header.Get("Content-Type"); !strings.HasPrefix(got, wantCT) {
			t.Errorf("%s content type = %q", format, got)
		}
		cd := resp.Header.Get("Content-Disposition")
		if !strings.HasPrefix(cd, `attachment; filename="`+id+".") {
			t.Errorf("%s disposition = %q", format, cd)
		}
		if format == "jedule" {
			round, err := jedxml.Read(bytes.NewReader(body))
			if err != nil {
				t.Fatalf("exported XML does not round-trip: %v", err)
			}
			if len(round.Tasks) != 3 {
				t.Fatalf("round trip lost tasks: %d", len(round.Tasks))
			}
		}
	}
}

func TestStatsTasksMeta(t *testing.T) {
	ts, _ := newTestAPI(t)
	id := createUpload(t, ts, "demo")
	base := ts.URL + "/api/v1/sessions/" + id

	code, st := doJSON(t, "GET", base+"/stats", nil, "")
	if code != 200 || st["makespan"].(float64) != 120 || st["hosts"].(float64) != 12 {
		t.Fatalf("stats = %d %v", code, st)
	}
	code, st = doJSON(t, "GET", base+"/stats?cluster=1", nil, "")
	if code != 200 || st["hosts"].(float64) != 4 {
		t.Fatalf("cluster stats = %d %v", code, st)
	}

	code, tasks := doJSON(t, "GET", base+"/tasks", nil, "")
	if code != 200 || len(tasks["tasks"].([]any)) != 3 {
		t.Fatalf("tasks = %d %v", code, tasks)
	}
	first := tasks["tasks"].([]any)[0].(map[string]any)
	if first["id"] != "t1" || first["duration"].(float64) != 60 {
		t.Fatalf("first task = %v", first)
	}

	// Pixel hit test: replicate the layout to find a task pixel.
	l := render.ComputeLayout(demoSchedule(), 400, 300,
		render.Options{Mode: core.AlignedView, Labels: true})
	p := l.Panels[0]
	x := int(p.Transform.XToScreen(40))
	y := int(p.Transform.YToScreen(0.5))
	code, hit := doJSON(t, "GET",
		fmt.Sprintf("%s/tasks?width=400&height=300&x=%d&y=%d", base, x, y), nil, "")
	if code != 200 || hit["task"] == nil {
		t.Fatalf("hit test = %d %v", code, hit)
	}
	if hit["task"].(map[string]any)["id"] != "t1" {
		t.Fatalf("hit task = %v", hit["task"])
	}
	code, miss := doJSON(t, "GET", base+"/tasks?x=1&y=1", nil, "")
	if code != 200 || miss["task"] != nil {
		t.Fatalf("background hit = %d %v", code, miss)
	}

	code, meta := doJSON(t, "GET", base+"/meta", nil, "")
	if code != 200 {
		t.Fatalf("meta = %d", code)
	}
	if meta["meta"].(map[string]any)["algorithm"] != "demo" {
		t.Fatalf("meta = %v", meta)
	}
	clusters := meta["clusters"].([]any)
	if len(clusters) != 2 || clusters[0].(map[string]any)["name"] != "alpha" {
		t.Fatalf("clusters = %v", clusters)
	}
}

func TestBadInputs(t *testing.T) {
	ts, _ := newTestAPI(t)
	id := createUpload(t, ts, "demo")
	base := ts.URL + "/api/v1/sessions/" + id

	for name, check := range map[string]struct {
		method, url, body, ct string
		want                  int
	}{
		"bad xml":          {"POST", ts.URL + "/api/v1/sessions", "<not-jedule/>", "application/xml", 400},
		"bad json":         {"POST", ts.URL + "/api/v1/sessions", "{", "application/json", 400},
		"unknown field":    {"POST", ts.URL + "/api/v1/sessions", `{"algo":"heft","bogus":1}`, "application/json", 400},
		"unknown algo":     {"POST", ts.URL + "/api/v1/sessions", `{"algo":"nope"}`, "application/json", 400},
		"missing algo":     {"POST", ts.URL + "/api/v1/sessions", `{}`, "application/json", 400},
		"bad shape":        {"POST", ts.URL + "/api/v1/sessions", `{"algo":"heft","dag":{"shape":"blob"}}`, "application/json", 400},
		"bad platform":     {"POST", ts.URL + "/api/v1/sessions", `{"algo":"heft","platform":{"hosts":2,"clusters":[{"hosts":2}]}}`, "application/json", 400},
		"bad format param": {"POST", ts.URL + "/api/v1/sessions?format=bogus", "x", "", 400},
		"unknown session":  {"GET", ts.URL + "/api/v1/sessions/nope/render", "", "", 404},
		"bad render fmt":   {"GET", base + "/render?format=gif", "", "", 400},
		"bad window":       {"GET", base + "/render?window=5", "", "", 400},
		"inverted window":  {"GET", base + "/render?window=9,3", "", "", 400},
		"bad clusters":     {"GET", base + "/render?clusters=x", "", "", 400},
		"bad mode":         {"GET", base + "/render?mode=diagonal", "", "", 400},
		"bad bool":         {"GET", base + "/render?gray=maybe", "", "", 400},
		"huge width":       {"GET", base + "/render?width=99999", "", "", 400},
		"bad hit coords":   {"GET", base + "/tasks?x=a&y=b", "", "", 400},
		"bad stat cluster": {"GET", base + "/stats?cluster=x", "", "", 400},
		"no stat cluster":  {"GET", base + "/stats?cluster=9", "", "", 404},
		"method not allow": {"PUT", ts.URL + "/api/v1/sessions", "", "", 405},
	} {
		var body io.Reader
		if check.body != "" {
			body = strings.NewReader(check.body)
		}
		code, _ := doJSON(t, check.method, check.url, body, check.ct)
		if code != check.want {
			t.Errorf("%s: code = %d, want %d", name, code, check.want)
		}
	}
}

// filler reads as an endless run of 'x'.
type filler struct{}

func (filler) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 'x'
	}
	return len(p), nil
}

// An upload over maxUploadBytes answers 413 whether or not the server
// persists sessions, and an upload of unknown length is read the same way.
func TestUploadSizeLimit(t *testing.T) {
	_, memory := newTestServer(t)
	h := startPersistServer(t, t.TempDir(), "")
	t.Cleanup(func() { h.stop(t) })
	doc := xmlBody(t, core.NewSingleCluster("c", 1)).Bytes()
	for mode, srv := range map[string]*Server{"memory": memory, "persistent": h.srv} {
		req := httptest.NewRequest(http.MethodPost, "/api/v1/sessions", io.LimitReader(filler{}, maxUploadBytes+1))
		req.ContentLength = maxUploadBytes + 1
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusRequestEntityTooLarge || !strings.Contains(rec.Body.String(), "payload_too_large") {
			t.Errorf("%s: oversized upload answered %d %s", mode, rec.Code, rec.Body.String())
		}

		req = httptest.NewRequest(http.MethodPost, "/api/v1/sessions", bytes.NewReader(doc))
		req.ContentLength = -1
		rec = httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusCreated {
			t.Errorf("%s: upload of unknown length answered %d %s", mode, rec.Code, rec.Body.String())
		}
	}
}

// TestConcurrentRenders is the acceptance criterion: two sessions rendered
// concurrently with different windows, sizes, and formats must not
// interfere. Run under -race this also proves the store and sessions are
// data-race free.
func TestConcurrentRenders(t *testing.T) {
	ts, store := newTestAPI(t)
	a := store.Add("a", "upload", demoSchedule())
	b := store.Add("b", "upload", demoSchedule())

	type job struct {
		url       string
		wantW     int    // PNG width to decode, 0 for non-PNG
		wantMagic string // body prefix for non-PNG
	}
	jobs := []job{
		{ts.URL + "/api/v1/sessions/" + a.ID + "/render?width=200&height=150&window=0,30", 200, ""},
		{ts.URL + "/api/v1/sessions/" + a.ID + "/render?width=330&height=120&gray=1", 330, ""},
		{ts.URL + "/api/v1/sessions/" + b.ID + "/render?width=260&height=140&clusters=1&mode=scaled", 260, ""},
		{ts.URL + "/api/v1/sessions/" + b.ID + "/render?format=svg&window=40,90", 0, "<svg"},
		{ts.URL + "/api/v1/sessions/" + a.ID + "/export?format=pdf", 0, "%PDF"},
		{ts.URL + "/api/v1/sessions/" + b.ID + "/stats", 0, "{"},
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		for _, j := range jobs {
			wg.Add(1)
			go func(j job) {
				defer wg.Done()
				resp, err := http.Get(j.url)
				if err != nil {
					t.Error(err)
					return
				}
				defer resp.Body.Close()
				if resp.StatusCode != 200 {
					t.Errorf("%s = %d", j.url, resp.StatusCode)
					return
				}
				if j.wantW > 0 {
					img, err := png.Decode(resp.Body)
					if err != nil {
						t.Errorf("%s: %v", j.url, err)
						return
					}
					if img.Bounds().Dx() != j.wantW {
						t.Errorf("%s: width %d, want %d (cross-request interference)",
							j.url, img.Bounds().Dx(), j.wantW)
					}
					return
				}
				body, _ := io.ReadAll(resp.Body)
				if !strings.Contains(string(body), j.wantMagic) {
					t.Errorf("%s: body lacks %q", j.url, j.wantMagic)
				}
			}(j)
		}
	}
	wg.Wait()
}

func TestIndexPage(t *testing.T) {
	ts, store := newTestAPI(t)
	store.Add("demo schedule", "upload", demoSchedule())
	resp, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body), "/api/v1/sessions/s1/render") {
		t.Fatalf("index = %d %s", resp.StatusCode, body)
	}
}

func TestSchedulersEndpoint(t *testing.T) {
	ts, _ := newTestAPI(t)
	code, out := doJSON(t, "GET", ts.URL+"/api/v1/schedulers", nil, "")
	if code != 200 {
		t.Fatalf("schedulers = %d", code)
	}
	var names []string
	for _, v := range out["schedulers"].([]any) {
		names = append(names, v.(string))
	}
	joined := strings.Join(names, ",")
	for _, want := range []string{"heft", "cpa", "random"} {
		if !strings.Contains(joined, want) {
			t.Errorf("schedulers missing %q: %v", want, names)
		}
	}
}

// TestRenderETag pins the caching contract of the stateless reads: a
// strong ETag derived from session, revision, and canonicalized query, a
// body-less 304 on If-None-Match, and invalidation when the schedule is
// replaced.
func TestRenderETag(t *testing.T) {
	ts, store := newTestAPI(t)
	sess, reread := fileSession(t, store, demoSchedule())
	id := sess.ID
	url := ts.URL + "/api/v1/sessions/" + id + "/render?width=200&height=150&gray=1"

	get := func(u, ifNoneMatch string) *http.Response {
		t.Helper()
		req, err := http.NewRequest("GET", u, nil)
		if err != nil {
			t.Fatal(err)
		}
		if ifNoneMatch != "" {
			req.Header.Set("If-None-Match", ifNoneMatch)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	resp := get(url, "")
	etag := resp.Header.Get("ETag")
	if resp.StatusCode != 200 || etag == "" {
		t.Fatalf("initial render = %d, etag %q", resp.StatusCode, etag)
	}
	if cc := resp.Header.Get("Cache-Control"); !strings.Contains(cc, "no-cache") {
		t.Fatalf("Cache-Control = %q", cc)
	}

	// Revalidation: 304, no body.
	resp = get(url, etag)
	if resp.StatusCode != 304 {
		t.Fatalf("revalidation = %d", resp.StatusCode)
	}
	if body, _ := io.ReadAll(resp.Body); len(body) != 0 {
		t.Fatalf("304 carried %d body bytes", len(body))
	}

	// Weak-form and list-form validators still match; * matches anything.
	for _, inm := range []string{"W/" + etag, `"zzz", ` + etag, "*"} {
		if resp = get(url, inm); resp.StatusCode != 304 {
			t.Fatalf("If-None-Match %q = %d, want 304", inm, resp.StatusCode)
		}
	}

	// Parameter order does not change the ETag; parameter values do.
	reordered := get(ts.URL+"/api/v1/sessions/"+id+"/render?height=150&gray=1&width=200", etag)
	if reordered.StatusCode != 304 {
		t.Fatalf("reordered query = %d, want 304", reordered.StatusCode)
	}
	other := get(ts.URL+"/api/v1/sessions/"+id+"/render?width=210&height=150&gray=1", etag)
	if other.StatusCode != 200 || other.Header.Get("ETag") == etag {
		t.Fatalf("different params: %d, etag %q", other.StatusCode, other.Header.Get("ETag"))
	}

	// Rereading the schedule bumps the revision and invalidates.
	reread(demoSchedule())
	resp = get(url, etag)
	if resp.StatusCode != 200 || resp.Header.Get("ETag") == etag {
		t.Fatalf("after reread: %d, etag %q", resp.StatusCode, resp.Header.Get("ETag"))
	}

	// Export carries ETags too, including the jedule document form.
	for _, u := range []string{
		ts.URL + "/api/v1/sessions/" + id + "/export?format=png",
		ts.URL + "/api/v1/sessions/" + id + "/export?format=jedule",
	} {
		resp = get(u, "")
		et := resp.Header.Get("ETag")
		if resp.StatusCode != 200 || et == "" {
			t.Fatalf("%s = %d, etag %q", u, resp.StatusCode, et)
		}
		if resp = get(u, et); resp.StatusCode != 304 {
			t.Fatalf("%s revalidation = %d", u, resp.StatusCode)
		}
	}

	// Bad parameters stay 400 even with a matching validator.
	bad := get(ts.URL+"/api/v1/sessions/"+id+"/render?width=99999", "*")
	if bad.StatusCode != 400 {
		t.Fatalf("bad params with If-None-Match = %d, want 400", bad.StatusCode)
	}
}

// TestWindowRejectsNonFinite pins the NaN/Inf window validation: NaN
// defeats a plain hi <= lo comparison.
func TestWindowRejectsNonFinite(t *testing.T) {
	ts, _ := newTestAPI(t)
	id := createUpload(t, ts, "demo")
	for _, win := range []string{"NaN,NaN", "0,NaN", "0,Inf", "-Inf,10"} {
		code, _ := doJSON(t, "GET",
			ts.URL+"/api/v1/sessions/"+id+"/render?window="+win, nil, "")
		if code != 400 {
			t.Errorf("window=%s = %d, want 400", win, code)
		}
	}
}

// TestPlatformSpecConflicts pins that the homogeneous shortcut and an
// explicit cluster list cannot be mixed, and that backbone overrides apply
// to the homogeneous path.
func TestPlatformSpecConflicts(t *testing.T) {
	ts, _ := newTestAPI(t)
	for _, body := range []string{
		`{"algo":"heft","platform":{"hosts":2,"clusters":[{"hosts":2}]}}`,
		`{"algo":"heft","platform":{"speed":5e9,"clusters":[{"hosts":2}]}}`,
	} {
		code, _ := doJSON(t, "POST", ts.URL+"/api/v1/sessions",
			strings.NewReader(body), "application/json")
		if code != 400 {
			t.Errorf("%s = %d, want 400", body, code)
		}
	}
	code, _ := doJSON(t, "POST", ts.URL+"/api/v1/sessions",
		strings.NewReader(`{"algo":"heft","platform":{"hosts":4,"backbone_latency":1e-3}}`),
		"application/json")
	if code != 201 {
		t.Errorf("homogeneous with backbone override = %d, want 201", code)
	}
}
