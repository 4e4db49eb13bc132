package api

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

// promLine matches one sample of the Prometheus text format: a metric name,
// an optional label set (whose quoted values may themselves contain braces,
// e.g. route="/api/v1/sessions/{id}"), and a float value.
var promLine = regexp.MustCompile(
	`^[A-Za-z_:][A-Za-z0-9_:]*(\{.*\})? (-?[0-9.eE+-]+|NaN|[+-]?Inf)$`)

// scrape fetches /api/v1/metrics and returns the body after validating the
// Content-Type and every non-comment line against the exposition grammar.
func scrape(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/api/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Fatalf("unparseable exposition line %q", line)
		}
	}
	return string(raw)
}

// TestMetricsEndpoint exercises the full exposition path: traffic and a real
// render drive the middleware and stage histograms, then one scrape must
// carry them all in parseable form.
func TestMetricsEndpoint(t *testing.T) {
	ts, _ := newTestAPI(t)
	id := createUpload(t, ts, "obs")

	resp, err := http.Get(ts.URL + "/api/v1/sessions/" + id + "/render?w=320&h=200")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("render = %d", resp.StatusCode)
	}

	body := scrape(t, ts)
	for _, want := range []string{
		`jed_http_requests_total{class="2xx",method="POST",route="/api/v1/sessions"}`,
		`jed_http_request_seconds_bucket{route="/api/v1/sessions/{id}/render",le="+Inf"}`,
		`jed_http_request_seconds_count{route="/api/v1/sessions/{id}/render"}`,
		`jed_render_stage_seconds_count{stage="layout"}`,
		`jed_render_stage_seconds_count{stage="raster"}`,
		`jed_render_stage_seconds_count{stage="encode"}`,
		"jed_sessions 1",
		"jed_http_in_flight 1", // the scrape itself
		"# TYPE jed_http_request_seconds histogram",
		"\njed_jobs_queue_depth 0\n", // one engine: one unlabelled series
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestMetricsRateLimitExempt proves a scraper keeps working after a client
// has burned its whole API quota.
func TestMetricsRateLimitExempt(t *testing.T) {
	srv := NewServer(NewStore())
	t.Cleanup(srv.Close)
	srv.SetRateLimit(0.01, 1)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	if code, _ := doJSON(t, "GET", ts.URL+"/api/v1/sessions", nil, ""); code != 200 {
		t.Fatalf("first request = %d", code)
	}
	if code, _ := doJSON(t, "GET", ts.URL+"/api/v1/sessions", nil, ""); code != 429 {
		t.Fatalf("second request = %d, want 429", code)
	}
	scrape(t, ts) // still 200 and parseable

	// The 429 itself was measured by the middleware (which wraps outside the
	// limiter), under the normalized route label.
	if body := scrape(t, ts); !strings.Contains(body,
		`jed_http_requests_total{class="4xx",method="GET",route="/api/v1/sessions"} 1`) {
		t.Fatalf("429 not counted:\n%s", body)
	}
}

// TestRouteLabel pins the normalization: resource IDs collapse to {id} so
// cardinality tracks the API surface, not the session population.
func TestRouteLabel(t *testing.T) {
	cases := map[string]string{
		"/":                            "/",
		"/api/v1/sessions":             "/api/v1/sessions",
		"/api/v1/sessions/s123":        "/api/v1/sessions/{id}",
		"/api/v1/sessions/s999/render": "/api/v1/sessions/{id}/render",
		"/api/v1/sessions/s1/export":   "/api/v1/sessions/{id}/export",
		"/api/v1/sessions/s1/reread":   "/api/v1/sessions/{id}/reread",
		"/view/s1":                     "/view/{id}",
		"/view/":                       "other",
		"/view/s1/extra":               "other",
		"/api/v1/sessions/s1/bogus":    "other",
		"/api/v1/jobs/j42":             "/api/v1/jobs/{id}",
		"/api/v1/jobs/j42/result":      "/api/v1/jobs/{id}/result",
		"/api/v1/campaigns/c7/result":  "/api/v1/campaigns/{id}/result",
		"/api/v1/workers/w1/heartbeat": "/api/v1/workers/{id}/heartbeat",
		"/api/v1/workers/w1/lease":     "/api/v1/workers/{id}/lease",
		"/api/v1/meta":                 "/api/v1/meta",
		"/api/v1/metrics":              "/api/v1/metrics",
		"/api/v1/schedulers":           "/api/v1/schedulers",
		"/api/v1/events":               "/api/v1/events",
		"/api/v1/nope":                 "other",
		"/api/v1/sessions/a/b/c":       "other",
		"/debug/pprof/heap":            "/debug/pprof/",
		"/favicon.ico":                 "other",
		"/api/v1/meta/extra":           "other",
		"/api/v1/workers/w1/steal":     "other",
	}
	for path, want := range cases {
		r := httptest.NewRequest("GET", path, nil)
		if got := routeLabel(r); got != want {
			t.Errorf("routeLabel(%q) = %q, want %q", path, got, want)
		}
	}
}

// TestPprofGated: the profiling surface is absent unless EnablePprof ran
// before Handler.
func TestPprofGated(t *testing.T) {
	ts, _ := newTestAPI(t)
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("pprof without opt-in = %d, want 404", resp.StatusCode)
	}

	srv := NewServer(NewStore())
	t.Cleanup(srv.Close)
	srv.EnablePprof()
	ts2 := httptest.NewServer(srv.Handler())
	t.Cleanup(ts2.Close)
	resp, err = http.Get(ts2.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("pprof with opt-in = %d, want 200", resp.StatusCode)
	}
}

// syncBuffer lets the test read what the middleware's log goroutine wrote
// without a race.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestAccessLog asserts the structured line: route normalization, status,
// the caller's trace ID, and the render-cache disposition.
func TestAccessLog(t *testing.T) {
	var logbuf syncBuffer
	srv := NewServer(NewStore())
	t.Cleanup(srv.Close)
	srv.SetAccessLog(&logbuf)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	id := createUpload(t, ts, "logged")
	req, err := http.NewRequest("GET", ts.URL+"/api/v1/sessions/"+id+"/render?w=320&h=200", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.TraceHeader, "trace-log-test")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if echo := resp.Header.Get(obs.TraceHeader); echo != "trace-log-test" {
		t.Fatalf("trace echo = %q", echo)
	}

	lines := strings.Split(strings.TrimSpace(logbuf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("access log lines = %d (%q), want 2", len(lines), logbuf.String())
	}
	var rec struct {
		Method   string  `json:"method"`
		Route    string  `json:"route"`
		Status   int     `json:"status"`
		Bytes    int     `json:"bytes"`
		Duration float64 `json:"duration_ms"`
		Trace    string  `json:"trace"`
		Cache    string  `json:"cache"`
	}
	if err := json.Unmarshal([]byte(lines[1]), &rec); err != nil {
		t.Fatalf("bad access-log JSON %q: %v", lines[1], err)
	}
	if rec.Method != "GET" || rec.Route != "/api/v1/sessions/{id}/render" ||
		rec.Status != 200 || rec.Bytes <= 0 || rec.Trace != "trace-log-test" ||
		rec.Cache != "miss" {
		t.Fatalf("access record = %+v", rec)
	}
}

// TestServerTiming asserts the per-stage breakdown on a render miss and the
// hit disposition on the cached replay.
func TestServerTiming(t *testing.T) {
	ts, _ := newTestAPI(t)
	id := createUpload(t, ts, "timed")
	url := ts.URL + "/api/v1/sessions/" + id + "/render?w=320&h=200"

	get := func() (string, string) {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("render = %d", resp.StatusCode)
		}
		return resp.Header.Get("Server-Timing"), resp.Header.Get("X-Render-Cache")
	}

	timing, cache := get()
	if cache != "miss" {
		t.Fatalf("first render cache = %q", cache)
	}
	for _, stage := range []string{"layout;dur=", "lod;dur=", "raster;dur=", "encode;dur=", "cache;desc=miss"} {
		if !strings.Contains(timing, stage) {
			t.Errorf("Server-Timing %q missing %q", timing, stage)
		}
	}
	if timing, cache = get(); cache != "hit" || !strings.Contains(timing, "cache;desc=hit") {
		t.Fatalf("replay cache = %q, Server-Timing = %q", cache, timing)
	}
}

// TestMetaMetricsBlock: the legacy meta fields survive (CI asserts on their
// exact names) and the new "metrics" block mirrors the registry snapshot.
func TestMetaMetricsBlock(t *testing.T) {
	ts, _ := newTestAPI(t)
	// Warm-up: the request families are created lazily by the middleware
	// after each request completes, so the first request can't see itself.
	if code, _ := doJSON(t, "GET", ts.URL+"/api/v1/sessions", nil, ""); code != 200 {
		t.Fatalf("warm-up = %d", code)
	}
	code, meta := doJSON(t, "GET", ts.URL+"/api/v1/meta", nil, "")
	if code != 200 {
		t.Fatalf("meta = %d", code)
	}
	for _, key := range []string{
		"sessions", "render_workers", "session_ttl_seconds", "render_cache",
		"rate_limit", "lod_default", "lod_renders", "lod_tasks_aggregated",
		"jobs_evicted", "events", "long_polls", "metrics",
	} {
		if _, ok := meta[key]; !ok {
			t.Errorf("meta missing %q", key)
		}
	}
	families, ok := meta["metrics"].(map[string]any)
	if !ok || len(families) == 0 {
		t.Fatalf("metrics block = %v", meta["metrics"])
	}
	if _, ok := families["jed_http_requests_total"]; !ok {
		t.Errorf("metrics block missing jed_http_requests_total: %v", families)
	}
}
