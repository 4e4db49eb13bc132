package api

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// sseClient is a minimal test-side consumer of GET /api/v1/events.
type sseClient struct {
	resp   *http.Response
	r      *bufio.Reader
	cancel context.CancelFunc
}

func openSSE(t *testing.T, url string, header map[string]string) *sseClient {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		t.Fatalf("events = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		resp.Body.Close()
		cancel()
		t.Fatalf("Content-Type = %q", ct)
	}
	c := &sseClient{resp: resp, r: bufio.NewReader(resp.Body), cancel: cancel}
	t.Cleanup(c.close)
	return c
}

func (c *sseClient) close() {
	c.cancel()
	c.resp.Body.Close()
}

// busEvent is the decoded data of one SSE frame.
type busEvent struct {
	ID    uint64          `json:"id"`
	Topic string          `json:"topic"`
	Seq   uint64          `json:"seq"`
	Type  string          `json:"type"`
	Key   string          `json:"key"`
	Data  json.RawMessage `json:"data"`
}

// next reads frames until one carries an event payload (skipping heartbeats
// and comments), failing the test after a deadline.
func (c *sseClient) next(t *testing.T) busEvent {
	t.Helper()
	guard := time.AfterFunc(15*time.Second, c.cancel)
	defer guard.Stop()
	var data []byte
	for {
		line, err := c.r.ReadString('\n')
		if err != nil {
			t.Fatalf("stream broke: %v", err)
		}
		line = strings.TrimRight(line, "\r\n")
		switch {
		case line == "":
			if len(data) == 0 {
				continue // comment-only frame (heartbeat, retry preamble)
			}
			var e busEvent
			if err := json.Unmarshal(data, &e); err != nil {
				t.Fatalf("bad event payload %q: %v", data, err)
			}
			return e
		case strings.HasPrefix(line, "data:"):
			data = append(data, strings.TrimPrefix(line[len("data:"):], " ")...)
		}
	}
}

// TestEventStreamJobLifecycle subscribes to the job topic, runs a job, and
// asserts the terminal event arrives with monotonically increasing bus IDs
// and per-topic sequence numbers — the SSE lifecycle check (run under -race
// this also exercises publisher/handler concurrency).
func TestEventStreamJobLifecycle(t *testing.T) {
	ts, _ := newTestServer(t)
	sse := openSSE(t, ts.URL+"/api/v1/events?topic=job", nil)

	id := launchJob(t, ts, fmt.Sprintf(smallJobSpec, ""))

	var lastID, lastSeq uint64
	var states []string
	for {
		e := sse.next(t)
		if e.Topic != "job" {
			t.Fatalf("topic = %q with a topic=job filter", e.Topic)
		}
		if e.ID <= lastID {
			t.Fatalf("bus ID went backwards: %d after %d", e.ID, lastID)
		}
		if e.Seq <= lastSeq {
			t.Fatalf("topic seq went backwards: %d after %d", e.Seq, lastSeq)
		}
		lastID, lastSeq = e.ID, e.Seq
		if e.Key != id {
			continue
		}
		states = append(states, e.Type)
		if e.Type == "done" || e.Type == "failed" {
			var info map[string]any
			if err := json.Unmarshal(e.Data, &info); err != nil {
				t.Fatalf("terminal event data: %v", err)
			}
			if info["id"] != id || info["state"] != e.Type {
				t.Fatalf("terminal payload = %v", info)
			}
			break
		}
	}
	if states[0] != "submitted" || states[len(states)-1] != "done" {
		t.Fatalf("lifecycle = %v", states)
	}
}

// TestEventStreamKeyFilter asserts ?job= narrows the stream to one job.
func TestEventStreamKeyFilter(t *testing.T) {
	ts, _ := newTestServer(t)
	// Subscribe to a key that does not exist yet, then run two jobs; only
	// the matching one's events may arrive.
	other := launchJob(t, ts, fmt.Sprintf(smallJobSpec, ""))
	pollJob(t, ts, other)
	want := "j2" // IDs are minted sequentially per engine
	sse := openSSE(t, ts.URL+"/api/v1/events?topic=job&job="+want, nil)
	got := launchJob(t, ts, fmt.Sprintf(smallJobSpec, ""))
	if got != want {
		t.Fatalf("second job = %s, want %s", got, want)
	}
	for {
		e := sse.next(t)
		if e.Key != want {
			t.Fatalf("event for %q leaked through the job=%s filter", e.Key, want)
		}
		if e.Type == "done" {
			break
		}
	}
}

// TestEventStreamReplay covers the Last-Event-ID contract: a reconnecting
// client replays what it missed from the in-memory tail.
func TestEventStreamReplay(t *testing.T) {
	ts, srv := newTestServer(t)
	createUpload(t, ts, "one")
	createUpload(t, ts, "two")
	if n := srv.Bus().Stats().Published; n < 2 {
		t.Fatalf("published = %d before subscribing", n)
	}

	sse := openSSE(t, ts.URL+"/api/v1/events?topic=session", map[string]string{"Last-Event-ID": "0"})
	first := sse.next(t)
	second := sse.next(t)
	if first.Type != "created" || second.Type != "created" {
		t.Fatalf("replayed types = %s, %s", first.Type, second.Type)
	}
	if first.Key != "s1" || second.Key != "s2" {
		t.Fatalf("replayed keys = %s, %s", first.Key, second.Key)
	}
	if second.Seq != first.Seq+1 {
		t.Fatalf("replayed seq = %d, %d", first.Seq, second.Seq)
	}

	// The ?last_event_id= query form works for curl-shaped clients, and a
	// mid-stream cursor skips what was already seen.
	sse2 := openSSE(t, fmt.Sprintf("%s/api/v1/events?topic=session&last_event_id=%d", ts.URL, first.ID), nil)
	if e := sse2.next(t); e.ID != second.ID {
		t.Fatalf("partial replay started at %d, want %d", e.ID, second.ID)
	}
}

// TestEventStreamBadFilter asserts the structured envelope on a bogus topic.
func TestEventStreamBadFilter(t *testing.T) {
	ts, _ := newTestAPI(t)
	for _, query := range []string{
		"topic=bogus",
		"topics=job",          // misspelt: must not stream every topic
		"campaign=j1&jobs=j1", // one known, one unknown
	} {
		status, code, _ := getError(t, ts.URL+"/api/v1/events?"+query)
		if status != 400 || code != "bad_filter" {
			t.Errorf("?%s = %d %q, want 400 bad_filter", query, status, code)
		}
	}
}

// TestWedgedSubscriberDoesNotBlockSubmission opens an event stream and never
// reads it while jobs are submitted and run to completion — the
// never-stall-publishers guarantee, observed end to end.
func TestWedgedSubscriberDoesNotBlockSubmission(t *testing.T) {
	ts, srv := newTestServer(t)
	srv.SetEventHeartbeat(10 * time.Millisecond)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/api/v1/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// Never read resp.Body: the handler's writes stall once the socket
	// buffers fill, but the bus keeps dropping into its bounded ring and
	// submissions must stay prompt.

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 3; i++ {
			id := launchJob(t, ts, fmt.Sprintf(smallJobSpec, ""))
			pollJob(t, ts, id)
		}
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("job submission blocked behind a wedged event subscriber")
	}
}

// getError GETs url and decodes the structured error envelope.
func getError(t *testing.T, url string) (status int, code, message string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var envelope struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
		t.Fatalf("GET %s: error body did not decode as an envelope: %v", url, err)
	}
	if envelope.Error.Code == "" || envelope.Error.Message == "" {
		t.Fatalf("GET %s: envelope missing code or message: %+v", url, envelope)
	}
	return resp.StatusCode, envelope.Error.Code, envelope.Error.Message
}

// TestErrorEnvelopeShape is the contract table: every API error is the one
// nested envelope with a machine-readable code and the expected status.
func TestErrorEnvelopeShape(t *testing.T) {
	ts, _ := newTestAPI(t)
	id := launchJob(t, ts, fmt.Sprintf(smallJobSpec, ""))
	pollJob(t, ts, id)

	cases := []struct {
		name   string
		path   string
		status int
		code   string
	}{
		{"session not found", "/api/v1/sessions/nope", 404, "session_not_found"},
		{"job not found", "/api/v1/jobs/nope", 404, "job_not_found"},
		{"campaign not found", "/api/v1/campaigns/nope", 404, "campaign_not_found"},
		{"bad wait", "/api/v1/jobs/" + id + "?wait=tomorrow", 400, "bad_wait"},
		{"negative limit", "/api/v1/jobs?limit=-1", 400, "bad_pagination"},
		{"non-integer offset", "/api/v1/sessions?offset=x", 400, "bad_pagination"},
		{"unknown state filter", "/api/v1/jobs?state=bogus", 400, "bad_filter"},
		{"unknown topic", "/api/v1/events?topic=nope", 400, "bad_filter"},
		{"bad threshold", "/api/v1/jobs/" + id + "/result?threshold=x", 400, "bad_threshold"},
	}
	for _, tc := range cases {
		status, code, _ := getError(t, ts.URL+tc.path)
		if status != tc.status || code != tc.code {
			t.Errorf("%s: got %d %q, want %d %q", tc.name, status, code, tc.status, tc.code)
		}
	}
}

// TestErrorEnvelopeRateLimited asserts the 429 carries the envelope too.
func TestErrorEnvelopeRateLimited(t *testing.T) {
	srv := NewServer(NewStore())
	t.Cleanup(srv.Close)
	srv.SetRateLimit(0.01, 1)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	if code, _ := doJSON(t, "GET", ts.URL+"/api/v1/sessions", nil, ""); code != 200 {
		t.Fatalf("first request = %d", code)
	}
	status, code, _ := getError(t, ts.URL+"/api/v1/sessions")
	if status != 429 || code != "rate_limited" {
		t.Fatalf("over limit = %d %q, want 429 rate_limited", status, code)
	}
}

// TestPaginationEdges covers the limit=/offset= contract on the session and
// job collections: limit=0 means all, offset past the end is an empty page
// with the total intact.
func TestPaginationEdges(t *testing.T) {
	ts, _ := newTestAPI(t)
	for _, name := range []string{"a", "b", "c"} {
		createUpload(t, ts, name)
	}

	get := func(path string) (items []any, total float64) {
		t.Helper()
		code, out := doJSON(t, "GET", ts.URL+path, nil, "")
		if code != 200 {
			t.Fatalf("GET %s = %d %v", path, code, out)
		}
		key := "sessions"
		if strings.Contains(path, "/jobs") {
			key = "jobs"
		}
		return out[key].([]any), out["total"].(float64)
	}

	if items, total := get("/api/v1/sessions"); len(items) != 3 || total != 3 {
		t.Fatalf("unpaginated = %d of %v", len(items), total)
	}
	if items, total := get("/api/v1/sessions?limit=0"); len(items) != 3 || total != 3 {
		t.Fatalf("limit=0 = %d of %v (0 means no limit)", len(items), total)
	}
	if items, total := get("/api/v1/sessions?limit=2"); len(items) != 2 || total != 3 {
		t.Fatalf("limit=2 = %d of %v", len(items), total)
	}
	items, total := get("/api/v1/sessions?limit=2&offset=2")
	if len(items) != 1 || total != 3 {
		t.Fatalf("last page = %d of %v", len(items), total)
	}
	if id := items[0].(map[string]any)["id"]; id != "s3" {
		t.Fatalf("last page item = %v", id)
	}
	if items, total := get("/api/v1/sessions?offset=17"); len(items) != 0 || total != 3 {
		t.Fatalf("offset past end = %d of %v (want empty page, total intact)", len(items), total)
	}

	// Jobs: filters apply before pagination, so total counts matches.
	a := launchJob(t, ts, fmt.Sprintf(smallJobSpec, ""))
	b := launchJob(t, ts, fmt.Sprintf(smallJobSpec, ""))
	pollJob(t, ts, a)
	pollJob(t, ts, b)
	if items, total := get("/api/v1/jobs?state=done&limit=1"); len(items) != 1 || total != 2 {
		t.Fatalf("filtered page = %d of %v", len(items), total)
	}
	if items, total := get("/api/v1/jobs?state=cancelled"); len(items) != 0 || total != 0 {
		t.Fatalf("empty filter = %d of %v", len(items), total)
	}
}

// TestMetaEventCounters asserts /api/v1/meta surfaces the bus stats and the
// long-poll counter the live-events CI leg checks.
func TestMetaEventCounters(t *testing.T) {
	ts, _ := newTestServer(t)
	id := launchJob(t, ts, fmt.Sprintf(smallJobSpec, ""))
	pollJob(t, ts, id) // at least one ?wait= long-poll

	code, meta := doJSON(t, "GET", ts.URL+"/api/v1/meta", nil, "")
	if code != 200 {
		t.Fatalf("meta = %d", code)
	}
	ev, ok := meta["events"].(map[string]any)
	if !ok {
		t.Fatalf("meta has no events block: %v", meta)
	}
	if ev["published"].(float64) < 2 {
		t.Fatalf("published = %v", ev["published"])
	}
	if meta["long_polls"].(float64) < 1 {
		t.Fatalf("long_polls = %v", meta["long_polls"])
	}
}
