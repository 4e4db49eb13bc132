package api

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRenderCacheSingleflight launches many concurrent identical renders
// against a slow render function; exactly one must run, all callers must
// see its body, and the followers count as hits.
func TestRenderCacheSingleflight(t *testing.T) {
	rc := newRenderCache(1 << 20)
	var calls atomic.Int64
	release := make(chan struct{})
	const n = 16
	var wg sync.WaitGroup
	bodies := make([][]byte, n)
	hits := make([]bool, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, ct, hit, err := rc.Render("k1", "s1", func() ([]byte, string, error) {
				calls.Add(1)
				<-release
				return []byte("payload"), "image/png", nil
			})
			if err != nil || ct != "image/png" {
				t.Errorf("render: ct=%q err=%v", ct, err)
			}
			bodies[i], hits[i] = body, hit
		}(i)
	}
	// Wait until the first flight is registered, then release everyone.
	for {
		rc.mu.Lock()
		launched := len(rc.inflight) == 1
		rc.mu.Unlock()
		if launched {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Fatalf("render ran %d times, want 1", got)
	}
	nHits := 0
	for i := range bodies {
		if string(bodies[i]) != "payload" {
			t.Fatalf("caller %d got %q", i, bodies[i])
		}
		if hits[i] {
			nHits++
		}
	}
	if nHits != n-1 {
		t.Fatalf("%d hits, want %d", nHits, n-1)
	}
	st := rc.Stats()
	if st.Misses != 1 || st.Hits != n-1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestRenderCacheLRUEviction fills the cache past its byte bound and checks
// the least recently used body leaves first.
func TestRenderCacheLRUEviction(t *testing.T) {
	rc := newRenderCache(30) // three 10-byte bodies
	add := func(key string) {
		_, _, _, err := rc.Render(key, "s", func() ([]byte, string, error) {
			return []byte("0123456789"), "image/png", nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	add("a")
	add("b")
	add("c")
	add("a") // refresh a; b is now LRU
	add("d") // evicts b
	st := rc.Stats()
	if st.Entries != 3 || st.Bytes != 30 || st.Evictions != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if _, ok := rc.entries["b"]; ok {
		t.Fatal("b survived eviction")
	}
	for _, key := range []string{"a", "c", "d"} {
		if _, ok := rc.entries[key]; !ok {
			t.Fatalf("%s missing", key)
		}
	}
}

// TestRenderCacheInvalidateSession drops exactly the session's entries.
func TestRenderCacheInvalidateSession(t *testing.T) {
	rc := newRenderCache(1 << 20)
	for i := 0; i < 4; i++ {
		sess := fmt.Sprintf("s%d", i%2)
		key := fmt.Sprintf("k%d", i)
		rc.Render(key, sess, func() ([]byte, string, error) { //nolint:errcheck
			return []byte("body"), "image/png", nil
		})
	}
	rc.InvalidateSession("s0")
	st := rc.Stats()
	if st.Entries != 2 || st.Bytes != 8 {
		t.Fatalf("stats after invalidate = %+v", st)
	}
	for key, want := range map[string]bool{"k0": false, "k1": true, "k2": false, "k3": true} {
		if _, ok := rc.entries[key]; ok != want {
			t.Fatalf("entry %s present=%v want %v", key, ok, want)
		}
	}
}

// TestRenderCacheErrorNotCached verifies failed renders are not memoized
// and do not poison later calls.
func TestRenderCacheErrorNotCached(t *testing.T) {
	rc := newRenderCache(1 << 20)
	boom := errors.New("boom")
	if _, _, _, err := rc.Render("k", "s", func() ([]byte, string, error) {
		return nil, "", boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	body, _, hit, err := rc.Render("k", "s", func() ([]byte, string, error) {
		return []byte("ok"), "image/png", nil
	})
	if err != nil || hit || string(body) != "ok" {
		t.Fatalf("recovery render: body=%q hit=%v err=%v", body, hit, err)
	}
}

// TestRenderCacheInvalidateDuringFlight: a body whose session is replaced
// while it renders must reach its callers but never enter the store — its
// key embeds a revision no future request computes.
func TestRenderCacheInvalidateDuringFlight(t *testing.T) {
	rc := newRenderCache(1 << 20)
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		body, _, hit, err := rc.Render("stale-key", "s1", func() ([]byte, string, error) {
			close(started)
			<-release
			return []byte("stale"), "image/png", nil
		})
		if err != nil || hit || string(body) != "stale" {
			t.Errorf("flight: body=%q hit=%v err=%v", body, hit, err)
		}
	}()
	<-started
	rc.InvalidateSession("s1") // session replaced mid-render
	close(release)
	<-done
	if st := rc.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("stale flight entered the store: %+v", st)
	}
	rc.mu.Lock()
	nEpochs := len(rc.epochs)
	rc.mu.Unlock()
	if nEpochs != 0 {
		t.Fatalf("epoch marker leaked: %d", nEpochs)
	}
	// A fresh render of the session caches normally again.
	rc.Render("fresh-key", "s1", func() ([]byte, string, error) { //nolint:errcheck
		return []byte("fresh"), "image/png", nil
	})
	if st := rc.Stats(); st.Entries != 1 {
		t.Fatalf("post-invalidation render not cached: %+v", st)
	}
}

// TestRenderCacheErrorFlightCounters: followers of a failing flight must
// not inflate the hit counter.
func TestRenderCacheErrorFlightCounters(t *testing.T) {
	rc := newRenderCache(1 << 20)
	release := make(chan struct{})
	var wg sync.WaitGroup
	const n = 4
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, _, errs[i] = rc.Render("k", "s", func() ([]byte, string, error) {
				<-release
				return nil, "", errors.New("encode failed")
			})
		}(i)
	}
	for {
		rc.mu.Lock()
		launched := len(rc.inflight) == 1
		rc.mu.Unlock()
		if launched {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			t.Fatalf("caller %d saw no error", i)
		}
	}
	// A goroutine arriving after the shared flight resolves becomes a new
	// leader (one more miss), so only hits and entries are exact: failures
	// must never count as hits nor enter the store.
	if st := rc.Stats(); st.Hits != 0 || st.Misses < 1 || st.Entries != 0 {
		t.Fatalf("stats after failed flight = %+v", st)
	}
}

// TestRenderCacheDisabledStillDedups: with a zero byte bound nothing is
// stored, but concurrent identical renders still collapse into one flight.
func TestRenderCacheDisabledStillDedups(t *testing.T) {
	rc := newRenderCache(0)
	rc.Render("k", "s", func() ([]byte, string, error) { //nolint:errcheck
		return []byte("body"), "image/png", nil
	})
	if st := rc.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("disabled cache stored entries: %+v", st)
	}
}

// --- HTTP-level behavior ----------------------------------------------------

// TestRenderServedFromCache: a repeated identical /render request must be a
// cache hit with a byte-identical body, and the hit counter must increment.
func TestRenderServedFromCache(t *testing.T) {
	ts, srv := newTestServer(t)
	id := createUpload(t, ts, "cached")
	url := ts.URL + "/api/v1/sessions/" + id + "/render?width=300&height=200"

	get := func() (string, []byte) {
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
		if resp.StatusCode != 200 {
			t.Fatalf("status = %d", resp.StatusCode)
		}
		return resp.Header.Get("X-Render-Cache"), body
	}
	state1, body1 := get()
	state2, body2 := get()
	if state1 != "miss" || state2 != "hit" {
		t.Fatalf("cache states = %q, %q; want miss, hit", state1, state2)
	}
	if string(body1) != string(body2) {
		t.Fatal("cached body differs from rendered body")
	}
	st := srv.RenderCacheStats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestRenderCacheStoresExactBodies renders every image format over HTTP and
// asserts each stored body's capacity equals its length: the cache bounds
// len(body), so spare encoder-buffer capacity would be unaccounted heap.
func TestRenderCacheStoresExactBodies(t *testing.T) {
	ts, srv := newTestServer(t)
	id := createUpload(t, ts, "exact")
	for _, format := range []string{"png", "svg", "pdf"} {
		resp, err := http.Get(ts.URL + "/api/v1/sessions/" + id + "/render?width=640&height=480&format=" + format)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("%s render = %d", format, resp.StatusCode)
		}
	}
	srv.cache.mu.Lock()
	defer srv.cache.mu.Unlock()
	if len(srv.cache.entries) != 3 {
		t.Fatalf("cache holds %d entries, want 3", len(srv.cache.entries))
	}
	var accounted int64
	for _, el := range srv.cache.entries {
		e := el.Value.(*renderEntry)
		if cap(e.body) != len(e.body) {
			t.Fatalf("%s body: cap %d != len %d", e.contentType, cap(e.body), len(e.body))
		}
		accounted += int64(len(e.body))
	}
	if accounted != srv.cache.size {
		t.Fatalf("cache size %d, stored bodies %d", srv.cache.size, accounted)
	}
}

// TestConcurrentIdenticalRenders is the thundering-herd case: many clients
// ask for the same view at once and exactly one rasterization runs.
func TestConcurrentIdenticalRenders(t *testing.T) {
	ts, srv := newTestServer(t)
	id := createUpload(t, ts, "herd")
	url := ts.URL + "/api/v1/sessions/" + id + "/render?width=640&height=480"

	const n = 12
	var wg sync.WaitGroup
	bodies := make([][]byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(url)
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			bodies[i], _ = io.ReadAll(resp.Body)
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if string(bodies[i]) != string(bodies[0]) {
			t.Fatalf("client %d saw a different body", i)
		}
	}
	st := srv.RenderCacheStats()
	if st.Misses != 1 {
		t.Fatalf("%d rasterizations for %d identical requests, want 1 (stats %+v)", st.Misses, n, st)
	}
	if st.Hits != n-1 {
		t.Fatalf("hits = %d, want %d (stats %+v)", st.Hits, n-1, st)
	}
}

// TestCacheInvalidationOnSessionChange covers the three drop paths: replace,
// delete, and store eviction must all purge the session's cached bodies.
func TestCacheInvalidationOnSessionChange(t *testing.T) {
	ts, srv := newTestServer(t)
	store := srv.Store()
	sess, reread := fileSession(t, store, demoSchedule())
	id := sess.ID
	url := ts.URL + "/api/v1/sessions/" + id + "/render?width=300&height=200"

	warm := func() {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
	}
	entriesFor := func(sessionID string) int {
		srv.cache.mu.Lock()
		defer srv.cache.mu.Unlock()
		n := 0
		for _, el := range srv.cache.entries {
			if el.Value.(*renderEntry).sessionID == sessionID {
				n++
			}
		}
		return n
	}

	// Reread purges.
	warm()
	if entriesFor(id) != 1 {
		t.Fatalf("entries before reread = %d", entriesFor(id))
	}
	reread(demoSchedule())
	if entriesFor(id) != 0 {
		t.Fatal("reread left cached bodies")
	}

	// Delete purges.
	warm()
	if entriesFor(id) != 1 {
		t.Fatal("warm after reread failed")
	}
	store.Delete(id)
	if entriesFor(id) != 0 {
		t.Fatal("delete left cached bodies")
	}

	// LRU eviction purges: re-create sessions and shrink the cap.
	idA := createUpload(t, ts, "a")
	urlA := ts.URL + "/api/v1/sessions/" + idA + "/render?width=300&height=200"
	resp, err := http.Get(urlA)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if entriesFor(idA) != 1 {
		t.Fatal("warm for eviction failed")
	}
	idB := createUpload(t, ts, "b") // more recently used than idA
	store.SetMaxSessions(1)         // evicts idA
	if _, ok := store.Get(idA); ok {
		t.Fatal("idA survived the cap")
	}
	if _, ok := store.Get(idB); !ok {
		t.Fatal("idB evicted unexpectedly")
	}
	if entriesFor(idA) != 0 {
		t.Fatal("eviction left cached bodies")
	}
}

// TestServerMetaEndpoint reads the observability counters over HTTP.
func TestServerMetaEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	id := createUpload(t, ts, "meta")
	url := ts.URL + "/api/v1/sessions/" + id + "/render?width=300&height=200"
	for i := 0; i < 3; i++ { // 1 miss + 2 hits
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
	}
	code, meta := doJSON(t, "GET", ts.URL+"/api/v1/meta", nil, "")
	if code != 200 {
		t.Fatalf("meta = %d", code)
	}
	cache, ok := meta["render_cache"].(map[string]any)
	if !ok {
		t.Fatalf("no render_cache in %v", meta)
	}
	if cache["hits"].(float64) != 2 || cache["misses"].(float64) != 1 {
		t.Fatalf("cache counters = %v", cache)
	}
	if meta["sessions"].(float64) != 1 {
		t.Fatalf("sessions = %v", meta["sessions"])
	}
}
