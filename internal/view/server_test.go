package view

import (
	"html"
	"image/png"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/jedxml"
)

func newTestServer(t *testing.T) (*httptest.Server, *Viewport) {
	t.Helper()
	vp := New(demoSchedule(), 400, 300)
	ts := httptest.NewServer(NewServer(vp).Handler())
	t.Cleanup(ts.Close)
	return ts, vp
}

func get(t *testing.T, url string) (int, string, http.Header) {
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
	return resp.StatusCode, string(body), resp.Header
}

func TestIndexPage(t *testing.T) {
	ts, _ := newTestServer(t)
	code, body, hdr := get(t, ts.URL+"/")
	if code != 200 {
		t.Fatalf("status = %d", code)
	}
	if !strings.Contains(hdr.Get("Content-Type"), "text/html") {
		t.Error("content type")
	}
	for _, want := range []string{"/view.png", "zoom in", "reread", "alpha(8)", "beta(4)"} {
		if !strings.Contains(body, want) {
			t.Errorf("index missing %q", want)
		}
	}
	if code, _, _ := get(t, ts.URL+"/missing"); code != 404 {
		t.Error("unknown path should 404")
	}
}

func TestViewPNG(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/view.png")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	img, err := png.Decode(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if img.Bounds().Dx() != 400 {
		t.Fatalf("image width = %d", img.Bounds().Dx())
	}
}

func TestOps(t *testing.T) {
	ts, vp := newTestServer(t)
	if code, _, _ := get(t, ts.URL+"/op?op=zoomin"); code != 200 {
		t.Fatal("zoomin failed")
	}
	if vp.Window().Span() >= 120 {
		t.Fatal("zoomin had no effect")
	}
	get(t, ts.URL+"/op?op=zoomout")
	get(t, ts.URL+"/op?op=right")
	get(t, ts.URL+"/op?op=left")
	if code, _, _ := get(t, ts.URL+"/op?op=reset"); code != 200 {
		t.Fatal("reset failed")
	}
	if vp.Window().Span() != 120 {
		t.Fatal("reset had no effect")
	}
	get(t, ts.URL+"/op?op=mode")
	if vp.Mode != core.ScaledView {
		t.Fatal("mode toggle failed")
	}
	get(t, ts.URL+"/op?op=composites")
	if !vp.Composites {
		t.Fatal("composites toggle failed")
	}
	if code, _, _ := get(t, ts.URL+"/op?op=bogus"); code != 400 {
		t.Fatal("bogus op should 400")
	}
}

func TestZoomWheelEndpoints(t *testing.T) {
	ts, vp := newTestServer(t)
	if code, _, _ := get(t, ts.URL+"/zoom?x0=100&x1=300"); code != 200 {
		t.Fatal("zoom failed")
	}
	if vp.Window().Span() >= 120 {
		t.Fatal("rubber-band had no effect")
	}
	vp.Reset()
	if code, _, _ := get(t, ts.URL+"/wheel?x=200&dir=up"); code != 200 {
		t.Fatal("wheel failed")
	}
	if vp.Window().Span() >= 120 {
		t.Fatal("wheel had no effect")
	}
	get(t, ts.URL+"/wheel?x=200&dir=down")
	if code, _, _ := get(t, ts.URL+"/zoom?x0=abc&x1=1"); code != 400 {
		t.Fatal("bad zoom args should 400")
	}
	if code, _, _ := get(t, ts.URL+"/wheel?x=abc"); code != 400 {
		t.Fatal("bad wheel args should 400")
	}
}

func TestClickEndpoint(t *testing.T) {
	ts, vp := newTestServer(t)
	l := vp.Layout()
	p := l.Panels[0]
	x := int(p.Transform.XToScreen(40))
	y := int(p.Transform.YToScreen(0.5))
	code, body, _ := get(t, ts.URL+"/click?x="+itoa(x)+"&y="+itoa(y))
	if code != 200 || !strings.Contains(body, "start:") {
		t.Fatalf("click = %d %q", code, body)
	}
	_, body, _ = get(t, ts.URL+"/click?x=1&y=1")
	if !strings.Contains(body, "no task") {
		t.Fatalf("background click = %q", body)
	}
	if code, _, _ := get(t, ts.URL+"/click?x=a&y=b"); code != 400 {
		t.Fatal("bad click args should 400")
	}
}

func itoa(v int) string { return strconv.Itoa(v) }

func TestClustersEndpoint(t *testing.T) {
	ts, vp := newTestServer(t)
	if code, _, _ := get(t, ts.URL+"/clusters?ids=1"); code != 200 {
		t.Fatal("clusters failed")
	}
	if got := vp.SelectedClusters(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("selection = %v", got)
	}
	get(t, ts.URL+"/clusters?ids=")
	if vp.SelectedClusters() != nil {
		t.Fatal("deselect failed")
	}
	if code, _, _ := get(t, ts.URL+"/clusters?ids=x"); code != 400 {
		t.Fatal("bad ids should 400")
	}
}

func TestRereadEndpoint(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/s.jed"
	if err := jedxml.WriteFile(path, demoSchedule()); err != nil {
		t.Fatal(err)
	}
	vp, err := Open(path, 200, 150)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(vp).Handler())
	defer ts.Close()
	if code, _, _ := get(t, ts.URL+"/reread"); code != 200 {
		t.Fatal("reread failed")
	}
	// A viewport without a file reports the error.
	vp2 := New(demoSchedule(), 100, 100)
	ts2 := httptest.NewServer(NewServer(vp2).Handler())
	defer ts2.Close()
	if code, _, _ := get(t, ts2.URL+"/reread"); code != 500 {
		t.Fatal("file-less reread should 500")
	}
}

func TestExportEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	code, body, hdr := get(t, ts.URL+"/export?format=pdf")
	if code != 200 || !strings.HasPrefix(body, "%PDF") {
		t.Fatalf("pdf export = %d", code)
	}
	if !strings.Contains(hdr.Get("Content-Type"), "pdf") {
		t.Error("pdf content type")
	}
	code, body, _ = get(t, ts.URL+"/export?format=svg")
	if code != 200 || !strings.Contains(body, "<svg") {
		t.Fatal("svg export")
	}
	code, _, hdr = get(t, ts.URL+"/export?format=png")
	if code != 200 || !strings.Contains(hdr.Get("Content-Type"), "png") {
		t.Fatal("png export")
	}
	if code, _, _ := get(t, ts.URL+"/export?format=bmp"); code != 400 {
		t.Fatal("unknown format should 400")
	}
}

func TestGrayscaleToggle(t *testing.T) {
	ts, vp := newTestServer(t)
	if code, _, _ := get(t, ts.URL+"/op?op=gray"); code != 200 {
		t.Fatal("gray toggle failed")
	}
	c := vp.Map.Lookup("computation").BG
	if c.R != c.G || c.G != c.B {
		t.Fatalf("map not grayscale: %+v", c)
	}
	get(t, ts.URL+"/op?op=gray")
	c = vp.Map.Lookup("computation").BG
	if c.R == c.G && c.G == c.B {
		t.Fatal("gray toggle did not restore color")
	}
}

func TestRecolorEndpoint(t *testing.T) {
	ts, vp := newTestServer(t)
	if code, _, _ := get(t, ts.URL+"/recolor?type=computation&bg=00ff00"); code != 200 {
		t.Fatal("recolor failed")
	}
	if got := vp.Map.Lookup("computation").BG; got.G != 255 || got.R != 0 {
		t.Fatalf("recolor had no effect: %+v", got)
	}
	if code, _, _ := get(t, ts.URL+"/recolor?type=computation&bg=00ff00&fg=ffffff"); code != 200 {
		t.Fatal("recolor with fg failed")
	}
	if got := vp.Map.Lookup("computation").FG; got.R != 255 {
		t.Fatalf("fg not applied: %+v", got)
	}
	if code, _, _ := get(t, ts.URL+"/recolor?bg=00ff00"); code != 400 {
		t.Fatal("missing type should 400")
	}
	if code, _, _ := get(t, ts.URL+"/recolor?type=x&bg=zz"); code != 400 {
		t.Fatal("bad bg should 400")
	}
	if code, _, _ := get(t, ts.URL+"/recolor?type=x&bg=00ff00&fg=zz"); code != 400 {
		t.Fatal("bad fg should 400")
	}
}

// TestAPIMounted checks the viewer is a thin client of the REST API: the
// schedule is reachable as session "default" under /api/v1/.
func TestAPIMounted(t *testing.T) {
	ts, _ := newTestServer(t)
	code, body, hdr := get(t, ts.URL+"/api/v1/sessions/default/stats")
	if code != 200 || !strings.Contains(hdr.Get("Content-Type"), "json") {
		t.Fatalf("api stats = %d %q", code, hdr.Get("Content-Type"))
	}
	if !strings.Contains(body, `"makespan": 120`) {
		t.Fatalf("stats body = %s", body)
	}
	code, body, _ = get(t, ts.URL+"/api/v1/sessions")
	if code != 200 || !strings.Contains(body, `"default"`) {
		t.Fatalf("session list = %d %s", code, body)
	}
}

// TestIndexLinksAnswer follows every link on the index page: each must
// answer 200, so the page never points at a removed route. The viewer is
// file-backed so that the reread link works too.
func TestIndexLinksAnswer(t *testing.T) {
	path := t.TempDir() + "/s.jed"
	if err := jedxml.WriteFile(path, demoSchedule()); err != nil {
		t.Fatal(err)
	}
	vp, err := Open(path, 400, 300)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(vp).Handler())
	t.Cleanup(ts.Close)
	_, body, _ := get(t, ts.URL+"/")
	links := regexp.MustCompile(`href="([^"]+)"`).FindAllStringSubmatch(body, -1)
	if len(links) < 10 {
		t.Fatalf("index has only %d links", len(links))
	}
	for _, l := range links {
		href := html.UnescapeString(l[1])
		if code, _, _ := get(t, ts.URL+href); code != http.StatusOK {
			t.Errorf("index link %s = %d, want 200", href, code)
		}
	}
	// The old read aliases answer 404.
	for _, path := range []string{"/stats", "/tasks", "/meta"} {
		if code, _, _ := get(t, ts.URL+path); code != http.StatusNotFound {
			t.Errorf("%s = %d, want 404", path, code)
		}
	}
}

// TestExportUnified checks the satellite fix: every format goes through the
// same options-driven branch, so all three honor the current window and all
// three set an attachment disposition.
func TestExportUnified(t *testing.T) {
	ts, vp := newTestServer(t)
	vp.SelectClusters([]int{0})
	get(t, ts.URL+"/zoom?x0=100&x1=300") // leave a narrowed window behind
	for _, format := range []string{"png", "svg", "pdf"} {
		code, _, hdr := get(t, ts.URL+"/export?format="+format)
		if code != 200 {
			t.Fatalf("%s export = %d", format, code)
		}
		want := `attachment; filename="schedule.` + format + `"`
		if got := hdr.Get("Content-Disposition"); got != want {
			t.Errorf("%s disposition = %q, want %q", format, got, want)
		}
	}
	// The PNG path honors the cluster selection like the vector paths: the
	// export of cluster 0 only must differ from the full export.
	vp.Reset()
	_, onlyCluster0, _ := get(t, ts.URL+"/export?format=svg")
	vp.SelectClusters(nil)
	_, full, _ := get(t, ts.URL+"/export?format=svg")
	if strings.Contains(onlyCluster0, "beta") || !strings.Contains(full, "beta") {
		t.Fatal("cluster selection not honored by export")
	}
}

// TestRereadUpdatesAPISession checks reread swaps the schedule under the
// "default" API session too.
func TestRereadUpdatesAPISession(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/s.jed"
	if err := jedxml.WriteFile(path, demoSchedule()); err != nil {
		t.Fatal(err)
	}
	vp, err := Open(path, 200, 150)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(vp).Handler())
	defer ts.Close()

	grown := demoSchedule()
	grown.Add("extra", "computation", 120, 200, 0, 2)
	if err := jedxml.WriteFile(path, grown); err != nil {
		t.Fatal(err)
	}
	get(t, ts.URL+"/reread")
	code, body, _ := get(t, ts.URL+"/api/v1/sessions/default/stats")
	if code != 200 || !strings.Contains(body, `"makespan": 200`) {
		t.Fatalf("stats after reread = %d %s", code, body)
	}
}
