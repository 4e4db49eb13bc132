package api

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"html"
	"image"
	"image/draw"
	"image/png"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/colormap"
	"repro/internal/core"
	"repro/internal/jedxml"
	"repro/internal/render"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-6*(1+math.Abs(b)) }

// noRedirect hands back each redirect instead of following it.
var noRedirect = &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
	return http.ErrUseLastResponse
}}

// viewerSchedule is the schedule of the viewer tests: two clusters, an
// extent of [0, 120].
func viewerSchedule() *core.Schedule {
	s := core.New(
		core.Cluster{ID: 0, Name: "alpha", Hosts: 8},
		core.Cluster{ID: 1, Name: "beta", Hosts: 4},
	)
	s.Add("1", "computation", 0, 100, 0, 8)
	s.Add("2", "computation", 20, 60, 0, 4)
	s.AddTask(core.Task{ID: "3", Type: "transfer", Start: 100, End: 120,
		Allocations: []core.Allocation{{Cluster: 1, Hosts: []core.HostRange{{Start: 0, N: 4}}}}})
	return s
}

// newViewer serves sched as an in-memory session and returns the view URL
// of a width×height page of it.
func newViewer(t *testing.T, sched *core.Schedule, width, height int) (*httptest.Server, string) {
	t.Helper()
	ts, store := newTestAPI(t)
	sess := store.Add("viewer", "upload", sched)
	return ts, fmt.Sprintf("/view/%s?width=%d&height=%d", sess.ID, width, height)
}

// newFileViewer serves sched as a file-backed session; the returned path
// is the file its reread reads.
func newFileViewer(t *testing.T, sched *core.Schedule, width, height int) (ts *httptest.Server, view, path string) {
	t.Helper()
	var store *Store
	ts, store = newTestAPI(t)
	sess, _ := fileSession(t, store, sched)
	return ts, fmt.Sprintf("/view/%s?width=%d&height=%d", sess.ID, width, height), sess.recipe.Path
}

// gestureOn requests one gesture on the view at cur and returns the view
// the page redirects to.
func gestureOn(t *testing.T, ts *httptest.Server, cur string, op ...string) string {
	t.Helper()
	status, loc, body := tryGesture(t, ts, cur, op...)
	if status != http.StatusSeeOther {
		t.Fatalf("gesture %v on %s = %d %s", op, cur, status, body)
	}
	return loc
}

// tryGesture is gestureOn without the status check; op is name/value pairs.
func tryGesture(t *testing.T, ts *httptest.Server, cur string, op ...string) (status int, location, body string) {
	t.Helper()
	u, err := url.Parse(cur)
	if err != nil {
		t.Fatal(err)
	}
	q := u.Query()
	for i := 0; i+1 < len(op); i += 2 {
		q.Set(op[i], op[i+1])
	}
	resp, err := noRedirect.Get(ts.URL + u.Path + "?" + q.Encode())
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("Location"), string(raw)
}

var (
	imgSrcPat = regexp.MustCompile(`<img id="v" src="([^"]+)"`)
	hrefPat   = regexp.MustCompile(`href="([^"]+)"`)
)

// viewPage fetches the page of a view and returns its body and its image
// URL.
func viewPage(t *testing.T, ts *httptest.Server, cur string) (body, img string) {
	t.Helper()
	status, hdr, raw := rawGet(t, ts.URL+cur)
	if status != 200 || !strings.HasPrefix(hdr.Get("Content-Type"), "text/html") {
		t.Fatalf("page %s = %d %q: %s", cur, status, hdr.Get("Content-Type"), raw)
	}
	m := imgSrcPat.FindStringSubmatch(string(raw))
	if m == nil {
		t.Fatalf("page %s has no image", cur)
	}
	return string(raw), html.UnescapeString(m[1])
}

// imgView parses the view parameters of an image URL.
func imgView(t *testing.T, img string) (*viewParams, url.Values) {
	t.Helper()
	u, err := url.Parse(img)
	if err != nil {
		t.Fatal(err)
	}
	vp, err := parseViewParams(u.Query())
	if err != nil {
		t.Fatal(err)
	}
	return vp, u.Query()
}

// pageWindow is the window a view shows (the full extent without
// window=).
func pageWindow(t *testing.T, ts *httptest.Server, cur string, full core.Extent) core.Extent {
	t.Helper()
	_, img := viewPage(t, ts, cur)
	if vp, _ := imgView(t, img); vp.Opts.Window != nil {
		return *vp.Opts.Window
	}
	return full
}

// layoutOf lays out sched as the image of the view at cur.
func layoutOf(t *testing.T, ts *httptest.Server, cur string, sched *core.Schedule) *render.Layout {
	t.Helper()
	_, img := viewPage(t, ts, cur)
	vp, _ := imgView(t, img)
	return render.ComputeLayout(sched, float64(vp.Width), float64(vp.Height), vp.Opts)
}

// click hit-tests the view at cur as the page's script does: /tasks with
// the image's view query.
func click(t *testing.T, ts *httptest.Server, cur string, x, y any) (int, *taskJSON) {
	t.Helper()
	_, img := viewPage(t, ts, cur)
	tasks := strings.Replace(img, "/render?", "/tasks?", 1)
	status, _, raw := rawGet(t, ts.URL+tasks+fmt.Sprintf("&x=%v&y=%v", x, y))
	var out struct{ Task *taskJSON }
	if status == 200 {
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatal(err)
		}
	}
	return status, out.Task
}

// clickText formats a hit-tested task as the text the interactive view
// prints for it.
func clickText(tj *taskJSON) string {
	if tj == nil {
		return "(no task)\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "task %s (%s)\nstart: %g\nfinish: %g\n", tj.ID, tj.Type, tj.Start, tj.End)
	var clusters []int
	for c := range tj.Allocations {
		id, _ := strconv.Atoi(c)
		clusters = append(clusters, id)
	}
	sort.Ints(clusters)
	for _, c := range clusters {
		fmt.Fprintf(&b, "cluster %d hosts: %v\n", c, tj.Allocations[strconv.Itoa(c)])
	}
	names := make([]string, 0, len(tj.Properties))
	for n := range tj.Properties {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "%s: %s\n", n, tj.Properties[n])
	}
	return b.String()
}

// pixelHash hashes decoded pixels (width, height, RGBA), so a change of
// PNG encoder settings alone does not move it.
func pixelHash(img image.Image) string {
	b := img.Bounds()
	rgba := image.NewRGBA(image.Rect(0, 0, b.Dx(), b.Dy()))
	draw.Draw(rgba, rgba.Bounds(), img, b.Min, draw.Src)
	h := sha256.New()
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(b.Dx()))
	binary.BigEndian.PutUint32(hdr[4:], uint32(b.Dy()))
	h.Write(hdr[:])
	h.Write(rgba.Pix)
	return hex.EncodeToString(h.Sum(nil))
}

func decodePNG(t *testing.T, url string) image.Image {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("%s = %d", url, resp.StatusCode)
	}
	img, err := png.Decode(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func post(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	return doJSON(t, "POST", url, nil, "")
}

// sessionAPI maps a view URL to its session's API base.
func sessionAPI(ts *httptest.Server, cur string) string {
	id := strings.TrimPrefix(strings.SplitN(cur, "?", 2)[0], "/view/")
	return ts.URL + "/api/v1/sessions/" + id
}

// viewerPins are the views the interactive mode produced for gesture
// sequences before it became a page of the API (testdata/viewer_pins.json).
type viewerPins struct {
	Schedule  string `json:"schedule"`
	RereadTo  string `json:"reread_to"`
	Sequences []struct {
		Name          string `json:"name"`
		Width, Height int
		Steps         []struct {
			Op, Dir, IDs, Type, BG, FG string
			X, X0, X1                  float64
		} `json:"steps"`
		Window    [2]float64 `json:"window"`
		Pixels    string     `json:"pixels"`
		OldPixels string     `json:"old_pixels"`
		Changed   string     `json:"changed"`
		Clicks    []struct {
			X, Y int
			Text string
		} `json:"clicks"`
	} `json:"sequences"`
}

// TestViewerPins replays every pinned gesture sequence through the page:
// each gesture is a /view/{id}?op= redirect, a cluster selection edits the
// view URL, a reread rewrites the file and posts to /reread. The window,
// the decoded pixels of the page's image and the task under three points
// must match the pins.
func TestViewerPins(t *testing.T) {
	raw, err := os.ReadFile("testdata/viewer_pins.json")
	if err != nil {
		t.Fatal(err)
	}
	var pins viewerPins
	if err := json.Unmarshal(raw, &pins); err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(filepath.Join("testdata", pins.Schedule))
	if err != nil {
		t.Fatal(err)
	}
	second, err := os.ReadFile(filepath.Join("testdata", pins.RereadTo))
	if err != nil {
		t.Fatal(err)
	}
	if len(pins.Sequences) < 12 {
		t.Fatalf("only %d pinned sequences", len(pins.Sequences))
	}
	for _, seq := range pins.Sequences {
		t.Run(seq.Name, func(t *testing.T) {
			ts, store := newTestAPI(t)
			path := filepath.Join(t.TempDir(), "pins.jed")
			if err := os.WriteFile(path, first, 0o644); err != nil {
				t.Fatal(err)
			}
			sess, err := RegisterFile(store, path)
			if err != nil {
				t.Fatal(err)
			}
			cur := fmt.Sprintf("/view/%s?width=%d&height=%d", sess.ID, seq.Width, seq.Height)
			for _, st := range seq.Steps {
				switch st.Op {
				case "clusters", "recolor":
					// Both edit the view URL: a cluster link, a colors= entry.
					u, _ := url.Parse(cur)
					q := u.Query()
					switch {
					case st.Op == "recolor":
						q.Set("colors", strings.TrimSuffix(st.Type+":"+st.BG+":"+st.FG, ":"))
					case st.IDs == "":
						q.Del("clusters")
					default:
						q.Set("clusters", st.IDs)
					}
					cur = u.Path + "?" + q.Encode()
				case "reread":
					if err := os.WriteFile(path, second, 0o644); err != nil {
						t.Fatal(err)
					}
					if status, body := post(t, ts.URL+"/api/v1/sessions/"+sess.ID+"/reread"); status != 200 {
						t.Fatalf("reread = %d %v", status, body)
					}
				default:
					op := []string{"op", st.Op}
					num := func(name string, v float64) {
						op = append(op, name, strconv.FormatFloat(v, 'g', -1, 64))
					}
					switch st.Op {
					case "wheel":
						num("x", st.X)
						op = append(op, "dir", st.Dir)
					case "band":
						num("x0", st.X0)
						num("x1", st.X1)
					}
					cur = gestureOn(t, ts, cur, op...)
				}
			}
			_, img := viewPage(t, ts, cur)
			full := sess.Schedule().Extent()
			if w := pageWindow(t, ts, cur, full); [2]float64{w.Min, w.Max} != seq.Window {
				t.Errorf("window = [%v, %v], pinned %v", w.Min, w.Max, seq.Window)
			}
			if got := pixelHash(decodePNG(t, ts.URL+img)); got != seq.Pixels {
				t.Errorf("pixels of %s = %s, pinned %s", img, got, seq.Pixels)
			}
			for _, c := range seq.Clicks {
				status, task := click(t, ts, cur, c.X, c.Y)
				if got := clickText(task); status != 200 || got != c.Text {
					t.Errorf("click (%d,%d) = %d %q, pinned %q", c.X, c.Y, status, got, c.Text)
				}
			}
		})
	}
}

// TestViewerWindowDefaults: a fresh view shows the whole extent.
func TestViewerWindowDefaults(t *testing.T) {
	ts, cur := newViewer(t, viewerSchedule(), 800, 600)
	body, img := viewPage(t, ts, cur)
	if strings.Contains(img, "window=") || !strings.Contains(body, "window [0, 120]") {
		t.Fatalf("default view: img %s", img)
	}
}

func TestViewerZoomAndReset(t *testing.T) {
	ts, cur := newViewer(t, viewerSchedule(), 800, 600)
	full := core.Extent{Min: 0, Max: 120}
	z := gestureOn(t, ts, cur, "op", "zoomin")
	w := pageWindow(t, ts, z, full)
	if !approx(w.Span(), 80) || !approx((w.Min+w.Max)/2, 60) {
		t.Fatalf("zoomed window = %v, want span 80 about 60", w)
	}
	if r := gestureOn(t, ts, z, "op", "reset"); strings.Contains(r, "window=") {
		t.Fatalf("reset view = %s", r)
	}
	// Zooming out past the full extent clamps to it.
	out := gestureOn(t, ts, gestureOn(t, ts, z, "op", "zoomout"), "op", "zoomout")
	if strings.Contains(out, "window=") {
		t.Fatalf("over-zoom-out view = %s", out)
	}
}

func TestViewerZoomAtKeepsCursorTime(t *testing.T) {
	sched := viewerSchedule()
	ts, cur := newViewer(t, sched, 800, 600)
	cursor := layoutOf(t, ts, cur, sched).Panels[0].Transform.XToScreen(30)
	next := gestureOn(t, ts, cur, "op", "wheel", "x", strconv.FormatFloat(cursor, 'g', -1, 64), "dir", "up")
	back := layoutOf(t, ts, next, sched).Panels[0].Transform.XToWorld(cursor)
	if !approx(back, 30) {
		t.Fatalf("cursor time drifted: %g, want 30 (view %s)", back, next)
	}
}

func TestViewerZoomMinimumSpan(t *testing.T) {
	ts, cur := newViewer(t, viewerSchedule(), 800, 600)
	for i := 0; i < 60; i++ {
		cur = gestureOn(t, ts, cur, "op", "zoomin")
	}
	w := pageWindow(t, ts, cur, core.Extent{})
	if w.Span() <= 0 || !approx(w.Span(), 120*minSpanFraction) {
		t.Fatalf("span = %g, want the minimum %g", w.Span(), 120*minSpanFraction)
	}
}

func TestViewerPanClamped(t *testing.T) {
	ts, cur := newViewer(t, viewerSchedule(), 800, 600)
	full := core.Extent{Min: 0, Max: 120}
	for i := 0; i < 3; i++ {
		cur = gestureOn(t, ts, cur, "op", "zoomin")
	}
	w0 := pageWindow(t, ts, cur, full)
	cur = gestureOn(t, ts, cur, "op", "right")
	if w := pageWindow(t, ts, cur, full); !approx(w.Min, w0.Min+w0.Span()/4) || !approx(w.Span(), w0.Span()) {
		t.Fatalf("pan window = %v from %v", w, w0)
	}
	for i := 0; i < 20; i++ {
		cur = gestureOn(t, ts, cur, "op", "right")
	}
	if w := pageWindow(t, ts, cur, full); w.Max != 120 {
		t.Fatalf("right-clamped window = %v", w)
	}
	for i := 0; i < 40; i++ {
		cur = gestureOn(t, ts, cur, "op", "left")
	}
	if w := pageWindow(t, ts, cur, full); w.Min != 0 {
		t.Fatalf("left-clamped window = %v", w)
	}
	// Panning the full view is a no-op.
	reset := gestureOn(t, ts, cur, "op", "reset")
	if r := gestureOn(t, ts, reset, "op", "right"); r != reset {
		t.Fatalf("pan of the full view moved %s to %s", reset, r)
	}
}

func TestViewerRubberBand(t *testing.T) {
	sched := viewerSchedule()
	ts, cur := newViewer(t, sched, 800, 600)
	p := layoutOf(t, ts, cur, sched).Panels[0]
	x0, x1 := p.Transform.XToScreen(20), p.Transform.XToScreen(60)
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	next := gestureOn(t, ts, cur, "op", "band", "x0", f(x1), "x1", f(x0)) // reversed
	if w := pageWindow(t, ts, next, core.Extent{}); !approx(w.Min, 20) || !approx(w.Max, 60) {
		t.Fatalf("rubber-band window = %v, want [20,60]", w)
	}
}

func TestViewerTaskAtClick(t *testing.T) {
	sched := viewerSchedule()
	ts, cur := newViewer(t, sched, 800, 600)
	p := layoutOf(t, ts, cur, sched).Panels[0]
	status, task := click(t, ts, cur, p.Transform.XToScreen(40), p.Transform.YToScreen(1.5))
	if status != 200 || task == nil || (task.ID != "1" && task.ID != "2") {
		t.Fatalf("click = %d %+v", status, task)
	}
	if len(task.Allocations["0"]) == 0 {
		t.Fatal("task lacks its host list")
	}
	text := clickText(task)
	for _, want := range []string{"task " + task.ID, "start:", "finish:", "cluster 0 hosts:"} {
		if !strings.Contains(text, want) {
			t.Errorf("task %q missing %q", text, want)
		}
	}
	if _, task := click(t, ts, cur, 1, 1); task != nil {
		t.Errorf("background click hit %+v", task)
	}
}

func TestViewerTaskAtPrefersComposite(t *testing.T) {
	s := core.NewSingleCluster("c", 2)
	s.Add("a", "computation", 0, 10, 0, 2)
	s.Add("b", "transfer", 4, 6, 0, 2)
	ts, cur := newViewer(t, s, 400, 300)
	cur = gestureOn(t, ts, cur, "op", "composites")
	p := layoutOf(t, ts, cur, s.WithComposites()).Panels[0]
	_, task := click(t, ts, cur, p.Transform.XToScreen(5), p.Transform.YToScreen(0.5))
	if task == nil || task.Type != core.CompositeType {
		t.Fatalf("click = %+v; want the composite on top", task)
	}
}

// TestViewerClusterSelection follows the page's cluster links.
func TestViewerClusterSelection(t *testing.T) {
	sched := viewerSchedule()
	ts, cur := newViewer(t, sched, 800, 600)
	link := func(body, label string) string {
		t.Helper()
		m := regexp.MustCompile(`<a href="([^"]+)">` + regexp.QuoteMeta(label) + `</a>`).FindStringSubmatch(body)
		if m == nil {
			t.Fatalf("page has no %q link", label)
		}
		return html.UnescapeString(m[1])
	}
	body, _ := viewPage(t, ts, cur)
	beta := link(body, "beta(4)")
	l := layoutOf(t, ts, beta, sched)
	if len(l.Panels) != 1 || l.Panels[0].Cluster.ID != 1 {
		t.Fatalf("beta view panels = %+v", l.Panels)
	}
	betaBody, _ := viewPage(t, ts, beta)
	if all := link(betaBody, "all"); len(layoutOf(t, ts, all, sched).Panels) != 2 {
		t.Fatal("the all link did not restore both clusters")
	}
}

func TestViewerOpenAndReread(t *testing.T) {
	ts, cur, path := newFileViewer(t, viewerSchedule(), 640, 480)
	cur = gestureOn(t, ts, cur, "op", "zoomin")
	cur += "&clusters=0,1"
	// The algorithm developer rewrites the file; reread picks it up.
	s2 := core.NewSingleCluster("gamma", 4)
	s2.Add("new", "computation", 0, 50, 0, 4)
	if err := jedxml.WriteFile(path, s2); err != nil {
		t.Fatal(err)
	}
	if status, _ := post(t, sessionAPI(ts, cur)+"/reread"); status != 200 {
		t.Fatalf("reread = %d", status)
	}
	if _, tasks := doJSON(t, "GET", sessionAPI(ts, cur)+"/tasks", nil, ""); len(tasks["tasks"].([]any)) != 1 {
		t.Fatalf("reread did not reload: %v", tasks)
	}
	_, img := viewPage(t, ts, cur)
	vp, q := imgView(t, img)
	// Cluster 1 vanished; the selection keeps cluster 0.
	if q.Get("clusters") != "0" {
		t.Fatalf("selection after reread = %q", q.Get("clusters"))
	}
	// The zoom window [20,100] still overlaps [0,50]: clipped, not dropped.
	if w := vp.Opts.Window; w == nil || w.Min != 20 || w.Max != 50 {
		t.Fatalf("window after reread = %v", w)
	}
}

func TestViewerRereadStaleWindowAndErrors(t *testing.T) {
	ts, cur := newViewer(t, viewerSchedule(), 100, 100)
	if status, body := post(t, sessionAPI(ts, cur)+"/reread"); status != http.StatusConflict ||
		body["error"].(map[string]any)["code"] != "not_file_backed" {
		t.Fatalf("reread of an upload = %d %v", status, body)
	}
	ts, cur, path := newFileViewer(t, viewerSchedule(), 100, 100)
	// Zoom onto the far end, then shrink the schedule so the zoom is stale.
	cur = gestureOn(t, ts, cur, "op", "band", "x0", "90", "x1", "99")
	s2 := core.NewSingleCluster("c", 2)
	s2.Add("t", "computation", 0, 1, 0, 2) // extent [0,1]
	if err := jedxml.WriteFile(path, s2); err != nil {
		t.Fatal(err)
	}
	if status, _ := post(t, sessionAPI(ts, cur)+"/reread"); status != 200 {
		t.Fatalf("reread = %d", status)
	}
	if body, img := viewPage(t, ts, cur); strings.Contains(img, "window=") || !strings.Contains(body, "window [0, 1]") {
		t.Fatalf("stale window not dropped: %s", img)
	}
}

func TestViewerRenderAndSnapshot(t *testing.T) {
	ts, cur := newViewer(t, viewerSchedule(), 320, 240)
	body, img := viewPage(t, ts, cur)
	if b := decodePNG(t, ts.URL+img).Bounds(); b.Dx() != 320 || b.Dy() != 240 {
		t.Fatalf("image = %v", b)
	}
	for format, prefix := range map[string]string{"png": "\x89PNG", "svg": "<svg", "pdf": "%PDF"} {
		m := regexp.MustCompile(`<a href="([^"]+)">` + format + `</a>`).FindStringSubmatch(body)
		if m == nil {
			t.Fatalf("no %s export link", format)
		}
		status, _, raw := rawGet(t, ts.URL+html.UnescapeString(m[1]))
		if status != 200 || !strings.Contains(string(raw[:min(len(raw), 200)]), prefix) {
			t.Errorf("%s export = %d", format, status)
		}
	}
}

func TestViewerSetGrayscaleAndRecolor(t *testing.T) {
	ts, cur := newViewer(t, viewerSchedule(), 100, 100)
	mapOf := func(cur string) *colormap.Map {
		_, img := viewPage(t, ts, cur)
		vp, _ := imgView(t, img)
		if vp.Opts.Map == nil {
			return colormap.Default()
		}
		return vp.Opts.Map
	}
	gray := gestureOn(t, ts, cur, "op", "gray")
	if c := mapOf(gray).Lookup("computation").BG; c.R != c.G || c.G != c.B {
		t.Fatal("gray view not gray")
	}
	color := gestureOn(t, ts, gray, "op", "gray")
	if c := mapOf(color).Lookup("computation").BG; c.R == c.G && c.G == c.B {
		t.Fatal("gray off did not restore the colors")
	}
	// Recolor derives a fresh map; the default map is untouched.
	re := color + "&colors=transfer:090909:010101"
	if mapOf(re).Lookup("transfer") != (colormap.Colors{FG: colormap.RGB(1, 1, 1), BG: colormap.RGB(9, 9, 9)}) {
		t.Fatal("recolor missing")
	}
	if colormap.Default().Lookup("transfer").BG == colormap.RGB(9, 9, 9) {
		t.Fatal("recolor mutated the shared default map")
	}
	// A recolor survives the gray toggle, both ways.
	if mapOf(gestureOn(t, ts, re, "op", "gray")).Lookup("transfer").BG != colormap.RGB(9, 9, 9) {
		t.Fatal("gray dropped the recolor")
	}
}

// TestViewerPage checks the page carries the image, the gestures and one
// link per cluster.
func TestViewerPage(t *testing.T) {
	ts, cur := newViewer(t, viewerSchedule(), 400, 300)
	body, img := viewPage(t, ts, cur)
	for _, want := range []string{"zoomin", "reread", "alpha(8)", "beta(4)", "/api/v1/sessions/s1/stats"} {
		if !strings.Contains(body, want) {
			t.Errorf("page missing %q", want)
		}
	}
	if !strings.HasPrefix(img, "/api/v1/sessions/s1/render?") {
		t.Errorf("image = %s", img)
	}
	if status, code, _ := getError(t, ts.URL+"/view/missing"); status != 404 || code != "session_not_found" {
		t.Errorf("missing session page = %d %q", status, code)
	}
}

func TestViewerImage(t *testing.T) {
	ts, cur := newViewer(t, viewerSchedule(), 400, 300)
	_, img := viewPage(t, ts, cur)
	if w := decodePNG(t, ts.URL+img).Bounds().Dx(); w != 400 {
		t.Fatalf("image width = %d", w)
	}
}

func TestViewerOps(t *testing.T) {
	ts, cur := newViewer(t, viewerSchedule(), 400, 300)
	full := core.Extent{Min: 0, Max: 120}
	z := gestureOn(t, ts, cur, "op", "zoomin")
	if pageWindow(t, ts, z, full).Span() >= 120 {
		t.Fatal("zoomin had no effect")
	}
	z = gestureOn(t, ts, gestureOn(t, ts, gestureOn(t, ts, z, "op", "zoomout"), "op", "right"), "op", "left")
	if r := gestureOn(t, ts, z, "op", "reset"); pageWindow(t, ts, r, full) != full {
		t.Fatal("reset had no effect")
	}
	if m := gestureOn(t, ts, cur, "op", "mode"); !strings.Contains(m, "mode=scaled") {
		t.Fatalf("mode toggle = %s", m)
	}
	if c := gestureOn(t, ts, cur, "op", "composites"); !strings.Contains(c, "composites=true") {
		t.Fatalf("composites toggle = %s", c)
	}
	if status, _, body := tryGesture(t, ts, cur, "op", "bogus"); status != 400 || !strings.Contains(body, "bad_gesture") {
		t.Fatalf("bogus op = %d %s", status, body)
	}
}

func TestViewerZoomWheelGestures(t *testing.T) {
	ts, cur := newViewer(t, viewerSchedule(), 400, 300)
	full := core.Extent{Min: 0, Max: 120}
	if pageWindow(t, ts, gestureOn(t, ts, cur, "op", "band", "x0", "100", "x1", "300"), full).Span() >= 120 {
		t.Fatal("rubber band had no effect")
	}
	up := gestureOn(t, ts, cur, "op", "wheel", "x", "200", "dir", "up")
	if pageWindow(t, ts, up, full).Span() >= 120 {
		t.Fatal("wheel had no effect")
	}
	if down := gestureOn(t, ts, up, "op", "wheel", "x", "200", "dir", "down"); pageWindow(t, ts, down, full).Span() <= pageWindow(t, ts, up, full).Span() {
		t.Fatal("wheel down did not zoom out")
	}
	for _, op := range [][]string{
		{"op", "band", "x0", "abc", "x1", "1"},
		{"op", "band", "x0", "1"},
		{"op", "wheel", "x", "abc"},
		{"op", "wheel", "x", "NaN"},
	} {
		if status, _, _ := tryGesture(t, ts, cur, op...); status != 400 {
			t.Errorf("gesture %v = %d, want 400", op, status)
		}
	}
}

func TestViewerClick(t *testing.T) {
	sched := viewerSchedule()
	ts, cur := newViewer(t, sched, 400, 300)
	p := layoutOf(t, ts, cur, sched).Panels[0]
	status, task := click(t, ts, cur, int(p.Transform.XToScreen(40)), int(p.Transform.YToScreen(0.5)))
	if status != 200 || task == nil || !strings.Contains(clickText(task), "start:") {
		t.Fatalf("click = %d %+v", status, task)
	}
	if _, task := click(t, ts, cur, 1, 1); clickText(task) != "(no task)\n" {
		t.Fatalf("background click = %+v", task)
	}
	if status, _ := click(t, ts, cur, "a", "b"); status != 400 {
		t.Fatalf("bad click = %d, want 400", status)
	}
}

func TestViewerClustersParam(t *testing.T) {
	ts, cur := newViewer(t, viewerSchedule(), 400, 300)
	if _, img := viewPage(t, ts, cur+"&clusters=1"); !strings.Contains(img, "clusters=1") {
		t.Fatalf("selection lost: %s", img)
	}
	// A cluster the schedule lacks is dropped from the view.
	if _, img := viewPage(t, ts, cur+"&clusters=7"); strings.Contains(img, "clusters") {
		t.Fatalf("unknown cluster kept: %s", img)
	}
	if status, code, _ := getError(t, ts.URL+cur+"&clusters=x"); status != 400 || code != "bad_view_params" {
		t.Fatalf("bad clusters = %d %q", status, code)
	}
}

func TestViewerRereadEndpoint(t *testing.T) {
	ts, cur, path := newFileViewer(t, viewerSchedule(), 200, 150)
	base := sessionAPI(ts, cur)
	if status, info := post(t, base+"/reread"); status != 200 || info["tasks"].(float64) != 3 {
		t.Fatalf("reread = %d %v", status, info)
	}
	// An unreadable file is refused and the session keeps its schedule.
	if err := os.WriteFile(path, []byte("<grid_schedule>"), 0o644); err != nil {
		t.Fatal(err)
	}
	if status, body := post(t, base+"/reread"); status != 422 || body["error"].(map[string]any)["code"] != "bad_document" {
		t.Fatalf("unreadable reread = %d %v", status, body)
	}
	if _, st := doJSON(t, "GET", base+"/stats", nil, ""); st["task_count"].(float64) != 3 {
		t.Fatalf("failed reread changed the session: %v", st)
	}
	if status, _ := post(t, ts.URL+"/api/v1/sessions/missing/reread"); status != 404 {
		t.Fatalf("reread of a missing session = %d", status)
	}
	// A session that is not file-backed has nothing to reread.
	ts2, cur2 := newViewer(t, viewerSchedule(), 200, 150)
	if status, _ := post(t, sessionAPI(ts2, cur2)+"/reread"); status != 409 {
		t.Fatalf("reread of an upload = %d, want 409", status)
	}
}

func TestViewerExportLinks(t *testing.T) {
	ts, cur := newViewer(t, viewerSchedule(), 400, 300)
	body, _ := viewPage(t, ts, cur)
	for _, format := range []string{"pdf", "svg", "png"} {
		m := regexp.MustCompile(`<a href="([^"]+)">` + format + `</a>`).FindStringSubmatch(body)
		if m == nil {
			t.Fatalf("no %s link", format)
		}
		status, hdr, _ := rawGet(t, ts.URL+html.UnescapeString(m[1]))
		if status != 200 || !strings.Contains(hdr.Get("Content-Type"), format) {
			t.Errorf("%s export = %d %q", format, status, hdr.Get("Content-Type"))
		}
	}
	if status, code, _ := getError(t, sessionAPI(ts, cur)+"/export?format=bmp"); status != 400 || code != "bad_format" {
		t.Fatalf("bmp export = %d %q", status, code)
	}
}

func TestViewerGrayscaleToggle(t *testing.T) {
	ts, cur := newViewer(t, viewerSchedule(), 200, 150)
	isGray := func(cur string) bool {
		_, img := viewPage(t, ts, cur)
		rgba := decodePNG(t, ts.URL+img)
		b := rgba.Bounds()
		for y := b.Min.Y; y < b.Max.Y; y++ {
			for x := b.Min.X; x < b.Max.X; x++ {
				r, g, bl, _ := rgba.At(x, y).RGBA()
				if r != g || g != bl {
					return false
				}
			}
		}
		return true
	}
	gray := gestureOn(t, ts, cur, "op", "gray")
	if !isGray(gray) {
		t.Fatal("gray view has colored pixels")
	}
	if isGray(gestureOn(t, ts, gray, "op", "gray")) {
		t.Fatal("gray toggle did not restore color")
	}
}

// TestViewerRecolor: a recolor is a colors= entry of the view URL; the
// page carries it in canonical form and refuses a bad one.
func TestViewerRecolor(t *testing.T) {
	ts, cur := newViewer(t, viewerSchedule(), 200, 150)
	colorsOf := func(cur string) string {
		_, img := viewPage(t, ts, cur)
		_, q := imgView(t, img)
		return q.Get("colors")
	}
	if got := colorsOf(cur + "&colors=computation:00FF00"); got != "computation:00ff00:000000" {
		t.Fatalf("recolor = %q", got)
	}
	if got := colorsOf(gestureOn(t, ts, cur+"&colors=computation:00ff00:ffffff", "op", "zoomin")); got != "computation:00ff00:ffffff" {
		t.Fatalf("recolor after a gesture = %q", got)
	}
	for _, bad := range []string{":00ff00", "x:zz", "x:00ff00:zz"} {
		if status, code, _ := getError(t, ts.URL+cur+"&colors="+bad); status != 400 || code != "bad_view_params" {
			t.Errorf("colors=%s = %d %q, want 400", bad, status, code)
		}
	}
}

// TestViewerUsesSessionAPI checks the page is a client of the session's
// REST routes: its links land on /api/v1/sessions/{id}/.
func TestViewerUsesSessionAPI(t *testing.T) {
	ts, cur := newViewer(t, viewerSchedule(), 400, 300)
	body, _ := viewPage(t, ts, cur)
	m := regexp.MustCompile(`<a href="([^"]+/stats)">stats</a>`).FindStringSubmatch(body)
	if m == nil {
		t.Fatal("page has no stats link")
	}
	code, st := doJSON(t, "GET", ts.URL+m[1], nil, "")
	if code != 200 || st["makespan"].(float64) != 120 {
		t.Fatalf("stats = %d %v", code, st)
	}
}

// TestViewerLinksAnswer follows every link of the page and of the session
// index: each must answer 200 (gestures after their redirect), so the page
// never points at a missing route. The session is file-backed so that the
// reread button works too.
func TestViewerLinksAnswer(t *testing.T) {
	ts, cur, _ := newFileViewer(t, viewerSchedule(), 400, 300)
	body, _ := viewPage(t, ts, cur)
	links := hrefPat.FindAllStringSubmatch(body, -1)
	if len(links) < 15 {
		t.Fatalf("page has only %d links", len(links))
	}
	for _, l := range links {
		href := html.UnescapeString(l[1])
		if status, _, _ := rawGet(t, ts.URL+href); status != http.StatusOK {
			t.Errorf("page link %s = %d, want 200", href, status)
		}
	}
	if status, _ := post(t, sessionAPI(ts, cur)+"/reread"); status != 200 {
		t.Errorf("reread = %d", status)
	}
	_, _, index := rawGet(t, ts.URL+"/")
	view := strings.SplitN(cur, "?", 2)[0]
	if !strings.Contains(string(index), `href="`+view+`"`) {
		t.Fatalf("index does not link %s", view)
	}
}

// TestViewerExportUnified: every export format honors the view's window
// and cluster selection and downloads as an attachment.
func TestViewerExportUnified(t *testing.T) {
	ts, cur := newViewer(t, viewerSchedule(), 400, 300)
	narrowed := gestureOn(t, ts, cur+"&clusters=0", "op", "band", "x0", "100", "x1", "300")
	body, _ := viewPage(t, ts, narrowed)
	export := func(body, format string) (string, http.Header, string) {
		m := regexp.MustCompile(`<a href="([^"]+)">` + format + `</a>`).FindStringSubmatch(body)
		if m == nil {
			t.Fatalf("no %s link", format)
		}
		href := html.UnescapeString(m[1])
		status, hdr, raw := rawGet(t, ts.URL+href)
		if status != 200 {
			t.Fatalf("%s export = %d", format, status)
		}
		return href, hdr, string(raw)
	}
	for _, format := range []string{"png", "svg", "pdf"} {
		href, hdr, _ := export(body, format)
		if !strings.Contains(href, "window=") || !strings.Contains(href, "clusters=0") {
			t.Errorf("%s link %s lost the view", format, href)
		}
		if got, want := hdr.Get("Content-Disposition"), `attachment; filename="s1.`+format+`"`; got != want {
			t.Errorf("%s disposition = %q, want %q", format, got, want)
		}
	}
	onlyAlpha, _ := viewPage(t, ts, cur+"&clusters=0")
	_, _, alpha := export(onlyAlpha, "svg")
	full, _ := viewPage(t, ts, cur)
	_, _, both := export(full, "svg")
	if strings.Contains(alpha, "beta") || !strings.Contains(both, "beta") {
		t.Fatal("cluster selection not honored by export")
	}
}

func TestViewerRereadUpdatesSession(t *testing.T) {
	ts, cur, path := newFileViewer(t, viewerSchedule(), 200, 150)
	grown := viewerSchedule()
	grown.Add("extra", "computation", 120, 200, 0, 2)
	if err := jedxml.WriteFile(path, grown); err != nil {
		t.Fatal(err)
	}
	if status, _ := post(t, sessionAPI(ts, cur)+"/reread"); status != 200 {
		t.Fatalf("reread = %d", status)
	}
	if code, st := doJSON(t, "GET", sessionAPI(ts, cur)+"/stats", nil, ""); code != 200 || st["makespan"].(float64) != 200 {
		t.Fatalf("stats after reread = %d %v", code, st)
	}
	if body, _ := viewPage(t, ts, cur); !strings.Contains(body, "window [0, 200]") {
		t.Fatal("page does not show the reread extent")
	}
}

// TestColorsParam: colors= is validated on every route that parses the
// view, canonicalized into the ETag, and absent from the ETag of every
// query that does not carry it.
func TestColorsParam(t *testing.T) {
	ts, _ := newTestAPI(t)
	id := createUpload(t, ts, "demo")
	base := ts.URL + "/api/v1/sessions/" + id
	for _, bad := range []string{
		"computation", "computation:zz0000", ":ff0000", "a:ff0000:00ff00:0000ff",
		"a:ff0000;a:00ff00", "a:ff0000:0000", "a:ff0000;",
	} {
		enc := url.QueryEscape(bad)
		for _, u := range []string{
			base + "/render?colors=" + enc,
			base + "/export?format=svg&colors=" + enc,
			base + "/tasks?x=1&y=1&colors=" + enc,
			ts.URL + "/view/" + id + "?colors=" + enc,
		} {
			if status, code, _ := getError(t, u); status != 400 || code != "bad_view_params" {
				t.Errorf("%s = %d %q, want 400 bad_view_params", u, status, code)
			}
		}
	}
	etag := func(path string) string {
		t.Helper()
		status, hdr, _ := rawGet(t, base+path)
		if status != 200 {
			t.Fatalf("%s = %d", path, status)
		}
		return hdr.Get("ETag")
	}
	a := etag("/render?width=200&colors=" + url.QueryEscape("transfer:00FF00;computation:#ff0000"))
	b := etag("/render?width=200&colors=" + url.QueryEscape("computation:ff0000:000000;transfer:00ff00:000000"))
	if a != b || a == etag("/render?width=200") {
		t.Fatalf("spellings of one recoloring: %s vs %s", a, b)
	}
	// The ETags a server without colors= answered for these queries.
	for path, want := range map[string]string{
		"/render?width=200&height=150":                      `"a551f4fe7ab7d8c2"`,
		"/render?format=svg&window=10,50&clusters=0&gray=1": `"41801cf5c7a47b4d"`,
		"/export?format=pdf&mode=scaled&composites=1&lod=1": `"12cee6d9719b81de"`,
	} {
		if got := etag(path); got != want {
			t.Errorf("%s ETag = %s, want %s", path, got, want)
		}
	}
}

// TestViewQueryRawSemicolon: Go's default query parsing drops a pair
// written with a raw ';', which served a raw-';' recolor as the plain view
// under the plain view's ETag. Every route that parses the view refuses
// it; the escaped form %3B recolors.
func TestViewQueryRawSemicolon(t *testing.T) {
	ts, _ := newTestAPI(t)
	id := createUpload(t, ts, "demo")
	base := ts.URL + "/api/v1/sessions/" + id
	const raw = "colors=computation:00ff00;transfer:0000ff"
	for _, u := range []string{
		base + "/render?width=200&" + raw,
		base + "/export?format=svg&" + raw,
		base + "/export?format=jedule&" + raw,
		base + "/tasks?x=1&y=1&" + raw,
		ts.URL + "/view/" + id + "?" + raw,
	} {
		if status, code, _ := getError(t, u); status != 400 || code != "bad_view_params" {
			t.Errorf("%s = %d %q, want 400 bad_view_params", u, status, code)
		}
	}
	status, plainHdr, plain := rawGet(t, base+"/render?width=200")
	if status != 200 {
		t.Fatalf("plain render = %d", status)
	}
	status, hdr, body := rawGet(t, base+"/render?width=200&"+strings.ReplaceAll(raw, ";", "%3B"))
	if status != 200 {
		t.Fatalf("escaped recolor = %d", status)
	}
	if hdr.Get("ETag") == plainHdr.Get("ETag") || string(body) == string(plain) {
		t.Fatal("an escaped ';' recolor answered the plain view")
	}
}

// TestRereadSurvivesRestart: a reread file session comes back from a
// restart with the same render ETag and body.
func TestRereadSurvivesRestart(t *testing.T) {
	stateDir, fileDir := t.TempDir(), t.TempDir()
	path := writeScheduleFile(t, fileDir, "demo.jed")
	render := "/api/v1/sessions/demo/render?format=svg&width=300"

	h1 := startPersistServer(t, stateDir, fileDir)
	_, before, _ := rawGet(t, h1.ts.URL+render)
	grown := demoSchedule()
	grown.Add("t4", "computation", 120, 150, 0, 8)
	if err := jedxml.WriteFile(path, grown); err != nil {
		t.Fatal(err)
	}
	if status, _ := post(t, h1.ts.URL+"/api/v1/sessions/demo/reread"); status != 200 {
		t.Fatalf("reread = %d", status)
	}
	_, hdr, body := rawGet(t, h1.ts.URL+render)
	if hdr.Get("ETag") == before.Get("ETag") {
		t.Fatal("reread kept the ETag")
	}
	h1.stop(t)

	h2 := startPersistServer(t, stateDir, fileDir)
	defer h2.stop(t)
	_, hdr2, body2 := rawGet(t, h2.ts.URL+render)
	if hdr2.Get("ETag") != hdr.Get("ETag") || string(body2) != string(body) {
		t.Fatalf("after restart: ETag %s body %d bytes, want %s and %d bytes",
			hdr2.Get("ETag"), len(body2), hdr.Get("ETag"), len(body))
	}
}
