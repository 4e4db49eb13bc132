package api

import (
	"errors"
	"fmt"
	"html"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/render"
)

// GET /view/{id} is the paper's interactive mode: a page whose whole state
// is its view query. A gesture is /view/{id}?<view>&op=..., answered with
// a 303 to the new view; clicks, cluster selection, recolor (colors=),
// export and reread use the session's REST routes.

// minSpanFraction bounds how deep the zoom can go, relative to the full
// schedule extent.
const minSpanFraction = 1e-6

// setWindow clamps a new time window into the full extent: a span under
// the minimum widens about its centre, a span covering the extent is the
// full view (nil), and a window past either end shifts back inside.
func setWindow(full core.Extent, lo, hi float64) *core.Extent {
	minSpan := full.Span() * minSpanFraction
	if minSpan <= 0 {
		minSpan = 1e-12
	}
	if hi-lo < minSpan {
		mid := (lo + hi) / 2
		lo, hi = mid-minSpan/2, mid+minSpan/2
	}
	span := hi - lo
	if span >= full.Span() {
		return nil
	}
	if lo < full.Min {
		lo, hi = full.Min, full.Min+span
	}
	if hi > full.Max {
		lo, hi = full.Max-span, full.Max
	}
	return &core.Extent{Min: lo, Max: hi}
}

// fitView fits a view to the session's current schedule, as a reread
// needs: the window is clipped to the extent, or dropped when it no longer
// overlaps it, and cluster IDs the schedule lacks are dropped. A window
// inside the extent is kept bit for bit.
func fitView(s *core.Schedule, vp *viewParams) {
	full := s.Extent()
	if w := vp.Opts.Window; w != nil {
		clipped := w.Intersect(full)
		switch {
		case !clipped.Valid() || clipped.Span() == 0:
			vp.Opts.Window = nil
		case clipped != *w || clipped.Span() >= full.Span():
			vp.Opts.Window = setWindow(full, clipped.Min, clipped.Max)
		}
	}
	if vp.Opts.Clusters != nil {
		var kept []int
		for _, id := range vp.Opts.Clusters {
			if _, ok := s.Cluster(id); ok {
				kept = append(kept, id)
			}
		}
		vp.Opts.Clusters = kept
	}
}

// timeAt converts a pixel column to a time on panel 0 of the layout
// without composites (all panels share the window).
func timeAt(s *core.Schedule, vp *viewParams, x float64) (float64, bool) {
	l := render.ComputeLayout(s, float64(vp.Width), float64(vp.Height), vp.Opts)
	if len(l.Panels) == 0 {
		return 0, false
	}
	return l.Panels[0].Transform.XToWorld(x), true
}

// gesture applies one op to a fitted view and returns the new view query:
// zoomin/zoomout (×1.5 about the centre), left/right (a quarter span,
// clamped), wheel&x=&dir=up|down (×1.25 keeping the time under pixel x),
// band&x0=&x1= (the times under two pixel columns), reset, and the mode,
// composites and gray toggles.
func gesture(s *core.Schedule, vp viewParams, op url.Values) (url.Values, error) {
	full := s.Extent()
	w := full
	if vp.Opts.Window != nil {
		w = *vp.Opts.Window
	}
	var err error
	pixel := func(name string) float64 {
		v, perr := strconv.ParseFloat(op.Get(name), 64)
		if perr != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			err = fmt.Errorf("bad %s %q (want a pixel column)", name, op.Get(name))
		}
		return v
	}
	switch name := op.Get("op"); name {
	case "zoomin", "zoomout":
		factor := 1.5
		if name == "zoomout" {
			factor = 1 / factor
		}
		mid := (w.Min + w.Max) / 2
		vp.Opts.Window = setWindow(full, mid-w.Span()/(2*factor), mid+w.Span()/(2*factor))
	case "left", "right":
		d := w.Span() * 0.25
		if name == "left" {
			d = -d
		}
		if w.Min+d < full.Min {
			d = full.Min - w.Min
		}
		if w.Max+d > full.Max {
			d = full.Max - w.Max
		}
		if vp.Opts.Window != nil || d != 0 {
			vp.Opts.Window = setWindow(full, w.Min+d, w.Max+d)
		}
	case "wheel":
		factor := 1.25
		if op.Get("dir") == "down" {
			factor = 1 / factor
		}
		if t, ok := timeAt(s, &vp, pixel("x")); ok && err == nil {
			t = math.Max(w.Min, math.Min(w.Max, t))
			vp.Opts.Window = setWindow(full, t-(t-w.Min)/factor, t+(w.Max-t)/factor)
		}
	case "band":
		x0, x1 := pixel("x0"), pixel("x1")
		if x1 < x0 {
			x0, x1 = x1, x0
		}
		t0, ok0 := timeAt(s, &vp, x0)
		t1, ok1 := timeAt(s, &vp, x1)
		if ok0 && ok1 && t1 > t0 && err == nil {
			vp.Opts.Window = setWindow(full, t0, t1)
		}
	case "reset":
		vp.Opts.Window = nil
	case "mode":
		if vp.Opts.Mode == core.AlignedView {
			vp.Opts.Mode = core.ScaledView
		} else {
			vp.Opts.Mode = core.AlignedView
		}
	case "composites":
		vp.Opts.Composites = !vp.Opts.Composites
	case "gray":
		vp.Gray = !vp.Gray
	default:
		err = fmt.Errorf("unknown op %q (want zoomin, zoomout, left, right, wheel, band, reset, mode, composites or gray)", name)
	}
	return vp.query(), err
}

// query is the canonical form of a view: what differs from the defaults,
// window bounds in the shortest form that parses back to the same float64.
func (vp *viewParams) query() url.Values {
	q := url.Values{}
	set := func(name string, on bool, value string) {
		if on {
			q.Set(name, value)
		}
	}
	set("width", vp.Width != defaultW, strconv.Itoa(vp.Width))
	set("height", vp.Height != defaultH, strconv.Itoa(vp.Height))
	set("mode", vp.Opts.Mode == core.ScaledView, "scaled")
	if w := vp.Opts.Window; w != nil {
		q.Set("window", strconv.FormatFloat(w.Min, 'g', -1, 64)+","+strconv.FormatFloat(w.Max, 'g', -1, 64))
	}
	if vp.Opts.Clusters != nil {
		ids := make([]string, len(vp.Opts.Clusters))
		for i, id := range vp.Opts.Clusters {
			ids[i] = strconv.Itoa(id)
		}
		q.Set("clusters", strings.Join(ids, ","))
	}
	set("labels", !vp.Opts.Labels, "false")
	set("composites", vp.Opts.Composites, "true")
	set("legend", vp.Opts.Legend, "true")
	set("meta", vp.Opts.ShowMeta, "true")
	set("gray", vp.Gray, "true")
	set("lod", vp.LODSet, strconv.FormatBool(vp.Opts.LOD))
	set("title", vp.Opts.Title != "", vp.Opts.Title)
	set("colors", vp.Colors != "", vp.Colors)
	return q
}

// view serves the page of a session's view, fitted to its schedule; with
// op= it applies the gesture and redirects to the new view instead.
func (s *Server) view(w http.ResponseWriter, r *http.Request) {
	sess, q, ok := s.viewRequest(w, r)
	if !ok {
		return
	}
	vp, err := parseViewParams(q)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_view_params", "%v", err)
		return
	}
	sched, index, err := sess.ScheduleWithIndex()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "render_failed", "render: %v", err)
		return
	}
	fitView(sched, vp)
	if q.Get("op") != "" {
		vp.Opts.Index = index // timeAt lays out the schedule without composites
		next, err := gesture(sched, *vp, q)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad_gesture", "%v", err)
			return
		}
		http.Redirect(w, r, "/view/"+sess.ID+"?"+next.Encode(), http.StatusSeeOther)
		return
	}
	view, noClusters := vp.query().Encode(), vp.query()
	noClusters.Del("clusters")
	self, api := "/view/"+sess.ID+"?", "/api/v1/sessions/"+sess.ID
	win := sched.Extent()
	if vp.Opts.Window != nil {
		win = *vp.Opts.Window
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	link := func(href, label string) {
		fmt.Fprintf(w, `<a href="%s">%s</a> `, html.EscapeString(href), html.EscapeString(label))
	}
	fmt.Fprintf(w, "<!DOCTYPE html>\n<html><head><title>jedule: %s</title></head>\n<body>\n<p>", html.EscapeString(sess.ID))
	for _, op := range []string{"zoomin", "zoomout", "left", "right", "reset", "mode", "composites", "gray"} {
		link(self+view+"&op="+op, op)
	}
	fmt.Fprint(w, `<button id="reread">reread</button> | export `)
	for _, format := range render.EncodeFormats() {
		link(api+"/export?"+view+"&format="+format, format)
	}
	fmt.Fprint(w, "| ")
	link(api+"/stats", "stats")
	link("/", "sessions")
	fmt.Fprintf(w, "| window [%g, %g]</p>\n<p>clusters: ", win.Min, win.Max)
	link(self+noClusters.Encode(), "all")
	for _, c := range sched.Clusters {
		link(self+noClusters.Encode()+"&clusters="+strconv.Itoa(c.ID), fmt.Sprintf("%s(%d)", c.DisplayName(), c.Hosts))
	}
	fmt.Fprintf(w, "</p>\n<img id=\"v\" src=\"%s\" width=\"%d\" height=\"%d\" alt=\"schedule\" draggable=\"false\" data-view=\"%s\" data-api=\"%s\">\n",
		html.EscapeString(api+"/render?"+view), vp.Width, vp.Height, html.EscapeString(view), html.EscapeString(api))
	fmt.Fprint(w, viewScript)
}

// viewScript turns the wheel, a drag and a click on the image into gesture
// and task URLs; all arithmetic stays on the server.
const viewScript = `<pre id="info">click a task for details, drag to zoom onto a time range, scroll to zoom at the cursor</pre>
<script>
const img = document.getElementById('v'), info = document.getElementById('info');
const go = op => { location.href = location.pathname + '?' + img.dataset.view + '&op=' + op; };
let x0 = null;
img.onwheel = e => { e.preventDefault(); go('wheel&x=' + e.offsetX + '&dir=' + (e.deltaY < 0 ? 'up' : 'down')); };
img.onmousedown = e => { x0 = e.offsetX; };
img.onmouseup = e => {
  if (x0 !== null && Math.abs(e.offsetX - x0) > 3) go('band&x0=' + x0 + '&x1=' + e.offsetX);
  else fetch(img.dataset.api + '/tasks?' + img.dataset.view + '&x=' + e.offsetX + '&y=' + e.offsetY).then(r => r.json())
    .then(j => { info.textContent = j.task ? JSON.stringify(j.task, null, 1) : '(no task)'; });
  x0 = null;
};
document.getElementById('reread').onclick = () => fetch(img.dataset.api + '/reread', {method: 'POST'})
  .then(r => r.ok ? location.reload() : r.text().then(t => { info.textContent = t; }));
</script>
</body></html>
`

// reread serves POST /api/v1/sessions/{id}/reread: a file-backed session
// re-reads its file as a new revision and answers its info.
func (s *Server) reread(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	switch err := sess.Reread(); {
	case errors.Is(err, errNotFileBacked):
		writeError(w, http.StatusConflict, "not_file_backed", "session %q was not read from a file", sess.ID)
	case err != nil:
		writeError(w, http.StatusUnprocessableEntity, "bad_document", "%v", err)
	default:
		writeJSON(w, http.StatusOK, infoOf(sess))
	}
}
