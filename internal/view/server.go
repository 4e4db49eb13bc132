package view

import (
	"bytes"
	"fmt"
	"html"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/api"
	"repro/internal/colormap"
	"repro/internal/core"
	"repro/internal/render"
)

// DefaultSessionID is the API session the legacy viewer's schedule is
// registered under.
const DefaultSessionID = "default"

// Server exposes a Viewport over HTTP, standing in for the Swing window of
// the original tool. It is a thin client of the versioned REST API: the
// viewport's schedule is registered as the session "default" of an
// internal/api session store, the full API is mounted at /api/v1/, and the
// legacy read routes are kept as deprecated aliases of the stateless API
// endpoints. Only the gesture routes still mutate the shared viewport.
//
// The page at / shows the schedule; every interactive gesture maps to an
// endpoint:
//
//	GET /view.png          current view as PNG
//	GET /op?op=zoomin      keyboard zoom in (also zoomout, reset)
//	GET /op?op=left        pan (also right)
//	GET /op?op=mode        toggle scaled/aligned view
//	GET /op?op=composites  toggle composite-task overlay
//	GET /op?op=gray        toggle grayscale colors
//	GET /recolor?type=X&bg=rrggbb[&fg=rrggbb]  recolor one task type live
//	GET /zoom?x0=&x1=      rubber-band zoom between two pixel columns
//	GET /wheel?x=&dir=up   mouse-wheel zoom at a pixel column
//	GET /click?x=&y=       task info under the cursor (text/plain)
//	GET /clusters?ids=0,1  cluster selection (empty ids = all)
//	GET /reread            reload the schedule file
//	GET /export?format=pdf download the current view (pdf, svg, png)
//
// Deprecated aliases, redirecting into the API (same query parameters):
//
//	GET /stats   -> /api/v1/sessions/default/stats
//	GET /tasks   -> /api/v1/sessions/default/tasks
//	GET /meta    -> /api/v1/sessions/default/meta
type Server struct {
	vp   *Viewport
	gray bool
	api  *api.Server
	sess *api.Session
}

// NewServer wraps a viewport, registering its schedule as the "default"
// session of a fresh API store.
func NewServer(vp *Viewport) *Server {
	store := api.NewStore()
	sess, err := store.Put(DefaultSessionID, "viewer", "viewer", vp.Schedule())
	if err != nil {
		panic(err) // unreachable: the store is empty
	}
	return &Server{vp: vp, api: api.NewServer(store), sess: sess}
}

// API returns the embedded REST server (its store holds the "default"
// session plus any sessions created over HTTP).
func (s *Server) API() *api.Server { return s.api }

// Handler returns the HTTP routes: the legacy viewer plus the mounted API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.index)
	mux.HandleFunc("/view.png", s.viewPNG)
	mux.HandleFunc("/op", s.op)
	mux.HandleFunc("/zoom", s.zoom)
	mux.HandleFunc("/wheel", s.wheel)
	mux.HandleFunc("/click", s.click)
	mux.HandleFunc("/clusters", s.clusters)
	mux.HandleFunc("/recolor", s.recolor)
	mux.HandleFunc("/reread", s.reread)
	mux.HandleFunc("/export", s.export)
	for _, alias := range []string{"stats", "tasks", "meta"} {
		mux.HandleFunc("/"+alias, s.apiAlias(alias))
	}
	mux.Handle("/api/v1/", s.api.Handler())
	return mux
}

// apiAlias serves a legacy read path by redirecting to the equivalent
// stateless endpoint on the default session, preserving the query string.
// The Deprecation and Link (successor-version) headers announce the move
// machine-readably; a future release drops the aliases.
func (s *Server) apiAlias(endpoint string) http.HandlerFunc {
	successor := "/api/v1/sessions/" + DefaultSessionID + "/" + endpoint
	return func(w http.ResponseWriter, r *http.Request) {
		target := successor
		if r.URL.RawQuery != "" {
			target += "?" + r.URL.RawQuery
		}
		w.Header().Set("Deprecation", "true")
		w.Header().Set("Link", fmt.Sprintf("<%s>; rel=\"successor-version\"", successor))
		http.Redirect(w, r, target, http.StatusTemporaryRedirect)
	}
}

// ListenAndServe runs the viewer on addr.
func (s *Server) ListenAndServe(addr string) error {
	return http.ListenAndServe(addr, s.Handler())
}

func (s *Server) index(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	sched := s.vp.Schedule()
	win := s.vp.Window()
	var clusterLinks strings.Builder
	for _, c := range sched.Clusters {
		fmt.Fprintf(&clusterLinks, `<a href="/clusters?ids=%d">%s(%d)</a> `,
			c.ID, html.EscapeString(c.DisplayName()), c.Hosts)
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprintf(w, indexPage,
		win.Min, win.Max, clusterLinks.String())
}

const indexPage = `<!DOCTYPE html>
<html><head><title>jedule viewer</title></head>
<body>
<p>
<a href="/op?op=zoomin">zoom in</a>
<a href="/op?op=zoomout">zoom out</a>
<a href="/op?op=left">&larr; pan</a>
<a href="/op?op=right">pan &rarr;</a>
<a href="/op?op=reset">reset</a>
<a href="/op?op=mode">scaled/aligned</a>
<a href="/op?op=composites">composites</a>
<a href="/op?op=gray">grayscale</a>
<a href="/reread">reread</a>
<a href="/export?format=pdf">pdf</a>
<a href="/export?format=svg">svg</a>
<a href="/export?format=png">png</a>
<a href="/stats">stats</a>
<a href="/api/v1/sessions">api</a>
| window [%g, %g]
| clusters: <a href="/clusters?ids=">all</a> %s
</p>
<img id="v" src="/view.png" alt="schedule"
 onclick="fetch('/click?x='+event.offsetX+'&amp;y='+event.offsetY).then(r=>r.text()).then(t=>document.getElementById('info').textContent=t)">
<pre id="info">click a task for details</pre>
</body></html>
`

func (s *Server) viewPNG(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "image/png")
	if err := s.vp.Render().EncodePNG(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *Server) op(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Query().Get("op") {
	case "zoomin":
		s.vp.Zoom(1.5)
	case "zoomout":
		s.vp.Zoom(1 / 1.5)
	case "left":
		s.vp.Pan(-0.25)
	case "right":
		s.vp.Pan(0.25)
	case "reset":
		s.vp.Reset()
	case "mode":
		if s.vp.Mode == core.AlignedView {
			s.vp.Mode = core.ScaledView
		} else {
			s.vp.Mode = core.AlignedView
		}
	case "composites":
		s.vp.Composites = !s.vp.Composites
	case "gray":
		s.gray = !s.gray
		s.vp.SetGrayscale(s.gray)
	default:
		http.Error(w, "unknown op", http.StatusBadRequest)
		return
	}
	http.Redirect(w, r, "/", http.StatusSeeOther)
}

func (s *Server) zoom(w http.ResponseWriter, r *http.Request) {
	x0, err0 := strconv.ParseFloat(r.URL.Query().Get("x0"), 64)
	x1, err1 := strconv.ParseFloat(r.URL.Query().Get("x1"), 64)
	if err0 != nil || err1 != nil {
		http.Error(w, "bad x0/x1", http.StatusBadRequest)
		return
	}
	s.vp.RubberBand(x0, x1)
	http.Redirect(w, r, "/", http.StatusSeeOther)
}

func (s *Server) wheel(w http.ResponseWriter, r *http.Request) {
	x, err := strconv.ParseFloat(r.URL.Query().Get("x"), 64)
	if err != nil {
		http.Error(w, "bad x", http.StatusBadRequest)
		return
	}
	factor := 1.25
	if r.URL.Query().Get("dir") == "down" {
		factor = 1 / factor
	}
	s.vp.ZoomAt(factor, x)
	http.Redirect(w, r, "/", http.StatusSeeOther)
}

func (s *Server) click(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	x, err0 := strconv.ParseFloat(q.Get("x"), 64)
	y, err1 := strconv.ParseFloat(q.Get("y"), 64)
	if err0 != nil || err1 != nil {
		http.Error(w, "bad x/y", http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	info, ok := s.vp.TaskAt(x, y)
	if !ok {
		fmt.Fprintln(w, "(no task)")
		return
	}
	fmt.Fprint(w, info.String())
}

func (s *Server) clusters(w http.ResponseWriter, r *http.Request) {
	raw := r.URL.Query().Get("ids")
	if raw == "" {
		s.vp.SelectClusters(nil)
		http.Redirect(w, r, "/", http.StatusSeeOther)
		return
	}
	var ids []int
	for _, part := range strings.Split(raw, ",") {
		id, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			http.Error(w, "bad ids", http.StatusBadRequest)
			return
		}
		ids = append(ids, id)
	}
	s.vp.SelectClusters(ids)
	http.Redirect(w, r, "/", http.StatusSeeOther)
}

func (s *Server) recolor(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	typ := q.Get("type")
	if typ == "" {
		http.Error(w, "missing type", http.StatusBadRequest)
		return
	}
	bg, err := colormap.ParseRGB(q.Get("bg"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	c := colormap.Colors{FG: colormap.RGB(0, 0, 0), BG: bg}
	if fgRaw := q.Get("fg"); fgRaw != "" {
		fg, err := colormap.ParseRGB(fgRaw)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		c.FG = fg
	}
	s.vp.Recolor(typ, c)
	http.Redirect(w, r, "/", http.StatusSeeOther)
}

func (s *Server) reread(w http.ResponseWriter, r *http.Request) {
	if err := s.vp.Reread(); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	// Keep the API session pointing at the freshly loaded schedule.
	s.sess.Replace(s.vp.Schedule())
	http.Redirect(w, r, "/", http.StatusSeeOther)
}

// export downloads the current view. All formats run through the one
// options-driven render.Encode path, so PNG honors the same window,
// cluster selection, and color map as PDF and SVG, and every format gets
// the same attachment disposition.
func (s *Server) export(w http.ResponseWriter, r *http.Request) {
	format := r.URL.Query().Get("format")
	if format == "" {
		format = "png"
	}
	ct, ok := render.ContentType(format)
	if !ok {
		http.Error(w, fmt.Sprintf("unknown format %q (want %s)",
			format, strings.Join(render.EncodeFormats(), ", ")), http.StatusBadRequest)
		return
	}
	// The API session holds the same schedule (reread replaces it) and has
	// validated it once for every HTTP render.
	sched, index, err := s.sess.ScheduleWithIndex()
	if err != nil {
		http.Error(w, "render: "+err.Error(), http.StatusInternalServerError)
		return
	}
	opts := render.Options{
		Mode: s.vp.Mode, Map: s.vp.Map, Clusters: s.vp.SelectedClusters(),
		Labels: s.vp.Labels, Composites: s.vp.Composites,
	}
	if !opts.Composites {
		opts.Index = index
	}
	win := s.vp.Window()
	if full := sched.Extent(); win != full {
		opts.Window = &win
	}
	var buf bytes.Buffer
	if err := render.Encode(&buf, format, sched, s.vp.Width, s.vp.Height, opts); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", ct)
	w.Header().Set("Content-Disposition", fmt.Sprintf(`attachment; filename="schedule.%s"`, format))
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	buf.WriteTo(w) //nolint:errcheck
}
