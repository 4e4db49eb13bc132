package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/render"
	gen "repro/internal/workload"
)

// panZoom is the read side: viewers exploring a million-task trace with
// pan and zoom gestures over PNG renders, each waiting for its picture
// before the next gesture step. Culling, level of detail, rasterization, PNG
// encoding and the render cache do the work; nothing is parsed or indexed
// after set-up.
type panZoom struct {
	sz    sizes
	sched *core.Schedule
	ext   core.Extent
	srv   *server
	cl    *client
	sess  string

	mu       sync.Mutex
	gestures []*gestureScript // per client
	bodies   map[string][32]byte
	windows  map[string]*core.Extent // render query -> window (nil = full view)
	meta0    meta                    // server counters when the timed phase starts
}

const panW, panH = 1200, 800

func (w *panZoom) clients() int { return w.sz.panClients }

func (w *panZoom) prepare(r *run) error {
	cfg := gen.DefaultGenerateConfig(w.sz.panTasks)
	cfg.Seed = r.seed
	w.sched = gen.GenerateSchedule(cfg)
	w.ext = w.sched.Extent()
	return nil
}

func (w *panZoom) setup(r *run, op int64) error {
	// Registered in-process, the way jedserve -dir registers a file.
	store := api.NewStore()
	w.sess = store.Add("trace", "file", w.sched).ID
	srv, err := serve(api.NewServer(store))
	if err != nil {
		return err
	}
	w.srv, w.cl = srv, newClient(w.sz.panClients, r.tr)
	// A thumbnail builds the session's index before the first gesture.
	_, err = w.cl.do(op, "api.render", http.MethodGet,
		fmt.Sprintf("%s/api/v1/sessions/%s/render?width=16&height=16&lod=true", w.srv.base, w.sess), nil, "", http.StatusOK)
	return err
}

func (w *panZoom) begin(r *run) error {
	w.bodies, w.windows = map[string][32]byte{}, map[string]*core.Extent{}
	w.gestures = make([]*gestureScript, w.sz.panClients)
	for c := range w.gestures {
		w.gestures[c] = &gestureScript{w: w, rng: rand.New(rand.NewSource(r.seed*1000 + int64(c)))}
	}
	var err error
	w.meta0, err = w.cl.meta(w.srv.base)
	return err
}

// gestureScript replays seeded gestures: the full view, zoom x4 panDepth
// times toward a random focus, pan panPans half-windows at the deepest zoom,
// then zoom back out along the same path. The way out repeats the URLs of
// the way in exactly, so those renders are cache hits.
type gestureScript struct {
	w     *panZoom
	rng   *rand.Rand
	queue []string
}

func (g *gestureScript) next() string {
	if len(g.queue) == 0 {
		g.queue = g.w.gesture(g.rng)
	}
	q := g.queue[0]
	g.queue = g.queue[1:]
	return q
}

// gesture returns the render queries of one gesture.
func (w *panZoom) gesture(rng *rand.Rand) []string {
	span := w.ext.Span()
	focus := w.ext.Min + rng.Float64()*span
	in := []string{w.query(nil)}
	var win core.Extent
	for d := 1; d <= w.sz.panDepth; d++ {
		width := span / float64(int(1)<<(2*d))
		lo := min(max(focus-width/2, w.ext.Min), w.ext.Max-width)
		win = core.Extent{Min: lo, Max: lo + width}
		in = append(in, w.query(&win))
	}
	out := append([]string(nil), in...)
	dir := 1.0
	if rng.Intn(2) == 0 {
		dir = -1
	}
	for p := 0; p < w.sz.panPans; p++ {
		step := dir * win.Span() / 2
		if win.Min+step < w.ext.Min || win.Max+step > w.ext.Max {
			dir, step = -dir, -step
		}
		win = core.Extent{Min: win.Min + step, Max: win.Max + step}
		out = append(out, w.query(&win))
	}
	for d := len(in) - 2; d >= 0; d-- {
		out = append(out, in[d])
	}
	return out
}

// query builds a render query and remembers its window for the in-process
// check. Windows are written with the shortest exact float form, so the
// server parses back exactly the values the reference renders.
func (w *panZoom) query(win *core.Extent) string {
	q := fmt.Sprintf("/api/v1/sessions/%s/render?width=%d&height=%d&lod=true", w.sess, panW, panH)
	if win != nil {
		q += "&window=" + strconv.FormatFloat(win.Min, 'g', -1, 64) + "," + strconv.FormatFloat(win.Max, 'g', -1, 64)
	}
	w.mu.Lock()
	if _, ok := w.windows[q]; !ok {
		if win != nil {
			c := *win
			win = &c
		}
		w.windows[q] = win
	}
	w.mu.Unlock()
	return q
}

func (w *panZoom) op(r *run, c int, op int64) (time.Duration, error) {
	q := w.gestures[c].next()
	rep, err := w.cl.do(op, "api.render", http.MethodGet, w.srv.base+q, nil, "", http.StatusOK)
	if err != nil {
		return 0, err
	}
	sum := sha256.Sum256(rep.body)
	w.mu.Lock()
	first, seen := w.bodies[q]
	if !seen {
		w.bodies[q] = sum
	}
	w.mu.Unlock()
	if seen && first != sum {
		r.fail("op %d: body of %s differs from its first render", op, q)
	}
	return rep.end.Sub(rep.start), nil
}

func (w *panZoom) finish(r *run) error {
	// A fixed sample of the rendered views, spread over their sorted
	// queries, must equal in-process renders of the same options.
	qs := make([]string, 0, len(w.bodies))
	for q := range w.bodies {
		qs = append(qs, q)
	}
	sort.Strings(qs)
	var idx *render.TaskIndex
	r.tr.timed(opShadow, 0, "render.index", "render", func() { idx = render.BuildIndex(w.sched) })
	n := min(w.sz.panVerify, len(qs))
	for i := 0; i < n; i++ {
		q := qs[i*len(qs)/n]
		opt := viewOptions(w.windows[q])
		opt.Index = idx
		var body bytes.Buffer
		err := render.Encode(&body, "png", w.sched, panW, panH, opt)
		if err == nil && sha256.Sum256(body.Bytes()) != w.bodies[q] {
			err = fmt.Errorf("body differs from the in-process render")
		}
		r.check("pan_zoom "+q, err)
	}
	if r.tr != nil {
		// Shadow replay: the validation every render miss runs, which no
		// Server-Timing stage covers.
		for i := 0; i < 2; i++ {
			// The renders above validated this schedule; only the time counts.
			r.tr.timed(opShadow, 0, "core.validate", "core", func() { _ = w.sched.Validate() })
		}
		m, err := w.cl.meta(w.srv.base)
		if err != nil {
			return err
		}
		r.counters(w.meta0, m)
	}
	return nil
}

func (w *panZoom) teardown() {
	if w.srv != nil {
		w.srv.close()
		w.cl.close()
		w.srv, w.cl = nil, nil
	}
}
