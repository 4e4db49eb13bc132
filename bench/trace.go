package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Every span is recorded
// from outside the program: around a call the benchmark makes, inside a
// decorator the program accepts through a public hook, or from a response's
// Server-Timing header.
type span struct {
	Op     int64   `json:"op"`     // the op it belongs to (see the op constants)
	ID     int64   `json:"id"`     // unique within the run, from 1
	Parent int64   `json:"parent"` // enclosing span, 0 for a root
	Name   string  `json:"name"`   // "<module>.<what>", e.g. "api.render_miss"
	Layer  string  `json:"layer"`  // the module, e.g. "api", "render", "persist"
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
}

// Op ids outside the timed ops, which count up from 1.
const (
	opNone   int64 = 0  // not part of any op (e.g. a fleet poll between ops)
	opSetup  int64 = -1 // the traced set-up repetition
	opShadow int64 = -2 // the serial shadow replay after the timed phase
)

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per boundary. Within a traced
// run, ops alternate between traced and untraced (see traced) so the run
// measures its own tracing overhead on paired ops.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64
	cur    atomic.Int64 // op of a single-client workload, for decorators
	parent atomic.Int64 // open span of the benchmark's own direct call, for decorators

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// traced reports whether spans of op are kept: set-up, shadow and every
// odd-numbered timed op.
func (t *tracer) traced(op int64) bool {
	return t != nil && (op < 0 || op%2 == 1)
}

func (t *tracer) ms(at time.Time) float64 {
	return float64(at.Sub(t.epoch).Nanoseconds()) / 1e6
}

// add records a finished span and returns its ID (0 when not recorded).
func (t *tracer) add(op, parent int64, name, layer string, start, end time.Time) int64 {
	if !t.traced(op) {
		return 0
	}
	id := t.nextID.Add(1)
	t.put(span{Op: op, ID: id, Parent: parent, Name: name, Layer: layer, Start: t.ms(start), End: t.ms(end)})
	return id
}

func (t *tracer) put(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// timed runs fn inside a span.
func (t *tracer) timed(op, parent int64, name, layer string, fn func()) {
	start := time.Now()
	fn()
	t.add(op, parent, name, layer, start, time.Now())
}

// call runs fn inside a span that decorators see as their parent: fn is a
// direct call of the benchmark into the program (RecoverSessions, ...), so
// the span's ID exists before the span ends.
func (t *tracer) call(op int64, name, layer string, fn func() error) error {
	if !t.traced(op) {
		return fn()
	}
	id := t.nextID.Add(1)
	t.parent.Store(id)
	start := time.Now()
	err := fn()
	end := time.Now()
	t.parent.Store(0)
	t.put(span{Op: op, ID: id, Name: name, Layer: layer, Start: t.ms(start), End: t.ms(end)})
	return err
}

// setOp marks the op the single client is running, for decorators that
// cannot see it (a persist.Store wrapper, a fleet worker's transport).
func (t *tracer) setOp(op int64) {
	if t != nil {
		t.cur.Store(op)
	}
}

// context returns the op and parent a decorator should record under.
func (t *tracer) context() (op, parent int64) {
	if t == nil {
		return opNone, 0
	}
	return t.cur.Load(), t.parent.Load()
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's duration minus the part of its interval
// its children cover, by span ID. Overlapping children are merged first, so
// two concurrent children never count their shared interval twice, and a
// child reaching outside its parent counts only inside it.
func selfTimes(spans []span) map[int64]float64 {
	children := map[int64][][2]float64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	self := make(map[int64]float64, len(spans))
	for _, s := range spans {
		iv := children[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		covered, reach := 0.0, s.Start
		for _, c := range iv {
			lo, hi := max(c[0], reach), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// layerRow is one line of the per-layer self-time summary.
type layerRow struct {
	Name     string  `json:"name"`
	Layer    string  `json:"layer"`
	Count    int     `json:"count"`
	TotalMS  float64 `json:"total_self_ms"`
	MedianMS float64 `json:"median_self_ms"`
	selfMS   []float64
}

// summarize groups spans by name: call count, total and median self time.
func summarize(spans []span) []layerRow {
	self := selfTimes(spans)
	rows := map[string]*layerRow{}
	for _, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &layerRow{Name: s.Name, Layer: s.Layer}
			rows[s.Name] = r
		}
		r.Count++
		r.TotalMS += self[s.ID]
		r.selfMS = append(r.selfMS, self[s.ID])
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		r.MedianMS = median(r.selfMS)
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TotalMS > out[j].TotalMS })
	return out
}

// find returns the summary row of a span name (a zero row when absent).
func find(rows []layerRow, name string) layerRow {
	for _, r := range rows {
		if r.Name == name {
			return r
		}
	}
	return layerRow{Name: name}
}

// writeSpans writes the spans and their summary as one JSON document.
func writeSpans(path string, spans []span, rows []layerRow) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"summary": rows, "spans": spans}); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// printSummary prints the self-time table, busiest span name first.
func printSummary(w io.Writer, rows []layerRow) {
	fmt.Fprintf(w, "%-26s %-9s %7s %14s %12s\n", "span", "layer", "count", "self_total_ms", "self_p50_ms")
	for _, r := range rows {
		fmt.Fprintf(w, "%-26s %-9s %7d %14.2f %12.3f\n", r.Name, r.Layer, r.Count, r.TotalMS, r.MedianMS)
	}
}
