package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sort"
	"sync"
	"time"
)

// TraceHeader is the HTTP header that carries a trace ID into jedserve;
// from a coordinator the ID travels on to each fleet worker in the lease
// assignment and back in the completion report.
const TraceHeader = "X-Jed-Trace"

// maxTraceID bounds accepted IDs; anything longer or with characters outside
// [A-Za-z0-9._-] is replaced with a fresh random ID rather than propagated,
// so a hostile header can't smuggle bytes into logs or lease payloads.
const maxTraceID = 64

// ValidTraceID reports whether s is acceptable as a trace ID.
func ValidTraceID(s string) bool {
	if s == "" || len(s) > maxTraceID {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '.' || c == '_' || c == '-':
		default:
			return false
		}
	}
	return true
}

// NewTraceID returns a fresh random 16-hex-char ID.
func NewTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; here a
		// constant beats propagating an error through every caller.
		return "trace-rand-unavailable"
	}
	return hex.EncodeToString(b[:])
}

// Span is one named, timed step inside a trace.
type Span struct {
	Name     string        `json:"name"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration"`
}

// Trace is a request ID plus an ordered list of timed spans. All methods are
// safe for concurrent use and safe on a nil receiver, so instrumented code
// never branches on whether tracing is wired up.
type Trace struct {
	id string

	mu    sync.Mutex
	spans []Span
}

// NewTrace returns a trace with the given ID, or a fresh random ID when id
// is empty or invalid.
func NewTrace(id string) *Trace {
	if !ValidTraceID(id) {
		id = NewTraceID()
	}
	return &Trace{id: id}
}

// ID returns the trace ID ("" on a nil trace).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// StartSpan begins a span and returns the function that ends it.
func (t *Trace) StartSpan(name string) func() {
	if t == nil {
		return func() {}
	}
	start := time.Now()
	return func() { t.AddSpan(name, start, time.Since(start)) }
}

// AddSpan records an already-measured span.
func (t *Trace) AddSpan(name string, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, Span{Name: name, Start: start, Duration: d})
	t.mu.Unlock()
}

// Spans returns a copy of the recorded spans ordered by start time.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]Span(nil), t.spans...)
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

type traceKey struct{}

// NewContext returns ctx carrying t.
func NewContext(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, t)
}

// FromContext returns the trace carried by ctx, or nil.
func FromContext(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}
