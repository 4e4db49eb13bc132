package api

import (
	"io"
	"net/http"
	"net/http/pprof"
	"strings"

	"repro/internal/fleet"
	"repro/internal/obs"
)

// metricsPath is exempt from rate limiting so a scraper can never be starved
// by the very traffic spike it exists to diagnose.
const metricsPath = "/api/v1/metrics"

// Metrics returns the server's registry so embedding binaries (jedserve,
// the view server) can add their own series.
func (s *Server) Metrics() *obs.Registry { return s.metrics }

// SetAccessLog enables one-line JSON access logging to w (jedserve
// -access-log). Call before serving.
func (s *Server) SetAccessLog(w io.Writer) { s.accessLog = w }

// EnablePprof mounts net/http/pprof under /debug/pprof/ (jedserve -pprof).
// Off by default: the profiling surface exposes heap contents and must be
// opted into. Call before serving.
func (s *Server) EnablePprof() { s.pprof = true }

// routeLabel normalizes a request path to a bounded set of route labels:
// resource IDs collapse to {id} so metric cardinality tracks the API
// surface, not the session population. It works on the raw path (not mux
// patterns) because rate-limited requests are rejected before routing and
// still need a label.
func routeLabel(r *http.Request) string {
	p := r.URL.Path
	if p == "/" {
		return "/"
	}
	if strings.HasPrefix(p, "/debug/pprof/") {
		return "/debug/pprof/"
	}
	if !strings.HasPrefix(p, "/api/v1/") {
		return "other"
	}
	seg := strings.Split(strings.TrimPrefix(p, "/api/v1/"), "/")
	switch seg[0] {
	case "schedulers", "meta", "events", "metrics":
		if len(seg) == 1 {
			return "/api/v1/" + seg[0]
		}
	case "sessions", "jobs", "campaigns", "workers":
		switch len(seg) {
		case 1:
			return "/api/v1/" + seg[0]
		case 2:
			return "/api/v1/" + seg[0] + "/{id}"
		case 3:
			sub := seg[2]
			valid := map[string]map[string]bool{
				"sessions":  {"render": true, "export": true, "stats": true, "tasks": true, "meta": true},
				"jobs":      {"result": true},
				"campaigns": {"result": true},
				"workers":   {"heartbeat": true, "lease": true, "complete": true, "drain": true},
			}
			if valid[seg[0]][sub] {
				return "/api/v1/" + seg[0] + "/{id}/" + sub
			}
		}
	}
	return "other"
}

// registerMetrics surfaces the subsystem counters that predate the registry
// as callback metrics, so one Snapshot() reads everything through each
// subsystem's own synchronization in a single pass.
func (s *Server) registerMetrics() {
	m := s.metrics

	s.mLongPolls = m.Counter("jed_long_polls_total",
		"?wait= long-polls served (the polls SSE replaces).")
	s.mLodRenders = m.Counter("jed_render_lod_renders_total",
		"Renders that ran with level-of-detail aggregation enabled.")
	s.mLodTasks = m.Counter("jed_render_lod_tasks_aggregated_total",
		"Tasks folded into LOD density bands instead of drawn individually.")

	m.GaugeFunc("jed_sessions", "Sessions resident in the store.",
		func() float64 { return float64(s.store.Len()) })

	// Render cache.
	cache := func(f func(renderCacheStats) float64) func() float64 {
		return func() float64 { return f(s.cache.Stats()) }
	}
	m.CounterFunc("jed_render_cache_hits_total", "Render-cache hits.",
		cache(func(st renderCacheStats) float64 { return float64(st.Hits) }))
	m.CounterFunc("jed_render_cache_misses_total", "Render-cache misses.",
		cache(func(st renderCacheStats) float64 { return float64(st.Misses) }))
	m.CounterFunc("jed_render_cache_evictions_total", "Render-cache size evictions.",
		cache(func(st renderCacheStats) float64 { return float64(st.Evictions) }))
	m.GaugeFunc("jed_render_cache_bytes", "Render-cache resident body bytes.",
		cache(func(st renderCacheStats) float64 { return float64(st.Bytes) }))
	m.GaugeFunc("jed_render_cache_entries", "Render-cache resident entries.",
		cache(func(st renderCacheStats) float64 { return float64(st.Entries) }))

	// Rate limiter (nil-safe: Stats on a nil limiter returns zeros).
	m.CounterFunc("jed_rate_limited_total", "Requests rejected with 429.",
		func() float64 { return float64(s.limiter.Stats().Limited) })
	m.CounterFunc("jed_rate_allowed_total", "Requests admitted by the rate limiter.",
		func() float64 { return float64(s.limiter.Stats().Allowed) })

	// Events bus.
	m.CounterFunc("jed_events_published_total", "Events published on the bus.",
		func() float64 { return float64(s.bus.Stats().Published) })
	m.CounterFunc("jed_events_dropped_total",
		"Events dropped from slow subscribers' rings.",
		func() float64 { return float64(s.bus.Stats().Dropped) })
	m.GaugeFunc("jed_events_subscribers", "Live bus subscribers.",
		func() float64 { return float64(s.bus.Stats().Subscribers) })

	// Campaign table.
	m.CounterFunc("jed_jobs_evicted_total",
		"Terminal campaigns dropped from the campaign table by its retention cap.",
		func() float64 { return float64(s.campaigns.evictions.Load()) })
	m.GaugeFunc("jed_jobs_queue_depth", "Campaigns in the campaign table waiting for a run slot.",
		func() float64 { return float64(s.campaigns.pending()) })
}

// registerFleetMetrics exposes a fleet manager's counters on r. The
// registration itself lives in the fleet package so jedcoord's embedded
// fleet endpoint shares it.
func registerFleetMetrics(r *obs.Registry, m *fleet.Manager) {
	fleet.RegisterMetrics(r, m)
}

// registerPersistMetrics runs when EnablePersistence wires a store.
func (s *Server) registerPersistMetrics() {
	m := s.metrics
	m.CounterFunc("jed_persist_recovered_sessions_total",
		"Sessions recovered from the durable store at startup.",
		func() float64 { return float64(s.store.RecoveredSessions()) })
	m.CounterFunc("jed_persist_hydration_failures_total",
		"Recovered sessions whose recipe failed to replay.",
		func() float64 { return float64(s.store.HydrationFailures()) })
	m.CounterFunc("jed_persist_session_errors_total",
		"Session persistence write errors.",
		func() float64 { return float64(s.store.PersistErrors()) })
	m.CounterFunc("jed_persist_job_errors_total",
		"Campaign table record write errors.",
		func() float64 { return float64(s.campaigns.jerrs.Load()) })
	m.CounterFunc("jed_persist_jobs_resumed_total",
		"Interrupted campaigns resumed at startup.",
		func() float64 { return float64(s.recovered.Resumed) })
}

// metricsHandler serves GET /api/v1/metrics in the Prometheus text format.
func (s *Server) metricsHandler(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.WritePrometheus(w) //nolint:errcheck // client gone mid-scrape
}

// mountPprof registers the pprof surface on mux (EnablePprof only).
func mountPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}
