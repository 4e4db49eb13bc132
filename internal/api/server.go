package api

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"html"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/apierr"
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/fleet"
	"repro/internal/jedxml"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/render"
	"repro/internal/sched"
)

// maxUploadBytes bounds the size of an uploaded schedule document.
const maxUploadBytes = 64 << 20

// defaultRenderCacheBytes bounds the render-result cache unless overridden
// with SetRenderCacheBytes (jedserve -render-cache-mb).
const defaultRenderCacheBytes = 64 << 20

// Server serves the versioned REST API over a session store, plus the
// asynchronous campaign surface.
type Server struct {
	store         *Store
	campaigns     *campaignTable // every campaign, whichever alias submitted it
	cache         *renderCache
	renderWorkers int  // render.Options.Workers for every rasterization; 0 = GOMAXPROCS
	lodDefault    bool // render.Options.LOD when the request has no lod= param
	limiter       *rateLimiter
	fleet         *fleet.Manager // remote worker fleet (SetFleet); serves /api/v1/workers
	fleetMin      int            // fleet campaigns wait for this many workers
	local         *fleet.Manager // the in-process worker's fleet, used until SetFleet
	stopLocal     func()         // stops the in-process worker; idempotent
	bus           *events.Bus    // the broadcast bus behind GET /api/v1/events
	heartbeat     time.Duration  // SSE heartbeat-comment interval

	// Observability (see obs.go). The registry is always present; access
	// logging and pprof are opt-in.
	metrics     *obs.Registry
	mLongPolls  *obs.Counter // ?wait= long-polls served (the polls SSE replaces)
	mLodRenders *obs.Counter
	mLodTasks   *obs.Counter
	accessLog   io.Writer
	pprof       bool

	// Durable state (nil/zero without EnablePersistence).
	persist   persist.Store
	recovered RecoverStats
}

// NewServer wraps a store, sets up the campaign table, and starts the
// in-process worker its campaigns dispatch to until SetFleet mounts remote
// ones; one local worker suffices because each shard already spreads its
// cells over GOMAXPROCS. The render cache subscribes to the store's drop
// notifications so replaced, deleted, evicted, and expired sessions lose
// their memoized bodies immediately.
func NewServer(store *Store) *Server {
	local := fleet.NewManager(fleet.Config{})
	ctx, cancel := context.WithCancel(context.Background())
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		local.RunLocal(ctx, "local", nil)
	}()
	s := &Server{
		store: store, campaigns: newCampaignTable(),
		local:     local,
		stopLocal: func() { cancel(); <-stopped },
		cache:     newRenderCache(defaultRenderCacheBytes),
		bus:       events.NewBus(0),
		heartbeat: defaultEventHeartbeat,
		metrics:   obs.NewRegistry(),
	}
	s.registerMetrics()
	store.OnDrop(s.cache.InvalidateSession)
	// Producer wiring: every session change, and (via the campaign table,
	// newCampaign and SetFleet) every campaign transition, shard and fleet
	// event lands on the bus.
	store.OnEvent(func(kind, id string) {
		s.bus.Publish(events.TopicSession, kind, id, nil)
	})
	return s
}

// Bus returns the event bus (exposed for tests and embedding servers).
func (s *Server) Bus() *events.Bus { return s.bus }

// Store returns the underlying session store.
func (s *Server) Store() *Store { return s.store }

// SetRenderWorkers bounds the goroutines each rasterization may use (0 =
// GOMAXPROCS, 1 = serial). Call before serving; it is not synchronized with
// in-flight requests.
func (s *Server) SetRenderWorkers(n int) { s.renderWorkers = n }

// SetLOD sets the server-wide default for level-of-detail rendering; a
// request's explicit lod= query parameter always wins. Call before serving;
// it is not synchronized with in-flight requests.
func (s *Server) SetLOD(on bool) { s.lodDefault = on }

// SetRenderCacheBytes rebounds the render-result cache (0 disables body
// storage; concurrent identical renders still collapse into one flight).
func (s *Server) SetRenderCacheBytes(n int64) { s.cache.SetMaxBytes(n) }

// SetRateLimit enables per-client-IP rate limiting on /api/v1/: each client
// accrues rate requests per second up to burst (burst <= 0 means 2×rate).
// rate <= 0 disables the limiter. Call before serving; it is not
// synchronized with in-flight requests.
func (s *Server) SetRateLimit(rate float64, burst int) {
	s.limiter = newRateLimiter(rate, burst)
}

// SetFleet replaces the in-process worker with an elastic fleet of remote
// ones: the manager's worker protocol is served under /api/v1/workers and
// every campaign dispatches through its pull queue. minWorkers is how many
// joined workers a campaign waits for before queueing shards (0 means 1).
// Call before EnablePersistence, whose resumed campaigns dispatch to the
// fleet set at that point, and before serving.
func (s *Server) SetFleet(m *fleet.Manager, minWorkers int) {
	s.stopLocal()
	s.fleet = m
	s.fleetMin = minWorkers
	registerFleetMetrics(s.metrics, m)
	m.SetOnEvent(func(e fleet.Event) {
		s.bus.Publish(events.TopicFleet, e.Type, e.Worker, e)
	})
}

// Fleet returns the mounted fleet manager (nil without SetFleet).
func (s *Server) Fleet() *fleet.Manager { return s.fleet }

// campaignFleet is where campaigns dispatch: the remote fleet once
// SetFleet mounted one, the in-process worker's otherwise.
func (s *Server) campaignFleet() *fleet.Manager {
	if s.fleet != nil {
		return s.fleet
	}
	return s.local
}

// EnablePersistence journals the campaign table into the store and
// replays the records of the previous process: terminal campaigns come
// back with their results intact, and interrupted ones run again under
// their own IDs, resuming from the run journal each campaign keeps under
// that ID (runNS) — the store's only cell journal. The run journals of
// campaigns that will not run again are dropped. Call once, after
// SetFleet, before serving and before any campaign is submitted.
//
// A state directory written by an older server also holds a second
// engine's records ("cjobs", IDs "c1", "c2", ...) and a per-cell journal
// of running jobs ("jobs-cells"). The former are folded into "jobs" under
// their own IDs; the latter is dropped, so a campaign interrupted under
// the old layout resumes with its cells recomputed — to the same result,
// since cells depend only on (config, index).
func (s *Server) EnablePersistence(ps persist.Store) error {
	s.persist = ps
	if err := s.adoptLegacy("cjobs"); err != nil {
		return err
	}
	if err := ps.DeletePrefix("jobs-cells", ""); err != nil {
		return err
	}
	var err error
	if s.recovered, err = s.recoverCampaigns(); err != nil {
		return err
	}
	if err := s.dropRunJournals(); err != nil {
		return err
	}
	s.registerPersistMetrics()
	return nil
}

// RecoveredJobs reports what EnablePersistence replayed.
func (s *Server) RecoveredJobs() RecoverStats { return s.recovered }

// RenderCacheStats exposes the cache counters (for tests; clients read them
// from GET /api/v1/meta).
func (s *Server) RenderCacheStats() renderCacheStats { return s.cache.Stats() }

// Handler returns the API routes. The legacy viewer mounts this under
// /api/v1/ next to its own pages; jedserve serves it directly, in which
// case / is a minimal HTML session index.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /{$}", s.index)
	mux.HandleFunc("GET /api/v1/schedulers", s.schedulers)
	mux.HandleFunc("GET /api/v1/meta", s.serverMeta)
	mux.HandleFunc("GET "+metricsPath, s.metricsHandler)
	mux.HandleFunc("GET /api/v1/events", s.events)
	mux.HandleFunc("POST /api/v1/sessions", s.createSession)
	mux.HandleFunc("GET /api/v1/sessions", s.listSessions)
	mux.HandleFunc("GET /api/v1/sessions/{id}", s.getSession)
	mux.HandleFunc("DELETE /api/v1/sessions/{id}", s.deleteSession)
	mux.HandleFunc("GET /api/v1/sessions/{id}/render", s.render)
	mux.HandleFunc("GET /api/v1/sessions/{id}/export", s.export)
	mux.HandleFunc("GET /api/v1/sessions/{id}/stats", s.stats)
	mux.HandleFunc("GET /api/v1/sessions/{id}/tasks", s.tasks)
	mux.HandleFunc("GET /api/v1/sessions/{id}/meta", s.meta)
	for _, base := range []string{"/api/v1/campaigns", "/api/v1/jobs"} {
		mux.HandleFunc("POST "+base, s.createCampaign)
		mux.HandleFunc("GET "+base, s.listCampaigns)
		mux.HandleFunc("GET "+base+"/{id}", s.getCampaign)
		mux.HandleFunc("DELETE "+base+"/{id}", s.cancelCampaign)
		mux.HandleFunc("GET "+base+"/{id}/result", s.campaignResult)
	}
	if s.fleet != nil {
		// The worker protocol: join, heartbeat, lease, complete, drain,
		// leave. The fleet handler matches full /api/v1/workers paths, so it
		// mounts without a prefix strip.
		fh := fleet.Handler(s.fleet)
		mux.Handle("/api/v1/workers", fh)
		mux.Handle("/api/v1/workers/", fh)
	}
	if s.pprof {
		mountPprof(mux)
	}
	// The obs middleware wraps outside the rate limiter so rejected (429)
	// requests still land in the request metrics and the access log.
	return obs.Middleware(s.limiter.middleware(mux), obs.MiddlewareOptions{
		Registry:   s.metrics,
		RouteLabel: routeLabel,
		AccessLog:  s.accessLog,
	})
}

// ListenAndServe runs the API server on addr.
func (s *Server) ListenAndServe(addr string) error {
	return http.ListenAndServe(addr, s.Handler())
}

// JSON envelope helpers -----------------------------------------------------

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // headers already sent
}

// writeError answers with the structured error envelope
// {"error": {"code", "message"}} — every error of the API surface goes
// through here, so the envelope shape and the machine-readable codes cannot
// drift between handlers.
func writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	apierr.Write(w, status, code, format, args...)
}

// sessionInfo is the JSON description of one session.
type sessionInfo struct {
	ID       string  `json:"id"`
	Name     string  `json:"name,omitempty"`
	Source   string  `json:"source"`
	Clusters int     `json:"clusters"`
	Hosts    int     `json:"hosts"`
	Tasks    int     `json:"tasks"`
	Makespan float64 `json:"makespan"`
}

func infoOf(sess *Session) sessionInfo {
	// The cached summary, not the schedule: listing sessions must not
	// hydrate recovered sessions.
	sum := sess.Summary()
	return sessionInfo{
		ID:       sess.ID,
		Name:     sess.Name,
		Source:   sess.Source,
		Clusters: sum.Clusters,
		Hosts:    sum.Hosts,
		Tasks:    sum.Tasks,
		Makespan: sum.Makespan,
	}
}

func (s *Server) session(w http.ResponseWriter, r *http.Request) (*Session, bool) {
	id := r.PathValue("id")
	sess, ok := s.store.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "session_not_found", "no session %q", id)
		return nil, false
	}
	return sess, true
}

// Session collection --------------------------------------------------------

func (s *Server) schedulers(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]string{"schedulers": sched.List()})
}

func (s *Server) listSessions(w http.ResponseWriter, r *http.Request) {
	pg, ok := parsePage(w, r)
	if !ok {
		return
	}
	sessions := s.store.List() // stable: sorted by ID
	total := len(sessions)
	sessions = pageSlice(pg, sessions)
	infos := make([]sessionInfo, len(sessions))
	for i, sess := range sessions {
		infos[i] = infoOf(sess)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"sessions": infos, "total": total,
		"limit": pg.limit, "offset": pg.offset,
	})
}

// createSession accepts three body kinds, chosen by Content-Type (a
// ?format= query parameter overrides): application/json runs a registered
// scheduler server-side (CreateRequest), text/csv and everything else go
// through the pluggable parser registry as "csv" and "jedule" documents.
func (s *Server) createSession(w http.ResponseWriter, r *http.Request) {
	raw, err := readUpload(w, r)
	if err != nil {
		status, code := http.StatusBadRequest, "bad_request"
		if _, ok := err.(*http.MaxBytesError); ok {
			status, code = http.StatusRequestEntityTooLarge, "payload_too_large"
		}
		writeError(w, status, code, "reading body: %v", err)
		return
	}

	kind := r.URL.Query().Get("format")
	if kind == "" {
		ct := r.Header.Get("Content-Type")
		switch {
		case strings.HasPrefix(ct, "application/json"):
			kind = "generate"
		case strings.HasPrefix(ct, "text/csv"):
			kind = "csv"
		default:
			kind = "jedule"
		}
	}

	name := r.URL.Query().Get("name")
	// With persistence on, the session keeps the body verbatim so its
	// recipe replays the exact client input after a restart: the raw JSON
	// re-runs the deterministic generator, the raw document re-parses.
	durable := s.store.PersistEnabled()
	var (
		schedule *core.Schedule
		source   string
		recipe   *Recipe
	)
	switch kind {
	case "generate", "json":
		var req CreateRequest
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, "bad_request", "bad create request: %v", err)
			return
		}
		schedule, err = req.Build()
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad_request", "%v", err)
			return
		}
		if name == "" {
			name = req.Name
		}
		if name == "" {
			name = req.Algo
		}
		source = "generated"
		if durable {
			recipe = &Recipe{Kind: "generate", Request: raw}
		}
	default:
		schedule, err = jedxml.ReadFormat(kind, bytes.NewReader(raw))
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad_document", "%v", err)
			return
		}
		source = "upload"
		if durable {
			recipe = &Recipe{Kind: "doc", Format: kind, Doc: raw}
		}
	}

	sess := s.store.AddRecipe(name, source, schedule, recipe)
	w.Header().Set("Location", "/api/v1/sessions/"+sess.ID)
	writeJSON(w, http.StatusCreated, infoOf(sess))
}

func (s *Server) getSession(w http.ResponseWriter, r *http.Request) {
	if sess, ok := s.session(w, r); ok {
		writeJSON(w, http.StatusOK, infoOf(sess))
	}
}

func (s *Server) deleteSession(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.store.Delete(id) {
		writeError(w, http.StatusNotFound, "session_not_found", "no session %q", id)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// readUpload reads a request body of at most maxUploadBytes, whatever its
// kind. A body declared longer is refused unread; a declared length sizes
// the buffer, so a large upload is copied once.
func readUpload(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	if r.ContentLength > maxUploadBytes {
		return nil, &http.MaxBytesError{Limit: maxUploadBytes}
	}
	body := http.MaxBytesReader(w, r.Body, maxUploadBytes)
	defer body.Close()
	var buf bytes.Buffer
	if r.ContentLength > 0 {
		buf.Grow(int(r.ContentLength) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(body)
	return buf.Bytes(), err
}

// Stateless read surface ----------------------------------------------------

// render streams the session's schedule as an image; every aspect of the
// view (format, size, window, clusters, mode, grayscale, ...) comes from
// query parameters, so concurrent readers never interfere.
func (s *Server) render(w http.ResponseWriter, r *http.Request) {
	s.encodeImage(w, r, false)
}

// export is render with an attachment disposition, plus the document
// formats "jedule" (XML) for a lossless round trip of the session.
func (s *Server) export(w http.ResponseWriter, r *http.Request) {
	format := imageFormat(r)
	if format == "jedule" || format == "xml" {
		sess, ok := s.session(w, r)
		if !ok {
			return
		}
		if handleConditional(w, r, etagFor(sess, r.URL.Query())) {
			return
		}
		var buf bytes.Buffer
		if err := jedxml.Write(&buf, sess.Schedule()); err != nil {
			writeError(w, http.StatusInternalServerError, "internal", "%v", err)
			return
		}
		w.Header().Set("Content-Type", "application/xml; charset=utf-8")
		w.Header().Set("Content-Disposition", attachment(sess.ID, "jed"))
		buf.WriteTo(w) //nolint:errcheck
		return
	}
	s.encodeImage(w, r, true)
}

func imageFormat(r *http.Request) string {
	if f := r.URL.Query().Get("format"); f != "" {
		return f
	}
	return "png"
}

func attachment(id, ext string) string {
	return fmt.Sprintf(`attachment; filename="%s.%s"`, id, ext)
}

// encodeImage is the one options-driven branch behind render and export:
// negotiate view parameters once, then only the encoder differs by format.
// The 200 body is memoized in the render cache under the same strong ETag
// that anchors the 304 path, and concurrent identical requests collapse
// into a single rasterization.
func (s *Server) encodeImage(w http.ResponseWriter, r *http.Request, download bool) {
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	format := imageFormat(r)
	ct, ok := render.ContentType(format)
	if !ok {
		valid := render.EncodeFormats()
		if download {
			valid = append(valid, "jedule") // export also streams the XML document
		}
		writeError(w, http.StatusBadRequest, "bad_format", "unknown format %q (want %s)",
			format, strings.Join(valid, ", "))
		return
	}
	vp, err := parseViewParams(r.URL.Query())
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_view_params", "%v", err)
		return
	}
	if !vp.LODSet {
		vp.Opts.LOD = s.lodDefault
	}
	// Canonicalize the effective LOD into the hashed query: lod=1, lod=true
	// and an equal server default collapse onto one validator, and a restart
	// with a different -lod default cannot answer 304 for a body it would
	// now render differently.
	q := r.URL.Query()
	q.Set("lod", strconv.FormatBool(vp.Opts.LOD))
	etag := etagFor(sess, q)
	if handleConditional(w, r, etag) {
		return
	}
	// The session validated this schedule revision once; an invalid one
	// is refused here, before the render cache sees the request.
	schedule, index, err := sess.ScheduleWithIndex()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "render_failed", "render: %v", err)
		return
	}
	vp.Opts.Workers = s.renderWorkers
	if !vp.Opts.Composites {
		// The session-cached index matches the schedule as stored; with
		// composites on, Render derives extra tasks and rebuilds anyway.
		vp.Opts.Index = index
	}
	if vp.Opts.LOD {
		vp.Opts.LODReport = func(n int) {
			s.mLodRenders.Inc()
			s.mLodTasks.Add(int64(n))
		}
	}
	// Stage timings belong to the request that actually rasterizes: the
	// closure runs at most once per flight, synchronously in the first
	// caller's goroutine, so the slice needs no locking. Cache hits and
	// collapsed waiters report only the cache disposition.
	type stageTiming struct {
		name string
		d    time.Duration
	}
	var stages []stageTiming
	vp.Opts.StageReport = func(stage string, d time.Duration) {
		stages = append(stages, stageTiming{stage, d})
	}
	body, cachedCT, hit, err := s.cache.Render(etag, sess.ID, func() ([]byte, string, error) {
		var buf bytes.Buffer
		if err := render.Encode(&buf, format, schedule, vp.Width, vp.Height, vp.Opts); err != nil {
			return nil, "", err
		}
		// The cache accounts len(body); an exact-length copy keeps the
		// buffer's spare capacity (up to as much again) out of the heap.
		body := make([]byte, buf.Len())
		copy(body, buf.Bytes())
		return body, ct, nil
	})
	if err != nil {
		writeError(w, http.StatusInternalServerError, "render_failed", "%v", err)
		return
	}
	w.Header().Set("Content-Type", cachedCT)
	if download {
		w.Header().Set("Content-Disposition", attachment(sess.ID, format))
	}
	cacheState := "miss"
	if hit {
		cacheState = "hit"
	}
	w.Header().Set("X-Render-Cache", cacheState)
	timing := make([]string, 0, len(stages)+1)
	for _, st := range stages {
		timing = append(timing, fmt.Sprintf("%s;dur=%.2f", st.name, float64(st.d.Microseconds())/1000))
		s.metrics.Histogram("jed_render_stage_seconds",
			"Render stage wall time in seconds, by stage.",
			obs.DefBuckets(), "stage", st.name).Observe(st.d.Seconds())
	}
	timing = append(timing, "cache;desc="+cacheState)
	w.Header().Set("Server-Timing", strings.Join(timing, ", "))
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body) //nolint:errcheck
}

// serverMeta reports server-level observability: session count, render
// worker bound, session TTL, the render-cache counters, and — with a fleet
// mounted — the fleet counters (workers joined/active/retired, leases
// granted/expired, shards stolen, queue depth). The established top-level
// field names are stable (scripts and CI assert on them); the "metrics"
// block mirrors the full registry for JSON consumers of /api/v1/metrics.
func (s *Server) serverMeta(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.metaSnapshot())
}

// metaSnapshot assembles the meta document in one pass: every subsystem's
// stats are read exactly once, up front, so the legacy blocks and the
// registry-backed counters describe the same instant instead of being
// gathered under different locks at different times as requests land
// between reads.
func (s *Server) metaSnapshot() map[string]any {
	cacheStats := s.cache.Stats()
	limitStats := s.limiter.Stats()
	busStats := s.bus.Stats()
	meta := map[string]any{
		"sessions":             s.store.Len(),
		"render_workers":       s.renderWorkers,
		"session_ttl_seconds":  s.store.TTL().Seconds(),
		"render_cache":         cacheStats,
		"rate_limit":           limitStats,
		"lod_default":          s.lodDefault,
		"lod_renders":          s.mLodRenders.Value(),
		"lod_tasks_aggregated": s.mLodTasks.Value(),
		"jobs_evicted":         s.campaigns.evictions.Load(),
		"events":               busStats,
		"long_polls":           s.mLongPolls.Value(),
		"metrics":              s.metrics.Snapshot(),
	}
	if s.fleet != nil {
		meta["fleet"] = s.fleet.Stats()
	}
	if s.persist != nil {
		meta["persist"] = map[string]any{
			"store":              s.persist.Stats(),
			"recovered_sessions": s.store.RecoveredSessions(),
			"hydration_failures": s.store.HydrationFailures(),
			"session_errors":     s.store.PersistErrors(),
			"job_errors":         s.campaigns.jerrs.Load(),
			"jobs":               s.recovered,
		}
	}
	return meta
}

// statsJSON mirrors core.Stats for the wire.
type statsJSON struct {
	Extent      [2]float64         `json:"extent"`
	Makespan    float64            `json:"makespan"`
	Hosts       int                `json:"hosts"`
	BusyArea    float64            `json:"busy_area"`
	IdleArea    float64            `json:"idle_area"`
	Utilization float64            `json:"utilization"`
	TaskCount   int                `json:"task_count"`
	TypeArea    map[string]float64 `json:"type_area"`
}

func (s *Server) stats(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	schedule := sess.Schedule()
	var st core.Stats
	if raw := r.URL.Query().Get("cluster"); raw != "" {
		id, err := strconv.Atoi(raw)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad_cluster", "bad cluster %q", raw)
			return
		}
		if _, ok := schedule.Cluster(id); !ok {
			writeError(w, http.StatusNotFound, "cluster_not_found", "no cluster %d", id)
			return
		}
		st = schedule.ClusterStats(id)
	} else {
		st = schedule.ComputeStats()
	}
	writeJSON(w, http.StatusOK, statsJSON{
		Extent:      [2]float64{st.Extent.Min, st.Extent.Max},
		Makespan:    st.Makespan,
		Hosts:       st.Hosts,
		BusyArea:    st.BusyArea,
		IdleArea:    st.IdleArea,
		Utilization: st.Utilization,
		TaskCount:   st.TaskCount,
		TypeArea:    st.TypeArea,
	})
}

// taskJSON is the machine-readable task record; it carries the same fields
// as the interactive mode's click popup.
type taskJSON struct {
	ID          string            `json:"id"`
	Type        string            `json:"type"`
	Start       float64           `json:"start"`
	End         float64           `json:"end"`
	Duration    float64           `json:"duration"`
	Allocations map[string][]int  `json:"allocations"` // cluster id -> host list
	Properties  map[string]string `json:"properties,omitempty"`
}

func taskToJSON(t *core.Task) taskJSON {
	tj := taskJSON{
		ID: t.ID, Type: t.Type, Start: t.Start, End: t.End,
		Duration:    t.Duration(),
		Allocations: map[string][]int{},
	}
	for _, a := range t.Allocations {
		tj.Allocations[strconv.Itoa(a.Cluster)] = a.HostList()
	}
	if len(t.Properties) > 0 {
		tj.Properties = map[string]string{}
		for _, p := range t.Properties {
			tj.Properties[p.Name] = p.Value
		}
	}
	return tj
}

// tasks lists the session's tasks; with ?x=&y= it instead hit-tests the
// rendered view at that pixel (the REST form of the click-for-details
// gesture) and returns the task there, or null over the background.
func (s *Server) tasks(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	q := r.URL.Query()
	if q.Get("x") != "" || q.Get("y") != "" {
		x, err0 := strconv.ParseFloat(q.Get("x"), 64)
		y, err1 := strconv.ParseFloat(q.Get("y"), 64)
		if err0 != nil || err1 != nil {
			writeError(w, http.StatusBadRequest, "bad_request", "bad x/y")
			return
		}
		vp, err := parseViewParams(q)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad_view_params", "%v", err)
			return
		}
		schedule, index, err := sess.ScheduleWithIndex()
		if err != nil {
			writeError(w, http.StatusInternalServerError, "render_failed", "render: %v", err)
			return
		}
		if vp.Opts.Composites {
			schedule = schedule.WithComposites()
		} else {
			vp.Opts.Index = index
		}
		l := render.ComputeLayout(schedule, float64(vp.Width), float64(vp.Height), vp.Opts)
		idx, hit := l.HitTest(schedule, x, y)
		if !hit {
			writeJSON(w, http.StatusOK, map[string]any{"task": nil})
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"task": taskToJSON(&schedule.Tasks[idx])})
		return
	}
	schedule := sess.Schedule()
	out := make([]taskJSON, len(schedule.Tasks))
	for i := range schedule.Tasks {
		out[i] = taskToJSON(&schedule.Tasks[i])
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].ID < out[j].ID
	})
	writeJSON(w, http.StatusOK, map[string]any{"tasks": out})
}

// meta returns the schedule-level meta properties and the cluster table.
func (s *Server) meta(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	schedule := sess.Schedule()
	metaMap := map[string]string{}
	for _, p := range schedule.Meta {
		metaMap[p.Name] = p.Value
	}
	type clusterJSON struct {
		ID    int    `json:"id"`
		Name  string `json:"name"`
		Hosts int    `json:"hosts"`
	}
	clusters := make([]clusterJSON, len(schedule.Clusters))
	for i, c := range schedule.Clusters {
		clusters[i] = clusterJSON{ID: c.ID, Name: c.DisplayName(), Hosts: c.Hosts}
	}
	writeJSON(w, http.StatusOK, map[string]any{"meta": metaMap, "clusters": clusters})
}

// index is the minimal HTML landing page of a standalone API server
// (jedserve): one row per session with links into the REST surface.
func (s *Server) index(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, "<!DOCTYPE html>\n<html><head><title>jedule sessions</title></head><body>\n")
	fmt.Fprint(w, "<h1>jedule sessions</h1>\n<p>API at <code>/api/v1/sessions</code></p>\n<ul>\n")
	for _, sess := range s.store.List() {
		in := infoOf(sess)
		label := in.ID
		if in.Name != "" && in.Name != in.ID {
			label += " — " + in.Name
		}
		base := "/api/v1/sessions/" + in.ID
		fmt.Fprintf(w,
			`<li>%s (%d tasks, %d hosts, makespan %g): <a href="%s/render">png</a> <a href="%s/render?format=svg">svg</a> <a href="%s/stats">stats</a> <a href="%s/export?format=jedule">jedule</a></li>`+"\n",
			html.EscapeString(label), in.Tasks, in.Hosts, in.Makespan, base, base, base, base)
	}
	fmt.Fprint(w, "</ul>\n</body></html>\n")
}
