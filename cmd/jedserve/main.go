// Command jedserve serves a directory of schedule files as pre-registered
// sessions of the multi-session REST API: every *.jed, *.xml, and *.csv
// file directly inside -dir becomes one session, named after the file. New
// sessions can still be created over HTTP, by uploading documents or by
// running any registered scheduler server-side.
//
// Usage:
//
//	jedserve -dir schedules/ [-addr :8080] [-max-sessions 0]
//	jedserve -join http://coordinator:9090 [-worker-name myhost]
//
// Endpoints (see the README's "HTTP API" section for the full table):
//
//	GET    /                          HTML session index
//	GET    /api/v1/sessions           list sessions
//	POST   /api/v1/sessions           create (XML/CSV upload or JSON generate)
//	GET    /api/v1/sessions/{id}/render?format=png|svg|pdf&window=&clusters=...
//	GET    /api/v1/sessions/{id}/stats|tasks|meta|export
//	DELETE /api/v1/sessions/{id}
//	POST   /api/v1/campaigns          launch an async campaign (/api/v1/jobs is an alias)
//	GET    /api/v1/campaigns/{id}     poll; DELETE cancels; /result once done
//
// -max-sessions caps the store: when new uploads would exceed the cap, the
// least recently used session is evicted, so a long-lived server survives
// unbounded client traffic. -session-ttl expires sessions idle past the
// given duration. -render-workers bounds the goroutines each rasterization
// may use, and -render-cache-mb sizes the cache of encoded render bodies
// (concurrent identical renders always collapse into one rasterization).
//
// -rate-limit enables per-client-IP throttling of /api/v1/: each client
// accrues that many requests per second up to -rate-burst (default 2× the
// rate); beyond it the server answers 429 with a Retry-After.
//
// Every campaign runs as a coordinator that splits it into shards and
// merges their results. Without -fleet, one in-process worker computes the
// shards. -fleet replaces it with remote workers: they join at
// /api/v1/workers (run `jedserve -join <this-server>` on each machine),
// hold a heartbeat lease, and pull the shards of every campaign from the
// coordinator's queue — capacity grows and shrinks without editing a flag.
// -min-workers gates each campaign until enough workers have joined;
// -heartbeat-interval and -lease-ttl tune the liveness protocol.
//
// -join turns this process into a pure fleet worker: no sessions, no HTTP
// listener — it registers with the coordinator, heartbeats, and computes
// leased shards until stopped. SIGTERM drains gracefully (finish the
// current shard, deregister, exit); a second signal aborts immediately and
// the coordinator requeues the abandoned shard on lease expiry.
//
// Observability: GET /api/v1/metrics serves the Prometheus text exposition
// (request latency histograms, render stage timings, fleet shard counters),
// exempt from -rate-limit so scrapes survive traffic spikes. -access-log
// writes one JSON line per API request (method, route, status, bytes,
// duration, trace ID, render-cache disposition) to stderr. -pprof mounts
// net/http/pprof at /debug/pprof/ — off by default, it exposes heap and
// CPU profiles. Every request carries an X-Jed-Trace ID (adopted from the
// request header or minted) that every campaign shard lease carries to its
// worker.
//
// -state-dir makes the server durable: session descriptors, campaign
// records, finished results, and the merged cells of running campaigns are
// journaled into that directory, and a restarted server recovers them —
// sessions re-list (their schedules re-hydrate lazily on first access),
// terminal campaign results serve byte-identically, and interrupted
// campaigns resume from their journaled cells. Empty (the default) keeps
// the purely in-memory behavior. See the README's "Durable state" section.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/api"
	"repro/internal/fleet"
	"repro/internal/persist"
	_ "repro/internal/sched/all"
)

func main() {
	var (
		dir           = flag.String("dir", "", "directory of schedule files to pre-register (required unless -join)")
		addr          = flag.String("addr", ":8080", "HTTP listen address")
		maxSessions   = flag.Int("max-sessions", 0, "evict least recently used sessions beyond this count (0 = unlimited)")
		sessionTTL    = flag.Duration("session-ttl", 0, "expire sessions idle this long, e.g. 30m (0 = never)")
		renderWorkers = flag.Int("render-workers", 0, "goroutines per rasterization (0 = GOMAXPROCS, 1 = serial)")
		renderCacheMB = flag.Int("render-cache-mb", 64, "render-result cache size in MiB (0 = no body caching)")
		lod           = flag.Bool("lod", false, "default level-of-detail rendering (a request's lod= query parameter overrides)")
		rateLimit     = flag.Float64("rate-limit", 0, "per-client-IP requests per second on /api/v1/ (0 = unlimited)")
		rateBurst     = flag.Int("rate-burst", 0, "per-client burst above -rate-limit (0 = 2x the rate)")
		fleetOn       = flag.Bool("fleet", false, "replace the in-process campaign worker with an elastic fleet of remote workers (they join at /api/v1/workers)")
		minWorkers    = flag.Int("min-workers", 1, "fleet: wait for this many joined workers before a campaign dispatches")
		heartbeat     = flag.Duration("heartbeat-interval", fleet.DefaultHeartbeatInterval, "fleet: advertised heartbeat interval (a worker silent for 3 intervals is retired)")
		leaseTTL      = flag.Duration("lease-ttl", fleet.DefaultLeaseTTL, "fleet: how long one worker may hold a shard before it is requeued for stealing")
		stateDir      = flag.String("state-dir", "", "journal sessions and jobs into this directory and recover them on restart (empty = in-memory only)")
		join          = flag.String("join", "", "run as a fleet worker of the coordinator at this base URL (worker mode; excludes -dir and -fleet)")
		workerName    = flag.String("worker-name", "", "worker mode: name reported to the coordinator (default: hostname)")
		workerPoll    = flag.Duration("worker-poll", 500*time.Millisecond, "worker mode: idle lease-poll pacing")
		pprofOn       = flag.Bool("pprof", false, "mount net/http/pprof at /debug/pprof/ (off by default)")
		accessLog     = flag.Bool("access-log", false, "write one JSON line per API request to stderr")
	)
	flag.Parse()
	if *join != "" {
		if *dir != "" || *fleetOn {
			fmt.Fprintln(os.Stderr, "jedserve: -join (worker mode) is mutually exclusive with -dir and -fleet")
			os.Exit(2)
		}
		if err := runWorker(*join, *workerName, *workerPoll); err != nil {
			fmt.Fprintln(os.Stderr, "jedserve:", err)
			os.Exit(1)
		}
		return
	}
	if *dir == "" {
		flag.Usage()
		os.Exit(2)
	}
	opts := serveOptions{
		dir: *dir, addr: *addr,
		maxSessions: *maxSessions, sessionTTL: *sessionTTL,
		renderWorkers: *renderWorkers, renderCacheMB: *renderCacheMB,
		lod: *lod, rateLimit: *rateLimit, rateBurst: *rateBurst,
		fleet: *fleetOn, minWorkers: *minWorkers,
		heartbeat: *heartbeat, leaseTTL: *leaseTTL,
		stateDir: *stateDir,
		pprof:    *pprofOn, accessLog: *accessLog,
	}
	if err := run(opts); err != nil {
		fmt.Fprintln(os.Stderr, "jedserve:", err)
		os.Exit(1)
	}
}

type serveOptions struct {
	dir, addr                    string
	maxSessions                  int
	sessionTTL                   time.Duration
	renderWorkers, renderCacheMB int
	lod                          bool
	rateLimit                    float64
	rateBurst                    int
	fleet                        bool
	minWorkers                   int
	heartbeat, leaseTTL          time.Duration
	stateDir                     string
	pprof                        bool
	accessLog                    bool
}

func run(o serveOptions) error {
	store := api.NewStore()
	var ps persist.Store
	if o.stateDir != "" {
		var err error
		ps, err = persist.Open(o.stateDir)
		if err != nil {
			return fmt.Errorf("opening state dir: %w", err)
		}
		defer ps.Close()
		store.SetPersist(ps)
	}
	// Register files before recovering: a file present in -dir is the
	// fresher truth, so pre-registered sessions win ID collisions.
	sessions, err := api.RegisterDir(store, o.dir)
	if err != nil {
		return err
	}
	store.SetMaxSessions(o.maxSessions)
	store.SetTTL(o.sessionTTL)
	if ps != nil {
		n, err := store.RecoverSessions()
		if err != nil {
			return fmt.Errorf("recovering sessions: %w", err)
		}
		if n > 0 {
			fmt.Printf("jedserve: recovered %d sessions from %s\n", n, o.stateDir)
		}
	}
	if o.maxSessions > 0 && len(sessions) > o.maxSessions {
		fmt.Fprintf(os.Stderr, "jedserve: warning: %d schedule files but -max-sessions %d; the %d least recently registered were evicted\n",
			len(sessions), o.maxSessions, len(sessions)-o.maxSessions)
	}
	// Print what actually survived the cap, not what was registered.
	for _, sess := range store.List() {
		fmt.Printf("jedserve: session %s <- %s\n", sess.ID, sess.Name)
	}
	srv := api.NewServer(store)
	srv.SetRenderWorkers(o.renderWorkers)
	srv.SetRenderCacheBytes(int64(o.renderCacheMB) << 20)
	srv.SetLOD(o.lod)
	srv.SetRateLimit(o.rateLimit, o.rateBurst)
	// The fleet comes first: campaigns resumed from the state dir dispatch
	// to whichever fleet the server has when they are recovered.
	if o.fleet {
		m := fleet.NewManager(fleet.Config{
			HeartbeatInterval: o.heartbeat,
			LeaseTTL:          o.leaseTTL,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "jedserve: "+format+"\n", args...)
			},
		})
		srv.SetFleet(m, o.minWorkers)
		fmt.Printf("jedserve: elastic fleet enabled (workers join at /api/v1/workers; campaigns wait for %d)\n", o.minWorkers)
	}
	if ps != nil {
		if err := srv.EnablePersistence(ps); err != nil {
			return fmt.Errorf("recovering jobs: %w", err)
		}
		r := srv.RecoveredJobs()
		if n := r.Restored + r.Resumed + r.Interrupted; n > 0 {
			fmt.Printf("jedserve: recovered %d jobs (%d restored, %d resumed, %d interrupted)\n",
				n, r.Restored, r.Resumed, r.Interrupted)
		}
	}
	if o.pprof {
		srv.EnablePprof()
		fmt.Printf("jedserve: pprof mounted at /debug/pprof/\n")
	}
	if o.accessLog {
		srv.SetAccessLog(os.Stderr)
	}
	fmt.Printf("jedserve: serving %d sessions on %s (API at /api/v1/, metrics at /api/v1/metrics)\n", store.Len(), o.addr)
	return srv.ListenAndServe(o.addr)
}

// runWorker is worker mode: join the coordinator, heartbeat, pull and
// compute shards. The first SIGTERM/SIGINT drains (finish the current
// shard, deregister, exit 0); the second aborts the shard immediately.
func runWorker(coordinator, name string, poll time.Duration) error {
	if name == "" {
		name, _ = os.Hostname()
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	drain := make(chan struct{})
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "jedserve: signal received, draining (send again to abort)")
		close(drain)
		<-sig
		fmt.Fprintln(os.Stderr, "jedserve: second signal, aborting")
		cancel()
	}()
	err := fleet.RunWorker(ctx, fleet.WorkerConfig{
		Coordinator: coordinator,
		Name:        name,
		Poll:        poll,
		Drain:       drain,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "jedserve: "+format+"\n", args...)
		},
	})
	if errors.Is(err, context.Canceled) {
		// The second-signal hard stop is a requested exit, not a failure.
		return nil
	}
	return err
}
