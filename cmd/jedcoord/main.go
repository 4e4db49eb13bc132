// Command jedcoord coordinates one campaign across an elastic fleet of
// jedserve workers and prints the merged summary — byte-identical to a
// single-process `campaign` run of the same flags.
//
// jedcoord listens on the -fleet address and workers join it (`jedserve
// -join http://host:port`). Joined workers hold a heartbeat lease and
// *pull* k/n shards from the coordinator's queue, so a fast machine
// naturally takes more of the campaign than a slow one; a worker silent
// for three heartbeat intervals is retired, a shard leased past -lease-ttl
// is requeued for another worker to steal, and workers may join or leave
// mid-campaign. -min-workers gates dispatch until enough workers have
// joined; -max-attempts bounds how often one shard is leased before the
// run fails.
//
// Usage:
//
//	jedcoord -fleet 127.0.0.1:9090 [-min-workers 2] [-shards 8]
//	         [-heartbeat-interval 5s] [-lease-ttl 2m]
//	         [-algos cpa,mcpa] [-replicates 8] [-seed 1] [-threshold 1.2]
//	         [-out merged.jsonl] [-resume] [-max-attempts 3]
//
// -fleet is required. Progress goes to stderr; stdout carries only the
// summary, so it can be compared (or piped) exactly like the campaign
// command's. -out streams every merged cell into a JSONL checkpoint in the
// cmd/campaign format — `campaign -merge merged.jsonl` reads it — and
// -resume continues a torn coordinator run without queueing finished
// shards again. A coordinator on another machine resumes the run from the
// same file on a shared directory. GET /api/v1/meta on the fleet address
// reports the fleet counters.
//
// Observability: every run mints a trace ID (printed on stderr) that rides
// each shard lease, so one coordinator run is attributable in every
// worker's log; -v prints the per-shard span breakdown after the run. GET
// /api/v1/metrics on the fleet address serves the coordinator's registry
// (shard timings, fleet counters, worker-protocol request metrics) in the
// Prometheus text format, and -pprof mounts /debug/pprof/ there.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/cliutil"
	"repro/internal/coord"
	"repro/internal/fleet"
	"repro/internal/obs"
	_ "repro/internal/sched/all"
)

func main() {
	var (
		fleetAddr   = flag.String("fleet", "", "listen address for the elastic worker fleet, e.g. :9090 (required)")
		minWorkers  = flag.Int("min-workers", 1, "wait for this many joined workers before dispatching")
		heartbeat   = flag.Duration("heartbeat-interval", fleet.DefaultHeartbeatInterval, "advertised heartbeat interval (a worker silent for 3 intervals is retired)")
		leaseTTL    = flag.Duration("lease-ttl", fleet.DefaultLeaseTTL, "how long one worker may hold a shard before it is requeued for stealing")
		shards      = flag.Int("shards", 0, "number of k/n shards to queue (0 = 4x -min-workers)")
		algos       = flag.String("algos", "cpa,mcpa", "comma-separated scheduler names to compare")
		replicates  = flag.Int("replicates", 8, "runs per factorial cell")
		seed        = flag.Int64("seed", 1, "campaign seed")
		threshold   = flag.Float64("threshold", 1.2, "corner-case spread threshold")
		out         = flag.String("out", "", "stream merged cells to this JSONL checkpoint file")
		resume      = flag.Bool("resume", false, "skip the shards already complete in -out and append")
		maxAttempts = flag.Int("max-attempts", 3, "leases per shard before the run fails")
		quiet       = flag.Bool("quiet", false, "suppress progress lines on stderr")
		pprofOn     = flag.Bool("pprof", false, "mount /debug/pprof/ on the fleet address (off by default)")
		verbose     = flag.Bool("v", false, "print the per-shard span breakdown on stderr after the run")
	)
	flag.Parse()
	if *fleetAddr == "" {
		fmt.Fprintln(os.Stderr, "jedcoord: -fleet is required (workers join it with `jedserve -join`)")
		flag.Usage()
		os.Exit(2)
	}
	if *resume && *out == "" {
		fail(fmt.Errorf("-resume requires -out"))
	}

	// Every shard lease carries this run's trace ID, so the coordinator's
	// work is attributable in each worker's log, and every completed shard
	// appends a timed span for the -v breakdown.
	reg := obs.NewRegistry()
	trace := obs.NewTrace("")

	cfg := coord.Config{
		Spec: campaign.Spec{
			Algos:      cliutil.SplitList(*algos),
			Replicates: *replicates,
			Seed:       *seed,
		},
		MinWorkers:  *minWorkers,
		Shards:      *shards,
		MaxAttempts: *maxAttempts,
		Metrics:     reg,
		Trace:       trace,
	}
	logf := func(string, ...any) {}
	if !*quiet {
		logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
		cfg.Logf = logf
	}
	var done []campaign.Cell
	var cp *campaign.CheckpointFile
	if *out != "" {
		ccfg, _, err := cfg.Spec.Resolve()
		if err != nil {
			fail(err)
		}
		if cp, err = campaign.OpenCheckpoint(*out, ccfg, *resume); err != nil {
			fail(err)
		}
		defer cp.Close()
		if cp.Prior != nil {
			done = cp.Prior.Cells
			logf("jedcoord: resuming %s: %d cells already done", *out, len(done))
		}
		cfg.OnCell = cp.WriteCell
	}

	// Interrupt cancels the run; the fleet drops its queue, and -out keeps
	// the merged shards for a later -resume.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	m := fleet.NewManager(fleet.Config{
		HeartbeatInterval: *heartbeat,
		LeaseTTL:          *leaseTTL,
		Logf:              cfg.Logf,
	})
	fleet.RegisterMetrics(reg, m)
	srv, err := serveFleet(m, *fleetAddr, reg, *pprofOn)
	if err != nil {
		fail(err)
	}
	defer srv.Close()
	logf("jedcoord: fleet listening on %s (workers join with `jedserve -join http://<this-host>%s`; metrics at /api/v1/metrics)",
		srv.Addr, srv.Addr)
	cfg.Fleet = m
	if *minWorkers > 1 {
		logf("jedcoord: waiting for %d workers to join", *minWorkers)
	}

	c, err := coord.New(cfg)
	if err != nil {
		fail(err)
	}
	logf("jedcoord: trace %s", trace.ID())
	res, err := c.Run(ctx, done)
	if err == nil && cp != nil {
		err = cp.Sync()
	}
	if *verbose {
		for _, sp := range trace.Spans() {
			fmt.Fprintf(os.Stderr, "jedcoord: span %-28s %12v\n", sp.Name, sp.Duration.Round(time.Microsecond))
		}
	}
	st := m.Stats()
	logf("jedcoord: fleet: %d joined, %d retired, %d left; %d leases granted, %d expired, %d shards stolen, %d duplicates discarded",
		st.WorkersJoined, st.WorkersRetired, st.WorkersLeft,
		st.LeasesGranted, st.LeasesExpired, st.ShardsStolen, st.DuplicatesDiscarded)
	if err != nil {
		fail(err)
	}
	if err := res.WriteSummary(os.Stdout, *threshold); err != nil {
		fail(err)
	}
}

// serveFleet binds the fleet address and serves the worker protocol, a
// minimal GET /api/v1/meta with the fleet counters, and the Prometheus
// metrics endpoint, all measured by the obs middleware. It returns once the
// listener is bound, so "fleet listening" is never printed before workers
// could actually join.
func serveFleet(m *fleet.Manager, addr string, reg *obs.Registry, pprofOn bool) (*http.Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("fleet listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	fh := fleet.Handler(m)
	mux.Handle("/api/v1/workers", fh)
	mux.Handle("/api/v1/workers/", fh)
	mux.HandleFunc("GET /api/v1/meta", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(map[string]any{"fleet": m.Stats()}) //nolint:errcheck
	})
	mux.HandleFunc("GET /api/v1/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w) //nolint:errcheck // client gone mid-scrape
	})
	if pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	h := obs.Middleware(mux, obs.MiddlewareOptions{Registry: reg, RouteLabel: fleetRouteLabel})
	srv := &http.Server{Addr: ln.Addr().String(), Handler: h}
	go srv.Serve(ln) //nolint:errcheck // Close on exit surfaces ErrServerClosed
	return srv, nil
}

// fleetRouteLabel bounds the route label space of the coordinator's small
// surface: worker IDs collapse to {id} so cardinality tracks the protocol,
// not the fleet size.
func fleetRouteLabel(r *http.Request) string {
	p := r.URL.Path
	switch p {
	case "/api/v1/workers", "/api/v1/meta", "/api/v1/metrics":
		return p
	}
	if strings.HasPrefix(p, "/debug/pprof/") {
		return "/debug/pprof/"
	}
	if rest, ok := strings.CutPrefix(p, "/api/v1/workers/"); ok {
		i := strings.IndexByte(rest, '/')
		if i < 0 {
			return "/api/v1/workers/{id}"
		}
		switch sub := rest[i+1:]; sub {
		case "heartbeat", "lease", "complete", "drain":
			return "/api/v1/workers/{id}/" + sub
		}
	}
	return "other"
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "jedcoord:", err)
	os.Exit(1)
}
