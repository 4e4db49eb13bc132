// Command jeduleview is the interactive mode of the tool: it serves a
// schedule file over HTTP with the gestures of the original Swing viewer —
// zoom at the cursor, panning, rubber-band zoom, click-for-task-details,
// cluster selection, fast reread of the file, and export to PNG/PDF/SVG.
// The versioned REST API is mounted at /api/v1/ alongside the viewer, with
// the served file registered as session "default".
//
// Usage:
//
//	jeduleview -in schedule.jed [-addr :8080] [-width 1200] [-height 800]
//
// Then open http://localhost:8080/ in a browser. While a scheduling
// algorithm is being developed, rerun the simulation and hit "reread" to
// see the new schedule immediately. To serve many schedules as sessions of
// the REST API, use jedserve -dir.
package main

import (
	"flag"
	"fmt"
	"os"

	_ "repro/internal/sched/all"
	"repro/internal/view"
)

func main() {
	var (
		in            = flag.String("in", "", "Jedule XML schedule file (required)")
		addr          = flag.String("addr", ":8080", "HTTP listen address")
		width         = flag.Int("width", 1200, "view width in pixels")
		height        = flag.Int("height", 800, "view height in pixels")
		renderWorkers = flag.Int("render-workers", 0, "goroutines per rasterization (0 = GOMAXPROCS, 1 = serial)")
		lod           = flag.Bool("lod", false, "level-of-detail rendering: aggregate sub-pixel tasks into density bands (lod= query overrides)")
	)
	flag.Parse()
	if *in == "" {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*in, *addr, *width, *height, *renderWorkers, *lod); err != nil {
		fmt.Fprintln(os.Stderr, "jeduleview:", err)
		os.Exit(1)
	}
}

func run(in, addr string, width, height, renderWorkers int, lod bool) error {
	vp, err := view.Open(in, width, height)
	if err != nil {
		return err
	}
	vp.Workers = renderWorkers
	vp.LOD = lod
	fmt.Printf("jeduleview: serving %s on %s\n", in, addr)
	return view.NewServer(vp).ListenAndServe(addr)
}
