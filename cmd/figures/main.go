// Command figures regenerates every figure of the paper's evaluation into
// an output directory (PNG by default, plus the Figure 6 DOT file), and
// prints the quantitative findings behind each figure — the repository's
// experiment harness in executable form.
//
// Usage:
//
//	figures [-out out] [-fig N] [-format png|pdf|svg]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/colormap"
	"repro/internal/core"
	"repro/internal/figures"
	"repro/internal/jedxml"
	"repro/internal/raster"
	"repro/internal/render"
)

var (
	outDir = flag.String("out", "out", "output directory")
	only   = flag.Int("fig", 0, "regenerate a single figure (0 = all)")
	format = flag.String("format", "png", "image format: png, pdf, svg")
)

func main() {
	flag.Parse()
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fail(err)
	}
	steps := []struct {
		fig int
		run func() error
	}{
		{1, fig1}, {2, fig2}, {3, fig3}, {4, fig4}, {5, fig5},
		{6, fig6}, {8, fig89}, {11, fig11}, {12, fig12}, {13, fig13},
	}
	for _, s := range steps {
		if *only != 0 && *only != s.fig && !(s.fig == 8 && *only == 9) {
			continue
		}
		if err := s.run(); err != nil {
			fail(fmt.Errorf("figure %d: %w", s.fig, err))
		}
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "figures:", err)
	os.Exit(1)
}

func path(name string) string {
	return filepath.Join(*outDir, name+"."+*format)
}

func save(name string, s *core.Schedule, opt render.Options, w, h int) error {
	if err := render.ToFile(path(name), s, w, h, opt); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path(name))
	return nil
}

func fig1() error {
	// Figure 1 is the XML listing itself: emit the document.
	p := filepath.Join(*outDir, "fig01_task.jed")
	if err := jedxml.WriteFile(p, figures.Fig1Schedule()); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", p)
	return nil
}

func fig2() error {
	// Figure 2 is the color map listing: emit the standard map.
	p := filepath.Join(*outDir, "fig02_cmap.xml")
	f, err := os.Create(p)
	if err != nil {
		return err
	}
	if err := colormap.Write(f, colormap.Default()); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", p)
	return nil
}

func fig3() error {
	return save("fig03_composite", figures.Fig3Composite(),
		render.Options{Labels: true, Title: "composite tasks (computation+transfer overlap)"},
		900, 420)
}

func fig4() error {
	r, err := figures.Fig4()
	if err != nil {
		return err
	}
	fmt.Printf("fig4: makespan cpa=%.2f mcpa=%.2f  utilization cpa=%.3f mcpa=%.3f  mcpa2 chose %s\n",
		r.MakespanCPA, r.MakespanMCPA, r.UtilCPA, r.UtilMCPA, r.MCPA2Chose)
	if err := save("fig04_cpa", r.CPA,
		render.Options{Labels: true, Title: "CPA", ShowMeta: true}, 700, 500); err != nil {
		return err
	}
	if err := save("fig04_mcpa", r.MCPA,
		render.Options{Labels: true, Title: "MCPA (load imbalance)", ShowMeta: true}, 700, 500); err != nil {
		return err
	}
	// The paper's actual Figure 4 layout: both schedules side by side.
	c := raster.New(1400, 520)
	render.SideBySide(c, "CPA (left) vs MCPA (right)",
		[]*core.Schedule{r.CPA, r.MCPA},
		[]render.Options{{Labels: true, Legend: true}, {Labels: true, Legend: true}})
	p := filepath.Join(*outDir, "fig04_side_by_side.png")
	if err := c.WriteFile(p); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", p)
	return nil
}

func fig5() error {
	r, err := figures.Fig5()
	if err != nil {
		return err
	}
	fmt.Printf("fig5: makespan=%.2f idle before/after backfilling = %.1f/%.1f  stretches:",
		r.Result.Makespan, r.IdleBefore, r.IdleAfter)
	for _, a := range r.Result.Apps {
		fmt.Printf(" %.2f", a.Stretch)
	}
	fmt.Println()
	am := figures.AppMap(len(r.Result.Apps))
	if err := save("fig05_cra", r.Schedule,
		render.Options{Map: am, Title: "CRA_WORK, 4 applications, 20 processors"}, 900, 520); err != nil {
		return err
	}
	return save("fig05_cra_backfilled", r.Backfilled,
		render.Options{Map: am, Title: "CRA_WORK after conservative backfilling"}, 900, 520)
}

func fig6() error {
	p := filepath.Join(*outDir, "fig06_montage.dot")
	f, err := os.Create(p)
	if err != nil {
		return err
	}
	if err := figures.Fig6DOT(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", p)
	return nil
}

func fig89() error {
	r, err := figures.Fig8And9()
	if err != nil {
		return err
	}
	fmt.Printf("fig8/9: makespan flawed=%.2f realistic=%.2f  cross-cluster edges %d -> %d  mBackground clusters %d -> %d\n",
		r.MakespanFlawed, r.MakespanRealistic,
		r.CrossEdgesFlawed, r.CrossEdgesRealistic,
		r.BackgroundClustersFlawed, r.BackgroundClustersReal)
	mm := figures.MontageMap()
	if err := save("fig08_heft_flawed", r.Flawed,
		render.Options{Map: mm, Title: "HEFT Montage, flawed backbone latency", ShowMeta: true},
		1000, 700); err != nil {
		return err
	}
	return save("fig09_heft_realistic", r.Realistic,
		render.Options{Map: mm, Title: "HEFT Montage, realistic backbone latency", ShowMeta: true},
		1000, 700)
}

func fig11() error {
	r, err := figures.Fig11()
	if err != nil {
		return err
	}
	fmt.Printf("fig11: makespan=%.3f tasks=%d utilization=%.3f low-util windows=%d\n",
		r.Makespan, r.Executed, r.Utilization(), r.LowUtilizationWindows(5, 400))
	return save("fig11_quicksort_random", r.Schedule,
		render.Options{Title: "quicksort, 10M random integers, 32 workers"}, 1100, 700)
}

func fig12() error {
	r, err := figures.Fig12()
	if err != nil {
		return err
	}
	fmt.Printf("fig12: makespan=%.3f tasks=%d one-busy fraction=%.2f\n",
		r.Makespan, r.Executed, r.BusyFractionWithOneWorker(600))
	return save("fig12_quicksort_inverse", r.Schedule,
		render.Options{Title: "quicksort, 200M inversely sorted integers, middle pivot"}, 1100, 700)
}

func fig13() error {
	r, err := figures.Fig13()
	if err != nil {
		return err
	}
	st := r.Schedule.ComputeStats()
	fmt.Printf("fig13: jobs=%d utilization=%.3f\n", len(r.Schedule.Tasks), st.Utilization)
	return save("fig13_thunder", r.Schedule,
		render.Options{Title: "LLNL Thunder day (synthetic), user 6447 highlighted"}, 1200, 800)
}
