// M-task scheduling example (paper case study III): schedule the same
// mixed-parallel DAG with CPA, MCPA, and the MCPA2 poly-algorithm on a
// homogeneous cluster, compare makespans and utilization, and render the
// CPA/MCPA pair side by side as in Figure 4.
package main

import (
	"fmt"
	"log"

	"repro/internal/dag"
	"repro/internal/platform"
	"repro/internal/render"
	"repro/internal/sched/cpa"
	"repro/internal/sim"
)

func main() {
	// The Figure 4 scenario: a precedence layer with one task ten times
	// more expensive than its 13 siblings, on a 16-processor cluster.
	g := dag.ImbalancedLayer(14, 10)
	p := platform.Homogeneous(16, 1e9)
	fmt.Println(g.Stats())

	for _, variant := range []cpa.Variant{cpa.CPA, cpa.MCPA, cpa.MCPA2} {
		res, err := cpa.Schedule(g, p, variant)
		if err != nil {
			log.Fatal(err)
		}
		wr, err := res.Execute(sim.ExecOptions{})
		if err != nil {
			log.Fatal(err)
		}
		st := wr.Schedule.ComputeStats()
		fmt.Printf("%-6s makespan %6.2f s  utilization %5.1f%%  T_CP %s  T_A %s",
			variant, wr.Makespan, 100*st.Utilization, res.MetaValue("tcp"), res.MetaValue("ta"))
		if variant == cpa.MCPA2 {
			fmt.Printf("  (chose %s)", res.MetaValue("chosen"))
		}
		fmt.Println()

		out := fmt.Sprintf("mtask_%s.png", variant)
		err = render.ToFile(out, wr.Schedule, 800, 500, render.Options{
			Labels: true, Title: variant.String(), ShowMeta: true,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("wrote", out)
	}
	fmt.Println("\ncompare mtask_cpa.png and mtask_mcpa.png: the MCPA chart shows")
	fmt.Println("the idle hole the paper describes; MCPA2 recovers CPA's schedule.")
}
