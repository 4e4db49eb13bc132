// Heterogeneous platform example (paper case study V): schedule the
// 50-node Montage workflow with HEFT on the Figure 7 multi-cluster
// platform, once with the flawed backbone description and once with the
// realistic one, reproducing the Figure 8 anomaly and its Figure 9 fix.
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/dag"
	"repro/internal/figures"
	"repro/internal/platform"
	"repro/internal/render"
	"repro/internal/sched/heft"
)

func main() {
	g := dag.Montage(12) // 50 compute nodes
	fmt.Println(g.Stats())

	// Emit the workflow structure (Figure 6 equivalent).
	f, err := os.Create("montage.dot")
	if err != nil {
		log.Fatal(err)
	}
	if err := g.WriteDOT(f); err != nil {
		log.Fatal(err)
	}
	f.Close()
	fmt.Println("wrote montage.dot")

	for _, setting := range []struct {
		name    string
		latency float64
	}{
		{"flawed", platform.Figure7FlawedLatency},
		{"realistic", platform.Figure7RealisticLatency},
	} {
		p := platform.Figure7(setting.latency)
		res, err := heft.Schedule(g, p)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-9s backbone latency %g s: makespan %6.2f s, %2d cross-cluster edges, mBackground on clusters %v\n",
			setting.name, setting.latency, res.Makespan,
			heft.CrossClusterEdges(res), heft.ClustersUsedBy(res, "mBackground"))

		trace, err := heft.Trace(res, heft.TraceOptions{Transfers: true, TransferFloor: 0.05})
		if err != nil {
			log.Fatal(err)
		}
		out := "heft_" + setting.name + ".png"
		err = render.ToFile(out, trace, 1000, 700, render.Options{
			Map: figures.MontageMap(), ShowMeta: true,
			Title: "HEFT Montage(50), " + setting.name + " backbone",
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("wrote", out)
	}
	fmt.Println("\nwith the flawed backbone, related stages scatter across clusters")
	fmt.Println("(the Figure 8 anomaly); the realistic latency consolidates them.")
}
