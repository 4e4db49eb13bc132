// Quickstart: build a schedule in code, save it as Jedule XML, and render
// it to PNG and PDF — the minimal end-to-end tour of the library.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/jedxml"
	"repro/internal/render"
)

func main() {
	// A two-cluster platform: an 8-host cluster and a 4-host cluster.
	s := core.New(
		core.Cluster{ID: 0, Name: "cluster-a", Hosts: 8},
		core.Cluster{ID: 1, Name: "cluster-b", Hosts: 4},
	)
	s.SetMeta("algorithm", "quickstart")

	// A multiprocessor computation on all of cluster A.
	s.Add("setup", "computation", 0, 2.5, 0, 8)

	// An inter-cluster transfer: one task, two allocations.
	s.AddTask(core.Task{
		ID: "move", Type: "transfer", Start: 2.5, End: 3.2,
		Allocations: []core.Allocation{
			{Cluster: 0, Hosts: []core.HostRange{{Start: 0, N: 2}}},
			{Cluster: 1, Hosts: []core.HostRange{{Start: 0, N: 2}}},
		},
	})

	// A scattered (non-contiguous) allocation on cluster A, overlapping
	// the tail of the transfer — Jedule will derive a composite task.
	s.AddTask(core.Task{
		ID: "solve", Type: "computation", Start: 3.0, End: 6.0,
		Allocations: []core.Allocation{
			{Cluster: 0, Hosts: []core.HostRange{{Start: 0, N: 3}, {Start: 5, N: 3}}},
		},
	})
	s.Add("post", "io", 3.2, 5.0, 4, 1)

	if err := s.Validate(); err != nil {
		log.Fatal(err)
	}
	st := s.ComputeStats()
	fmt.Printf("schedule: %s\n", s)
	fmt.Printf("makespan %.2f s, utilization %.1f%%, idle %.2f host-seconds\n",
		st.Makespan, 100*st.Utilization, st.IdleArea)

	// Persist as Jedule XML (re-loadable by cmd/jedule and cmd/jedserve -dir).
	if err := jedxml.WriteFile("quickstart.jed", s); err != nil {
		log.Fatal(err)
	}
	fmt.Println("wrote quickstart.jed")

	// Render with composite overlay to both a bitmap and a vector format.
	opt := render.Options{Labels: true, Composites: true, Title: "quickstart", ShowMeta: true}
	for _, out := range []string{"quickstart.png", "quickstart.pdf"} {
		if err := render.ToFile(out, s, 900, 500, opt); err != nil {
			log.Fatal(err)
		}
		fmt.Println("wrote", out)
	}
}
