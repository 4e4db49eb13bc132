package all_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dag"
	"repro/internal/platform"
	"repro/internal/sched"
	_ "repro/internal/sched/all"
	"repro/internal/sim"
)

// dataAware names the schedulers whose plans wait for data: a task starts
// no earlier than each predecessor's finish plus the transfer time the
// simulator charges. The others (cpa, mcpa, mcpa2, cra_*) plan without
// redistribution costs by design, and they are also the ones that target a
// single cluster and must refuse Figure 7 with an error.
var dataAware = map[string]bool{"heft": true, "minmin": true, "maxmin": true, "random": true}

// checkDataArrival is the communication-aware precedence check for the
// data-aware schedulers: start >= pred.finish + CommTime(pred host, host,
// bytes), the transfer the simulator charges between first hosts.
func checkDataArrival(r *sched.Result) error {
	for _, e := range r.Graph.Edges() {
		from, to := r.Assignments[e.From.ID], r.Assignments[e.To.ID]
		ct, err := r.Platform.CommTime(from.Hosts[0], to.Hosts[0], e.Bytes)
		if err != nil {
			return err
		}
		if to.Start < from.Finish+ct-1e-9 {
			return fmt.Errorf("%s: %s starts at %g before data from %s arrives at %g",
				r.Algorithm, e.To.Name, to.Start, e.From.Name, from.Finish+ct)
		}
	}
	return nil
}

// TestSchedulerOracle is the one invariant oracle over every registered
// scheduler: on every DAG shape and size, on homogeneous clusters and on
// the Figure 7 platform at both backbone latencies, each plan must pass
// Result.Validate and replay on the simulator with every task finished;
// data-aware plans must also respect transfer times, and single-cluster
// algorithms must refuse Figure 7.
func TestSchedulerOracle(t *testing.T) {
	type instance struct {
		g    *dag.Graph
		p    *platform.Platform
		name string
	}
	var instances []instance
	rng := rand.New(rand.NewSource(29))
	for _, shape := range dag.Shapes() {
		for _, nodes := range []int{6, 14, 30} {
			for _, hosts := range []int{3, 8, 16} {
				for rep := 0; rep < 3; rep++ {
					instances = append(instances, instance{
						g:    dag.Generate(shape, dag.DefaultGenOptions(nodes), rng),
						p:    platform.Homogeneous(hosts, 1e9),
						name: fmt.Sprintf("%s/%d/homogeneous(%d)/%d", shape, nodes, hosts, rep),
					})
				}
			}
			for _, lat := range []float64{platform.Figure7FlawedLatency, platform.Figure7RealisticLatency} {
				instances = append(instances, instance{
					g:    dag.Generate(shape, dag.DefaultGenOptions(nodes), rng),
					p:    platform.Figure7(lat),
					name: fmt.Sprintf("%s/%d/figure7(%g)", shape, nodes, lat),
				})
			}
		}
	}

	passed := 0
	for _, name := range sched.List() {
		s, err := sched.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range instances {
			res, err := s.Schedule(in.g, in.p)
			if len(in.p.Clusters) > 1 && !dataAware[name] {
				if err == nil {
					t.Errorf("%s %s: multi-cluster platform accepted", name, in.name)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s %s: %v", name, in.name, err)
			}
			if res.Algorithm != name {
				t.Fatalf("%s %s: result labeled %q", name, in.name, res.Algorithm)
			}
			if err := res.Validate(); err != nil {
				t.Fatalf("%s %s: %v", name, in.name, err)
			}
			if dataAware[name] {
				if err := checkDataArrival(res); err != nil {
					t.Fatalf("%s %s: %v", name, in.name, err)
				}
			}
			wr, err := res.Execute(sim.ExecOptions{})
			if err != nil {
				t.Fatalf("%s %s: replay: %v", name, in.name, err)
			}
			for _, nd := range in.g.Nodes() {
				if _, ok := wr.Finish[nd.Name]; !ok {
					t.Fatalf("%s %s: task %s never finished in the replay", name, in.name, nd.Name)
				}
			}
			passed++
		}
	}
	t.Logf("%d plans checked", passed)
	if passed < 1000 {
		t.Fatalf("only %d instances checked, want at least 1000", passed)
	}
}
