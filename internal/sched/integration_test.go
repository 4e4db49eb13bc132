package sched_test

import (
	"math/rand"
	"testing"

	"repro/internal/dag"
	"repro/internal/platform"
	"repro/internal/sched"
	_ "repro/internal/sched/all"
	"repro/internal/sim"
)

// builtins are the algorithm families registered by sched/all.
var builtins = []string{"cpa", "mcpa", "mcpa2", "cra_work", "cra_width", "cra_equal", "heft"}

func TestAllBuiltinsRegistered(t *testing.T) {
	for _, name := range builtins {
		if _, err := sched.Lookup(name); err != nil {
			t.Errorf("builtin %q not registered: %v", name, err)
		}
	}
}

// TestUnifiedResultRoundTrip runs every builtin on the same DAG and checks
// that the unified result is internally valid, converts to a valid
// core.Schedule, and replays on the simulator with every task present.
func TestUnifiedResultRoundTrip(t *testing.T) {
	g := dag.Generate(dag.ShapeRandom, dag.DefaultGenOptions(30), rand.New(rand.NewSource(11)))
	p := platform.Homogeneous(16, 1e9)
	for _, name := range builtins {
		s, err := sched.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Schedule(g, p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Algorithm != name {
			t.Errorf("%s: result labeled %q", name, res.Algorithm)
		}
		if res.Makespan <= 0 {
			t.Errorf("%s: makespan %g", name, res.Makespan)
		}
		if err := res.Validate(); err != nil {
			t.Errorf("%s: invalid plan: %v", name, err)
		}
		trace, err := res.Trace()
		if err != nil {
			t.Fatalf("%s: trace: %v", name, err)
		}
		if err := trace.Validate(); err != nil {
			t.Errorf("%s: trace invalid: %v", name, err)
		}
		if len(trace.Tasks) != g.Len() {
			t.Errorf("%s: trace has %d tasks, want %d", name, len(trace.Tasks), g.Len())
		}
		if got := trace.MetaValue("algorithm"); got != name {
			t.Errorf("%s: trace algorithm meta = %q", name, got)
		}
		wr, err := res.Execute(sim.ExecOptions{})
		if err != nil {
			t.Fatalf("%s: execute: %v", name, err)
		}
		if len(wr.Finish) != g.Len() {
			t.Errorf("%s: simulation completed %d of %d tasks", name, len(wr.Finish), g.Len())
		}
		if wr.Makespan <= 0 {
			t.Errorf("%s: simulated makespan %g", name, wr.Makespan)
		}
	}
}

// TestSchedulersOnHeterogeneousPlatform checks that heft plans a valid
// schedule on the Figure 7 platform through the registry and that cpa
// refuses it.
func TestSchedulersOnHeterogeneousPlatform(t *testing.T) {
	g := dag.Montage(6)
	p := platform.Figure7(platform.Figure7RealisticLatency)
	s, err := sched.Lookup("heft")
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Schedule(g, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
	// CPA refuses multi-cluster platforms through the registry too.
	c, err := sched.Lookup("cpa")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Schedule(g, p); err == nil {
		t.Fatal("cpa accepted a multi-cluster platform via the registry")
	}
}
