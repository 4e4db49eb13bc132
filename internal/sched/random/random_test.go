package random

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/dag"
	"repro/internal/platform"
	"repro/internal/sched"
)

func testGraph(t *testing.T) *dag.Graph {
	t.Helper()
	return dag.Generate(dag.ShapeRandom, dag.DefaultGenOptions(25), rand.New(rand.NewSource(42)))
}

func TestRegistered(t *testing.T) {
	s, err := sched.Lookup("random")
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "random" {
		t.Fatalf("name = %q", s.Name())
	}
}

func TestScheduleIsValid(t *testing.T) {
	g := testGraph(t)
	p := platform.Homogeneous(8, 1e9)
	res, err := New(3).Schedule(g, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 {
		t.Fatalf("makespan = %g", res.Makespan)
	}
	if res.MetaValue("seed") != "3" {
		t.Fatalf("seed meta = %q", res.MetaValue("seed"))
	}
	// Every task is sequential: exactly one host.
	for i, a := range res.Assignments {
		if len(a.Hosts) != 1 {
			t.Fatalf("node %d on %d hosts", i, len(a.Hosts))
		}
	}
}

func TestDeterministicPerSeed(t *testing.T) {
	g := testGraph(t)
	p := platform.Homogeneous(8, 1e9)
	r1, err := New(1).Schedule(g, p)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := New(1).Schedule(g, p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1.Assignments, r2.Assignments) {
		t.Fatal("same seed produced different plans")
	}
	r3, err := New(99).Schedule(g, p)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(r1.Assignments, r3.Assignments) {
		t.Fatal("different seeds produced identical plans (suspicious for 25 tasks on 8 hosts)")
	}
}

func TestRespectsPrecedence(t *testing.T) {
	// A chain must come out strictly ordered even with random placement.
	g := dag.Generate(dag.ShapeSerial, dag.DefaultGenOptions(10), rand.New(rand.NewSource(1)))
	p := platform.Homogeneous(4, 1e9)
	res, err := New(7).Schedule(g, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range g.Edges() {
		if res.Assignments[e.To.ID].Start < res.Assignments[e.From.ID].Finish {
			t.Fatalf("edge %d->%d violated", e.From.ID, e.To.ID)
		}
	}
}
