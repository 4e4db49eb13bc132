package sched

import (
	"strings"
	"testing"

	"repro/internal/dag"
	"repro/internal/platform"
)

func fake(name string) Scheduler {
	return Func{Algo: name, Run: func(g *dag.Graph, p *platform.Platform) (*Result, error) {
		return NewResult(name, g, p), nil
	}}
}

func TestRegisterLookupList(t *testing.T) {
	Register(fake("test-a"))
	Register(fake("test-b"))
	s, err := Lookup("test-a")
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "test-a" {
		t.Fatalf("lookup returned %q", s.Name())
	}
	names := List()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("List not sorted/unique: %v", names)
		}
	}
	found := 0
	for _, n := range names {
		if n == "test-a" || n == "test-b" {
			found++
		}
	}
	if found != 2 {
		t.Fatalf("registered names missing from List: %v", names)
	}
	all, err := LookupAll([]string{"test-b", "test-a"})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 || all[0].Name() != "test-b" || all[1].Name() != "test-a" {
		t.Fatal("LookupAll order not preserved")
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, err := Lookup("no-such-algorithm"); err == nil {
		t.Fatal("unknown name accepted")
	} else if !strings.Contains(err.Error(), "no-such-algorithm") {
		t.Fatalf("error does not name the offender: %v", err)
	}
	if _, err := LookupAll([]string{"test-a", "nope"}); err == nil {
		t.Fatal("LookupAll accepted an unknown name")
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	Register(fake("test-dup"))
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	Register(fake("test-dup"))
}

func TestEmptyNameRegistrationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty-name registration did not panic")
		}
	}()
	Register(fake(""))
}

func TestResultValidate(t *testing.T) {
	g := dag.New("g")
	a := g.AddNode("a", "computation", 1e9, 0)
	b := g.AddNode("b", "computation", 1e9, 0)
	g.AddEdge(a, b, 0)
	p := platform.Homogeneous(2, 1e9)

	r := NewResult("test", g, p)
	r.Assignments[a.ID] = Assignment{Hosts: []int{0}, Start: 0, Finish: 1}
	r.Assignments[b.ID] = Assignment{Hosts: []int{0}, Start: 1, Finish: 2}
	r.Makespan = 2
	if err := r.Validate(); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}

	// Precedence violation.
	r.Assignments[b.ID].Start, r.Assignments[b.ID].Finish = 0.5, 1.5
	if err := r.Validate(); err == nil {
		t.Fatal("precedence violation accepted")
	}

	// Double booking: two independent tasks overlap on the same host.
	g2 := dag.New("g2")
	x := g2.AddNode("x", "computation", 1e9, 0)
	y := g2.AddNode("y", "computation", 1e9, 0)
	r2 := NewResult("test", g2, p)
	r2.Assignments[x.ID] = Assignment{Hosts: []int{1}, Start: 0, Finish: 2}
	r2.Assignments[y.ID] = Assignment{Hosts: []int{1}, Start: 1, Finish: 3}
	if err := r2.Validate(); err == nil {
		t.Fatal("double-booked host accepted")
	}

	// Negative start.
	r.Assignments[a.ID] = Assignment{Hosts: []int{0}, Start: -1e-3, Finish: 1}
	r.Assignments[b.ID] = Assignment{Hosts: []int{0}, Start: 1, Finish: 2}
	if err := r.Validate(); err == nil {
		t.Fatal("negative start accepted")
	}

	// Unknown host.
	r = NewResult("test", g, p)
	r.Assignments[a.ID] = Assignment{Hosts: []int{7}, Start: 0, Finish: 1}
	r.Assignments[b.ID] = Assignment{Hosts: []int{0}, Start: 1, Finish: 2}
	if err := r.Validate(); err == nil {
		t.Fatal("out-of-range host accepted")
	}

	// Missing hosts.
	r = NewResult("test", g, p)
	r.Assignments[b.ID] = Assignment{Hosts: []int{0}, Start: 1, Finish: 2}
	if err := r.Validate(); err == nil {
		t.Fatal("empty host set accepted")
	}
}

func TestUpwardRanksAndBottomLevels(t *testing.T) {
	g := dag.New("g")
	a := g.AddNode("a", "computation", 2, 0)
	b := g.AddNode("b", "computation", 3, 0)
	c := g.AddNode("c", "computation", 1, 0)
	g.AddEdge(a, b, 10)
	g.AddEdge(b, c, 10)
	exec := func(n *dag.Node) float64 { return n.Work }

	bl, err := BottomLevels(g, exec)
	if err != nil {
		t.Fatal(err)
	}
	if bl[c.ID] != 1 || bl[b.ID] != 4 || bl[a.ID] != 6 {
		t.Fatalf("bottom levels = %v", bl)
	}

	ur, err := UpwardRanks(g, exec, func(e *dag.Edge) float64 { return e.Bytes })
	if err != nil {
		t.Fatal(err)
	}
	if ur[c.ID] != 1 || ur[b.ID] != 14 || ur[a.ID] != 26 {
		t.Fatalf("upward ranks = %v", ur)
	}

	// Cyclic graphs are rejected.
	bad := dag.New("bad")
	x := bad.AddNode("x", "t", 1, 0)
	y := bad.AddNode("y", "t", 1, 0)
	bad.AddEdge(x, y, 0)
	bad.AddEdge(y, x, 0)
	if _, err := BottomLevels(bad, exec); err == nil {
		t.Fatal("cycle accepted")
	}
}
