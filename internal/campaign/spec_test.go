package campaign

import (
	"context"
	"reflect"
	"testing"
)

func smallSpec() Spec {
	return Spec{
		Algos:        []string{"cpa", "mcpa"},
		Shapes:       []string{"serial", "wide"},
		DAGSizes:     []int{15},
		ClusterSizes: []int{16, 32},
		Replicates:   2,
		Seed:         11,
	}
}

func TestSpecResolveDefaultsAndErrors(t *testing.T) {
	cfg, shard, err := Spec{}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	def := DefaultConfig()
	if !reflect.DeepEqual(cfg, def) || !shard.IsZero() {
		t.Fatalf("empty spec = %+v, %v", cfg, shard)
	}
	for name, spec := range map[string]Spec{
		"bad shape":  {Shapes: []string{"blob"}},
		"bad algo":   {Algos: []string{"cpa", "nope"}},
		"one algo":   {Algos: []string{"cpa"}},
		"bad shard":  {Shard: "0/2"},
		"shard junk": {Shard: "a/b"},
	} {
		if _, _, err := spec.Resolve(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// runSpec runs the cells a spec's shard owns, the way a fleet worker runs
// a leased shard.
func runSpec(t *testing.T, spec Spec) *Result {
	t.Helper()
	cfg, shard, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunContext(context.Background(), cfg, RunOptions{Shard: shard})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestShardedSpecsMerge splits one campaign spec into two shard specs and
// checks the merged result equals the unsharded run.
func TestShardedSpecsMerge(t *testing.T) {
	var parts []*Result
	for _, shard := range []string{"1/2", "2/2"} {
		spec := smallSpec()
		spec.Shard = shard
		part := runSpec(t, spec)
		if got := len(part.Cells); got != 2 {
			t.Fatalf("shard %s cells = %d, want 2", shard, got)
		}
		parts = append(parts, part)
	}
	merged, err := Merge(parts...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(merged, runSpec(t, smallSpec())) {
		t.Fatal("merged shard specs differ from the unsharded run")
	}
	if err := merged.Complete(4); err != nil {
		t.Fatal(err)
	}
}
