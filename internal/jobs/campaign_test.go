package jobs

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/campaign"
)

func smallSpec() CampaignSpec {
	return CampaignSpec{
		Algos:        []string{"cpa", "mcpa"},
		Shapes:       []string{"serial", "wide"},
		DAGSizes:     []int{15},
		ClusterSizes: []int{16, 32},
		Replicates:   2,
		Seed:         11,
	}
}

func TestSpecResolveDefaultsAndErrors(t *testing.T) {
	cfg, shard, err := CampaignSpec{}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	def := campaign.DefaultConfig()
	if !reflect.DeepEqual(cfg, def) || !shard.IsZero() {
		t.Fatalf("empty spec = %+v, %v", cfg, shard)
	}
	for name, spec := range map[string]CampaignSpec{
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

func TestCampaignResultTypeChecks(t *testing.T) {
	e := newTestEngine(t, 1)
	j := e.Submit("other", 0, func(context.Context, *Job) (any, error) { return 42, nil })
	waitState(t, j, Done)
	if _, err := CampaignResult(j); err == nil {
		t.Fatal("non-campaign job yielded a campaign result")
	}
}

// submitSpec runs a campaign spec as an engine job the way a fleet worker
// runs a leased shard: resolve the spec, run the cells its shard owns, and
// wrap them in a CampaignOutcome.
func submitSpec(t *testing.T, e *Engine, spec CampaignSpec) *Job {
	t.Helper()
	cfg, shard, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	return e.Submit(KindCampaign, 0, func(ctx context.Context, _ *Job) (any, error) {
		res, err := campaign.RunContext(ctx, cfg, campaign.RunOptions{Shard: shard})
		if err != nil {
			return nil, err
		}
		return &CampaignOutcome{Header: campaign.NewHeader(cfg), Result: res}, nil
	})
}

// TestShardedCampaignJobsMerge splits one campaign across two shard jobs
// and checks the merged result equals the unsharded job.
func TestShardedCampaignJobsMerge(t *testing.T) {
	e := newTestEngine(t, 2)
	full := submitSpec(t, e, smallSpec())
	var parts []*campaign.Result
	for _, shard := range []string{"1/2", "2/2"} {
		spec := smallSpec()
		spec.Shard = shard
		j := submitSpec(t, e, spec)
		waitState(t, j, Done)
		out, err := CampaignResult(j)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(out.Result.Cells); got != 2 {
			t.Fatalf("shard %s cells = %d, want 2", shard, got)
		}
		parts = append(parts, out.Result)
	}
	merged, err := campaign.Merge(parts...)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, full, Done)
	fullOut, err := CampaignResult(full)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(merged, fullOut.Result) {
		t.Fatal("merged shard jobs differ from the unsharded job")
	}
	if err := merged.Complete(4); err != nil {
		t.Fatal(err)
	}
}
