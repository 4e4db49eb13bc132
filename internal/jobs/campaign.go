package jobs

import (
	"fmt"

	"repro/internal/campaign"
	"repro/internal/dag"
)

// KindCampaign labels campaign jobs.
const KindCampaign = "campaign"

// CampaignSpec is the campaign part of a POST /api/v1/campaigns body: the
// factorial with every dimension optional — absent fields keep the
// paper-sized defaults of campaign.DefaultConfig. Shard ("k/n") restricts
// the spec to one partition of the cell enumeration; only the fleet sets it,
// on the assignment of each leased shard.
type CampaignSpec struct {
	Algos        []string `json:"algos,omitempty"`
	Shapes       []string `json:"shapes,omitempty"`
	DAGSizes     []int    `json:"dag_sizes,omitempty"`
	ClusterSizes []int    `json:"cluster_sizes,omitempty"`
	Replicates   int      `json:"replicates,omitempty"`
	Seed         int64    `json:"seed,omitempty"`
	Workers      int      `json:"workers,omitempty"`
	Shard        string   `json:"shard,omitempty"`
}

// Resolve validates the spec into a runnable config and shard.
func (s CampaignSpec) Resolve() (campaign.Config, campaign.Shard, error) {
	cfg := campaign.DefaultConfig()
	if len(s.Algos) > 0 {
		cfg.Algos = s.Algos
	}
	if len(s.Shapes) > 0 {
		cfg.Shapes = nil
		for _, name := range s.Shapes {
			shape, err := dag.ParseShape(name)
			if err != nil {
				return campaign.Config{}, campaign.Shard{}, err
			}
			cfg.Shapes = append(cfg.Shapes, shape)
		}
	}
	if len(s.DAGSizes) > 0 {
		cfg.DAGSizes = s.DAGSizes
	}
	if len(s.ClusterSizes) > 0 {
		cfg.ClusterSizes = s.ClusterSizes
	}
	if s.Replicates > 0 {
		cfg.Replicates = s.Replicates
	}
	if s.Seed != 0 {
		cfg.Seed = s.Seed
	}
	cfg.Workers = s.Workers
	if err := cfg.Validate(); err != nil {
		return campaign.Config{}, campaign.Shard{}, err
	}
	shard, err := campaign.ParseShard(s.Shard)
	if err != nil {
		return campaign.Config{}, campaign.Shard{}, err
	}
	return cfg, shard, nil
}

// CampaignOutcome is a completed campaign job's payload: the merged result
// plus the campaign identity header it ran under.
type CampaignOutcome struct {
	Header campaign.Header
	Result *campaign.Result
}

// CampaignResult extracts the campaign outcome of a Done campaign job.
func CampaignResult(j *Job) (*CampaignOutcome, error) {
	st := j.Status()
	if st.State != Done {
		return nil, fmt.Errorf("jobs: %s is %s", st.ID, st.State)
	}
	v, _ := j.Result()
	out, ok := v.(*CampaignOutcome)
	if !ok {
		return nil, fmt.Errorf("jobs: %s carries no campaign result", st.ID)
	}
	return out, nil
}
