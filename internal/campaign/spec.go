package campaign

import "repro/internal/dag"

// Spec is the wire form of a campaign: the body of POST /api/v1/campaigns
// and the spec of every fleet assignment. Every dimension is optional —
// absent fields keep the paper-sized defaults of DefaultConfig. Shard
// ("k/n") restricts the spec to one partition of the cell enumeration; only
// the fleet sets it, on the assignment of each leased shard.
type Spec struct {
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
func (s Spec) Resolve() (Config, Shard, error) {
	cfg := DefaultConfig()
	if len(s.Algos) > 0 {
		cfg.Algos = s.Algos
	}
	if len(s.Shapes) > 0 {
		cfg.Shapes = nil
		for _, name := range s.Shapes {
			shape, err := dag.ParseShape(name)
			if err != nil {
				return Config{}, Shard{}, err
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
		return Config{}, Shard{}, err
	}
	shard, err := ParseShard(s.Shard)
	if err != nil {
		return Config{}, Shard{}, err
	}
	return cfg, shard, nil
}
