// Command campaign reruns the paper's case-study-III experiment campaign:
// thousands of scheduler comparisons over DAG shapes, DAG sizes, and
// cluster sizes, printed as a per-cell table plus the corner cases worth
// opening in the viewer — the workflow that surfaced Figure 4.
//
// Usage:
//
//	campaign [-algos cpa,mcpa] [-replicates 8] [-threshold 1.2] [-export dir]
//	         [-shard k/n] [-out results.jsonl] [-resume]
//	campaign -merge a.jsonl,b.jsonl
//
// Any registered scheduler may join the comparison (campaign -list prints
// the names). With -export, the worst corner case of each qualifying cell
// is rerun and written as one Jedule XML file per algorithm, ready for
// jeduleview or jedbook.
//
// -shard k/n runs only the k-th of n partitions of the cell enumeration, so
// several processes (or CI jobs) can split the factorial; -out streams every
// completed cell as a JSONL checkpoint record, -resume skips the cells
// already persisted in -out, and -merge combines shard or checkpoint files
// into the full campaign summary — byte-identical to a single-process run
// of the same seed.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/campaign"
	"repro/internal/cliutil"
	"repro/internal/dag"
	"repro/internal/jedxml"
	"repro/internal/platform"
	"repro/internal/sched"
	_ "repro/internal/sched/all"
	"repro/internal/sim"
)

func main() {
	var (
		algos      = flag.String("algos", "cpa,mcpa", "comma-separated scheduler names to compare")
		list       = flag.Bool("list", false, "print the registered scheduler names and exit")
		replicates = flag.Int("replicates", 8, "runs per factorial cell")
		seed       = flag.Int64("seed", 1, "campaign seed")
		workers    = flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
		threshold  = flag.Float64("threshold", 1.2, "corner-case spread threshold")
		export     = flag.String("export", "", "directory for corner-case schedule exports")
		shardFlag  = flag.String("shard", "", "run only partition k/n of the cell enumeration (e.g. 1/2)")
		out        = flag.String("out", "", "stream completed cells to this JSONL checkpoint file")
		resume     = flag.Bool("resume", false, "skip the cells already persisted in -out and append")
		merge      = flag.String("merge", "", "merge comma-separated JSONL checkpoint files and print the summary (no cells are run)")
	)
	flag.Parse()
	if *list {
		fmt.Println(strings.Join(sched.List(), "\n"))
		return
	}
	if *merge != "" {
		res, cells, err := mergeFiles(cliutil.SplitList(*merge))
		if err != nil {
			fail(err)
		}
		if err := res.Complete(cells); err != nil {
			fail(fmt.Errorf("merge incomplete: %w", err))
		}
		printSummary(res, *threshold)
		return
	}

	cfg := campaign.DefaultConfig()
	cfg.Algos = cliutil.SplitList(*algos)
	cfg.Replicates = *replicates
	cfg.Seed = *seed
	cfg.Workers = *workers
	shard, err := campaign.ParseShard(*shardFlag)
	if err != nil {
		fail(err)
	}

	res, err := runCheckpointed(cfg, campaign.RunOptions{Shard: shard}, *out, *resume)
	if err != nil {
		fail(err)
	}
	printSummary(res, *threshold)
	if !shard.IsZero() {
		fmt.Printf("(shard %s of the factorial; merge the full set with -merge)\n", shard)
	}

	corners := res.CornerCases(*threshold)
	if *export == "" || len(corners) == 0 {
		return
	}
	if err := os.MkdirAll(*export, 0o755); err != nil {
		fail(err)
	}
	for _, c := range corners {
		if err := exportCell(cfg, c, *export); err != nil {
			fail(err)
		}
	}
}

// runCheckpointed executes the campaign, streaming cells to the JSONL file
// when -out is set and folding in the cells of an existing checkpoint when
// -resume is set. The returned result covers the checkpointed cells plus
// everything run now.
func runCheckpointed(cfg campaign.Config, opt campaign.RunOptions, out string, resume bool) (*campaign.Result, error) {
	if out == "" {
		if resume {
			return nil, fmt.Errorf("-resume requires -out")
		}
		return campaign.RunContext(context.Background(), cfg, opt)
	}

	cp, err := campaign.OpenCheckpoint(out, cfg, resume)
	if err != nil {
		return nil, err
	}
	defer cp.Close()
	if cp.Prior != nil {
		opt.Skip = cp.Prior.Keys()
		fmt.Printf("resuming %s: %d cells already done\n", out, len(cp.Prior.Cells))
	}

	opt.OnCell = cp.WriteCell
	res, err := campaign.RunContext(context.Background(), cfg, opt)
	if err != nil {
		return nil, err
	}
	if err := cp.Sync(); err != nil {
		return nil, err
	}
	if cp.Prior != nil {
		return campaign.Merge(cp.Prior.Result(), res)
	}
	return res, nil
}

// mergeFiles loads and merges checkpoint files, verifying they describe the
// same campaign; it returns the merged result and the factorial size the
// header promises.
func mergeFiles(paths []string) (*campaign.Result, int, error) {
	if len(paths) == 0 {
		return nil, 0, fmt.Errorf("-merge needs at least one file")
	}
	var parts []*campaign.Result
	var first *campaign.Checkpoint
	for _, path := range paths {
		cp, err := campaign.LoadCheckpointFile(path)
		if err != nil {
			return nil, 0, err
		}
		if first == nil {
			first = cp
		} else if err := cp.Header.Equal(first.Header); err != nil {
			return nil, 0, fmt.Errorf("%s: %w", path, err)
		}
		parts = append(parts, cp.Result())
	}
	res, err := campaign.Merge(parts...)
	if err != nil {
		return nil, 0, err
	}
	return res, first.Header.Cells, nil
}

// printSummary writes the per-cell table and the corner-case list — the
// output that must be byte-identical between a single-process run, a merged
// shard set, and a coordinated jedcoord run.
func printSummary(res *campaign.Result, threshold float64) {
	if err := res.WriteSummary(os.Stdout, threshold); err != nil {
		fail(err)
	}
}

// exportCell reruns replicate 0 of the cell and writes one simulated
// schedule per compared algorithm.
func exportCell(cfg campaign.Config, c campaign.Cell, dir string) error {
	seed := campaign.ReplicateSeed(cfg.Seed, c.Shape, c.DAGSize, c.Cluster, 0)
	g := dag.Generate(c.Shape, dag.DefaultGenOptions(c.DAGSize), rand.New(rand.NewSource(seed)))
	p := platform.Homogeneous(c.Cluster, 1e9)
	base := strings.ReplaceAll(c.Key(), "/", "_")
	for _, name := range cfg.Algos {
		s, err := sched.Lookup(name)
		if err != nil {
			return err
		}
		res, err := s.Schedule(g, p)
		if err != nil {
			return err
		}
		wr, err := res.Execute(sim.ExecOptions{})
		if err != nil {
			return err
		}
		path := filepath.Join(dir, fmt.Sprintf("%s_%s.jed", base, name))
		if err := jedxml.WriteFile(path, wr.Schedule); err != nil {
			return err
		}
		fmt.Printf("  wrote %s\n", path)
	}
	return nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
