// Package campaign reproduces the experiment campaign of the paper's first
// case study: "We conducted several thousand experiments with different
// types of DAGs (long, wide, serial, etc.) and multiple parallel platforms
// (from smaller cluster with 32 processors to bigger ones)" comparing the
// scheduling performance of CPA and MCPA. Browsing those results is how
// the authors isolated the Figure 4 corner case.
//
// A campaign is a full factorial over DAG shape x DAG size x cluster size x
// scheduling algorithm, with several random replicates per cell. Algorithms
// are selected by registry name (see repro/internal/sched), so any
// registered scheduler — CPA variants, HEFT, the CRA strategies, or future
// additions — can join the comparison. Cells run concurrently on a bounded
// worker pool; results are deterministic for a given seed regardless of the
// worker count, because every replicate derives its own seeded generator.
//
// Spec is the wire form of a campaign — the REST request body and the spec
// of every fleet shard assignment — and Spec.Resolve turns it into the
// Config and Shard that run.
package campaign

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"

	"repro/internal/dag"
	"repro/internal/platform"
	"repro/internal/sched"
	_ "repro/internal/sched/all" // make every built-in algorithm selectable
	"repro/internal/sim"
)

// Config spans the factorial.
type Config struct {
	Shapes       []dag.Shape
	DAGSizes     []int
	ClusterSizes []int
	// Algos lists the scheduler registry names compared in every cell. At
	// least two are required — a campaign is a comparison.
	Algos      []string
	Replicates int
	Seed       int64
	// Workers bounds the concurrency; 0 means GOMAXPROCS.
	Workers int
}

// DefaultConfig mirrors the paper's campaign dimensions at a size that
// completes in seconds: five shapes, three DAG sizes, clusters from 32
// processors up, comparing CPA against MCPA as in case study III.
func DefaultConfig() Config {
	return Config{
		Shapes: []dag.Shape{
			dag.ShapeSerial, dag.ShapeWide, dag.ShapeLong,
			dag.ShapeRandom, dag.ShapeForkJoin,
		},
		DAGSizes:     []int{20, 40, 80},
		ClusterSizes: []int{32, 64, 128},
		Algos:        []string{"cpa", "mcpa"},
		Replicates:   8,
		Seed:         1,
	}
}

// Cell aggregates one factorial cell. The JSON tags define the wire format
// of the JSONL checkpoint records, so shards and resumed runs interchange
// cells losslessly (float64 round-trips exactly through encoding/json).
type Cell struct {
	// Index is the cell's position in the deterministic enumeration order
	// of Cells(cfg) — the merge key across shards and checkpoints.
	Index   int       `json:"index"`
	Shape   dag.Shape `json:"shape"`
	DAGSize int       `json:"dag_size"`
	Cluster int       `json:"cluster"`
	// Algos echoes the compared algorithm names, index-aligned with Wins.
	Algos []string `json:"algos"`
	Runs  int      `json:"runs"`
	// Wins counts, per algorithm, the replicates it won with a strictly
	// smaller simulated makespan than every other algorithm.
	Wins []int `json:"wins"`
	// Ties counts replicates without a strict winner.
	Ties int `json:"ties"`
	// MeanSpread is the geometric mean over replicates of
	// worst/best makespan; 1 means the algorithms always agree.
	MeanSpread float64 `json:"mean_spread"`
	// MaxSpread is the largest worst/best ratio seen in the cell — large
	// values are Figure 4 material.
	MaxSpread float64 `json:"max_spread"`
}

// Key identifies the cell.
func (c Cell) Key() string {
	return fmt.Sprintf("%s/%d/%d", c.Shape, c.DAGSize, c.Cluster)
}

// WinsOf returns the win count of the named algorithm (0 if absent).
func (c Cell) WinsOf(algo string) int {
	for i, a := range c.Algos {
		if a == algo {
			return c.Wins[i]
		}
	}
	return 0
}

// Result is a completed campaign.
type Result struct {
	Algos []string
	Cells []Cell
	Total int
}

// ReplicateSeed derives the generator seed for one replicate of one cell.
// Exported so commands can regenerate the exact DAG behind a corner case.
func ReplicateSeed(campaignSeed int64, shape dag.Shape, dagSize, clusterSize, replicate int) int64 {
	return campaignSeed*1_000_003 + int64(dagSize)*7919 + int64(clusterSize)*104_729 +
		int64(shape)*15_485_863 + int64(replicate)
}

// Validate checks the configuration, including that every algorithm name
// resolves in the scheduler registry.
func (cfg Config) Validate() error {
	if len(cfg.Shapes) == 0 || len(cfg.DAGSizes) == 0 || len(cfg.ClusterSizes) == 0 {
		return fmt.Errorf("campaign: empty factorial dimension")
	}
	if cfg.Replicates < 1 {
		return fmt.Errorf("campaign: need at least one replicate")
	}
	if len(cfg.Algos) < 2 {
		return fmt.Errorf("campaign: need at least two algorithms to compare, got %v", cfg.Algos)
	}
	seen := map[string]bool{}
	for _, a := range cfg.Algos {
		if seen[a] {
			return fmt.Errorf("campaign: algorithm %q listed twice", a)
		}
		seen[a] = true
	}
	if _, err := sched.LookupAll(cfg.Algos); err != nil {
		return fmt.Errorf("campaign: %w", err)
	}
	return nil
}

// RunOptions selects the execution strategy of RunContext; the zero value
// runs every cell synchronously, like Run.
type RunOptions struct {
	// Shard restricts the run to the cells this k/n partition owns.
	Shard Shard
	// Skip names cell keys (CellSpec.Key) that are already persisted in a
	// checkpoint; they are neither recomputed nor part of the result.
	Skip map[string]bool
	// OnCell is called once per completed cell, serialized on a single
	// goroutine, in completion order (not enumeration order) — the
	// checkpoint streaming hook. A non-nil error aborts the run.
	OnCell func(Cell) error
}

// Run executes the full campaign synchronously. The error is non-nil for
// configuration mistakes (including unknown algorithm names) or scheduler
// failures.
func Run(cfg Config) (*Result, error) {
	return RunContext(context.Background(), cfg, RunOptions{})
}

// RunContext executes the campaign cells selected by opt on a bounded
// worker pool, stopping early (with the context's error) when ctx is
// cancelled. The result holds the completed cells in enumeration order; for
// sharded or resumed runs that is a partial result, to be combined with the
// other shards or the checkpoint via Merge.
func RunContext(ctx context.Context, cfg Config, opt RunOptions) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := opt.Shard.Validate(); err != nil {
		return nil, err
	}
	schedulers, err := sched.LookupAll(cfg.Algos)
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	var todo []CellSpec
	for _, spec := range Cells(cfg) {
		if opt.Shard.Includes(spec.Index) && !opt.Skip[spec.Key()] {
			todo = append(todo, spec)
		}
	}

	type outcome struct {
		pos  int
		cell Cell
		err  error
	}
	jobCh := make(chan int)
	outCh := make(chan outcome)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pos := range jobCh {
				if err := ctx.Err(); err != nil {
					outCh <- outcome{pos: pos, err: err}
					continue
				}
				c, err := runCell(cfg, schedulers, todo[pos])
				outCh <- outcome{pos: pos, cell: c, err: err}
			}
		}()
	}
	go func() {
		// Feed every position: cancelled workers drain the queue cheaply,
		// so the collector always receives exactly len(todo) outcomes.
		for pos := range todo {
			jobCh <- pos
		}
		close(jobCh)
	}()

	cells := make([]Cell, len(todo))
	var firstErr error
	for range todo {
		o := <-outCh
		if firstErr != nil {
			continue
		}
		if o.err != nil {
			firstErr = o.err
			continue
		}
		cells[o.pos] = o.cell
		if opt.OnCell != nil {
			if err := opt.OnCell(o.cell); err != nil {
				firstErr = fmt.Errorf("campaign: checkpoint: %w", err)
			}
		}
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}

	res := &Result{Algos: append([]string(nil), cfg.Algos...), Cells: cells}
	for i := range cells {
		res.Total += cells[i].Runs
	}
	return res, nil
}

// RunCell executes the replicates of one factorial cell — the unit of work
// behind every execution strategy. Results depend only on (cfg, spec), never
// on which shard, worker, or process runs the cell.
func RunCell(cfg Config, spec CellSpec) (Cell, error) {
	if err := cfg.Validate(); err != nil {
		return Cell{}, err
	}
	schedulers, err := sched.LookupAll(cfg.Algos)
	if err != nil {
		return Cell{}, fmt.Errorf("campaign: %w", err)
	}
	return runCell(cfg, schedulers, spec)
}

// runCell executes the replicates of one factorial cell. Each replicate
// gets its own generator seeded from (campaign seed, cell key, replicate),
// so results do not depend on scheduling order.
func runCell(cfg Config, schedulers []sched.Scheduler, spec CellSpec) (Cell, error) {
	shape, dagSize, clusterSize := spec.Shape, spec.DAGSize, spec.Cluster
	cell := Cell{
		Index: spec.Index,
		Shape: shape, DAGSize: dagSize, Cluster: clusterSize,
		Algos:      append([]string(nil), cfg.Algos...),
		Wins:       make([]int, len(cfg.Algos)),
		MeanSpread: 1,
	}
	p := platform.Homogeneous(clusterSize, 1e9)
	logSum := 0.0
	for r := 0; r < cfg.Replicates; r++ {
		seed := ReplicateSeed(cfg.Seed, shape, dagSize, clusterSize, r)
		g := dag.Generate(shape, dag.DefaultGenOptions(dagSize), rand.New(rand.NewSource(seed)))
		makespans := make([]float64, len(schedulers))
		for i, s := range schedulers {
			res, err := s.Schedule(g, p)
			if err != nil {
				return cell, fmt.Errorf("campaign %s/%s: %w", cell.Key(), s.Name(), err)
			}
			// Compare simulated makespans, not each algorithm's own
			// prediction: the planning cost models differ across families
			// (CPA excludes redistribution, HEFT charges mean communication),
			// so the event kernel is the common measuring stick — exactly
			// the paper's SimGrid-then-Jedule workflow.
			wr, err := res.Execute(sim.ExecOptions{})
			if err != nil {
				return cell, fmt.Errorf("campaign %s/%s: %w", cell.Key(), s.Name(), err)
			}
			makespans[i] = wr.Makespan
		}
		cell.Runs++
		best, worst := makespans[0], makespans[0]
		bestIdx := 0
		for i, m := range makespans[1:] {
			if m < best {
				best, bestIdx = m, i+1
			}
			if m > worst {
				worst = m
			}
		}
		strict := true
		for i, m := range makespans {
			if i != bestIdx && m <= best*(1+1e-9) {
				strict = false
				break
			}
		}
		if strict {
			cell.Wins[bestIdx]++
		} else {
			cell.Ties++
		}
		spread := 1.0
		if best > 0 {
			spread = worst / best
		}
		logSum += math.Log(spread)
		if spread > cell.MaxSpread {
			cell.MaxSpread = spread
		}
	}
	cell.MeanSpread = math.Exp(logSum / float64(cell.Runs))
	return cell, nil
}

// Merge combines partial results — shard outputs, resumed checkpoints —
// into one result with cells in enumeration order. All parts must compare
// the same algorithm list, and no cell index may appear twice. Merging the
// complete shard set of a seed reproduces the unsharded Run result
// bit-for-bit.
func Merge(parts ...*Result) (*Result, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("campaign: nothing to merge")
	}
	out := &Result{Algos: append([]string(nil), parts[0].Algos...)}
	for _, p := range parts {
		if len(p.Algos) != len(out.Algos) {
			return nil, fmt.Errorf("campaign: merge of different algorithm lists %v vs %v", out.Algos, p.Algos)
		}
		for i := range p.Algos {
			if p.Algos[i] != out.Algos[i] {
				return nil, fmt.Errorf("campaign: merge of different algorithm lists %v vs %v", out.Algos, p.Algos)
			}
		}
		out.Cells = append(out.Cells, p.Cells...)
	}
	sort.SliceStable(out.Cells, func(i, j int) bool { return out.Cells[i].Index < out.Cells[j].Index })
	for i, c := range out.Cells {
		if i > 0 && c.Index == out.Cells[i-1].Index {
			return nil, fmt.Errorf("campaign: merge saw cell %d (%s) twice", c.Index, c.Key())
		}
		out.Total += c.Runs
	}
	return out, nil
}

// Complete checks that the result covers exactly the n cells of its
// factorial, with no gaps — the guard a merge of a shard set runs before
// claiming to equal the single-process campaign.
func (r *Result) Complete(n int) error {
	if len(r.Cells) != n {
		return fmt.Errorf("campaign: %d of %d cells present", len(r.Cells), n)
	}
	for i, c := range r.Cells {
		if c.Index != i {
			return fmt.Errorf("campaign: cell index %d where %d expected (missing shard?)", c.Index, i)
		}
	}
	return nil
}

// WriteSummary writes the per-cell table followed by the corner-case list —
// the canonical campaign report. Every execution strategy (single process,
// merged shard set, coordinated fan-out) prints through this one function,
// which is what makes their outputs byte-comparable.
func (r *Result) WriteSummary(w io.Writer, threshold float64) error {
	if err := r.WriteTable(w); err != nil {
		return err
	}
	corners := r.CornerCases(threshold)
	if _, err := fmt.Fprintf(w, "\n%d corner cases with makespan spread >= %.2f:\n", len(corners), threshold); err != nil {
		return err
	}
	for _, c := range corners {
		if _, err := fmt.Fprintf(w, "  %-20s worst spread %.3f\n", c.Key(), c.MaxSpread); err != nil {
			return err
		}
	}
	return nil
}

// CornerCases returns the cells whose worst makespan spread is at least the
// threshold, sorted by descending spread — the candidates a developer would
// open in Jedule, exactly how the paper found Figure 4.
func (r *Result) CornerCases(threshold float64) []Cell {
	var out []Cell
	for _, c := range r.Cells {
		if c.MaxSpread >= threshold {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].MaxSpread > out[j].MaxSpread })
	return out
}

// Summary aggregates wins per algorithm (index-aligned with r.Algos) and
// ties across all cells.
func (r *Result) Summary() (wins []int, ties int) {
	wins = make([]int, len(r.Algos))
	for _, c := range r.Cells {
		for i, w := range c.Wins {
			wins[i] += w
		}
		ties += c.Ties
	}
	return wins, ties
}

// WriteTable prints the per-cell results with one win column per algorithm,
// sized to fit the longest algorithm name.
func (r *Result) WriteTable(w io.Writer) error {
	winWidth := len("-wins") + 4
	for _, a := range r.Algos {
		if n := len(a) + len("-wins"); n > winWidth {
			winWidth = n
		}
	}
	header := "shape     nodes  procs  runs"
	for _, a := range r.Algos {
		header += fmt.Sprintf("  %*s", winWidth, a+"-wins")
	}
	header += "  ties  mean-spread  max-spread"
	if _, err := fmt.Fprintln(w, header); err != nil {
		return err
	}
	for _, c := range r.Cells {
		row := fmt.Sprintf("%-9s %5d %6d %5d", c.Shape, c.DAGSize, c.Cluster, c.Runs)
		for _, wins := range c.Wins {
			row += fmt.Sprintf("  %*d", winWidth, wins)
		}
		row += fmt.Sprintf(" %5d %12.3f %11.3f", c.Ties, c.MeanSpread, c.MaxSpread)
		if _, err := fmt.Fprintln(w, row); err != nil {
			return err
		}
	}
	wins, ties := r.Summary()
	parts := make([]string, len(r.Algos))
	for i, a := range r.Algos {
		parts[i] = fmt.Sprintf("%s wins %d", a, wins[i])
	}
	_, err := fmt.Fprintf(w, "total %d runs: %s, ties %d\n",
		r.Total, strings.Join(parts, ", "), ties)
	return err
}
