// Command bench is the repository's end-to-end benchmark. It drives the
// real api.Server over loopback HTTP from one process through four user
// paths (ingest, pan_zoom, campaign, restart), checks every output against
// an in-process reference, and reports the end-to-end and per-layer metrics
// that BENCHMARK.json names. See README.md in this directory.
//
//	go run ./bench -workload pan_zoom -seed 1 [-seconds 18] [-trace 0|1] [-out runs.jsonl] [-spans f.json]
//	go run ./bench -workload all -seed 1
//	go run ./bench -compare a.jsonl b.jsonl
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, and the end-to-end metrics (-trace 0) or the per-layer metrics
// (-trace 1). A human-readable table with sample counts goes to standard
// error. The exit code is non-zero when any check failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"

	_ "repro/internal/sched/all" // campaigns select schedulers by name
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
		seed    = flag.Int64("seed", 1, "seed every input is generated from")
		seconds = flag.Float64("seconds", fullSizes.seconds, "length of the timed phase in seconds")
		trace   = flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run, 0 the end-to-end metrics")
		out     = flag.String("out", "", "append the run's result as one JSON line to this file")
		spans   = flag.String("spans", "", "traced run: write spans and their self-time summary here (default .bench_build/spans-<workload>-seed<N>.json)")
		compare = flag.Bool("compare", false, "compare two result files (the -out of two sets of runs) against the bounds in -config")
		config  = flag.String("config", "BENCHMARK.json", "benchmark definition with the metric bounds")
	)
	flag.Parse()
	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two result files")
			break
		}
		var ok bool
		ok, err = compareFiles(os.Stdout, *config, flag.Arg(0), flag.Arg(1))
		if err == nil && !ok {
			os.Exit(1)
		}
	case *trace != 0 && *trace != 1:
		err = fmt.Errorf("-trace is 0 or 1, not %d", *trace)
	case *name == "all":
		err = runAll(*seed, *seconds, *trace, *out)
	case *name == "":
		flag.Usage()
		os.Exit(2)
	default:
		sz := fullSizes
		sz.seconds = *seconds
		err = runOne(*name, *seed, *trace == 1, sz, *out, *spans)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOne runs one workload, prints its table and result line, and fails
// when any check failed.
func runOne(name string, seed int64, trace bool, sz sizes, out, spansPath string) error {
	res, err := execute(name, seed, trace, sz)
	if err != nil {
		return err
	}
	printTable(os.Stderr, res)
	if trace {
		printSummary(os.Stderr, res.Summary)
		if spansPath == "" {
			spansPath = fmt.Sprintf(".bench_build/spans-%s-seed%d.json", name, seed)
		}
		if err := writeSpans(spansPath, res.Spans, res.Summary); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "spans: %s\n", spansPath)
	}
	if out != "" {
		if err := appendRecord(out, res); err != nil {
			return err
		}
	}
	line, err := resultLine(res)
	if err != nil {
		return err
	}
	fmt.Println(line)
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d ops or checks failed", name, res.Failed, res.Attempted)
	}
	return nil
}

// resultLine is the one-line JSON result: the end-to-end metrics of an
// untraced run, the per-layer metrics of a traced one.
func resultLine(res *result) (string, error) {
	defs := endToEnd
	if res.Trace {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, d := range defs {
		v := res.Metrics[d.name].Value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		metrics[d.name] = value{v, d.unit}
	}
	b, err := json.Marshal(map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
	})
	return string(b), err
}

// appendRecord appends the full result, with sample counts and the
// machine it ran on, as one JSON line: the input of -compare.
func appendRecord(path string, res *result) error {
	rec := struct {
		*result
		Env map[string]any `json:"env"`
	}{res, environment()}
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// environment describes the machine a result was measured on.
func environment() map[string]any {
	env := map[string]any{
		"go": runtime.Version(), "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"goos": runtime.GOOS, "goarch": runtime.GOARCH,
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env["cpu"] = strings.TrimSpace(v)
				break
			}
		}
	}
	return env
}

// runAll runs every workload in its own process, so each gets a fresh heap
// and its own heap_live_mb and peak_rss_mb.
func runAll(seed int64, seconds float64, trace int, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var failed []string
	for _, name := range workloadNames {
		args := []string{"-workload", name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace)}
		if out != "" {
			args = append(args, "-out", out)
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			failed = append(failed, name)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("workloads failed: %s", strings.Join(failed, ", "))
	}
	return nil
}
