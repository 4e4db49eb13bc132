package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// tinySizes run every workload through the same code as fullSizes in a
// fraction of a second each.
var tinySizes = sizes{
	seconds:   0.3,
	setupReps: 2,

	ingestTasks: 300,
	ingestDocs:  2,

	panTasks:   5_000,
	panClients: 2,
	panDepth:   2,
	panPans:    2,
	panVerify:  2,

	campaignSpec: campaignSpec{Algos: []string{"cpa", "mcpa", "heft"}, Shapes: []string{"serial", "wide"},
		DAGSizes: []int{10}, ClusterSizes: []int{8}, Replicates: 1, Workers: 1, Shards: 2},
	campaignWarm: campaignSpec{Algos: []string{"cpa", "mcpa"}, Shapes: []string{"serial"},
		DAGSizes: []int{10}, ClusterSizes: []int{8}, Replicates: 1, Workers: 1, Shards: 1},
	campaignCheck: 2,

	restartSessions: 4,
	restartTasks:    50,
	restartJob:      campaignSpec{Algos: []string{"cpa", "mcpa"}, Shapes: []string{"serial"}, DAGSizes: []int{10}, ClusterSizes: []int{8}, Replicates: 1},

	shadowCells: 2,
}

// benchmarkDefinition reads the repository's BENCHMARK.json.
func benchmarkDefinition(t *testing.T) definition {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def definition
	if err := json.Unmarshal(raw, &def); err != nil {
		t.Fatal(err)
	}
	return def
}

// TestWorkloadsTiny runs each workload untraced and traced and checks that
// no op or check failed and that the result line carries exactly the
// metrics BENCHMARK.json names, with their units.
func TestWorkloadsTiny(t *testing.T) {
	def := benchmarkDefinition(t)
	t.Setenv("TMPDIR", t.TempDir())
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			res, err := execute(name, 3, trace, tinySizes)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d of %d: %v",
					name, trace, res.Correct, res.Failed, res.Attempted, res.Failures)
			}
			want := def.EndToEnd
			if trace {
				want = def.PerLayer
			}
			line, err := resultLine(res)
			if err != nil {
				t.Fatal(err)
			}
			var got struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Failed    int  `json:"failed"`
				Metrics   map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(line), &got); err != nil {
				t.Fatalf("%s: result line %q: %v", name, line, err)
			}
			if len(got.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", name, trace, len(got.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := got.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", name, trace, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s trace=%v: metric %s in %q, BENCHMARK.json says %q", name, trace, d.Name, m.Unit, d.Unit)
				case !trace && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.Name, m.Value)
				}
			}
		}
	}
}

// TestDefinitionMatchesHarness keeps BENCHMARK.json and the metric lists of
// the harness in step, order included.
func TestDefinitionMatchesHarness(t *testing.T) {
	def := benchmarkDefinition(t)
	for _, c := range []struct {
		json    []boundDef
		harness []metricDef
	}{{def.EndToEnd, endToEnd}, {def.PerLayer, perLayer}} {
		if len(c.json) != len(c.harness) {
			t.Fatalf("BENCHMARK.json has %d metrics, the harness %d", len(c.json), len(c.harness))
		}
		for i, d := range c.json {
			if d.Name != c.harness[i].name || d.Unit != c.harness[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s/%s, harness %s/%s", i, d.Name, d.Unit, c.harness[i].name, c.harness[i].unit)
			}
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0}, {10, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {10_000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// TestQuartiles pins the quartiles to the values Python's
// statistics.quantiles(xs, n=4) prints for the same inputs.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{5, 1}, 0, 6},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 10},
		{ID: 2, Parent: 1, Start: 1, End: 3},
		{ID: 3, Parent: 1, Start: 2, End: 5},   // overlaps its sibling
		{ID: 4, Parent: 1, Start: 8, End: 12},  // reaches past its parent
		{ID: 5, Parent: 2, Start: 1.5, End: 2}, // a grandchild covers only its own parent
		{ID: 6, Start: 20, End: 21},
	}
	want := map[int64]float64{1: 4, 2: 1.5, 3: 3, 4: 4, 5: 0.5, 6: 1}
	got := selfTimes(spans)
	for id, w := range want {
		if math.Abs(got[id]-w) > 1e-12 {
			t.Errorf("self time of span %d = %v, want %v", id, got[id], w)
		}
	}
	rows := summarize(spans)
	if len(rows) != 1 || rows[0].Count != 6 || math.Abs(rows[0].TotalMS-14) > 1e-12 {
		t.Errorf("summary of unnamed spans = %+v, want one row of 6 spans, 14 ms", rows)
	}
}

func TestParseServerTiming(t *testing.T) {
	got := parseServerTiming("index;dur=0.01, layout;dur=1.50, encode;dur=12.25, cache;desc=miss")
	want := []stage{{"index", 0.01}, {"layout", 1.5}, {"encode", 12.25}}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("stage %d = %v, want %v", i, got[i], want[i])
		}
	}
	if n, l := stageSpan("encode", "application/pdf"); n != "pdf.encode" || l != "pdf" {
		t.Errorf("pdf encode stage = %s/%s", n, l)
	}
}

func TestVerdict(t *testing.T) {
	lower := boundDef{Better: "lower", Bound: 0.1}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	for _, c := range []struct {
		name string
		a, b []float64
		d    boundDef
		want string
	}{
		{"same", steady, []float64{103, 104, 102, 103, 105, 101, 103, 104, 102, 103}, lower, "same"},
		{"regressed", steady, []float64{115, 116, 114, 115, 117, 113, 115, 116, 114, 115}, lower, "REGRESSED"},
		{"better", steady, []float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}, lower, "better"},
		{"higher is better", steady, []float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}, boundDef{Better: "higher", Bound: 0.1}, "REGRESSED"},
		{"noisy", steady, []float64{60, 140, 70, 130, 100, 90, 150, 50, 120, 80}, lower, "unresolved"},
		{"noisy but every run better", []float64{100, 150, 200, 120}, []float64{10, 20, 40, 90}, lower, "better"},
		{"noisy set-up", steady, []float64{60, 140, 70, 130, 100, 90, 150, 50, 120, 80}, boundDef{Name: "setup_s", Better: "lower", Bound: 0.1}, "same"},
	} {
		if got, _ := verdict(c.a, c.b, c.d); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}
