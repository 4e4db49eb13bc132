package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// definition is the part of BENCHMARK.json -compare reads.
type definition struct {
	EndToEnd []boundDef `json:"end_to_end"`
	PerLayer []boundDef `json:"per_layer"`
}

type boundDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// record is one line of a -out file.
type record struct {
	Workload string            `json:"workload"`
	Trace    bool              `json:"trace"`
	Metrics  map[string]metric `json:"metrics"`
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, rec)
	}
	return out, sc.Err()
}

// series collects one metric's per-run values and sample counts.
type series struct {
	values []float64
	ns     []float64
}

// group indexes records by workload and metric, traced and untraced apart.
func group(recs []record) map[[2]string]*series {
	g := map[[2]string]*series{}
	for _, rec := range recs {
		for name, m := range rec.Metrics {
			key := [2]string{rec.Workload, name}
			if rec.Trace != isPerLayer(name) {
				continue // a traced run's end-to-end numbers include tracing
			}
			s := g[key]
			if s == nil {
				s = &series{}
				g[key] = s
			}
			s.values = append(s.values, m.Value)
			s.ns = append(s.ns, float64(m.N))
		}
	}
	return g
}

func isPerLayer(name string) bool {
	for _, d := range perLayer {
		if d.name == name {
			return true
		}
	}
	return false
}

// verdict judges change b against base a for one metric, by the rule of a
// bounded benchmark: a median worse by more than the bound is a
// regression; a spread (interquartile distance over median) wider than the
// bound on either side makes the comparison unresolved, unless every run of
// b beats every run of a. setup_s is judged on its median alone, as the
// benchmark definition judges it: a set-up lasts about a second, so its
// spread is wide and unbounded, and only a shift of its median counts.
func verdict(a, b []float64, d boundDef) (string, float64) {
	ma, mb := median(a), median(b)
	if ma == 0 {
		return "unresolved", 0
	}
	worse := (mb - ma) / ma
	if d.Better == "higher" {
		worse = -worse
	}
	if d.Name != "setup_s" && (spread(a) > d.Bound || spread(b) > d.Bound) {
		if allBetter(a, b, d.Better) {
			return "better", worse
		}
		return "unresolved", worse
	}
	switch {
	case worse > d.Bound:
		return "REGRESSED", worse
	case worse < -d.Bound:
		return "better", worse
	}
	return "same", worse
}

func allBetter(a, b []float64, better string) bool {
	for _, x := range a {
		for _, y := range b {
			if (better == "higher") != (y > x) || y == x {
				return false
			}
		}
	}
	return true
}

// compareFiles prints one row per workload x metric and reports whether
// nothing regressed and nothing was unresolved.
func compareFiles(w io.Writer, configPath, pathA, pathB string) (bool, error) {
	raw, err := os.ReadFile(configPath)
	if err != nil {
		return false, err
	}
	var def definition
	if err := json.Unmarshal(raw, &def); err != nil {
		return false, fmt.Errorf("%s: %w", configPath, err)
	}
	ra, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	rb, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	ga, gb := group(ra), group(rb)
	keys := make([][2]string, 0, len(ga))
	for k := range ga {
		if gb[k] != nil {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	defs := map[string]boundDef{}
	for _, d := range def.EndToEnd {
		defs[d.Name] = d
	}
	for _, d := range def.PerLayer {
		defs[d.Name] = d
	}
	ok := true
	fmt.Fprintf(w, "%-9s %-28s %6s %14s %14s %8s %8s %8s %10s %s\n",
		"workload", "metric", "bound", "median_a", "median_b", "worse", "spread_a", "spread_b", "runs", "verdict")
	for _, k := range keys {
		d, known := defs[k[1]]
		if !known {
			continue
		}
		a, b := ga[k], gb[k]
		v, worse := "-", (median(b.values)-median(a.values))/nonzero(median(a.values))
		bound := "-"
		if d.Bound > 0 {
			v, worse = verdict(a.values, b.values, d)
			bound = fmt.Sprintf("%.0f%%", d.Bound*100)
			if v == "REGRESSED" || v == "unresolved" {
				ok = false
			}
		} else if d.Better == "higher" {
			worse = -worse
		}
		fmt.Fprintf(w, "%-9s %-28s %6s %14.4f %14.4f %+7.1f%% %7.1f%% %7.1f%% %4dx%-5.0f %s\n",
			k[0], k[1], bound, median(a.values), median(b.values), worse*100,
			spread(a.values)*100, spread(b.values)*100, len(a.values), median(a.ns), v)
	}
	return ok, nil
}

func nonzero(x float64) float64 {
	if x == 0 {
		return 1
	}
	return x
}
