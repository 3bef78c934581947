package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// This file implements `bench -compare a.jsonl b.jsonl`: the regression rule
// of choosing-metrics §6 over two -record files, against the bounds in
// BENCHMARK.json.

// benchmarkJSON is the part of BENCHMARK.json the harness reads.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []boundDef `json:"end_to_end"`
	PerLayer []boundDef `json:"per_layer"`
}

// boundDef is one metric entry of BENCHMARK.json.
type boundDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// readBenchmarkJSON loads path, or BENCHMARK.json from the working directory
// or its parent when path is empty (the harness runs from either).
func readBenchmarkJSON(path string) (*benchmarkJSON, error) {
	candidates := []string{path}
	if path == "" {
		candidates = []string{"BENCHMARK.json", "../BENCHMARK.json"}
	}
	var firstErr error
	for _, p := range candidates {
		b, err := os.ReadFile(p)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var bj benchmarkJSON
		if err := json.Unmarshal(b, &bj); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &bj, nil
	}
	return nil, firstErr
}

// readRecords loads a -record file.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Report == nil {
			return nil, fmt.Errorf("%s: record without a report", path)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (exclusive method) — the spread the
// driver computes; ok is false for fewer than two values.
func quartiles(vals []float64) (q1, q3 float64, ok bool) {
	n := len(vals)
	if n < 2 {
		return 0, 0, false
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3), true
}

// spreadOf is the interquartile distance as a share of the median.
func spreadOf(vals []float64) float64 {
	q1, q3, ok := quartiles(vals)
	med := median(vals)
	if !ok || med == 0 {
		return 0
	}
	return (q3 - q1) / med
}

// Verdicts of one (workload, metric) pair.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// judge applies the rule: unresolved when either side's run-to-run spread is
// wider than the bound, regressed when b's median is worse than a's by more
// than the bound, ok otherwise. worse is the signed share by which b is worse.
func judge(a, b []float64, better string, bound float64) (verdict string, worse, spread float64) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		worse = (mb - ma) / ma
		if better == "higher" {
			worse = -worse
		}
	}
	spread = max(spreadOf(a), spreadOf(b))
	switch {
	case spread > bound:
		return verdictUnresolved, worse, spread
	case worse > bound:
		return verdictRegressed, worse, spread
	}
	return verdictOK, worse, spread
}

// exactMetrics repeat exactly from run to run for one seed; -compare reports
// whether two sets agree on them.
var exactMetrics = []string{"footprint_mib", "ops.in_values", "ops.out_values"}

// runCompare prints one row per (workload, end-to-end metric) and reports
// whether any pair regressed.
func runCompare(w io.Writer, boundsPath, pathA, pathB string) (regressed bool, err error) {
	bj, err := readBenchmarkJSON(boundsPath)
	if err != nil {
		return false, err
	}
	recsA, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	recsB, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	group := func(recs []record) map[string]map[string][]float64 {
		g := make(map[string]map[string][]float64)
		for _, r := range recs {
			if r.Trace {
				continue
			}
			if g[r.Workload] == nil {
				g[r.Workload] = make(map[string][]float64)
			}
			for name, m := range r.Report.Metrics {
				g[r.Workload][name] = append(g[r.Workload][name], m.Value)
			}
		}
		return g
	}
	ga, gb := group(recsA), group(recsB)
	fmt.Fprintf(w, "%-18s %-20s %12s %12s %8s %8s %7s %6s  %s\n",
		"workload", "metric", "median a", "median b", "b/a", "worse", "spread", "bound", "verdict")
	for _, wl := range bj.Workloads {
		for _, d := range bj.EndToEnd {
			a, b := ga[wl.Name][d.Name], gb[wl.Name][d.Name]
			if len(a) == 0 || len(b) == 0 {
				fmt.Fprintf(w, "%-18s %-20s missing from one side (%d vs %d runs)\n", wl.Name, d.Name, len(a), len(b))
				regressed = true
				continue
			}
			verdict, worse, spread := judge(a, b, d.Better, d.Bound)
			if verdict == verdictRegressed {
				regressed = true
			}
			fmt.Fprintf(w, "%-18s %-20s %12.5g %12.5g %8.4f %+7.2f%% %6.2f%% %5.0f%%  %s (n=%d,%d)\n",
				wl.Name, d.Name, median(a), median(b), ratio(median(b), median(a)), 100*worse, 100*spread, 100*d.Bound, verdict, len(a), len(b))
		}
	}

	// Exact counts: same workload, seed and mode on both sides must agree.
	type key struct {
		workload string
		seed     int64
		trace    bool
	}
	index := make(map[key]*report)
	for i := range recsA {
		index[key{recsA[i].Workload, recsA[i].Seed, recsA[i].Trace}] = recsA[i].Report
	}
	same, differ := 0, 0
	for _, r := range recsB {
		ra, ok := index[key{r.Workload, r.Seed, r.Trace}]
		if !ok {
			continue
		}
		for _, name := range exactMetrics {
			ma, okA := ra.Metrics[name]
			mb, okB := r.Report.Metrics[name]
			if !okA || !okB {
				continue
			}
			if ma.Value == mb.Value {
				same++
			} else {
				differ++
				fmt.Fprintf(w, "exact count differs: %s seed %d %s: %v vs %v\n", r.Workload, r.Seed, name, ma.Value, mb.Value)
			}
		}
	}
	fmt.Fprintf(w, "exact counts (%v) on matching seeds: %d identical, %d different\n", exactMetrics, same, differ)
	return regressed, nil
}
