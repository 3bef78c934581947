package main

import "testing"

// BENCHMARK.json names exactly the workloads and metrics the harness reports,
// with the same units.
func TestBenchmarkJSON(t *testing.T) {
	bj, err := readBenchmarkJSON("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness runs %d", len(bj.Workloads), len(workloadNames))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the harness", i, w.Name, workloadNames[i])
		}
	}
	check := func(kind string, listed []boundDef, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the harness", kind, len(listed), len(defs))
			return
		}
		for i, d := range defs {
			if listed[i].Name != d.name || listed[i].Unit != d.unit {
				t.Errorf("%s %d: %s [%s] in BENCHMARK.json, %s [%s] in the harness", kind, i, listed[i].Name, listed[i].Unit, d.name, d.unit)
			}
			if listed[i].Better != "lower" && listed[i].Better != "higher" {
				t.Errorf("%s %s: better = %q", kind, d.name, listed[i].Better)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
	for _, d := range bj.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Bound > bj.EndToEnd[0].Bound {
			t.Errorf("%s: bound %v above setup_s's, which must be the largest", d.Name, d.Bound)
		}
	}
	if bj.EndToEnd[0].Name != "setup_s" || bj.EndToEnd[0].Unit != "s" || bj.EndToEnd[0].Better != "lower" {
		t.Errorf("first end-to-end metric must be setup_s [s, lower], got %+v", bj.EndToEnd[0])
	}
}
