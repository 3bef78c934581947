package main

import (
	"bytes"
	"runtime"
	"slices"
	"testing"

	"morphstore/internal/core"
	"morphstore/internal/ssb"
)

func smokeConfig(workload string, seed int64, trace bool) *config {
	return &config{workload: workload, seed: seed, seconds: 1, trace: trace, sc: scales["smoke"], nproc: runtime.GOMAXPROCS(0)}
}

// All four workloads at -scale smoke emit every named metric with its unit,
// end to end and traced, and every answer verifies.
func TestSmokeEveryMetricEveryWorkload(t *testing.T) {
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			r, _, err := runWorkload(smokeConfig(w, 1, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(r.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, trace, len(r.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := r.Metrics[d.name]
				if !ok || m.Unit != d.unit || m.Unit == "" {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", w, trace, d.name, m, d.unit)
				}
				if !trace && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w, d.name, m.Value)
				}
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", w, trace, r.Correct, r.Failed, r.Attempted)
			}
		}
	}
}

// A deliberately corrupted result column drives the failed count above 0 on
// every workload: the checker is live.
func TestSmokeCheckerIsLive(t *testing.T) {
	flip := func(res *core.Result) {
		for _, col := range res.Cols {
			if vals, ok := col.Values(); ok && len(vals) > 0 {
				vals[0] ^= 1
			}
		}
	}
	for _, w := range workloadNames {
		c := smokeConfig(w, 1, false)
		c.tamper = flip
		r, _, err := runWorkload(c)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if r.Failed == 0 || r.Correct {
			t.Errorf("%s: corrupted results went unnoticed (failed=%d of %d, correct=%v)", w, r.Failed, r.Attempted, r.Correct)
		}
	}
}

// Same seed, same inputs and same exact counts; another seed, other inputs
// whose answers still verify.
func TestDeterminism(t *testing.T) {
	// Generated inputs are byte-identical for one seed and differ across seeds.
	a, b, other := genEvents(7, 5000), genEvents(7, 5000), genEvents(8, 5000)
	if !bytes.Equal(a.csv(0, 5000), b.csv(0, 5000)) {
		t.Error("events CSV differs between two generations from one seed")
	}
	if bytes.Equal(a.csv(0, 5000), other.csv(0, 5000)) {
		t.Error("events CSV is the same for two seeds")
	}
	sf := scales["smoke"].sf
	lineorder := func(seed int64) []uint64 {
		d, err := ssb.Generate(sf, seed)
		if err != nil {
			t.Fatal(err)
		}
		vals, _ := d.DB.Tables["lineorder"].Cols["lo_revenue"].Values()
		return vals
	}
	x, y, z := lineorder(7), lineorder(7), lineorder(8)
	if !slices.Equal(x, y) || slices.Equal(x, z) {
		t.Error("SSB data must repeat for one seed and change with the seed")
	}

	// Exact counts repeat run to run; both workloads run at parallelism 1, so
	// the morsel count must repeat too.
	exact := map[bool][]string{
		false: {"footprint_mib", "footprint_ratio"},
		true:  {"ops.in_values", "ops.out_values", "ops.runtime.morsels", "ops.runtime.seq_fallbacks", "formats.bytes_per_elem", "morph.count"},
	}
	for _, w := range []string{wSeqCompr, wIngestMix} {
		for trace, names := range exact {
			r1, _, err1 := runWorkload(smokeConfig(w, 7, trace))
			r2, _, err2 := runWorkload(smokeConfig(w, 7, trace))
			if err1 != nil || err2 != nil {
				t.Fatalf("%s trace=%v: %v %v", w, trace, err1, err2)
			}
			for _, name := range names {
				if r1.Metrics[name].Value != r2.Metrics[name].Value {
					t.Errorf("%s: %s differs between two runs of seed 7: %v vs %v", w, name, r1.Metrics[name].Value, r2.Metrics[name].Value)
				}
			}
		}
		r3, _, err := runWorkload(smokeConfig(w, 8, false))
		if err != nil {
			t.Fatalf("%s seed 8: %v", w, err)
		}
		if r3.Failed != 0 {
			t.Errorf("%s: seed 8 has %d unverified answers", w, r3.Failed)
		}
	}
}
