package main

import (
	"math"
	"strings"
	"testing"
	"time"

	"morphstore/internal/core"
)

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

// The percentile picker refuses a percentile with fewer than ten samples
// beyond it, and tail falls back to the highest one the sample supports.
func TestPercentileNeedsTenBeyond(t *testing.T) {
	if _, ok := percentile(seq(199), 95); ok {
		t.Error("p95 of 199 samples has 9 beyond it and must be refused")
	}
	v, ok := percentile(seq(220), 95)
	if !ok || v != 209 {
		t.Errorf("p95 of 1..220 = %v, %v; want 209, true", v, ok)
	}
	if _, ok := percentile(seq(26), 95); ok {
		t.Error("p95 of 26 samples must be refused")
	}
	if _, ok := percentile(seq(26), 50); !ok {
		t.Error("p50 of 26 samples has 13 beyond it and must be served")
	}
	if _, ok := percentile(nil, 50); ok {
		t.Error("a percentile of nothing must be refused")
	}
	v, used := tail(seq(26), 95)
	if used >= 95 || used <= 50 || v != 16 {
		t.Errorf("tail(1..26, 95) = %v at p%v; want 16 (ten samples beyond) at a percentile in (50, 95)", v, used)
	}
	if v, used := tail(seq(5), 95); v != 5 || used != 100 {
		t.Errorf("tail of 5 samples = %v at p%v; want the maximum", v, used)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("median empty = %v", m)
	}
}

// Span self-time subtracts the union of overlapping child spans — plan nodes
// that ran in parallel — never their sum.
func TestSelfTimeSubtractsUnion(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	parent := span{start: at(0), end: at(100)}
	children := []span{
		{start: at(10), end: at(50)},
		{start: at(30), end: at(70)},  // overlaps the first: union 10..70
		{start: at(40), end: at(45)},  // nested
		{start: at(80), end: at(120)}, // clipped to the parent: 80..100
		{start: at(90), end: at(90)},  // empty
	}
	if got := unionCovered(parent, children); got != 80*time.Millisecond {
		t.Errorf("union = %v, want 80ms", got)
	}
	if got := selfTime(parent, children); got != 20*time.Millisecond {
		t.Errorf("self = %v, want 20ms (the sum of the children would give a negative)", got)
	}
	if got := selfTime(parent, nil); got != 100*time.Millisecond {
		t.Errorf("self without children = %v", got)
	}
}

// Operator-family folding covers every operator the engine knows, so a new
// operator cannot silently fall out of the ops.* table.
func TestOpFamilyCoversEveryOperator(t *testing.T) {
	known := make(map[string]bool)
	for _, f := range families {
		known[f] = true
	}
	n := 0
	for k := 0; k < 256; k++ {
		name := core.OpKind(k).String()
		if strings.HasPrefix(name, "op(") {
			continue
		}
		n++
		fam, err := familyOf(name)
		if err != nil {
			t.Error(err)
			continue
		}
		if fam != "" && !known[fam] {
			t.Errorf("operator %q folds into %q, which is not a reported family", name, fam)
		}
	}
	if n != len(opFamily) {
		t.Errorf("engine names %d operators, opFamily lists %d: a stale entry hides a rename", n, len(opFamily))
	}
	if _, err := familyOf("no_such_op"); err == nil {
		t.Error("an unknown operator must be an error")
	}
}

// quartiles matches Python's statistics.quantiles(values, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q3, ok := quartiles(seq(10))
	if !ok || q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, %v", q1, q3, ok)
	}
	// statistics.quantiles([10, 2, 7], n=4) == [2.0, 7.0, 10.0]
	q1, q3, _ = quartiles([]float64{10, 2, 7})
	if q1 != 2 || q3 != 10 {
		t.Errorf("quartiles(10,2,7) = %v, %v", q1, q3)
	}
	if _, _, ok := quartiles([]float64{1}); ok {
		t.Error("one value has no quartiles")
	}
}

func TestJudge(t *testing.T) {
	steady := func(c float64) []float64 { return []float64{c * 0.995, c, c * 1.005, c, c * 0.999} }
	cases := []struct {
		name   string
		a, b   []float64
		better string
		bound  float64
		want   string
	}{
		{"same", steady(100), steady(100), "lower", 0.10, verdictOK},
		{"lower metric got 20% higher", steady(100), steady(120), "lower", 0.10, verdictRegressed},
		{"lower metric got 20% lower", steady(100), steady(80), "lower", 0.10, verdictOK},
		{"higher metric got 20% lower", steady(100), steady(80), "higher", 0.10, verdictRegressed},
		{"higher metric got 20% higher", steady(100), steady(120), "higher", 0.10, verdictOK},
		{"within bound", steady(100), steady(108), "lower", 0.10, verdictOK},
		{"spread wider than bound", []float64{60, 100, 140, 90, 130}, steady(150), "lower", 0.10, verdictUnresolved},
	}
	for _, c := range cases {
		got, worse, spread := judge(c.a, c.b, c.better, c.bound)
		if got != c.want {
			t.Errorf("%s: %s (worse %.3f, spread %.3f), want %s", c.name, got, worse, spread, c.want)
		}
		if math.IsNaN(worse) || math.IsNaN(spread) {
			t.Errorf("%s: NaN", c.name)
		}
	}
}
