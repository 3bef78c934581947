package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// This file holds the harness arithmetic the metrics rest on: the percentile
// picker, medians, span self-time and the operator-family folding.

// minBeyond is the number of samples that must lie beyond a reported
// percentile for it to be trusted (choosing-metrics §1).
const minBeyond = 10

// percentile returns the p-th percentile (0 < p < 100) of sorted by the
// nearest-rank rule. It refuses (ok == false) when fewer than minBeyond
// samples lie beyond the picked rank: a tail estimated from a handful of
// samples is noise, not a percentile.
func percentile(sorted []float64, p float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 || p <= 0 || p >= 100 {
		return 0, false
	}
	rank := int(math.Ceil(float64(n)*p/100-1e-9)) - 1
	if rank < 0 {
		rank = 0
	}
	if n-1-rank < minBeyond {
		return 0, false
	}
	return sorted[rank], true
}

// tail returns the want-th percentile of sorted, or — when the sample is too
// small for it — the highest rank that still has minBeyond samples beyond it,
// or the maximum for samples that support none. used reports the percentile
// actually read.
func tail(sorted []float64, want float64) (v, used float64) {
	if v, ok := percentile(sorted, want); ok {
		return v, want
	}
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	if rank := n - 1 - minBeyond; rank >= 0 {
		return sorted[rank], 100 * float64(rank+1) / float64(n)
	}
	return sorted[n-1], 100
}

// median returns the middle value (mean of the two middle values for an even
// count); 0 for an empty set. The input is not modified.
func median(vals []float64) float64 {
	n := len(vals)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// sortedMS converts durations to float milliseconds, sorted ascending.
func sortedMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

// span is one timed interval recorded by the harness: a call into a layer's
// public function, or an operator span forwarded by the engine's tracer hook.
type span struct {
	start, end time.Time
}

// unionCovered returns how much of parent the children cover: the length of
// the union of the child intervals clipped to parent. Overlapping children —
// plan nodes running in parallel — count once.
func unionCovered(parent span, children []span) time.Duration {
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := c.start, c.end
		if a.Before(parent.start) {
			a = parent.start
		}
		if b.After(parent.end) {
			b = parent.end
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var covered time.Duration
	var curA, curB time.Time
	for i, v := range ivs {
		switch {
		case i == 0:
			curA, curB = v.a, v.b
		case v.a.After(curB):
			covered += curB.Sub(curA)
			curA, curB = v.a, v.b
		case v.b.After(curB):
			curB = v.b
		}
	}
	if len(ivs) > 0 {
		covered += curB.Sub(curA)
	}
	return covered
}

// selfTime is a span's duration minus the part of it its children cover
// (the union of the children, never their sum).
func selfTime(parent span, children []span) time.Duration {
	return parent.end.Sub(parent.start) - unionCovered(parent, children)
}

// opFamily folds every plan operator name (core.OpKind.String) into the
// family its wall time is reported under as ops.<family>.ms. Scans hand out
// stored columns and do no kernel work; they fold into "" (not reported).
// TestOpFamilyCoversEveryOperator fails when the engine grows an operator
// this table does not name.
var opFamily = map[string]string{
	"scan":        "",
	"select":      "select",
	"between":     "select",
	"select_str":  "select",
	"project":     "project",
	"intersect":   "intersect",
	"merge":       "intersect",
	"semijoin":    "semijoin",
	"join":        "join",
	"group":       "group",
	"group_next":  "group",
	"sum":         "sum",
	"sum_grouped": "sum",
	"calc":        "calc",
}

// families lists the reported operator families in table order.
var families = []string{"select", "project", "join", "semijoin", "group", "sum", "calc", "intersect"}

// familyOf returns the family of an operator name, failing on names the
// table does not cover so a new operator cannot silently drop out.
func familyOf(op string) (string, error) {
	f, ok := opFamily[op]
	if !ok {
		return "", fmt.Errorf("bench: operator %q has no family in opFamily", op)
	}
	return f, nil
}
