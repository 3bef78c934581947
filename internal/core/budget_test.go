package core_test

import (
	"context"
	"testing"
	"time"

	"morphstore/internal/columns"
	"morphstore/internal/core"
	"morphstore/internal/metrics"
	"morphstore/internal/ssb"
)

// TestBudgetNoNestedWait runs every SSB plan at WithParallelism(4) on an
// engine whose budget is a single token. A morsel worker that waited for a
// second token while holding one would never finish here; the deadline turns
// such a wait into a failure instead of a hang. Every kept column and its
// footprint must match the width-1 run byte for byte.
func TestBudgetNoNestedWait(t *testing.T) {
	data, err := ssb.Generate(0.002, 7)
	if err != nil {
		t.Fatal(err)
	}
	e := core.NewEngine(data.DB, core.WithParallelism(1))
	defer e.Close(context.Background())
	split := false // some operator ran more workers than the budget has tokens
	for _, q := range ssb.Queries {
		p, err := ssb.BuildPlan(q, data.Dicts)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		pr, err := e.Prepare(p, core.WithKeep(true), core.WithUniformFormat(columns.DeltaBPDesc))
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		seq, err := pr.Execute(ctx)
		if err == nil {
			var par *core.Result
			var qs metrics.QueryStats
			if par, err = pr.Execute(ctx, core.WithParallelism(4), core.WithExecStats(&qs)); err == nil {
				sameKept(t, string(q), seq, par)
			}
			for _, ns := range qs.Nodes {
				split = split || ns.Workers > 1
			}
		}
		cancel()
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	if !split {
		t.Fatal("no operator split into more than one worker")
	}
}

// sameKept fails the test unless both results kept the same columns with the
// same words and the same physical footprints.
func sameKept(t *testing.T, label string, want, got *core.Result) {
	t.Helper()
	if len(got.Inter) != len(want.Inter) || len(got.Meas.ColBytes) != len(want.Meas.ColBytes) {
		t.Fatalf("%s: kept %d columns / %d footprints, want %d / %d",
			label, len(got.Inter), len(got.Meas.ColBytes), len(want.Inter), len(want.Meas.ColBytes))
	}
	for name, w := range want.Inter {
		g := got.Inter[name]
		if g == nil || g.N() != w.N() || len(g.Words()) != len(w.Words()) {
			t.Fatalf("%s: column %q missing or reshaped", label, name)
		}
		for k, ww := range w.Words() {
			if g.Words()[k] != ww {
				t.Fatalf("%s: column %q word %d differs", label, name, k)
			}
		}
	}
	for name, b := range want.Meas.ColBytes {
		if got.Meas.ColBytes[name] != b {
			t.Fatalf("%s: column %q is %d bytes, want %d", label, name, got.Meas.ColBytes[name], b)
		}
	}
}
