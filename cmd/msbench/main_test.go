package main

import (
	"errors"
	"io"
	"strings"
	"testing"
	"time"
)

// TestPairedRatioInterleaves drives the estimator with scripted timers: each
// sample runs a b b a (b a a b on odd samples), a failed run fails the
// measurement, and the result is the median of the per-sample ratios, so a
// sample one side was disturbed in does not move it.
func TestPairedRatioInterleaves(t *testing.T) {
	var order []byte
	calls := map[byte]int{}
	timer := func(side byte, d func(call int) time.Duration) func() (time.Duration, error) {
		return func() (time.Duration, error) {
			order = append(order, side)
			calls[side]++
			return d(calls[side]), nil
		}
	}
	a := timer('a', func(int) time.Duration { return 100 * time.Microsecond })
	// b costs 1% more than a, except for one 50x hiccup in the second sample.
	b := timer('b', func(call int) time.Duration {
		if call == 3 {
			return 5 * time.Millisecond
		}
		return 101 * time.Microsecond
	})
	ratio, medA, medB, err := pairedRatio(5, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := string(order), "abba"+"baab"+"abba"+"baab"+"abba"; got != want {
		t.Fatalf("run order %s, want %s", got, want)
	}
	if ratio < 1.0099 || ratio > 1.0101 {
		t.Fatalf("ratio %.5f, want the undisturbed 1.01", ratio)
	}
	if medA != 100*time.Microsecond || medB != 101*time.Microsecond {
		t.Fatalf("medians %v / %v, want 100µs / 101µs", medA, medB)
	}

	boom := errors.New("run failed")
	failing := func() (time.Duration, error) { return 0, boom }
	if _, _, _, err := pairedRatio(3, a, failing); !errors.Is(err, boom) {
		t.Fatalf("failing side: err = %v, want the run's error", err)
	}
}

// TestGateCeiling: an overhead under the ceiling passes, one over it fails
// with the metric named, and a measurement that failed is a failure of the
// gate — never a pass.
func TestGateCeiling(t *testing.T) {
	if f := gate(io.Discard, []overhead{{name: "empty_delta_read", pct: 1.9}, {name: "metrics_overhead", pct: -0.4}}); len(f) != 0 {
		t.Fatalf("1.9%% and -0.4%% failed the %.0f%% gate: %v", ceilingPct, f)
	}
	f := gate(io.Discard, []overhead{
		{name: "metrics_overhead", pct: 0.001},
		{name: "empty_delta_read", pct: 2.1},
		{name: "string_predicate", err: errors.New("engine closed")},
	})
	if len(f) != 2 {
		t.Fatalf("failures %v, want one for the 2.1%% overhead and one for the failed measurement", f)
	}
	if !strings.HasPrefix(f[0], "empty_delta_read:") || !strings.Contains(f[0], "2.100%") {
		t.Fatalf("over-ceiling failure %q does not name empty_delta_read and its value", f[0])
	}
	if !strings.HasPrefix(f[1], "string_predicate:") || !strings.Contains(f[1], "engine closed") {
		t.Fatalf("measurement failure %q does not name string_predicate and the error", f[1])
	}
}
