package main

import (
	"fmt"
	"sort"
	"strings"
)

// This file implements the benchmark-regression gate behind the -compare
// flag: a fresh run is compared against a checked-in baseline JSON report.
//
// Raw GB/s numbers are not portable across machines (the baseline is
// recorded once, CI runners vary), so the gate is made machine-speed
// invariant: the median run/baseline ratio over all throughput metrics is
// taken as the machine's speed scale, and each individual metric is gated on
// its deviation from that scale. A uniformly slower runner shifts every
// ratio equally and passes; a kernel regression shifts only its own metrics
// and fails once the deviation exceeds the tolerance. Compression rates are
// machine-independent and gated on their absolute ratio.

// gatedKind classifies a metric for the regression gate.
type gatedKind int

const (
	gateSkip       gatedKind = iota // not a performance metric (e.g. estimate_err_pct)
	gateThroughput                  // higher is better, machine-dependent (GB/s)
	gateRate                        // lower is better, machine-independent (compressed/uncompressed)
	gateInfo                        // reported and included in the speed scale, but never failed
	gateRatio                       // higher is better, machine-independent speedup ratio
	gateCeiling                     // lower is better, machine-invariant, absolute ceiling (overhead percentages)
)

func classifyMetric(section, metric string) gatedKind {
	switch {
	case metric == "compress_gbps":
		// Compression timings run the allocation-heavy writer path; their
		// process-to-process noise (GC pacing, heap layout) exceeds ±30%
		// even at min-of-10 repeats, so they inform the speed scale but
		// cannot carry a hard gate.
		return gateInfo
	case metric == "concat_gbps":
		// The block-granular concat finishes in tens of microseconds (it is
		// a handful of memcpys), so its timing is dominated by allocator
		// and page-placement noise like compress_gbps: informational only.
		return gateInfo
	case metric == "qps":
		// Multi-query throughput depends on the runner's core count, which
		// the single-scale speed normalization cannot factor out (a 1-core
		// baseline understates conc>1 on multi-core runners and vice
		// versa): informational, like compress_gbps.
		return gateInfo
	case metric == "gbps" || strings.HasSuffix(metric, "_gbps"):
		return gateThroughput
	case metric == "rate":
		return gateRate
	case metric == "overhead_pct":
		// The observability layer's projected detached-instrumentation
		// slowdown (see the msbench "metrics" section): a ratio of
		// same-machine timings, so machine-invariant, gated against the
		// absolute overheadCeilingPct budget rather than the baseline value.
		// It is excluded from the speed scale (only gateThroughput/gateInfo
		// feed it), so this ratio cannot skew the throughput gates.
		return gateCeiling
	case metric == "serial_over_concat":
		// The compressed stitch's serial-cost reduction: machine-invariant
		// (a ratio of two same-machine timings), gated so a change that
		// reintroduces per-block work in the concat — collapsing the
		// hundreds-fold ratio towards 1x — fails loudly. Its denominator is
		// the same microsecond-scale concat timing that makes concat_gbps
		// informational, so the gate uses the wide ratioFloorFrac budget
		// instead of the standard tolerance.
		return gateRatio
	default:
		return gateSkip
	}
}

// ratioFloorFrac is the gateRatio failure floor: a run's speedup ratio below
// this fraction of the baseline's fails. It is deliberately loose — the
// denominator (block-granular concat) is a tens-of-microseconds timing whose
// process-to-process noise can halve the ratio spuriously — because a real
// regression (per-block or per-element work back in the concat path)
// collapses the tens-fold ratio to about one.
const ratioFloorFrac = 0.2

// overheadCeilingPct is the gateCeiling failure line: the observability
// layer's projected slowdown with no collector attached must stay below 2%
// of query runtime (the acceptance budget; the measured value sits around
// two orders of magnitude under it, so the gate only trips when someone puts
// real work — an allocation, a lock, a clock read — on the detached path).
const overheadCeilingPct = 2.0

func recordKey(r Record) string { return r.Section + "/" + r.Name + "/" + r.Metric }

// compareReports gates run against base with the given relative tolerance
// (e.g. 0.25 = fail a throughput metric more than 25% below the scaled
// baseline). It returns human-readable report lines and the list of
// failures; an empty failure list means the gate passes.
func compareReports(base, run *Report, tolerance float64) (lines, failures []string) {
	if base.N != run.N || base.Seed != run.Seed {
		return lines, []string{fmt.Sprintf(
			"workload mismatch: baseline n=%d seed=%d vs run n=%d seed=%d — regenerate the baseline for the new workload",
			base.N, base.Seed, run.N, run.Seed)}
	}
	baseByKey := make(map[string]Record, len(base.Records))
	for _, r := range base.Records {
		baseByKey[recordKey(r)] = r
	}
	runByKey := make(map[string]Record, len(run.Records))
	for _, r := range run.Records {
		runByKey[recordKey(r)] = r
	}

	// Machine speed scale: median run/base ratio over throughput metrics.
	var ratios []float64
	for key, br := range baseByKey {
		kind := classifyMetric(br.Section, br.Metric)
		if (kind != gateThroughput && kind != gateInfo) || br.Value <= 0 {
			continue
		}
		if rr, ok := runByKey[key]; ok && rr.Value > 0 {
			ratios = append(ratios, rr.Value/br.Value)
		}
	}
	if len(ratios) == 0 {
		return lines, []string{"no throughput metrics shared between run and baseline"}
	}
	sort.Float64s(ratios)
	scale := ratios[len(ratios)/2]
	if len(ratios)%2 == 0 {
		scale = (ratios[len(ratios)/2-1] + ratios[len(ratios)/2]) / 2
	}
	lines = append(lines, fmt.Sprintf("speed scale run/baseline = %.3f (median over %d throughput metrics), tolerance %.0f%%",
		scale, len(ratios), 100*tolerance))

	// Deterministic order: walk the baseline records as recorded.
	for _, br := range base.Records {
		kind := classifyMetric(br.Section, br.Metric)
		if kind == gateSkip {
			continue
		}
		key := recordKey(br)
		rr, ok := runByKey[key]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: present in baseline but missing from run", key))
			continue
		}
		switch kind {
		case gateThroughput, gateInfo:
			if br.Value <= 0 {
				lines = append(lines, fmt.Sprintf("  %-55s baseline value %g invalid, NOT GATED — regenerate the baseline", key, br.Value))
				continue
			}
			norm := rr.Value / br.Value / scale
			status := "ok"
			if kind == gateInfo {
				status = "info"
			} else if norm < 1-tolerance {
				status = "REGRESSION"
				failures = append(failures, fmt.Sprintf("%s: %.3f GB/s vs baseline %.3f GB/s (%.0f%% below machine scale)",
					key, rr.Value, br.Value, 100*(1-norm)))
			}
			lines = append(lines, fmt.Sprintf("  %-55s %8.3f -> %8.3f  norm %.2fx  %s", key, br.Value, rr.Value, norm, status))
		case gateRate:
			status := "ok"
			if br.Value > 0 && rr.Value > br.Value*(1+tolerance) {
				status = "REGRESSION"
				failures = append(failures, fmt.Sprintf("%s: compression rate %.4f vs baseline %.4f",
					key, rr.Value, br.Value))
			}
			lines = append(lines, fmt.Sprintf("  %-55s %8.4f -> %8.4f  %s", key, br.Value, rr.Value, status))
		case gateRatio:
			status := "ok"
			if br.Value > 0 && rr.Value < br.Value*ratioFloorFrac {
				status = "REGRESSION"
				failures = append(failures, fmt.Sprintf("%s: speedup ratio %.1fx vs baseline %.1fx",
					key, rr.Value, br.Value))
			}
			lines = append(lines, fmt.Sprintf("  %-55s %7.1fx -> %7.1fx  %s", key, br.Value, rr.Value, status))
		case gateCeiling:
			status := "ok"
			if rr.Value > overheadCeilingPct {
				status = "REGRESSION"
				failures = append(failures, fmt.Sprintf("%s: overhead %.3f%% exceeds the %.1f%% ceiling",
					key, rr.Value, overheadCeilingPct))
			}
			lines = append(lines, fmt.Sprintf("  %-55s %7.3f%% -> %7.3f%%  (ceiling %.1f%%)  %s", key, br.Value, rr.Value, overheadCeilingPct, status))
		}
	}
	for _, rr := range run.Records {
		if classifyMetric(rr.Section, rr.Metric) == gateSkip {
			continue
		}
		if _, ok := baseByKey[recordKey(rr)]; !ok {
			lines = append(lines, fmt.Sprintf("  %-55s new metric (not in baseline, not gated)", recordKey(rr)))
		}
	}
	return lines, failures
}

// mergeReports combines several independent msbench process runs into one
// report holding the per-metric median. Single process runs are bimodal on
// some metrics (heap and page placement decided at startup shifts a kernel's
// throughput by 30%+ for the whole process lifetime), so both the checked-in
// baseline and the CI run are medians of several fresh processes — that is
// what makes the regression gate's tolerance meaningful.
func mergeReports(reps []*Report) (*Report, error) {
	if len(reps) == 0 {
		return nil, fmt.Errorf("no reports to merge")
	}
	vals := make(map[string][]float64)
	var order []string
	recs := make(map[string]Record)
	for _, rep := range reps {
		if rep.N != reps[0].N || rep.Seed != reps[0].Seed {
			return nil, fmt.Errorf("reports disagree on workload (n=%d/%d, seed=%d/%d)",
				rep.N, reps[0].N, rep.Seed, reps[0].Seed)
		}
		for _, r := range rep.Records {
			key := recordKey(r)
			if _, seen := vals[key]; !seen {
				order = append(order, key)
				recs[key] = r
			}
			vals[key] = append(vals[key], r.Value)
		}
	}
	out := *reps[0]
	out.Records = make([]Record, 0, len(order))
	for _, key := range order {
		vs := append([]float64(nil), vals[key]...)
		sort.Float64s(vs)
		med := vs[len(vs)/2]
		if len(vs)%2 == 0 {
			med = (vs[len(vs)/2-1] + vs[len(vs)/2]) / 2
		}
		r := recs[key]
		r.Value = med
		out.Records = append(out.Records, r)
	}
	return &out, nil
}
