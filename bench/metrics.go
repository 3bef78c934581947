package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// metricDef names one metric of the benchmark contract. BENCHMARK.json lists
// the same names and units (plus direction and bound); TestBenchmarkJSON
// keeps the two in step.
type metricDef struct {
	name, unit string
}

// endToEnd is what a user of the engine sees; measured with tracing off on
// every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"queries_per_s", "1/s"},
	{"query_ms_p50", "ms"},
	{"query_ms_p95", "ms"},
	{"footprint_ratio", "ratio"},
	{"footprint_mib", "MiB"},
	{"alloc_mib_per_query", "MiB"},
}

// perLayer is measured by the traced run only (-trace 1). A metric whose
// layer a workload does not touch reads 0 there.
var perLayer = []metricDef{
	{"bitutil.unpack_ns_per_elem", "ns"},
	{"bitutil.pack_ns_per_elem", "ns"},
	{"formats.decode_ns_per_elem", "ns"},
	{"formats.encode_ns_per_elem", "ns"},
	{"formats.decode_share", "ratio"},
	{"formats.encode_share", "ratio"},
	{"formats.bytes_per_elem", "B"},
	{"formats.concat_ns_per_elem", "ns"},
	{"morph.ns_per_elem", "ns"},
	{"morph.count", "count"},
	{"morph.share", "ratio"},
	{"costmodel.pick_ms", "ms"},
	{"costmodel.size_err_pct", "%"},
	{"ops.select.ms", "ms"},
	{"ops.project.ms", "ms"},
	{"ops.join.ms", "ms"},
	{"ops.semijoin.ms", "ms"},
	{"ops.group.ms", "ms"},
	{"ops.sum.ms", "ms"},
	{"ops.calc.ms", "ms"},
	{"ops.intersect.ms", "ms"},
	{"ops.in_values", "count"},
	{"ops.out_values", "count"},
	{"ops.kernel_share", "ratio"},
	{"ops.seq_ns_per_elem", "ns"},
	{"ops.runtime.par1_overhead_pct", "%"},
	{"ops.runtime.parN_speedup", "ratio"},
	{"ops.runtime.morsels", "count"},
	{"ops.runtime.seq_fallbacks", "count"},
	{"ops.runtime.overhead_ms", "ms"},
	{"ops.runtime.stitch_ns_per_elem", "ns"},
	{"core.prepare.ms", "ms"},
	{"core.prepare.mem_estimate_ratio", "ratio"},
	{"core.execute.self_ms", "ms"},
	{"core.oneoff.overhead_pct", "%"},
	{"core.execute.overhead_pct", "%"},
	{"core.execute.admission_wait_ms", "ms"},
	{"core.execute.trace_overhead_pct", "%"},
	{"ingest.batch_ms_p50", "ms"},
	{"ingest.rows_per_s", "1/s"},
	{"ingest.parse_ns_per_row", "ns"},
	{"ingest.load_share", "ratio"},
	{"dict.translate_ns_per_row", "ns"},
	{"dict.bytes_per_string", "B"},
	{"delta.append_ns_per_row", "ns"},
	{"delta.bytes_per_row", "B"},
	{"delta.merged_read_overhead_pct", "%"},
	{"delta.remorph_ms_p50", "ms"},
	{"delta.remorph_ns_per_row", "ns"},
}

// metric is one reported value in the contract's wire shape.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output: exactly these four keys.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// values collects metric values by name while a workload runs.
type values map[string]float64

// build assembles the report for one metric set: every listed metric is
// present (unset ones read 0), nothing else is.
func build(defs []metricDef, v values, attempted, failed int) (*report, error) {
	known := make(map[string]bool, len(defs))
	r := &report{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: make(map[string]metric, len(defs))}
	for _, d := range defs {
		known[d.name] = true
		r.Metrics[d.name] = metric{Value: v[d.name], Unit: d.unit}
	}
	for name := range v {
		if !known[name] {
			return nil, fmt.Errorf("bench: metric %q is not in the reported set", name)
		}
	}
	return r, nil
}

// printTable writes the metrics as a name/value/unit table for people.
func (r *report) printTable(w io.Writer, defs []metricDef, notes []string) {
	for _, d := range defs {
		fmt.Fprintf(w, "%-36s %16.6g %s\n", d.name, r.Metrics[d.name].Value, d.unit)
	}
	share := 0.0
	if r.Attempted > 0 {
		share = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Fprintf(w, "%-36s %16.6g ratio (%d of %d operations)\n", "failed_share", share, r.Failed, r.Attempted)
	sort.Strings(notes)
	for _, n := range notes {
		fmt.Fprintln(w, "note:", n)
	}
}

// printJSON writes the contract line.
func (r *report) printJSON(w io.Writer) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}
