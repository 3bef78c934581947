// Command msbench measures the building blocks of MorphStore-Go in
// isolation: per-format compression rate and (de)compression speed on the
// Table 1 columns, SWAR kernel throughput, morphing bandwidth, and the
// morsel-parallel operator drivers. It is the micro counterpart of
// cmd/msrepro's figure-level experiments and mirrors the evaluation axes of
// the authors' earlier compression survey (§2.1: compression rate vs
// compression speed vs decompression speed).
//
// With -json the collected measurements are emitted as a JSON document (for
// archiving runs as BENCH_*.json) instead of the human-readable tables.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"morphstore/internal/bitutil"
	"morphstore/internal/columns"
	"morphstore/internal/core"
	"morphstore/internal/costmodel"
	"morphstore/internal/datagen"
	"morphstore/internal/dict"
	"morphstore/internal/faultpoint"
	"morphstore/internal/formats"
	"morphstore/internal/metrics"
	"morphstore/internal/morph"
	"morphstore/internal/ops"
	"morphstore/internal/qerr"
	"morphstore/internal/stats"
	"morphstore/internal/vector"
)

// Record is one measurement of the run; the JSON archive is a flat list of
// these plus a small header.
type Record struct {
	Section string  `json:"section"`
	Name    string  `json:"name"`
	Metric  string  `json:"metric"`
	Value   float64 `json:"value"`
}

// Report is the -json output document.
type Report struct {
	N         int      `json:"n"`
	Seed      int64    `json:"seed"`
	Repeats   int      `json:"repeats"`
	GoMaxProc int      `json:"gomaxprocs"`
	Records   []Record `json:"records"`
}

type bench struct {
	jsonOut bool
	records []Record
}

// printf writes human-readable output unless JSON mode is active.
func (b *bench) printf(format string, args ...any) {
	if !b.jsonOut {
		fmt.Printf(format, args...)
	}
}

func (b *bench) record(section, name, metric string, value float64) {
	b.records = append(b.records, Record{Section: section, Name: name, Metric: metric, Value: value})
}

func main() {
	n := flag.Int("n", 1<<22, "column size in elements")
	seed := flag.Int64("seed", 42, "generator seed")
	repeats := flag.Int("repeats", 3, "repetitions (minimum reported)")
	par := flag.Int("par", runtime.GOMAXPROCS(0), "max parallelism degree for the morsel-parallel section")
	trace := flag.String("trace", "", "write a JSON-lines execution trace of the observability section's query to this file")
	jsonOut := flag.Bool("json", false, "emit results as JSON instead of tables")
	merge := flag.Bool("merge", false, "merge the report files given as arguments by per-metric median and emit the result (no benchmarks run)")
	compare := flag.String("compare", "", "baseline JSON report to gate against (exit 1 on regression)")
	against := flag.String("against", "", "with -compare: gate this already-recorded report instead of running benchmarks")
	tolerance := flag.Float64("tolerance", 0.25, "relative tolerance of the -compare regression gate")
	flag.Parse()

	if *merge {
		reps := make([]*Report, 0, flag.NArg())
		for _, path := range flag.Args() {
			reps = append(reps, loadReport(path))
		}
		merged, err := mergeReports(reps)
		if err != nil {
			log.Fatal(err)
		}
		writeJSON(merged)
		return
	}

	var rep *Report
	if *against != "" {
		if *compare == "" {
			log.Fatal("-against requires -compare")
		}
		rep = loadReport(*against)
	} else {
		if *par < 1 {
			*par = 1
		}
		b := &bench{jsonOut: *jsonOut}
		if err := run(b, *n, *seed, *repeats, *par, *trace); err != nil {
			log.Fatal(err)
		}
		rep = &Report{N: *n, Seed: *seed, Repeats: *repeats, GoMaxProc: runtime.GOMAXPROCS(0), Records: b.records}
		if *jsonOut {
			writeJSON(rep)
		}
	}
	if *compare != "" {
		base := loadReport(*compare)
		// The comparison goes to stderr so `-json -compare ... > run.json`
		// archives the run while the gate stays visible in the CI log.
		lines, failures := compareReports(base, rep, *tolerance)
		for _, l := range lines {
			fmt.Fprintln(os.Stderr, l)
		}
		if len(failures) > 0 {
			fmt.Fprintf(os.Stderr, "\nbenchmark regression gate FAILED (%d):\n", len(failures))
			for _, f := range failures {
				fmt.Fprintln(os.Stderr, "  "+f)
			}
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "benchmark regression gate passed")
	}
}

func loadReport(path string) *Report {
	raw, err := os.ReadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		log.Fatalf("parse report %s: %v", path, err)
	}
	return &rep
}

func writeJSON(rep *Report) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		log.Fatal(err)
	}
}

// decompressInto streams col through its format reader into dst, which must
// hold col.N() elements: decompression without the destination allocation.
func decompressInto(dst []uint64, col *columns.Column) error {
	r, err := formats.NewReader(col)
	if err != nil {
		return err
	}
	for k := 0; k < len(dst); {
		c, err := r.Read(dst[k:])
		if err != nil {
			return err
		}
		if c == 0 {
			return fmt.Errorf("%v column decodes to %d of %d elements", col.Desc(), k, len(dst))
		}
		k += c
	}
	return nil
}

func run(b *bench, n int, seed int64, repeats, par int, tracePath string) error {
	b.printf("codec micro-benchmarks, n=%d elements (%.0f MiB uncompressed)\n\n", n, float64(n*8)/(1<<20))

	for _, id := range datagen.All {
		vals := datagen.Generate(id, n, seed)
		b.printf("-- column %v --\n", id)
		b.printf("%-14s %10s %14s %14s %12s\n", "format", "rate", "compr [GB/s]", "decompr[GB/s]", "est. err")
		prof := stats.Collect(vals)
		for _, desc := range formats.AllDescs() {
			var col *columns.Column
			ct, err := minTime(repeats, func() error {
				var e error
				col, e = formats.Compress(vals, desc)
				return e
			})
			if err != nil {
				return err
			}
			dst := make([]uint64, n)
			dt, err := minTime(repeats, func() error { return decompressInto(dst, col) })
			if err != nil {
				return err
			}
			est, err := costmodel.EstimateBytes(prof, desc)
			if err != nil {
				return err
			}
			rate := float64(col.PhysicalBytes()) / float64(n*8)
			errPct := 100 * (float64(est)/float64(col.PhysicalBytes()) - 1)
			b.printf("%-14v %9.1f%% %14.2f %14.2f %+11.1f%%\n",
				desc, 100*rate, gbps(n, ct), gbps(n, dt), errPct)
			name := id.String() + "/" + desc.String()
			b.record("codec", name, "rate", rate)
			b.record("codec", name, "compress_gbps", gbps(n, ct))
			b.record("codec", name, "decompress_gbps", gbps(n, dt))
			b.record("codec", name, "estimate_err_pct", errPct)
		}
		b.printf("\n")
	}

	// SWAR kernels vs scalar loops.
	b.printf("-- SWAR kernels (8-bit fields) vs element-at-a-time --\n")
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = uint64(i) % 251
	}
	col, err := formats.Compress(vals, columns.StaticBPDesc(8))
	if err != nil {
		return err
	}
	td, err := minTime(repeats, func() error {
		_, _, err := ops.FixedRT(1).SumAuto(col, vector.Vec512, true)
		return err
	})
	if err != nil {
		return err
	}
	tg, err := minTime(repeats, func() error {
		_, _, err := ops.FixedRT(1).SumAuto(col, vector.Vec512, false)
		return err
	})
	if err != nil {
		return err
	}
	b.printf("sum on packed words (SWAR): %8.2f GB/s\n", gbps(n, td))
	b.printf("sum via de/re-compression:  %8.2f GB/s\n", gbps(n, tg))
	b.record("swar", "sum_direct", "gbps", gbps(n, td))
	b.record("swar", "sum_otf", "gbps", gbps(n, tg))

	ts, err := minTime(repeats, func() error {
		_, err := ops.FixedRT(1).SelectAuto(col, bitutil.CmpLt, 16, columns.DeltaBPDesc, vector.Vec512, true)
		return err
	})
	if err != nil {
		return err
	}
	to, err := minTime(repeats, func() error {
		_, err := ops.FixedRT(1).SelectAuto(col, bitutil.CmpLt, 16, columns.DeltaBPDesc, vector.Vec512, false)
		return err
	})
	if err != nil {
		return err
	}
	b.printf("select on packed words:     %8.2f GB/s\n", gbps(n, ts))
	b.printf("select via de/re-compr.:    %8.2f GB/s\n", gbps(n, to))
	b.record("swar", "select_direct", "gbps", gbps(n, ts))
	b.record("swar", "select_otf", "gbps", gbps(n, to))

	// Morphing bandwidth.
	b.printf("\n-- morphing (DynBP -> StaticBP) --\n")
	src, err := formats.Compress(datagen.Generate(datagen.C1, n, seed), columns.DynBPDesc)
	if err != nil {
		return err
	}
	tm, err := minTime(repeats, func() error {
		_, err := morph.Morph(src, columns.StaticBPDesc(0))
		return err
	})
	if err != nil {
		return err
	}
	tg2, err := minTime(repeats, func() error {
		_, err := morph.Generic(src, columns.StaticBPDesc(0))
		return err
	})
	if err != nil {
		return err
	}
	b.printf("direct morph:     %8.2f GB/s\n", gbps(n, tm))
	b.printf("generic blockwise:%8.2f GB/s\n", gbps(n, tg2))
	b.record("morph", "direct", "gbps", gbps(n, tm))
	b.record("morph", "generic_blockwise", "gbps", gbps(n, tg2))

	// Morsel-parallel drivers: select and sum over a DynBP column at
	// increasing parallelism (1 = the sequential operator).
	b.printf("\n-- morsel-parallel kernels on DynBP (GOMAXPROCS=%d) --\n", runtime.GOMAXPROCS(0))
	selVals, needle := datagen.GenerateSelectWorkload(datagen.C1, n, seed)
	dynCol, err := formats.Compress(selVals, columns.DynBPDesc)
	if err != nil {
		return err
	}
	// Workloads for the join/calc/grouped-sum drivers: a half-matching
	// unique-key build side, a second value column, and a dense group-id
	// column, all DynBP-compressed like the probe/value column above.
	probeVals := make([]uint64, n)
	gidVals := make([]uint64, n)
	const nBuild, nGroups = 4096, 1024
	for i := range probeVals {
		probeVals[i] = selVals[i] % (2 * nBuild) // ~50% hit the build side
		gidVals[i] = uint64(i) % nGroups
	}
	probeCol, err := formats.Compress(probeVals, columns.DynBPDesc)
	if err != nil {
		return err
	}
	gidCol, err := formats.Compress(gidVals, columns.DynBPDesc)
	if err != nil {
		return err
	}
	calcCol, err := formats.Compress(datagen.Generate(datagen.C1, n, seed+1), columns.DynBPDesc)
	if err != nil {
		return err
	}
	buildVals := make([]uint64, nBuild)
	for i := range buildVals {
		buildVals[i] = uint64(i)
	}
	buildCol := columns.FromValues(buildVals)

	levels := []int{}
	for p := 1; p < par; p *= 2 {
		levels = append(levels, p)
	}
	levels = append(levels, par) // always measure the requested maximum
	for _, p := range levels {
		tp, err := minTime(repeats, func() error {
			_, err := ops.FixedRT(p).SelectAuto(dynCol, bitutil.CmpEq, needle, columns.DeltaBPDesc, vector.Vec512, false)
			return err
		})
		if err != nil {
			return err
		}
		tsum, err := minTime(repeats, func() error {
			_, _, err := ops.FixedRT(p).SumAuto(dynCol, vector.Vec512, false)
			return err
		})
		if err != nil {
			return err
		}
		tjoin, err := minTime(repeats, func() error {
			_, _, err := ops.FixedRT(p).JoinN1(probeCol, buildCol, columns.DeltaBPDesc, columns.DynBPDesc, vector.Vec512)
			return err
		})
		if err != nil {
			return err
		}
		tcalc, err := minTime(repeats, func() error {
			_, err := ops.FixedRT(p).CalcBinary(ops.CalcMul, dynCol, calcCol, columns.DynBPDesc, vector.Vec512)
			return err
		})
		if err != nil {
			return err
		}
		tgsum, err := minTime(repeats, func() error {
			_, err := ops.FixedRT(p).SumGrouped(gidCol, dynCol, nGroups, vector.Vec512)
			return err
		})
		if err != nil {
			return err
		}
		b.printf("par=%-2d  select: %8.2f GB/s   sum: %8.2f GB/s   joinn1: %8.2f GB/s   calc: %8.2f GB/s   sum_grouped: %8.2f GB/s\n",
			p, gbps(n, tp), gbps(n, tsum), gbps(n, tjoin), gbps(n, tcalc), gbps(n, tgsum))
		b.record("parallel", fmt.Sprintf("select_par%d", p), "gbps", gbps(n, tp))
		b.record("parallel", fmt.Sprintf("sum_par%d", p), "gbps", gbps(n, tsum))
		b.record("parallel", fmt.Sprintf("joinn1_par%d", p), "gbps", gbps(n, tjoin))
		b.record("parallel", fmt.Sprintf("calc_par%d", p), "gbps", gbps(n, tcalc))
		b.record("parallel", fmt.Sprintf("sum_grouped_par%d", p), "gbps", gbps(n, tgsum))
	}

	// Parallel grouping: GroupFirst over the dense group-id column and the
	// GroupNext refinement of its output with the probe-key column — the
	// per-worker-table / deterministic-merge / remap drivers at increasing
	// parallelism (1 = the sequential hash grouping).
	b.printf("\n-- parallel grouping (per-worker tables + deterministic merge) --\n")
	gids1, _, err := ops.FixedRT(1).GroupFirst(gidCol, columns.DynBPDesc, columns.UncomprDesc, vector.Vec512)
	if err != nil {
		return err
	}
	for _, p := range levels {
		tgf, err := minTime(repeats, func() error {
			_, _, err := ops.FixedRT(p).GroupFirst(gidCol, columns.DynBPDesc, columns.UncomprDesc, vector.Vec512)
			return err
		})
		if err != nil {
			return err
		}
		tgn, err := minTime(repeats, func() error {
			_, _, err := ops.FixedRT(p).GroupNext(gids1, probeCol, columns.DynBPDesc, columns.UncomprDesc, vector.Vec512)
			return err
		})
		if err != nil {
			return err
		}
		b.printf("par=%-2d  group_first: %8.2f GB/s   group_next: %8.2f GB/s\n",
			p, gbps(n, tgf), gbps(n, tgn))
		b.record("grouped", fmt.Sprintf("group_first_par%d", p), "gbps", gbps(n, tgf))
		b.record("grouped", fmt.Sprintf("group_next_par%d", p), "gbps", gbps(n, tgn))
	}

	// Parallel sorted-set operators: intersect/merge of two sorted position
	// lists (~50% and ~33% selectivity), split at shared value-range
	// boundaries (1 = the sequential two-pointer merge).
	b.printf("\n-- parallel sorted-set operators (value-range splits) --\n")
	setA := make([]uint64, 0, n/2)
	setB := make([]uint64, 0, n/3)
	for i := 0; i < n; i += 2 {
		setA = append(setA, uint64(i))
	}
	for i := 0; i < n; i += 3 {
		setB = append(setB, uint64(i))
	}
	setACol, err := formats.Compress(setA, columns.DeltaBPDesc)
	if err != nil {
		return err
	}
	setBCol, err := formats.Compress(setB, columns.DeltaBPDesc)
	if err != nil {
		return err
	}
	nSet := len(setA) + len(setB) // elements touched per run
	for _, p := range levels {
		ti, err := minTime(repeats, func() error {
			_, err := ops.FixedRT(p).Intersect(setACol, setBCol, columns.DeltaBPDesc)
			return err
		})
		if err != nil {
			return err
		}
		tu, err := minTime(repeats, func() error {
			_, err := ops.FixedRT(p).Merge(setACol, setBCol, columns.DeltaBPDesc)
			return err
		})
		if err != nil {
			return err
		}
		b.printf("par=%-2d  intersect: %8.2f GB/s   merge: %8.2f GB/s\n",
			p, gbps(nSet, ti), gbps(nSet, tu))
		b.record("setops", fmt.Sprintf("intersect_par%d", p), "gbps", gbps(nSet, ti))
		b.record("setops", fmt.Sprintf("merge_par%d", p), "gbps", gbps(nSet, tu))
	}

	// Compressed stitch: the cost of materializing a high-selectivity
	// operator output stream as a compressed column. "serial" is the old
	// single-writer recompression (the pre-stitch Amdahl tail), "concat" is
	// the new serial portion only — block-granular concatenation of
	// pre-compressed sections — and "par" is the full parallel stitch
	// (sectioned recompression by par workers plus the concat). The
	// serial_over_concat ratio is machine-speed invariant and is the
	// serial-stitch-cost reduction delivered by the compressed stitch.
	b.printf("\n-- compressed stitch (high-selectivity output streams, %d-way sections) --\n", stitchSections)
	posStream := make([]uint64, 0, n/2)
	for i := 0; i < n; i += 2 { // ~50% selectivity select positions
		posStream = append(posStream, uint64(i))
	}
	if err := stitchBench(b, repeats, par, "select_pos/delta+bp", posStream, columns.DeltaBPDesc); err != nil {
		return err
	}
	if err := stitchBench(b, repeats, par, "project_vals/dyn_bp", datagen.Generate(datagen.C1, n, seed+2), columns.DynBPDesc); err != nil {
		return err
	}

	// Multi-query scheduling: one plan prepared once on an engine whose
	// worker budget is shared by C concurrent query streams. Throughput in
	// queries/s shows how the budget re-division behaves as streams pile up
	// (conc=1 is the single-query baseline).
	b.printf("\n-- multi-query scheduling (prepared plan, %d-worker shared budget) --\n", par)
	qdb := core.NewDB()
	qdb.AddTable("t", map[string][]uint64{"a": gidVals, "b": probeVals})
	enc, err := qdb.Encode(map[string]columns.FormatDesc{
		"t.a": columns.DynBPDesc, "t.b": columns.StaticBPDesc(0)})
	if err != nil {
		return err
	}
	pb := core.NewBuilder()
	pa := pb.Scan("t", "a")
	pbcol := pb.Scan("t", "b")
	pos := pb.Between("pos", pa, nGroups/4, 3*nGroups/4) // ~50% selectivity
	vals2 := pb.Project("vals", pbcol, pos)
	pb.Result(pb.SumWhole("total", vals2))
	plan, err := pb.Build()
	if err != nil {
		return err
	}
	eng := core.NewEngine(enc, core.WithParallelism(par), core.WithStyle(vector.Vec512))
	pq, err := eng.Prepare(plan, core.WithFormats(map[string]columns.FormatDesc{
		"pos": columns.DeltaBPDesc, "vals": columns.DynBPDesc}))
	if err != nil {
		return err
	}
	const queriesPerStream = 2
	concs := []int{1, par, 4 * par}
	for i, conc := range concs {
		if i > 0 && conc == concs[i-1] {
			continue
		}
		t, err := minTime(repeats, func() error {
			var wg sync.WaitGroup
			errCh := make(chan error, conc)
			for s := 0; s < conc; s++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for q := 0; q < queriesPerStream; q++ {
						if _, err := pq.Execute(context.Background()); err != nil {
							errCh <- err
							return
						}
					}
				}()
			}
			wg.Wait()
			close(errCh)
			return <-errCh
		})
		if err != nil {
			return err
		}
		qps := float64(conc*queriesPerStream) / t.Seconds()
		b.printf("conc=%-3d %8.1f queries/s\n", conc, qps)
		b.record("multiquery", fmt.Sprintf("conc%d", conc), "qps", qps)
	}

	// Overload: the same prepared plan driven at 4x over-admission against a
	// slot-bounded engine with a small bounded queue. Shed rate and the
	// admission-wait distribution of the admitted queries characterize the
	// overload-protection layer; goodput (qps of completed queries) shows
	// what the engine still delivers under pressure. A graceful Close drains
	// the engine at the end. All informational: the numbers depend on the
	// runner's core count and scheduler like the multiquery qps.
	overClients := 4 * par
	b.printf("\n-- overload (%d slots, %d-deep queue, %d closed-loop clients) --\n",
		par, 2*par, overClients)
	oeng := core.NewEngine(enc, core.WithParallelism(par), core.WithStyle(vector.Vec512),
		core.WithMaxConcurrentQueries(par),
		core.WithAdmissionQueue(2*par, 5*time.Millisecond))
	opq, err := oeng.Prepare(plan, core.WithFormats(map[string]columns.FormatDesc{
		"pos": columns.DeltaBPDesc, "vals": columns.DynBPDesc}))
	if err != nil {
		return err
	}
	const queriesPerClient = 4
	var omu sync.Mutex
	var waits []time.Duration
	var shedCount, doneCount int
	startOver := time.Now()
	var owg sync.WaitGroup
	oerrCh := make(chan error, overClients)
	for c := 0; c < overClients; c++ {
		owg.Add(1)
		go func() {
			defer owg.Done()
			for q := 0; q < queriesPerClient; q++ {
				var s metrics.QueryStats
				_, err := opq.Execute(context.Background(), core.WithExecStats(&s))
				omu.Lock()
				switch {
				case err == nil:
					doneCount++
					waits = append(waits, s.AdmissionWait)
				case qerr.IsRetryable(err):
					shedCount++ // admission shed: the closed-loop client moves on
				default:
					omu.Unlock()
					oerrCh <- err
					return
				}
				omu.Unlock()
			}
		}()
	}
	owg.Wait()
	overElapsed := time.Since(startOver)
	close(oerrCh)
	if err := <-oerrCh; err != nil {
		return err
	}
	if err := oeng.Close(context.Background()); err != nil {
		return err
	}
	sort.Slice(waits, func(i, j int) bool { return waits[i] < waits[j] })
	pct := func(p float64) time.Duration {
		if len(waits) == 0 {
			return 0
		}
		i := int(p * float64(len(waits)-1))
		return waits[i]
	}
	shedRate := float64(shedCount) / float64(shedCount+doneCount)
	goodput := float64(doneCount) / overElapsed.Seconds()
	b.printf("shed %d of %d (%.0f%%), goodput %.1f queries/s, admission wait p50 %v p99 %v\n",
		shedCount, shedCount+doneCount, 100*shedRate, goodput, pct(0.50), pct(0.99))
	b.record("overload", "storm", "shed_rate", shedRate)
	b.record("overload", "storm", "qps", goodput)
	b.record("overload", "storm", "wait_p50_ms", pct(0.50).Seconds()*1e3)
	b.record("overload", "storm", "wait_p99_ms", pct(0.99).Seconds()*1e3)

	// Observability: the stats collector and tracer on the same prepared
	// query the multi-query section used. metrics_overhead is the projected
	// slowdown of a collector-DETACHED execution — the per-event cost of the
	// nil-receiver bookkeeping times the events one execution performs,
	// relative to the execution's runtime — gated against the absolute 2%
	// ceiling (compare.go: gateCeiling). The attached and traced ratios are
	// informational; regressions on the detached hot path itself are caught
	// by the gated throughput metrics above, which all run collector-free.
	b.printf("\n-- observability (per-query stats collection, JSONL tracing) --\n")
	var qs metrics.QueryStats
	if _, err := pq.Execute(context.Background(), core.WithExecStats(&qs)); err != nil {
		return err
	}
	tPlain, err := minTime(repeats, func() error {
		_, err := pq.Execute(context.Background())
		return err
	})
	if err != nil {
		return err
	}
	tStats, err := minTime(repeats, func() error {
		var s metrics.QueryStats
		_, err := pq.Execute(context.Background(), core.WithExecStats(&s))
		return err
	})
	if err != nil {
		return err
	}
	tTrace, err := minTime(repeats, func() error {
		_, err := pq.Execute(context.Background(), core.WithTracer(metrics.NewJSONLTracer(io.Discard)))
		return err
	})
	if err != nil {
		return err
	}
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		tr := metrics.NewJSONLTracer(f)
		if _, err := pq.Execute(context.Background(), core.WithTracer(tr)); err != nil {
			return err
		}
		if err := tr.Err(); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		b.printf("execution trace written to %s\n", tracePath)
	}
	// Per-event cost of the detached bookkeeping: nil-receiver collector
	// calls, the exact operations a detached execution performs. The
	// rotating receiver index keeps the compiler from hoisting the nil check
	// out of the loop.
	nilNCs := [2]*metrics.NodeCollector{}
	const bookCalls = 1 << 24
	startBook := time.Now()
	for i := 0; i < bookCalls; i++ {
		if nilNCs[i&1].Shards(0) != nil {
			return fmt.Errorf("nil collector returned shards")
		}
	}
	perCall := float64(time.Since(startBook).Nanoseconds()) / bookCalls
	// Events per detached execution: one shard check per morsel claim, plus
	// a small constant of per-node calls (Node, Begin, Finish, lease
	// observer check); the attached run's stats tree supplies the counts.
	events := int64(5 * len(qs.Nodes))
	for _, ns := range qs.Nodes {
		events += ns.Morsels
	}
	overheadPct := 100 * perCall * float64(events) / float64(tPlain.Nanoseconds())
	var kernel time.Duration
	var morsels int64
	for _, ns := range qs.Nodes {
		kernel += ns.Kernel
		morsels += ns.Morsels
	}
	b.printf("query: %d operators, %d morsels, %v kernel time (stats-collected run)\n", len(qs.Nodes), morsels, kernel)
	b.printf("detached bookkeeping: %5.2f ns/event x %d events = %.4f%% of the %v query  (gate ceiling 2%%)\n",
		perCall, events, overheadPct, tPlain)
	b.printf("attached ratios vs plain: stats %.3fx, jsonl trace %.3fx\n",
		tStats.Seconds()/tPlain.Seconds(), tTrace.Seconds()/tPlain.Seconds())
	b.record("metrics", "metrics_overhead", "overhead_pct", overheadPct)
	b.record("metrics", "detached_bookkeeping", "ns_per_hit", perCall)
	b.record("metrics", "stats_attached", "ratio_vs_plain", tStats.Seconds()/tPlain.Seconds())
	b.record("metrics", "jsonl_trace", "ratio_vs_plain", tTrace.Seconds()/tPlain.Seconds())

	// Write path: streaming appends into a writable table, the merged-read
	// cost of the snapshot path, and what a remorph fold buys back.
	// append_stream/rows_per_s depends on allocator and memcpy speed
	// (informational, never gated). empty_delta_read/overhead_pct is the
	// cost the snapshot path adds to a query against a writable table whose
	// delta is empty — an empty delta serves the main column itself, so the
	// read path must stay frozen-speed; a same-machine timing ratio, gated
	// against the same absolute 2% ceiling as the observability overhead
	// (compare.go: gateCeiling). The dirty-delta and post-remorph reads are
	// informational: a delta with deletions materializes an uncompressed
	// merged view (slower, by design), and the fold re-picks formats with
	// the cost model, so the recovered read may land faster or slower than
	// the hand-encoded frozen baseline.
	b.printf("\n-- ingest (delta appends, merged reads, remorph recovery) --\n")
	const appendBatch = 1 << 14
	appendTotal := n / 4
	tApp, err := minTime(repeats, func() error {
		adb := core.NewDB()
		if err := adb.AddTable("s", map[string][]uint64{"v": probeVals[:appendBatch]}); err != nil {
			return err
		}
		aeng := core.NewEngine(adb, core.WithParallelism(par))
		for off := 0; off < appendTotal; off += appendBatch {
			end := off + appendBatch
			if end > appendTotal {
				end = appendTotal
			}
			if err := aeng.Append(context.Background(), "s",
				map[string][]uint64{"v": probeVals[off:end]}); err != nil {
				return err
			}
		}
		return aeng.Close(context.Background())
	})
	if err != nil {
		return err
	}
	rowsPerS := float64(appendTotal) / tApp.Seconds()

	weng := core.NewEngine(enc, core.WithParallelism(par), core.WithStyle(vector.Vec512))
	wq, err := weng.Prepare(plan, core.WithAutoMorph(true))
	if err != nil {
		return err
	}
	runWQ := func() error {
		_, err := wq.Execute(context.Background())
		return err
	}
	// Frozen baseline and empty-delta run use the same engine and the same
	// prepared query — the only difference is the zero-row append between
	// them, which makes the table writable without changing it: executions
	// then pin snapshots and scans resolve through the (empty) delta — the
	// exact state the 2% ceiling is about. A cross-engine comparison would
	// measure heap-layout noise instead.
	tFrozen, err := minTime(repeats, runWQ)
	if err != nil {
		return err
	}
	if err := weng.Append(context.Background(), "t", map[string][]uint64{"a": {}, "b": {}}); err != nil {
		return err
	}
	tEmpty, err := minTime(repeats, runWQ)
	if err != nil {
		return err
	}
	emptyPct := 100 * (tEmpty.Seconds()/tFrozen.Seconds() - 1)
	if err := weng.Append(context.Background(), "t",
		map[string][]uint64{"a": gidVals[:4096], "b": probeVals[:4096]}); err != nil {
		return err
	}
	if err := weng.Delete(context.Background(), "t", []uint64{0, 1, 2, 3, 5, 8, 13, 21}); err != nil {
		return err
	}
	tDirty, err := minTime(repeats, runWQ)
	if err != nil {
		return err
	}
	if err := weng.Remorph(context.Background(), "t"); err != nil {
		return err
	}
	tAfter, err := minTime(repeats, runWQ)
	if err != nil {
		return err
	}
	recoveryPct := 100 * (tAfter.Seconds()/tFrozen.Seconds() - 1)
	if err := weng.Close(context.Background()); err != nil {
		return err
	}
	b.printf("append stream: %d rows in %d-row batches at %.1f Mrows/s\n",
		appendTotal, appendBatch, rowsPerS/1e6)
	b.printf("merged read vs frozen %v: empty delta %+.3f%% (gate ceiling 2%%), dirty delta %.3fx, post-remorph %+.3f%%\n",
		tFrozen, emptyPct, tDirty.Seconds()/tFrozen.Seconds(), recoveryPct)
	b.record("ingest", "append_stream", "rows_per_s", rowsPerS)
	b.record("ingest", "empty_delta_read", "overhead_pct", emptyPct)
	b.record("ingest", "dirty_delta_read", "ratio_vs_frozen", tDirty.Seconds()/tFrozen.Seconds())
	b.record("ingest", "post_remorph_read", "recovery_pct", recoveryPct)

	// String dictionaries: translation throughput (Dict.Add over a repeating
	// string stream), the cost a string-equality predicate adds over the
	// identical pre-translated integer predicate, and the dictionary's
	// memory footprint. translate/rows_per_s and dict_memory/bytes are
	// informational; string_predicate/overhead_pct is a same-machine timing
	// ratio gated against the absolute 2% ceiling (compare.go: gateCeiling)
	// — after Prepare-time translation both queries run the same select
	// kernel over the same ID column, so the gate trips if per-row work ever
	// leaks into the string execute path.
	b.printf("\n-- dict (string translation, string-predicate overhead) --\n")
	dictRows := n / 4
	pool := make([]string, 1024)
	for i := range pool {
		pool[i] = fmt.Sprintf("str%06d", (i*7919)%1000003)
	}
	strsIn := make([]string, dictRows)
	for i := range strsIn {
		strsIn[i] = pool[(i*31)%len(pool)]
	}
	tTr, err := minTime(repeats, func() error {
		d := dict.New()
		_, err := d.Add(strsIn)
		return err
	})
	if err != nil {
		return err
	}
	trRowsPerS := float64(dictRows) / tTr.Seconds()

	sdb := core.NewDB()
	if err := sdb.AddStringColumn("t", "s", strsIn); err != nil {
		return err
	}
	dictBytes := sdb.Dict("t", "s").Snap().Bytes()
	ids, err := formats.Decompress(sdb.Tables["t"].Cols["s"])
	if err != nil {
		return err
	}
	idb := core.NewDB()
	if err := idb.AddTable("t", map[string][]uint64{"s": ids}); err != nil {
		return err
	}
	sb := core.NewBuilder()
	sb.Result(sb.SelectStrEq("pos", sb.Scan("t", "s"), pool[17]))
	strPlan, err := sb.Build()
	if err != nil {
		return err
	}
	targetID, ok := sdb.Dict("t", "s").Snap().ID(pool[17])
	if !ok {
		return fmt.Errorf("msbench: dictionary lost %q", pool[17])
	}
	ib := core.NewBuilder()
	ib.Result(ib.Select("pos", ib.Scan("t", "s"), bitutil.CmpEq, targetID))
	idPlan, err := ib.Build()
	if err != nil {
		return err
	}
	seng := core.NewEngine(sdb, core.WithParallelism(par))
	ieng := core.NewEngine(idb, core.WithParallelism(par))
	sq, err := seng.Prepare(strPlan, core.WithAutoMorph(true))
	if err != nil {
		return err
	}
	iq, err := ieng.Prepare(idPlan, core.WithAutoMorph(true))
	if err != nil {
		return err
	}
	// Warm both prepared queries before timing: the first executions pay
	// one-time allocator and page-placement costs that would otherwise
	// dominate the ratio (the timed loop is min-of-repeats, but min over a
	// cold query is still cold).
	for i := 0; i < 3; i++ {
		if _, err := sq.Execute(context.Background()); err != nil {
			return err
		}
		if _, err := iq.Execute(context.Background()); err != nil {
			return err
		}
	}
	// Paired timing: each iteration runs both queries back to back (order
	// alternating), so slow machine drift — page reclaim, frequency shifts,
	// sibling jobs — hits both sides equally instead of whichever block
	// happened to run second. Scheduling noise on these microsecond-scale
	// queries is one-sided (delays only add), so the gated ratio compares
	// the two interleaved minima, each converging on the undisturbed
	// runtime given enough pairs; two separately-timed min-of-repeats
	// blocks swing several percent either way, well past the 2% gate.
	pairs := 20 * repeats
	var tStr, tID time.Duration
	for r := 0; r < pairs; r++ {
		var dStr, dID time.Duration
		timeOne := func(q *core.Prepared, d *time.Duration) error {
			start := time.Now()
			_, err := q.Execute(context.Background())
			*d = time.Since(start)
			return err
		}
		first, second, fd, sd := sq, iq, &dStr, &dID
		if r%2 == 1 {
			first, second, fd, sd = iq, sq, &dID, &dStr
		}
		if err := timeOne(first, fd); err != nil {
			return err
		}
		if err := timeOne(second, sd); err != nil {
			return err
		}
		if tStr == 0 || dStr < tStr {
			tStr = dStr
		}
		if tID == 0 || dID < tID {
			tID = dID
		}
	}
	strPct := 100 * (tStr.Seconds()/tID.Seconds() - 1)
	if err := seng.Close(context.Background()); err != nil {
		return err
	}
	if err := ieng.Close(context.Background()); err != nil {
		return err
	}
	b.printf("translate: %d rows (%d distinct) at %.1f Mrows/s, dict %d bytes\n",
		dictRows, len(pool), trRowsPerS/1e6, dictBytes)
	b.printf("string predicate vs pre-translated ID predicate: %+.3f%% over %d interleaved pairs (min %v vs %v, gate ceiling 2%%)\n",
		strPct, pairs, tStr, tID)
	b.record("dict", "translate", "rows_per_s", trRowsPerS)
	b.record("dict", "string_predicate", "overhead_pct", strPct)
	b.record("dict", "dict_memory", "bytes", float64(dictBytes))

	// Fault-point overhead: the per-call cost of a disarmed fault point (one
	// atomic pointer load) on the morsel hot path. Informational — recorded
	// so the cost of shipping the fault-injection harness in production
	// builds stays visible, but never gated (classifyMetric: skip).
	b.printf("\n-- fault-injection harness (disarmed) --\n")
	const hits = 1 << 24
	startHits := time.Now()
	for i := 0; i < hits; i++ {
		if err := faultpoint.MorselClaim.Hit(); err != nil {
			return err
		}
	}
	perHit := float64(time.Since(startHits).Nanoseconds()) / hits
	b.printf("disarmed Hit: %6.2f ns/call over %d calls\n", perHit, hits)
	b.record("faultpoint", "faultpoint_overhead", "ns_per_hit", perHit)
	return nil
}

// stitchSections is the fixed section count of the stitch microbenchmark's
// concat-only measurement, so the recorded concat cost does not depend on
// the -par flag.
const stitchSections = 8

// stitchBench measures the three stitch costs for one output stream shape
// and target format and records them under the "stitch" section.
func stitchBench(b *bench, repeats, par int, name string, stream []uint64, desc columns.FormatDesc) error {
	total := len(stream)
	// Ragged chunks emulate per-morsel kernel outputs under selectivity skew.
	chunks := make([][]uint64, 0, stitchSections)
	for i, off := 0, 0; i < stitchSections; i++ {
		end := (total * (i + 1)) / stitchSections
		end -= (i * 53) % 97 // ragged, non-block-aligned cut
		if end < off {
			end = off
		}
		if i == stitchSections-1 {
			end = total
		}
		chunks = append(chunks, stream[off:end])
		off = end
	}
	tSerial, err := minTime(repeats, func() error {
		_, err := ops.StitchCompressed(desc, total, chunks, 1)
		return err
	})
	if err != nil {
		return err
	}
	ranges := formats.SplitRange(total, stitchSections, formats.ConcatAlign(desc.Kind))
	if ranges == nil {
		// Streams this small never take the sectioned stitch path; skip the
		// section instead of failing the whole run (tiny -n values).
		b.printf("%-22s skipped: stream of %d elements is below the sectioning threshold\n", name, total)
		return nil
	}
	parts := make([]*columns.Column, len(ranges))
	for i, pt := range ranges {
		var prev uint64
		if pt.Start > 0 {
			prev = stream[pt.Start-1]
		}
		w, err := formats.NewSectionWriter(desc, pt.Count, prev, pt.Start > 0)
		if err != nil {
			return err
		}
		if err := w.Write(stream[pt.Start : pt.Start+pt.Count]); err != nil {
			return err
		}
		if parts[i], err = w.Close(); err != nil {
			return err
		}
	}
	tConcat, err := minTime(repeats, func() error {
		_, err := formats.ConcatCompressed(desc, parts)
		return err
	})
	if err != nil {
		return err
	}
	tPar, err := minTime(repeats, func() error {
		_, err := ops.StitchCompressed(desc, total, chunks, par)
		return err
	})
	if err != nil {
		return err
	}
	speedup := tSerial.Seconds() / tConcat.Seconds()
	b.printf("%-22s serial: %8.2f GB/s   concat-only: %8.2f GB/s   par=%d: %8.2f GB/s   serial/concat: %5.1fx\n",
		name, gbps(total, tSerial), gbps(total, tConcat), par, gbps(total, tPar), speedup)
	b.record("stitch", name, "serial_gbps", gbps(total, tSerial))
	b.record("stitch", name, "concat_gbps", gbps(total, tConcat))
	b.record("stitch", name, "par_gbps", gbps(total, tPar))
	b.record("stitch", name, "serial_over_concat", speedup)
	return nil
}

func minTime(repeats int, f func() error) (time.Duration, error) {
	var best time.Duration
	for i := 0; i < repeats; i++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		if d := time.Since(start); i == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

func gbps(n int, d time.Duration) float64 {
	return float64(n*8) / d.Seconds() / 1e9
}
