// Command msbench is the repository's absolute performance gate: it answers
// "does a disabled feature stay free?" for the three engine features whose
// cost must not show when they are off or idle, each as a machine-invariant
// ratio of two same-machine timings held under a 2% ceiling:
//
//	metrics_overhead  the detached (nil-collector) observability bookkeeping
//	                  of one query, as a share of that query's runtime
//	empty_delta_read  a query on a writable table with an empty delta vs the
//	                  same query on the same table before it became writable
//	string_predicate  a string-equality predicate vs the identical predicate
//	                  on the pre-translated dictionary IDs
//
// plus the informational cost of a disarmed fault point. Exit status 1 when
// a ceiling is exceeded or a measurement fails. There is no baseline file:
// whether a change made the engine slower or bigger is the repository
// benchmark's question (bench/, BENCHMARK.json), and the paper's figures are
// cmd/msrepro's.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"morphstore/internal/bitutil"
	"morphstore/internal/columns"
	"morphstore/internal/core"
	"morphstore/internal/datagen"
	"morphstore/internal/faultpoint"
	"morphstore/internal/metrics"
)

const (
	// ceilingPct is the failure line of every gated overhead: the measured
	// values sit far under it, so it only trips when someone puts real work
	// — an allocation, a lock, a clock read, per-row translation — on a path
	// that is supposed to be idle.
	ceilingPct = 2.0

	nRows   = 1 << 20 // rows per column
	seed    = 42
	par     = 1 // one worker: the ceilings are properties of code paths, and a second worker only adds scheduling noise
	nGroups = 1024
	nKeys   = 2 * 4096

	// loopCalls sizes the per-call cost loops (nil-collector bookkeeping,
	// disarmed fault point): a few milliseconds each, like the queries.
	loopCalls = 1 << 22
)

func main() {
	repeats := flag.Int("repeats", 3, "measurement effort: every ceiling is a median over 50*repeats interleaved samples")
	flag.Parse()
	samples := 50 * max(*repeats, 1)
	// No collection inside a timed run: pairedRatio collects between samples.
	debug.SetGCPercent(-1)

	fmt.Printf("msbench: %.0f%% ceilings, %d rows, par %d (GOMAXPROCS %d), %d interleaved samples each\n",
		ceilingPct, nRows, par, runtime.GOMAXPROCS(0), samples)
	w, err := newWorkload()
	if err != nil {
		fmt.Fprintln(os.Stderr, "msbench:", err)
		os.Exit(1)
	}
	var results []overhead
	for _, m := range []struct {
		name    string
		measure func(samples int) (pct float64, detail string, err error)
	}{
		{"metrics_overhead", w.metricsOverhead},
		{"empty_delta_read", w.emptyDeltaRead},
		{"string_predicate", stringPredicate},
	} {
		pct, detail, err := m.measure(samples)
		results = append(results, overhead{m.name, pct, detail, err})
	}
	failures := gate(os.Stdout, results)
	fmt.Printf("%-18s %8.2f ns/hit   disarmed fault point (informational)\n", "faultpoint", faultpointNsPerHit())
	if len(failures) > 0 {
		fmt.Fprintf(os.Stderr, "\nmsbench: ceiling gate FAILED (%d):\n", len(failures))
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "  "+f)
		}
		os.Exit(1)
	}
}

// overhead is one gated measurement: what a feature costs, in percent of the
// runtime without it.
type overhead struct {
	name   string
	pct    float64
	detail string // how the number came about, for the report line
	err    error  // the measurement itself failed
}

// gate reports every overhead on w and returns one failure line, naming the
// metric, per overhead that is over the ceiling or could not be measured.
func gate(w io.Writer, results []overhead) (failures []string) {
	for _, r := range results {
		switch {
		case r.err != nil:
			fmt.Fprintf(w, "%-18s measurement failed: %v\n", r.name, r.err)
			failures = append(failures, fmt.Sprintf("%s: measurement failed: %v", r.name, r.err))
		case r.pct > ceilingPct:
			fmt.Fprintf(w, "%-18s %+8.4f %%   OVER the %.0f%% ceiling   %s\n", r.name, r.pct, ceilingPct, r.detail)
			failures = append(failures, fmt.Sprintf("%s: overhead %.3f%% exceeds the %.0f%% ceiling", r.name, r.pct, ceilingPct))
		default:
			fmt.Fprintf(w, "%-18s %+8.4f %%   ok   %s\n", r.name, r.pct, r.detail)
		}
	}
	return failures
}

// pairedRatio is the one estimator behind every ceiling: the median, over
// interleaved samples, of b's duration over a's. One sample times the runs
// a b b a back to back (b a a b on odd samples) and divides the two sums:
// the machine's speed phases — frequency shifts, page reclaim, a busy
// sibling on the host, which on a shared runner move single timings by tens
// of percent for seconds at a time — scale both sides of a sample alike and
// cancel in its ratio, whatever going first costs (cold caches after the
// collection below) is paid once by each side, and the median discards the
// samples a hiccup hit on one side only. (The ratio of the two interleaved
// minima, which this replaced, needs a lucky fast phase to reach both sides:
// on the 2-vCPU development sandbox it swung -10%..+5% over 60 samples of a
// 10 ms query and -10%..+2% over 200.) The collector runs between samples,
// untimed, and never inside one (main switches it off). a and b each
// perform one run and return its duration; medA and medB are the sides'
// median single-run durations, for the report.
func pairedRatio(samples int, a, b func() (time.Duration, error)) (ratio float64, medA, medB time.Duration, err error) {
	run := [2]func() (time.Duration, error){a, b}
	ratios := make([]float64, samples)
	dA, dB := make([]time.Duration, samples), make([]time.Duration, samples)
	for r := range ratios {
		runtime.GC()
		var sum [2]time.Duration
		for _, side := range [4]int{0, 1, 1, 0} {
			side ^= r & 1
			d, err := run[side]()
			if err != nil {
				return 0, 0, 0, err
			}
			sum[side] += d
		}
		ratios[r], dA[r], dB[r] = float64(sum[1])/float64(sum[0]), sum[0]/2, sum[1]/2
	}
	return median(ratios), median(dA), median(dB), nil
}

// median returns the middle value of v (the upper one of an even count),
// reordering v.
func median[T float64 | time.Duration](v []T) T {
	slices.Sort(v)
	return v[len(v)/2]
}

// timed adapts a workload to pairedRatio: one wall-clocked run.
func timed(f func() error) func() (time.Duration, error) {
	return func() (time.Duration, error) {
		start := time.Now()
		err := f()
		return time.Since(start), err
	}
}

// newEngine returns an engine over db. The engines run no background worker
// and live as long as the process, so nothing closes them.
func newEngine(db *core.DB) *core.Engine {
	return core.NewEngine(db, core.WithParallelism(par))
}

// execute prepares plan on eng and adapts its execution to pairedRatio,
// after warming it: the first executions pay one-time allocator and
// page-placement costs that are not the query's.
func execute(eng *core.Engine, plan *core.Plan, o ...core.Option) (*core.Prepared, func() (time.Duration, error), error) {
	q, err := eng.Prepare(plan, o...)
	if err != nil {
		return nil, nil, err
	}
	run := func() error {
		_, err := q.Execute(context.Background())
		return err
	}
	for i := 0; i < 3; i++ {
		if err := run(); err != nil {
			return nil, nil, err
		}
	}
	return q, timed(run), nil
}

// workload is the table and plan the query-level ceilings share: a dense
// group-id column (DynBP) filtered to ~50% by a range predicate, the
// surviving positions projected out of a key column (static BP) and summed.
type workload struct {
	db   *core.DB // encoded; engines over it share the base columns
	plan *core.Plan
}

func newWorkload() (*workload, error) {
	sel, _ := datagen.GenerateSelectWorkload(datagen.C1, nRows, seed)
	a, b := make([]uint64, nRows), make([]uint64, nRows)
	for i := range a {
		a[i] = uint64(i) % nGroups
		b[i] = sel[i] % nKeys
	}
	db := core.NewDB()
	if err := db.AddTable("t", map[string][]uint64{"a": a, "b": b}); err != nil {
		return nil, err
	}
	enc, err := db.Encode(map[string]columns.FormatDesc{"t.a": columns.DynBPDesc, "t.b": columns.StaticBPDesc(0)})
	if err != nil {
		return nil, err
	}
	pb := core.NewBuilder()
	pos := pb.Between("pos", pb.Scan("t", "a"), nGroups/4, 3*nGroups/4)
	pb.Result(pb.SumWhole("total", pb.Project("vals", pb.Scan("t", "b"), pos)))
	plan, err := pb.Build()
	if err != nil {
		return nil, err
	}
	return &workload{db: enc, plan: plan}, nil
}

// metricsOverhead projects what the observability layer costs an execution
// with no collector attached: the per-event cost of the nil-receiver
// bookkeeping — the exact operations a detached execution performs — times
// the events one execution performs, over the execution's runtime. Both
// timings come out of one pairedRatio; the event count comes from the stats
// tree of one collector-attached run.
func (w *workload) metricsOverhead(samples int) (pct float64, detail string, err error) {
	pq, query, err := execute(newEngine(w.db), w.plan, core.WithFormats(map[string]columns.FormatDesc{
		"pos": columns.DeltaBPDesc, "vals": columns.DynBPDesc}))
	if err != nil {
		return 0, "", err
	}
	var qs metrics.QueryStats
	if _, err := pq.Execute(context.Background(), core.WithExecStats(&qs)); err != nil {
		return 0, "", err
	}
	// One shard check per morsel claim plus a small constant of per-node
	// calls (Node, Begin, Finish, and the morsel loop's Shards).
	events := int64(4 * len(qs.Nodes))
	for _, ns := range qs.Nodes {
		events += ns.Morsels
	}
	// The rotating receiver keeps the compiler from hoisting the nil check
	// out of the loop.
	nilNCs := [2]*metrics.NodeCollector{}
	bookkeeping := timed(func() error {
		for i := 0; i < loopCalls; i++ {
			if nilNCs[i&1].Shards(0) != nil {
				return fmt.Errorf("nil collector returned shards")
			}
		}
		return nil
	})
	loopOverQuery, tQuery, tLoop, err := pairedRatio(samples, query, bookkeeping)
	if err != nil {
		return 0, "", err
	}
	return 100 * loopOverQuery * float64(events) / loopCalls,
		fmt.Sprintf("%.2f ns/event x %d events (%d operators) over a %v query",
			float64(tLoop.Nanoseconds())/loopCalls, events, len(qs.Nodes), tQuery), nil
}

// emptyDeltaRead measures what the snapshot path adds to a query against a
// writable table whose delta is empty. An empty delta serves the main
// columns themselves, so the read must stay frozen-speed. Both engines sit
// on the same encoded columns and run the same plan; the only difference is
// a zero-row append, which makes the table writable without changing it —
// executions then pin snapshots and scans resolve through the (empty) delta.
func (w *workload) emptyDeltaRead(samples int) (pct float64, detail string, err error) {
	writable := newEngine(w.db)
	if err := writable.Append(context.Background(), "t", map[string][]uint64{"a": {}, "b": {}}); err != nil {
		return 0, "", err
	}
	_, frozen, err := execute(newEngine(w.db), w.plan, core.WithAutoMorph(true))
	if err != nil {
		return 0, "", err
	}
	_, empty, err := execute(writable, w.plan, core.WithAutoMorph(true))
	if err != nil {
		return 0, "", err
	}
	ratio, tFrozen, tEmpty, err := pairedRatio(samples, frozen, empty)
	if err != nil {
		return 0, "", err
	}
	return 100 * (ratio - 1), fmt.Sprintf("empty-delta %v vs frozen %v", tEmpty, tFrozen), nil
}

// stringPredicate measures what a string-equality predicate adds over the
// identical predicate on the pre-translated IDs. After Prepare-time
// translation both queries run the same select kernel over the same ID
// values, so the gate trips if per-row work ever leaks into the string
// execute path.
func stringPredicate(samples int) (pct float64, detail string, err error) {
	pool := make([]string, 1024)
	for i := range pool {
		pool[i] = fmt.Sprintf("str%06d", (i*7919)%1000003)
	}
	strs := make([]string, nRows)
	for i := range strs {
		strs[i] = pool[(i*31)%len(pool)]
	}
	const needle = 17
	sdb, idb := core.NewDB(), core.NewDB()
	if err := sdb.AddStringColumn("t", "s", strs); err != nil {
		return 0, "", err
	}
	// The ID side scans the very column the string side scans — the same
	// words at the same addresses — so cache and page placement cannot pose
	// as a predicate cost.
	idb.Tables["t"] = &core.Table{Name: "t", Cols: map[string]*columns.Column{"s": sdb.Tables["t"].Cols["s"]}}
	id, ok := sdb.Dict("t", "s").Snap().ID(pool[needle])
	if !ok {
		return 0, "", fmt.Errorf("dictionary lost %q", pool[needle])
	}
	side := func(db *core.DB, pred func(*core.Builder, core.ColRef) core.ColRef) (func() (time.Duration, error), error) {
		b := core.NewBuilder()
		b.Result(pred(b, b.Scan("t", "s")))
		plan, err := b.Build()
		if err != nil {
			return nil, err
		}
		_, run, err := execute(newEngine(db), plan, core.WithAutoMorph(true))
		return run, err
	}
	byID, err := side(idb, func(b *core.Builder, s core.ColRef) core.ColRef {
		return b.Select("pos", s, bitutil.CmpEq, id)
	})
	if err != nil {
		return 0, "", err
	}
	byStr, err := side(sdb, func(b *core.Builder, s core.ColRef) core.ColRef {
		return b.SelectStrEq("pos", s, pool[needle])
	})
	if err != nil {
		return 0, "", err
	}
	ratio, tID, tStr, err := pairedRatio(samples, byID, byStr)
	if err != nil {
		return 0, "", err
	}
	return 100 * (ratio - 1), fmt.Sprintf("string predicate %v vs ID predicate %v", tStr, tID), nil
}

// faultpointNsPerHit is the per-call cost of a disarmed fault point (one
// atomic pointer load) on the morsel hot path: recorded so the cost of
// shipping the fault-injection harness in production builds stays visible,
// never gated.
func faultpointNsPerHit() float64 {
	start := time.Now()
	for i := 0; i < loopCalls; i++ {
		if err := faultpoint.MorselClaim.Hit(); err != nil {
			panic(err) // nothing arms a point in this process
		}
	}
	return float64(time.Since(start).Nanoseconds()) / loopCalls
}
