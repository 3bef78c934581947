// Command bench is the repository benchmark: four workloads driven from one
// closed-loop client goroutine through the engine's public entry points,
// every answer verified, reported as the end-to-end metrics of BENCHMARK.json
// (tracing off) or, with -trace 1, as the per-layer metrics of one traced
// repetition. See README.md for the metric glossary and the layer table.
//
// The measured phases are fixed operation counts derived from -seconds by the
// per-workload rates in scales, so counts repeat exactly; the rates are sized
// so that a phase lasts about -seconds at the seed commit on two cores.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"morphstore/internal/core"
)

// The four workloads, in BENCHMARK.json order.
const (
	wSeqUncompr = "ssb_seq_uncompr"
	wSeqCompr   = "ssb_seq_compr"
	wParCompr   = "ssb_par_compr"
	wIngestMix  = "ingest_query_mix"
)

var workloadNames = []string{wSeqUncompr, wSeqCompr, wParCompr, wIngestMix}

// scale fixes the data sizes and, per second of -seconds, the operation
// counts of the measured phases.
type scale struct {
	name string
	// setups is the number of timed set-ups of an end-to-end run, per
	// workload; setup_s is their median. The cheap set-ups (about 0.5 s) run
	// more often than the cost-model ones (about 2 s).
	setups map[string]int
	sf     float64 // SSB scale factor
	// sweepsPerSec maps each SSB workload to 13-query sweeps per second of
	// -seconds; fixedSweeps > 0 overrides it (smoke).
	sweepsPerSec map[string]float64
	fixedSweeps  int
	// ingest_query_mix: base rows ingested at set-up, rows per cycle batch,
	// cycles per second of -seconds (rounded to whole remorph periods);
	// fixedCycles > 0 overrides it (smoke).
	baseRows, batchRows int
	cyclesPerSec        float64
	fixedCycles         int
	remorphEvery        int // an explicit Remorph closes every remorphEvery-th cycle
	traceSweeps         int // traced (and paired untraced) sweeps of a -trace 1 run
	traceCycles         int // cycles of a -trace 1 ingest_query_mix run
	// warm is how long untimed work precedes a measured phase. The sandbox's
	// second virtual CPU runs a process's threads at full speed only after
	// roughly 0.9 s of parallel demand from that process (seed commit:
	// two-worker operators show no speed-up before, 1.8x after, and keep it).
	warm time.Duration
}

var scales = map[string]scale{
	"full": {
		name: "full", sf: 0.2,
		setups:       map[string]int{wSeqUncompr: 5, wSeqCompr: 3, wParCompr: 3, wIngestMix: 5},
		sweepsPerSec: map[string]float64{wSeqUncompr: 3.4, wSeqCompr: 3.4, wParCompr: 5.6},
		baseRows:     800000, batchRows: 8000, cyclesPerSec: 16, remorphEvery: 8,
		traceSweeps: 6, traceCycles: 48, warm: 1500 * time.Millisecond,
	},
	"smoke": {
		name: "smoke", sf: 0.01,
		fixedSweeps: 2,
		baseRows:    20000, batchRows: 500, fixedCycles: 4, remorphEvery: 2,
		traceSweeps: 2, traceCycles: 4,
	},
}

// config is one resolved invocation.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	sc       scale
	nproc    int
	// tamper, when set, damages every result of the measured phase before it
	// is verified. Only the smoke test sets it, to prove the checker is live.
	tamper func(*core.Result)
}

// setups returns how often the workload is set up: once for a traced run and
// at scales that do not say.
func (c *config) setups() int {
	if n := c.sc.setups[c.workload]; n > 0 && !c.trace {
		return n
	}
	return 1
}

// sweeps returns the fixed sweep count of an SSB workload's measured phase.
func (c *config) sweeps() int {
	if c.sc.fixedSweeps > 0 {
		return c.sc.fixedSweeps
	}
	return max(int(math.Round(c.sc.sweepsPerSec[c.workload]*float64(c.seconds))), 2)
}

// cycles returns the fixed cycle count of the ingest_query_mix phase: whole
// remorph periods, so every run ends on a fold.
func (c *config) cycles() int {
	if c.sc.fixedCycles > 0 {
		return c.sc.fixedCycles
	}
	periods := max(int(math.Round(c.sc.cyclesPerSec*float64(c.seconds)/float64(c.sc.remorphEvery))), 1)
	return periods * c.sc.remorphEvery
}

// runWorkload executes one workload and returns its report plus the
// human-readable notes (sample counts, percentile fallbacks).
func runWorkload(c *config) (*report, []string, error) {
	v := values{}
	var attempted, failed int
	var notes []string
	var err error
	switch c.workload {
	case wSeqUncompr, wSeqCompr, wParCompr:
		attempted, failed, notes, err = runSSB(c, v)
	case wIngestMix:
		attempted, failed, notes, err = runMix(c, v)
	default:
		return nil, nil, fmt.Errorf("bench: unknown workload %q (want one of %v)", c.workload, workloadNames)
	}
	if err != nil {
		return nil, nil, err
	}
	defs := endToEnd
	if c.trace {
		defs = perLayer
	}
	r, err := build(defs, v, attempted, failed)
	return r, notes, err
}

// repeatSetup sets a workload up n times, closing each environment before the
// next is built, and returns the last one with the median set-up time.
func repeatSetup[E any](n int, setup func() (E, time.Duration, error), closeEnv func(E)) (env E, medianS float64, err error) {
	var secs []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			closeEnv(env)
		}
		var d time.Duration
		if env, d, err = setup(); err != nil {
			return env, 0, err
		}
		secs = append(secs, d.Seconds())
	}
	return env, median(secs), nil
}

// latencyMetrics writes query_ms_p50 and query_ms_p95 over the per-execution
// wall times of a measured phase and returns the notes that state the sample
// count (what describes how the executions came about) and any percentile
// fallback.
func latencyMetrics(v values, lat []time.Duration, what string) []string {
	ms := sortedMS(lat)
	v["query_ms_p50"] = median(ms)
	p95, used := tail(ms, 95)
	v["query_ms_p95"] = p95
	notes := []string{fmt.Sprintf("query_ms_* over %d executions (%s)", len(ms), what)}
	if used != 95 {
		notes = append(notes, fmt.Sprintf("query_ms_p95 reads p%.1f: too few samples for p95 with %d beyond it", used, minBeyond))
	}
	return notes
}

// record is one line of a -record file: a run's report tagged with what
// produced it, so -compare can group runs by workload.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Trace    bool    `json:"trace"`
	Report   *report `json:"report"`
}

func appendRecord(path string, rec record) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	b, err := json.Marshal(rec)
	if err == nil {
		_, err = f.Write(append(b, '\n'))
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func main() {
	workload := flag.String("workload", "", "workload to run: "+fmt.Sprint(workloadNames))
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 10, "target length of the measured phase; scales the fixed operation counts")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics, 0 = end-to-end metrics")
	scaleName := flag.String("scale", "full", "full or smoke")
	recordPath := flag.String("record", "", "append the run's report to this JSON-lines file (input of -compare)")
	compare := flag.Bool("compare", false, "compare two -record files: bench -compare a.jsonl b.jsonl")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two record files")
			os.Exit(2)
		}
		regressed, err := runCompare(os.Stdout, "", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	sc, ok := scales[*scaleName]
	if !ok || *seconds < 1 || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "bench: want -workload <name> [-seed n] [-seconds n>=1] [-trace 0|1] [-scale full|smoke]")
		os.Exit(2)
	}
	c := &config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace != 0, sc: sc, nproc: runtime.GOMAXPROCS(0)}
	r, notes, err := runWorkload(c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	defs := endToEnd
	if c.trace {
		defs = perLayer
	}
	fmt.Fprintf(os.Stderr, "workload %s  seed %d  scale %s  trace %v  workers<=%d\n", c.workload, c.seed, sc.name, c.trace, c.nproc)
	r.printTable(os.Stderr, defs, notes)
	if *recordPath != "" {
		if err := appendRecord(*recordPath, record{Workload: c.workload, Seed: c.seed, Trace: c.trace, Report: r}); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
	if err := r.printJSON(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
