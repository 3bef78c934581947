package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"morphstore/internal/columns"
	"morphstore/internal/core"
	"morphstore/internal/ssb"
	"morphstore/internal/vector"
)

// ssbEnv is one set-up SSB workload: the engine over the generated data
// (base columns encoded for the compressed variants, whose uncompressed
// originals are dropped after set-up so they do not pad the heap the
// collector paces itself by), the 13 prepared queries and their row-wise
// reference answers.
type ssbEnv struct {
	compressed bool
	par        int
	eng        *core.Engine
	plans      []*core.Plan
	assigns    []*core.Assignment // per plan; nil when uncompressed
	prepared   []*core.Prepared
	refs       [][]ssb.Row
}

// ssbPar returns the engine parallelism of an SSB workload: 1 for the
// sequential ones, min(nproc, 4) for ssb_par_compr — never more workers than
// processors.
func ssbPar(c *config) int {
	if c.workload != wParCompr {
		return 1
	}
	return min(c.nproc, 4)
}

// engineOptions returns the NewEngine options of the workload.
func (e *ssbEnv) engineOptions() []core.Option {
	o := []core.Option{core.WithStyle(vector.Vec512), core.WithParallelism(e.par)}
	if e.compressed {
		o = append(o, core.WithSpecialized(true))
	}
	if e.par > 1 {
		// A budget no plan comes near: the governor's reserve/charge path runs
		// on every execution, but nothing ever waits or sheds.
		o = append(o, core.WithMaxConcurrentQueries(2), core.WithMemoryBudget(1<<40))
	}
	return o
}

// setupSSB generates the data from seed, picks and applies the formats,
// prepares the 13 queries and runs each once, verified. refs carries the
// reference answers between set-ups of one run (same seed, same data); the
// first set-up computes them with the clock stopped, because the row-wise
// reference is the checker, not the system. The returned duration is the
// system's set-up time.
func setupSSB(c *config, refs *[][]ssb.Row) (*ssbEnv, time.Duration, error) {
	e := &ssbEnv{compressed: c.workload != wSeqUncompr, par: ssbPar(c)}
	start := time.Now()
	data, err := ssb.Generate(c.sc.sf, c.seed)
	if err != nil {
		return nil, 0, err
	}
	for _, q := range ssb.Queries {
		p, err := ssb.BuildPlan(q, data.Dicts)
		if err != nil {
			return nil, 0, err
		}
		e.plans = append(e.plans, p)
	}
	db := data.DB
	if e.compressed {
		if db, err = e.pickFormats(data.DB); err != nil {
			return nil, 0, err
		}
	}
	e.eng = core.NewEngine(db, e.engineOptions()...)
	if err := e.prepareAll(); err != nil {
		return nil, 0, err
	}
	elapsed := time.Since(start)

	if *refs == nil {
		for _, q := range ssb.Queries {
			r, err := ssb.Reference(q, data)
			if err != nil {
				return nil, 0, err
			}
			*refs = append(*refs, r)
		}
	}
	e.refs = *refs

	start = time.Now()
	for i := range e.prepared {
		res, err := e.prepared[i].Execute(context.Background())
		if err != nil {
			return nil, 0, fmt.Errorf("set-up execution of Q%s: %w", ssb.Queries[i], err)
		}
		if !e.verify(i, res) {
			return nil, 0, fmt.Errorf("set-up execution of Q%s differs from the reference", ssb.Queries[i])
		}
	}
	return e, elapsed + time.Since(start), nil
}

// pickFormats runs the cost-based assignment of every plan and encodes the
// base data once for all of them. A base column shared by several plans gets
// the pick of a plan that reads it by random access, if any does: that pick
// is restricted to random-access formats, so no plan has to morph it on the
// fly.
func (e *ssbEnv) pickFormats(db *core.DB) (*core.DB, error) {
	base := make(map[string]columns.FormatDesc)
	randomAccess := make(map[string]bool)
	for _, p := range e.plans {
		a, err := core.CostBasedAssignment(p, db)
		if err != nil {
			return nil, err
		}
		e.assigns = append(e.assigns, a)
		for name, d := range a.Base {
			if _, seen := base[name]; !seen || (p.RandomAccessed(name) && !randomAccess[name]) {
				base[name] = d
			}
			if p.RandomAccessed(name) {
				randomAccess[name] = true
			}
		}
	}
	return db.Encode(base)
}

// prepareAll (re-)prepares the 13 plans on the engine.
func (e *ssbEnv) prepareAll() error {
	e.prepared = e.prepared[:0]
	for i, p := range e.plans {
		var o []core.Option
		if e.compressed {
			o = append(o, core.WithFormats(e.assigns[i].Inter))
		}
		pq, err := e.eng.Prepare(p, o...)
		if err != nil {
			return fmt.Errorf("prepare Q%s: %w", ssb.Queries[i], err)
		}
		e.prepared = append(e.prepared, pq)
	}
	return nil
}

// verify checks one result against the row-wise reference.
func (e *ssbEnv) verify(i int, res *core.Result) bool {
	got, err := ssb.ExtractResult(ssb.Queries[i], res)
	return err == nil && ssb.RowsEqual(got, e.refs[i])
}

// warmUp runs untimed sweeps for d: caches fill, the heap reaches its steady
// size, and every processor the engine's workers will use has been woken
// before the measured phase starts.
func (e *ssbEnv) warmUp(d time.Duration) error {
	var err error
	spinUp(d, func() {
		for _, pq := range e.prepared {
			if _, xerr := pq.Execute(context.Background()); xerr != nil && err == nil {
				err = xerr
			}
		}
	})
	return err
}

// spinUp calls fn repeatedly until d has passed.
func spinUp(d time.Duration, fn func()) {
	for start := time.Now(); time.Since(start) < d; {
		fn()
	}
}

func (e *ssbEnv) close() { _ = e.eng.Close(context.Background()) } // nothing in flight: Close cannot fail

// footprint executes every query once more with intermediates kept and
// returns the physical bytes of all scanned base columns and intermediates,
// and the 8-byte-per-element size of the same columns.
func footprint(prepared []*core.Prepared) (physical, logical int64, err error) {
	for _, pq := range prepared {
		res, err := pq.Execute(context.Background(), core.WithKeep(true))
		if err != nil {
			return 0, 0, err
		}
		physical += int64(res.Meas.Footprint())
		for _, col := range res.Inter {
			logical += int64(col.N()) * 8
		}
	}
	return physical, logical, nil
}

// mib converts bytes to MiB.
func mib(b int64) float64 { return float64(b) / (1 << 20) }

// runSSB runs one SSB workload: the end-to-end phase, or the traced
// repetition when c.trace is set.
func runSSB(c *config, v values) (attempted, failed int, notes []string, err error) {
	var refs [][]ssb.Row
	env, setupS, err := repeatSetup(c.setups(),
		func() (*ssbEnv, time.Duration, error) { return setupSSB(c, &refs) }, (*ssbEnv).close)
	if err != nil {
		return 0, 0, nil, err
	}
	defer env.close()
	if c.trace {
		return env.perLayer(c, v)
	}
	v["setup_s"] = setupS

	if err := env.warmUp(c.sc.warm); err != nil {
		return 0, 0, nil, err
	}
	sweeps := c.sweeps()
	lat := make([]time.Duration, 0, sweeps*len(env.prepared))
	ctx := context.Background()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var busy time.Duration
	for s := 0; s < sweeps; s++ {
		check := s == 0 || s == sweeps-1
		for i, pq := range env.prepared {
			t0 := time.Now()
			res, err := pq.Execute(ctx)
			d := time.Since(t0)
			lat = append(lat, d)
			busy += d
			attempted++
			if err == nil && c.tamper != nil {
				c.tamper(res)
			}
			if err != nil || (check && !env.verify(i, res)) {
				failed++
			}
		}
	}
	runtime.ReadMemStats(&after)

	v["queries_per_s"] = float64(attempted-failed) / busy.Seconds()
	notes = latencyMetrics(v, lat, fmt.Sprintf("%d sweeps of 13 queries", sweeps))
	v["alloc_mib_per_query"] = mib(int64(after.TotalAlloc-before.TotalAlloc)) / float64(attempted)

	phys, logical, err := footprint(env.prepared)
	if err != nil {
		return 0, 0, nil, err
	}
	v["footprint_mib"] = mib(phys)
	v["footprint_ratio"] = float64(phys) / float64(logical)
	return attempted, failed, notes, nil
}
