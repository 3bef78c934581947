package main

import (
	"context"
	"fmt"
	"time"

	"morphstore/internal/columns"
	"morphstore/internal/core"
	"morphstore/internal/monetsim"
	"morphstore/internal/ssb"
)

// ssbCache shares one generated SSB instance plus derived artifacts across
// the experiments of a single msrepro run.
type ssbCache struct {
	sf    float64
	seed  int64
	data  *ssb.Data
	plans map[ssb.Query]*core.Plan
	refs  map[ssb.Query][]ssb.Row
	// costAssign caches the cost-based format assignment per query.
	costAssign map[ssb.Query]*core.Assignment
	// bestFoot/worstFoot cache the exhaustive footprint search per query.
	bestFoot, worstFoot map[ssb.Query]*core.Assignment
	mdbWide, mdbNarrow  *monetsim.DB
}

var cache *ssbCache

func getSSB(opt options) (*ssbCache, error) {
	if cache != nil && cache.sf == opt.sf && cache.seed == opt.seed {
		return cache, nil
	}
	fmt.Printf("\ngenerating SSB data at SF %g ...\n", opt.sf)
	d, err := ssb.Generate(opt.sf, opt.seed)
	if err != nil {
		return nil, err
	}
	c := &ssbCache{
		sf: opt.sf, seed: opt.seed, data: d,
		plans:      make(map[ssb.Query]*core.Plan),
		refs:       make(map[ssb.Query][]ssb.Row),
		costAssign: make(map[ssb.Query]*core.Assignment),
		bestFoot:   make(map[ssb.Query]*core.Assignment),
		worstFoot:  make(map[ssb.Query]*core.Assignment),
	}
	for _, q := range ssb.Queries {
		p, err := ssb.BuildPlan(q, d.Dicts)
		if err != nil {
			return nil, err
		}
		c.plans[q] = p
		r, err := ssb.Reference(q, d)
		if err != nil {
			return nil, err
		}
		c.refs[q] = r
	}
	if c.mdbWide, err = monetsim.NewDB(d.DB, false); err != nil {
		return nil, err
	}
	if c.mdbNarrow, err = monetsim.NewDB(d.DB, true); err != nil {
		return nil, err
	}
	cache = c
	return c, nil
}

// prepare compiles the query once on a single-worker engine over db. The
// paper's figures measure the sequential operator-at-a-time model, so the
// reproduction pins the budget to 1 (per-operator timings would otherwise
// include scheduler contention on multi-core hosts).
func (c *ssbCache) prepare(q ssb.Query, db *core.DB, o ...core.Option) (*core.Prepared, error) {
	eng := core.NewEngine(db, core.WithParallelism(1))
	return eng.Prepare(c.plans[q], o...)
}

// verified executes the prepared query and checks the result against the
// reference.
func (c *ssbCache) verified(q ssb.Query, pq *core.Prepared) (*core.Result, error) {
	res, err := pq.Execute(context.Background())
	if err != nil {
		return nil, err
	}
	got, err := ssb.ExtractResult(q, res)
	if err != nil {
		return nil, err
	}
	if !ssb.RowsEqual(got, c.refs[q]) {
		return nil, fmt.Errorf("ssb %s: engine result differs from reference", q)
	}
	return res, nil
}

// timedRun reports the minimum runtime (engine-measured operator time) of
// the configuration over opt.repeats runs, verifying the first. The plan is
// prepared once and executed repeatedly — the prepared-query pattern.
func (c *ssbCache) timedRun(opt options, q ssb.Query, db *core.DB, o ...core.Option) (*core.Result, time.Duration, error) {
	pq, err := c.prepare(q, db, o...)
	if err != nil {
		return nil, 0, err
	}
	res, err := c.verified(q, pq)
	if err != nil {
		return nil, 0, err
	}
	best := res.Meas.Runtime
	for i := 1; i < opt.repeats; i++ {
		r, err := pq.Execute(context.Background())
		if err != nil {
			return nil, 0, err
		}
		if r.Meas.Runtime < best {
			best = r.Meas.Runtime
		}
	}
	return res, best, nil
}

// costBased returns (cached) the cost-model assignment of a query.
func (c *ssbCache) costBased(q ssb.Query) (*core.Assignment, error) {
	if a, ok := c.costAssign[q]; ok {
		return a, nil
	}
	a, err := core.CostBasedAssignment(c.plans[q], c.data.DB)
	if err != nil {
		return nil, err
	}
	c.costAssign[q] = a
	return a, nil
}

// footSearch returns (cached) the exhaustive per-column footprint search.
func (c *ssbCache) footSearch(q ssb.Query) (best, worst *core.Assignment, err error) {
	if b, ok := c.bestFoot[q]; ok {
		return b, c.worstFoot[q], nil
	}
	b, w, err := core.FootprintSearch(c.plans[q], c.data.DB)
	if err != nil {
		return nil, nil, err
	}
	c.bestFoot[q], c.worstFoot[q] = b, w
	return b, w, nil
}

// staticAssign assigns static BP to every column of the plan.
func staticAssign(p *core.Plan) *core.Assignment {
	a := core.NewAssignment()
	for _, name := range p.BaseColumns() {
		a.Base[name] = columns.StaticBPDesc(0)
	}
	for _, name := range p.IntermediateNames() {
		a.Inter[name] = columns.StaticBPDesc(0)
	}
	return a
}

// runAssign executes a query under a full assignment.
func (c *ssbCache) runAssign(opt options, q ssb.Query, a *core.Assignment, specialized bool) (*core.Result, time.Duration, error) {
	enc, err := c.data.DB.Encode(a.Base)
	if err != nil {
		return nil, 0, err
	}
	return c.timedRun(opt, q, enc, core.WithFormats(a.Inter), core.WithSpecialized(specialized))
}

// runFig9 regenerates Figure 9: per-query runtimes of the four systems.
func runFig9(opt options) error {
	c, err := getSSB(opt)
	if err != nil {
		return err
	}
	header(fmt.Sprintf("Figure 9: MonetDB vs MorphStore, per-query runtimes [ms] (SF %g)", opt.sf))
	fmt.Printf("%-6s %12s %12s %12s %12s\n", "query",
		"MonetDB", "MS uncompr", "MS compr", "MonetDB nrw")
	sums := make([]float64, 4)
	for _, q := range ssb.Queries {
		row := make([]float64, 4)

		// MonetDB-style baseline, wide.
		t, err := timeMonet(opt, c, q, c.mdbWide)
		if err != nil {
			return err
		}
		row[0] = ms(t)

		// MorphStore, uncompressed.
		_, tu, err := c.timedRun(opt, q, c.data.DB)
		if err != nil {
			return err
		}
		row[1] = ms(tu)

		// MorphStore with continuous compression (cost-based formats; greedy
		// search with -full).
		assign, err := c.bestRuntimeAssign(opt, q)
		if err != nil {
			return err
		}
		_, tc, err := c.runAssign(opt, q, assign, true)
		if err != nil {
			return err
		}
		row[2] = ms(tc)

		// MonetDB-style baseline, narrow types.
		tn, err := timeMonet(opt, c, q, c.mdbNarrow)
		if err != nil {
			return err
		}
		row[3] = ms(tn)

		fmt.Printf("%-6s %12.2f %12.2f %12.2f %12.2f\n", q, row[0], row[1], row[2], row[3])
		for i, v := range row {
			sums[i] += v
		}
	}
	fmt.Printf("%-6s %12.2f %12.2f %12.2f %12.2f\n", "avg",
		sums[0]/13, sums[1]/13, sums[2]/13, sums[3]/13)
	fmt.Println("\npaper shape: scalar MorphStore ~= MonetDB; vectorization ~-19%;")
	fmt.Println("continuous compression ~-54% vs scalar (2x); narrow types help MonetDB ~-16%.")
	fmt.Println("Go has no SIMD, so each kernel has one loop: the paper's scalar and vectorized")
	fmt.Println("MorphStore columns are the one uncompressed column here.")
	return nil
}

// bestRuntimeAssign picks the continuous-compression configuration for the
// runtime experiments: greedy search with -full, cost-based otherwise.
func (c *ssbCache) bestRuntimeAssign(opt options, q ssb.Query) (*core.Assignment, error) {
	if opt.full {
		return core.RuntimeGreedySearch(c.plans[q], c.data.DB, true, false, opt.repeats)
	}
	return c.costBased(q)
}

// timeMonet times the baseline engine on a query, verifying its result.
func timeMonet(opt options, c *ssbCache, q ssb.Query, db *monetsim.DB) (time.Duration, error) {
	res, err := monetsim.Execute(c.plans[q], db)
	if err != nil {
		return 0, err
	}
	got, err := ssb.ExtractRows(q, res.Cols)
	if err != nil {
		return 0, err
	}
	if !ssb.RowsEqual(got, c.refs[q]) {
		return 0, fmt.Errorf("monetsim %s: result differs from reference", q)
	}
	best := res.Runtime
	for i := 1; i < opt.repeats; i++ {
		r, err := monetsim.Execute(c.plans[q], db)
		if err != nil {
			return 0, err
		}
		if r.Runtime < best {
			best = r.Runtime
		}
	}
	return best, nil
}

// runFig1 regenerates Figure 1: the average over all 13 queries of the
// headline systems.
func runFig1(opt options) error {
	c, err := getSSB(opt)
	if err != nil {
		return err
	}
	header(fmt.Sprintf("Figure 1: average runtime of all 13 SSB queries (SF %g)", opt.sf))
	var tMonet, tUncompr, tCompr time.Duration
	var fUncompr, fCompr int
	for _, q := range ssb.Queries {
		t, err := timeMonet(opt, c, q, c.mdbWide)
		if err != nil {
			return err
		}
		tMonet += t
		resU, tu, err := c.timedRun(opt, q, c.data.DB)
		if err != nil {
			return err
		}
		tUncompr += tu
		assign, err := c.bestRuntimeAssign(opt, q)
		if err != nil {
			return err
		}
		resC, tc, err := c.runAssign(opt, q, assign, true)
		if err != nil {
			return err
		}
		tCompr += tc
		fUncompr += resU.Meas.Footprint()
		fCompr += resC.Meas.Footprint()
	}
	rows := []struct {
		name string
		t    time.Duration
	}{
		{"MonetDB (64-bit)", tMonet},
		{"MorphStore (uncompressed, 64-bit)", tUncompr},
		{"MorphStore (compressed)", tCompr},
	}
	for _, r := range rows {
		fmt.Printf("%-38s %10.2f ms  (%.0f%% of MS uncompressed)\n",
			r.name, ms(r.t)/13, 100*float64(r.t)/float64(tUncompr))
	}
	fmt.Printf("\nmemory footprint: compressed %.0f%% of uncompressed (paper: -52%%)\n",
		100*float64(fCompr)/float64(fUncompr))
	fmt.Println("\npaper shape: MonetDB ~= scalar MorphStore; vectorized ~-19%; vectorized +")
	fmt.Println("compressed ~2x faster than scalar. Go has no SIMD, so each kernel has one loop:")
	fmt.Println("the paper's scalar and vectorized MorphStore rows are the one uncompressed row here.")
	return nil
}

// runFig7 regenerates Figure 7: worst / uncompressed / static BP / best
// format combinations per query, for footprint and runtime.
func runFig7(opt options) error {
	c, err := getSSB(opt)
	if err != nil {
		return err
	}
	header(fmt.Sprintf("Figure 7: impact of the format combination (SF %g)", opt.sf))
	fmt.Printf("%-6s | %11s %11s %11s %11s | %9s %9s %9s %9s\n", "query",
		"worst[MiB]", "uncmp[MiB]", "stat[MiB]", "best[MiB]",
		"worst[ms]", "uncmp[ms]", "stat[ms]", "best[ms]")
	var fw, fu, fs, fb, tw, tu, tss, tb float64
	for _, q := range ssb.Queries {
		best, worst, err := c.footSearch(q)
		if err != nil {
			return err
		}
		static := staticAssign(c.plans[q])
		uncmp := core.NewAssignment()

		type cell struct {
			foot int
			t    time.Duration
		}
		run := func(a *core.Assignment) (cell, error) {
			res, t, err := c.runAssign(opt, q, a, false)
			if err != nil {
				return cell{}, err
			}
			return cell{res.Meas.Footprint(), t}, nil
		}
		var wc, uc, sc, bc cell
		if wc, err = run(worst); err != nil {
			return err
		}
		if uc, err = run(uncmp); err != nil {
			return err
		}
		if sc, err = run(static); err != nil {
			return err
		}
		// For the runtime "best" use the greedy/cost-based assignment; for
		// the footprint "best" the exhaustive search result.
		if bc, err = run(best); err != nil {
			return err
		}
		rtAssign, err := c.bestRuntimeAssign(opt, q)
		if err != nil {
			return err
		}
		_, bt, err := c.runAssign(opt, q, rtAssign, false)
		if err != nil {
			return err
		}
		if bt < bc.t {
			bc.t = bt
		}

		fmt.Printf("%-6s | %11.2f %11.2f %11.2f %11.2f | %9.2f %9.2f %9.2f %9.2f\n",
			q, mib(wc.foot), mib(uc.foot), mib(sc.foot), mib(bc.foot),
			ms(wc.t), ms(uc.t), ms(sc.t), ms(bc.t))
		fw += mib(wc.foot)
		fu += mib(uc.foot)
		fs += mib(sc.foot)
		fb += mib(bc.foot)
		tw += ms(wc.t)
		tu += ms(uc.t)
		tss += ms(sc.t)
		tb += ms(bc.t)
	}
	fmt.Printf("%-6s | %11.2f %11.2f %11.2f %11.2f | %9.2f %9.2f %9.2f %9.2f\n",
		"avg", fw/13, fu/13, fs/13, fb/13, tw/13, tu/13, tss/13, tb/13)
	fmt.Printf("\npaper shape: static BP ~37%% footprint, best ~35%%; best runtime ~66%% of\n")
	fmt.Printf("uncompressed on average; worst combination costs ~+11%% runtime.\n")
	return nil
}

// runFig8 regenerates Figure 8: no compression vs compressed base columns
// only vs compressed base + intermediates.
func runFig8(opt options) error {
	c, err := getSSB(opt)
	if err != nil {
		return err
	}
	header(fmt.Sprintf("Figure 8: compressing base data vs intermediates (SF %g)", opt.sf))
	fmt.Printf("%-6s | %11s %11s %11s | %9s %9s %9s\n", "query",
		"uncmp[MiB]", "base[MiB]", "b+int[MiB]", "uncmp[ms]", "base[ms]", "b+int[ms]")
	var f0, f1, f2, t0, t1, t2 float64
	for _, q := range ssb.Queries {
		full, err := c.costBased(q)
		if err != nil {
			return err
		}
		baseOnly := core.NewAssignment()
		for k, v := range full.Base {
			baseOnly.Base[k] = v
		}
		uncmp := core.NewAssignment()

		run := func(a *core.Assignment) (int, time.Duration, error) {
			res, t, err := c.runAssign(opt, q, a, false)
			if err != nil {
				return 0, 0, err
			}
			return res.Meas.Footprint(), t, nil
		}
		fu, tu, err := run(uncmp)
		if err != nil {
			return err
		}
		fb, tb, err := run(baseOnly)
		if err != nil {
			return err
		}
		fi, ti, err := run(full)
		if err != nil {
			return err
		}
		fmt.Printf("%-6s | %11.2f %11.2f %11.2f | %9.2f %9.2f %9.2f\n",
			q, mib(fu), mib(fb), mib(fi), ms(tu), ms(tb), ms(ti))
		f0 += mib(fu)
		f1 += mib(fb)
		f2 += mib(fi)
		t0 += ms(tu)
		t1 += ms(tb)
		t2 += ms(ti)
	}
	fmt.Printf("%-6s | %11.2f %11.2f %11.2f | %9.2f %9.2f %9.2f\n",
		"avg", f0/13, f1/13, f2/13, t0/13, t1/13, t2/13)
	fmt.Printf("\npaper shape: base-only compression reaches ~54%% footprint / ~93%% runtime;\n")
	fmt.Printf("adding intermediates reaches ~35%% / ~66%% — intermediates matter more.\n")
	return nil
}

// runFig10 regenerates Figure 10: footprint of static BP vs the cost-based
// selection vs the actual best combination.
func runFig10(opt options) error {
	c, err := getSSB(opt)
	if err != nil {
		return err
	}
	header(fmt.Sprintf("Figure 10: cost-based format selection vs optimum (SF %g)", opt.sf))
	fmt.Printf("%-6s %14s %14s %14s\n", "query", "staticBP [MiB]", "costbased[MiB]", "best [MiB]")
	var fs, fc, fb float64
	for _, q := range ssb.Queries {
		static := staticAssign(c.plans[q])
		cost, err := c.costBased(q)
		if err != nil {
			return err
		}
		best, _, err := c.footSearch(q)
		if err != nil {
			return err
		}
		run := func(a *core.Assignment) (int, error) {
			res, _, err := c.runAssign(opt, q, a, false)
			if err != nil {
				return 0, err
			}
			return res.Meas.Footprint(), nil
		}
		s, err := run(static)
		if err != nil {
			return err
		}
		co, err := run(cost)
		if err != nil {
			return err
		}
		b, err := run(best)
		if err != nil {
			return err
		}
		fmt.Printf("%-6s %14.2f %14.2f %14.2f\n", q, mib(s), mib(co), mib(b))
		fs += mib(s)
		fc += mib(co)
		fb += mib(b)
	}
	fmt.Printf("%-6s %14.2f %14.2f %14.2f\n", "avg", fs/13, fc/13, fb/13)
	fmt.Println("\npaper shape: cost-based selection is virtually equal to the optimum.")
	return nil
}
