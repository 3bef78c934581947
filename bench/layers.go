package main

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"morphstore/internal/bitutil"
	"morphstore/internal/columns"
	"morphstore/internal/core"
	"morphstore/internal/costmodel"
	"morphstore/internal/formats"
	"morphstore/internal/morph"
	"morphstore/internal/ops"
	"morphstore/internal/ssb"
	"morphstore/internal/stats"
	"morphstore/internal/vector"
)

// This file prices the layers below the engine from outside: every column a
// kept execution materialised is replayed through the public functions of
// bitutil, formats, morph and costmodel in its actual format, and the ladder
// times one hot operator at each rung from the sequential kernel up to a
// prepared one-node plan.

const replayReps = 3 // repetitions of every timed replay; the median counts

// layerAgg sums the replays over all kept columns of a traced run.
type layerAgg struct {
	par int // the workload's parallelism: concat and stitch replay that many ways

	unpack, pack           time.Duration
	packedElems            int64
	decode, encode         time.Duration // decode weighted by consumer count
	decodeElems, encElems  int64
	physBytes, elems       int64
	concat                 time.Duration
	concatElems            int64
	morph                  time.Duration
	morphElems, morphCount int64
	pick                   time.Duration
	sizeErrs               []float64

	hot      *columns.Column // largest compressed intermediate: the stitch replay's input
	decoded  map[*columns.Column]time.Duration
	firstErr error
}

func (a *layerAgg) fail(err error) {
	if err != nil && a.firstErr == nil {
		a.firstErr = err
	}
}

// replay prices one kept column. withCost replays the cost model's work on
// it; workloads that never consult the cost model pass false.
func (a *layerAgg) replay(p *core.Plan, k keptColumn, withCost bool) {
	col, desc, n := k.col, k.col.Desc(), int64(k.col.N())
	a.physBytes += int64(col.PhysicalBytes())
	a.elems += n
	if n == 0 {
		return
	}
	vals, err := formats.Decompress(col)
	if err != nil {
		a.fail(err)
		return
	}
	if withCost {
		var prof *stats.Profile
		a.pick += timed(replayReps, func() {
			prof = stats.Collect(vals)
			_, err = costmodel.ChooseBySize(prof, core.Candidates(p, k.name))
		})
		a.fail(err)
		if est, err := costmodel.EstimateBytes(prof, desc); err == nil && desc.IsCompressed() {
			actual := float64(col.PhysicalBytes())
			a.sizeErrs = append(a.sizeErrs, 100*math.Abs(float64(est)-actual)/actual)
		}
	}
	if !desc.IsCompressed() {
		return // the uncompressed format is handed out as a slice: nothing decodes
	}

	if a.decoded == nil {
		a.decoded = make(map[*columns.Column]time.Duration)
	}
	d, seen := a.decoded[col]
	if !seen {
		d = timed(replayReps, func() { _, err = formats.Decompress(col) })
		a.fail(err)
		a.decoded[col] = d
	}
	a.decode += d * time.Duration(k.consumers)
	a.decodeElems += n * int64(k.consumers)

	if !k.base {
		a.encode += timed(replayReps, func() { _, err = formats.Compress(vals, desc) })
		a.fail(err)
		a.encElems += n
		if a.hot == nil || col.N() > a.hot.N() {
			a.hot = col
		}
		a.replayConcat(col, vals)
	}

	if desc.Kind == columns.StaticBP && !seen && col.MainElems() > 0 {
		width, main := uint(desc.Bits), col.MainElems()
		dst := make([]uint64, main)
		a.unpack += timed(replayReps, func() { bitutil.Unpack(dst, col.MainWords(), width) })
		words := make([]uint64, bitutil.PackedWords(main, width))
		a.pack += timed(replayReps, func() { bitutil.Pack(words, vals[:main], width) })
		a.packedElems += int64(main)
	}

	if k.random && !formats.HasRandomAccess(desc.Kind) {
		a.morph += timed(replayReps, func() { _, err = morph.Morph(col, columns.StaticBPDesc(0)) })
		a.fail(err)
		a.morphElems += n
		a.morphCount++
	}
}

// replayConcat splits a compressed intermediate the way par workers would
// have produced it and times splicing the parts back together.
func (a *layerAgg) replayConcat(col *columns.Column, vals []uint64) {
	desc := col.Desc()
	parts := formats.SplitColumn(col, a.par)
	if parts == nil || !formats.CanConcat(desc.Kind) {
		return
	}
	cols := make([]*columns.Column, len(parts))
	for i, pt := range parts {
		c, err := formats.Compress(vals[pt.Start:pt.Start+pt.Count], desc)
		if err != nil {
			a.fail(err)
			return
		}
		cols[i] = c
	}
	var err error
	a.concat += timed(replayReps, func() { _, err = formats.ConcatCompressed(desc, cols) })
	a.fail(err)
	a.concatElems += int64(col.N())
}

// stitchNSPerElem times ops.StitchCompressed over the largest compressed
// intermediate, cut into the morsel chunks par workers would hand over.
func (a *layerAgg) stitchNSPerElem() float64 {
	if a.hot == nil || a.par <= 1 {
		return 0
	}
	vals, err := formats.Decompress(a.hot)
	if err != nil {
		a.fail(err)
		return 0
	}
	parts := formats.SplitRange(len(vals), a.par*8, 1)
	if parts == nil {
		return 0
	}
	chunks := make([][]uint64, len(parts))
	for i, pt := range parts {
		chunks[i] = vals[pt.Start : pt.Start+pt.Count]
	}
	d := timed(replayReps, func() { _, err = ops.StitchCompressed(a.hot.Desc(), len(vals), chunks, a.par) })
	a.fail(err)
	return float64(d) / float64(len(vals))
}

// emit writes the bitutil.*, formats.*, morph.* and costmodel.* metrics;
// sweepWall is the traced sweep the shares are taken of.
func (a *layerAgg) emit(v values, sweepWall time.Duration) {
	perElem := func(d time.Duration, n int64) float64 { return ratio(float64(d), float64(n)) }
	v["bitutil.unpack_ns_per_elem"] = perElem(a.unpack, a.packedElems)
	v["bitutil.pack_ns_per_elem"] = perElem(a.pack, a.packedElems)
	v["formats.decode_ns_per_elem"] = perElem(a.decode, a.decodeElems)
	v["formats.encode_ns_per_elem"] = perElem(a.encode, a.encElems)
	v["formats.decode_share"] = ratio(float64(a.decode), float64(sweepWall))
	v["formats.encode_share"] = ratio(float64(a.encode), float64(sweepWall))
	v["formats.bytes_per_elem"] = ratio(float64(a.physBytes), float64(a.elems))
	v["formats.concat_ns_per_elem"] = perElem(a.concat, a.concatElems)
	v["morph.ns_per_elem"] = perElem(a.morph, a.morphElems)
	v["morph.count"] = float64(a.morphCount)
	v["morph.share"] = ratio(float64(a.morph), float64(sweepWall))
	v["costmodel.pick_ms"] = msOf(a.pick)
	v["costmodel.size_err_pct"] = median(a.sizeErrs)
	v["ops.runtime.stitch_ns_per_elem"] = a.stitchNSPerElem()
}

// perLayer is the traced repetition of an SSB workload: paired untraced and
// traced sweeps, one kept sweep replayed layer by layer, and the ladder.
func (e *ssbEnv) perLayer(c *config, v values) (attempted, failed int, notes []string, err error) {
	ctx := context.Background()
	t0 := time.Now()
	if err := e.prepareAll(); err != nil {
		return 0, 0, nil, err
	}
	v["core.prepare.ms"] = msOf(time.Since(t0))

	if err := e.warmUp(c.sc.warm); err != nil {
		return 0, 0, nil, err
	}
	tr := newMemTracer()
	var plain []float64
	aggs := make([]sweepAgg, c.sc.traceSweeps)
	for s := range aggs {
		t0 := time.Now()
		for _, pq := range e.prepared {
			if _, err := pq.Execute(ctx); err != nil {
				return 0, 0, nil, err
			}
			attempted++
		}
		plain = append(plain, float64(time.Since(t0)))
		for i, pq := range e.prepared {
			res, err := tracedExecute(pq, tr, &aggs[s])
			if err != nil {
				return 0, 0, nil, err
			}
			attempted++
			if !e.verify(i, res) {
				failed++
			}
		}
	}
	emitSweeps(v, aggs)
	traced := make([]float64, len(aggs))
	for i := range aggs {
		traced[i] = float64(aggs[i].wall)
	}
	v["core.execute.trace_overhead_pct"] = pct(median(traced), median(plain))

	la := &layerAgg{par: e.par}
	kept := make([]*core.Result, len(e.prepared))
	for i, pq := range e.prepared {
		if kept[i], err = pq.Execute(ctx, core.WithKeep(true)); err != nil {
			return 0, 0, nil, err
		}
		for _, k := range keptColumns(e.plans[i], kept[i]) {
			la.replay(e.plans[i], k, e.compressed)
		}
	}
	la.emit(v, time.Duration(median(traced)))
	if la.firstErr != nil {
		return 0, 0, nil, la.firstErr
	}
	if err := e.ladder(c, v, kept); err != nil {
		return 0, 0, nil, err
	}
	return attempted, failed, notes, nil
}

const ladderReps = 9 // after one untimed warm-up pass over all rungs

// ladder times Q1.1's range select on lo_discount and Q2.1's part join on
// their own inputs and output formats at every rung: (1) the sequential
// operator, (2) ops.Runtime with one worker, (3) ops.Runtime with nproc
// workers, (4) the engine's one-off operator methods, (5) a prepared one-node
// plan through Engine.Execute. Each rung is reported over the one below.
func (e *ssbEnv) ladder(c *config, v values, kept []*core.Result) error {
	const q11, q21 = 0, 3 // positions in ssb.Queries
	if ssb.Queries[q11] != ssb.Q11 || ssb.Queries[q21] != ssb.Q21 {
		return fmt.Errorf("bench: ssb.Queries order changed")
	}
	sel, err := findNode(e.plans[q11], core.OpBetween, "lineorder.")
	if err != nil {
		return err
	}
	join, err := findNode(e.plans[q21], core.OpJoinN1, "lineorder.")
	if err != nil {
		return err
	}
	in := kept[q11].Inter[inputName(e.plans[q11], sel, 0)]
	probe := kept[q21].Inter[inputName(e.plans[q21], join, 0)]
	build := kept[q21].Inter[inputName(e.plans[q21], join, 1)]
	if in == nil || probe == nil || build == nil {
		return fmt.Errorf("bench: ladder inputs missing from the kept sweep")
	}
	f11, f21 := e.prepared[q11].Formats(), e.prepared[q21].Formats()
	dSel, dProbe, dBuild := f11[sel.OutNames[0]], f21[join.OutNames[0]], f21[join.OutNames[1]]
	lo, hi := sel.Val, sel.Val2
	style, spec := vector.Vec512, e.compressed
	ctx := context.Background()

	var ferr error
	keep := func(err error) {
		if err != nil && ferr == nil {
			ferr = err
		}
	}
	seq := func() {
		_, err := ops.SelectBetweenAuto(in, lo, hi, dSel, style, spec)
		keep(err)
		_, _, err = ops.JoinN1(probe, build, dProbe, dBuild, style)
		keep(err)
	}
	runtimeAt := func(par int) func() {
		return func() {
			rt := ops.FixedRT(par)
			_, err := rt.SelectBetweenAuto(in, lo, hi, dSel, style, spec)
			keep(err)
			_, _, err = rt.JoinN1(probe, build, dProbe, dBuild, style)
			keep(err)
		}
	}
	oneOff := func() {
		_, err := e.eng.SelectBetween(ctx, in, lo, hi, core.WithOutput(dSel))
		keep(err)
		_, _, err = e.eng.JoinN1(ctx, probe, build, core.WithOutputs(dProbe, dBuild))
		keep(err)
	}
	// Rung 5 needs a plan: scan -> between as the (uncompressed) result. Its
	// base is the same select at the engine's parallelism, also uncompressed.
	b := core.NewBuilder()
	b.Result(b.Between("ladder_sel", b.Scan("lineorder", scannedColumn(e.plans[q11], sel)), lo, hi))
	plan, err := b.Build()
	if err != nil {
		return err
	}
	pq, err := e.eng.Prepare(plan)
	if err != nil {
		return err
	}
	planned := func() { _, err := pq.Execute(ctx); keep(err) }
	selOnly := func() {
		_, err := ops.FixedRT(e.par).SelectBetweenAuto(in, lo, hi, columns.UncomprDesc, style, spec)
		keep(err)
	}

	if c.nproc > 1 {
		// Wake the processors rung 3 will use (see scale.warm) before it is
		// timed; the sequential workloads have not touched them yet.
		spinUp(c.sc.warm, runtimeAt(c.nproc))
	}
	rungs := []func(){seq, runtimeAt(1), runtimeAt(c.nproc), runtimeAt(e.par), oneOff, selOnly, planned}
	times := make([][]float64, len(rungs))
	for rep := -1; rep < ladderReps; rep++ {
		for i, fn := range rungs {
			t0 := time.Now()
			fn()
			if rep >= 0 {
				times[i] = append(times[i], float64(time.Since(t0)))
			}
		}
	}
	if ferr != nil {
		return ferr
	}
	t := make([]float64, len(rungs))
	for i := range t {
		t[i] = median(times[i])
	}
	v["ops.seq_ns_per_elem"] = t[0] / float64(in.N()+probe.N())
	v["ops.runtime.par1_overhead_pct"] = pct(t[1], t[0])
	v["ops.runtime.parN_speedup"] = ratio(t[1], t[2])
	v["core.oneoff.overhead_pct"] = pct(t[4], t[3])
	v["core.execute.overhead_pct"] = pct(t[6], t[5])
	return nil
}

// findNode returns the first operator of kind op whose first input is a scan
// of a column with the given name prefix.
func findNode(p *core.Plan, op core.OpKind, scanPrefix string) (core.NodeInfo, error) {
	nodes := p.Nodes()
	for _, n := range nodes {
		if n.Op != op || len(n.Inputs) == 0 {
			continue
		}
		src := nodes[n.Inputs[0].Node]
		if src.Op == core.OpScan && strings.HasPrefix(src.OutNames[0], scanPrefix) {
			return n, nil
		}
	}
	return core.NodeInfo{}, fmt.Errorf("bench: plan has no %v over a %s* scan", op, scanPrefix)
}

// inputName returns the column name of input i of node n.
func inputName(p *core.Plan, n core.NodeInfo, i int) string {
	in := n.Inputs[i]
	return p.Nodes()[in.Node].OutNames[in.Out]
}

// scannedColumn returns the column the node's first input scans.
func scannedColumn(p *core.Plan, n core.NodeInfo) string {
	return p.Nodes()[n.Inputs[0].Node].Column
}
