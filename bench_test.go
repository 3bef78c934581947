// Developer inner-loop micro-benchmarks: the morsel-parallel operators at
// increasing parallelism, the codecs, and ablations of MorphStore-Go's own
// design choices (`go test -bench=. -benchmem`). They gate nothing: whether a
// change made the engine slower or bigger is the repository benchmark's
// question (bench/, BENCHMARK.json), the 2% feature-off ceilings are
// cmd/msbench's, and the paper's tables and figures — with their result
// verification — are cmd/msrepro's.
package morphstore

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	_ "unsafe" // for go:linkname

	"morphstore/internal/bitutil"
	"morphstore/internal/bufpool"
	"morphstore/internal/columns"
	"morphstore/internal/core"
	"morphstore/internal/datagen"
	"morphstore/internal/formats"
	"morphstore/internal/morph"
	"morphstore/internal/ops"
	"morphstore/internal/ssb"
	"morphstore/internal/stats"
)

const (
	benchMicroN = 1 << 20 // micro-benchmark column size (paper: 128 Mi)
	benchSF     = 0.01    // SSB scale factor (paper: 10)
)

// benchSSBData generates the benchmark-scale SSB database once.
var benchSSBData = sync.OnceValues(func() (*ssb.Data, error) { return ssb.Generate(benchSF, 42) })

// benchSSB returns one SSB query's plan and the database it runs on: every
// base column of the plan DynBP-compressed, except randomly accessed ones,
// which must keep random access (static BP).
func benchSSB(b *testing.B, q ssb.Query) (*core.Plan, *core.DB) {
	data, err := benchSSBData()
	if err != nil {
		b.Fatal(err)
	}
	plan, err := ssb.BuildPlan(q, data.Dicts)
	if err != nil {
		b.Fatal(err)
	}
	base := make(map[string]columns.FormatDesc)
	for _, name := range plan.BaseColumns() {
		base[name] = columns.DynBPDesc
		if plan.RandomAccessed(name) {
			base[name] = columns.StaticBPDesc(0)
		}
	}
	enc, err := data.DB.Encode(base)
	if err != nil {
		b.Fatal(err)
	}
	return plan, enc
}

// benchParLevels are the parallelism degrees the morsel/scheduler benchmarks
// sweep; on a >=4-core host par4 vs par1 is the headline speedup.
var benchParLevels = []int{1, 2, 4, 8}

// BenchmarkParallelSelectDynBP measures the morsel-parallel select driver
// over a DynBP-compressed column at increasing parallelism degrees. The
// par1 case is the sequential baseline (it dispatches to the plain
// operator); outputs are byte-identical at every level.
func BenchmarkParallelSelectDynBP(b *testing.B) {
	vals, needle := datagen.GenerateSelectWorkload(datagen.C1, benchMicroN, 42)
	col, err := formats.Compress(vals, columns.DynBPDesc)
	if err != nil {
		b.Fatal(err)
	}
	for _, par := range benchParLevels {
		b.Run(fmt.Sprintf("par%d", par), func(b *testing.B) {
			b.SetBytes(int64(len(vals) * 8))
			for i := 0; i < b.N; i++ {
				if _, err := ops.FixedRT(par).SelectAuto(col, bitutil.CmpEq, needle, columns.DeltaBPDesc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelSum measures the morsel-parallel whole-column sum over a
// DynBP column.
func BenchmarkParallelSum(b *testing.B) {
	vals := datagen.Generate(datagen.C1, benchMicroN, 42)
	col, err := formats.Compress(vals, columns.DynBPDesc)
	if err != nil {
		b.Fatal(err)
	}
	for _, par := range benchParLevels {
		b.Run(fmt.Sprintf("par%d", par), func(b *testing.B) {
			b.SetBytes(int64(len(vals) * 8))
			for i := 0; i < b.N; i++ {
				if _, _, err := ops.FixedRT(par).SumAuto(col); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelJoinN1 measures the morsel-parallel N:1 join probe over a
// DynBP probe column against the shared read-only build table (~50% match
// rate), once per build path: dense keys 0..4095 take the direct-address
// table, the same keys shifted left by 40 bits the hash map. The semijoin and
// selectin rows run the same probe through SemiJoin and SelectIn (the keys as
// the IN set), which keep only its probe positions.
func BenchmarkParallelJoinN1(b *testing.B) {
	vals := datagen.Generate(datagen.C1, benchMicroN, 42)
	const nBuild = 4096
	for _, shape := range []struct {
		name  string
		shift uint
	}{{"dense", 0}, {"sparse", 40}} {
		probeVals := make([]uint64, len(vals))
		for i, v := range vals {
			probeVals[i] = v % (2 * nBuild) << shape.shift
		}
		probe, err := formats.Compress(probeVals, columns.DynBPDesc)
		if err != nil {
			b.Fatal(err)
		}
		buildVals := make([]uint64, nBuild)
		for i := range buildVals {
			buildVals[i] = uint64(i) << shape.shift
		}
		build := columns.FromValues(buildVals)
		for _, op := range []struct {
			name string
			run  func(rt ops.Runtime) error
		}{
			{"join", func(rt ops.Runtime) error {
				_, _, err := rt.JoinN1(probe, build, columns.DeltaBPDesc, columns.DynBPDesc, 0)
				return err
			}},
			{"semijoin", func(rt ops.Runtime) error { _, err := rt.SemiJoin(probe, build, columns.DeltaBPDesc); return err }},
			{"selectin", func(rt ops.Runtime) error { _, err := rt.SelectIn(probe, buildVals, columns.DeltaBPDesc); return err }},
		} {
			for _, par := range benchParLevels {
				b.Run(fmt.Sprintf("%s/%s/par%d", shape.name, op.name, par), func(b *testing.B) {
					b.SetBytes(int64(len(vals) * 8))
					for i := 0; i < b.N; i++ {
						if err := op.run(ops.FixedRT(par)); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// BenchmarkGroup measures the grouping per key shape and operator, in
// ns/row: GroupFirst over benchMicroN keys, and GroupNext refining the
// grouping of one such column by another. The dense shape is 8 codes (the
// GROUP BY of the ingest_query_mix workload), which the grouping assigns
// through its direct-address table; the sparse shape shifts the same codes
// left by 40 bits, past the table's cap, onto the hash table. The runtime
// draws from a lease and each iteration gives its outputs back, as an
// execution does.
func BenchmarkGroup(b *testing.B) {
	codes := func(seed int64) []uint64 {
		vals := datagen.Generate(datagen.C1, benchMicroN, seed)
		for i := range vals {
			vals[i] %= 8
		}
		return vals
	}
	first, second := codes(42), codes(43)
	lease := bufpool.New().Lease()
	defer lease.Close()
	rt := ops.RT(context.Background(), nil, lease, 1)
	for _, shape := range []struct {
		name  string
		shift uint
	}{{"dense", 0}, {"sparse", 40}} {
		shifted := func(vals []uint64) *columns.Column {
			out := make([]uint64, len(vals))
			for i, v := range vals {
				out[i] = v << shape.shift
			}
			return columns.FromValues(out)
		}
		keys, next := shifted(first), shifted(second)
		prev, _, err := ops.FixedRT(1).GroupFirst(keys, columns.UncomprDesc, columns.UncomprDesc)
		if err != nil {
			b.Fatal(err)
		}
		for _, op := range []struct {
			name string
			run  func() (gids, extents *columns.Column, err error)
		}{
			{"first", func() (*columns.Column, *columns.Column, error) {
				return rt.GroupFirst(keys, columns.StaticBPDesc(0), columns.UncomprDesc)
			}},
			{"next", func() (*columns.Column, *columns.Column, error) {
				return rt.GroupNext(prev, next, columns.StaticBPDesc(0), columns.UncomprDesc)
			}},
		} {
			b.Run(shape.name+"/"+op.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					gids, extents, err := op.run()
					if err != nil {
						b.Fatal(err)
					}
					_ = lease.Put(gids.Words())    // issued by the lease
					_ = lease.Put(extents.Words()) // issued by the lease
				}
				reportPerRow(b, benchMicroN)
			})
		}
	}
}

// benchScanN is the row count of the scan and sorted-set benchmarks: the
// fact table of the repository benchmark's SSB workloads.
const benchScanN = 1_200_000

// profileN is the length of the profile rows of the kernel ladder: 1 Mi
// values.
const profileN = 1 << 20

// reportPerRow reports the benchmark's time per input row.
func reportPerRow(b *testing.B, rows int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rows), "ns/row")
}

// BenchmarkScan measures the range scan of SSB Q1.x per input shape, at the
// two selectivities of Q1.1: discount-like values 0..10 tested for [1, 3]
// (~27 %) on static BP at width 4 (staticbp_w4, the discount column itself),
// and quantity-like values 1..50 tested for < 25 (~48 %) on static BP at
// width 6 (packed_w6), uncompressed (uncompr, the zero-copy block kernel) and
// DeltaBP (deltabp, the block kernel behind a blocked codec). Every shape
// runs the same block kernel; the format decides only how a block is decoded.
//
// The and_* rows price the conjunction of Q1.1–Q1.3 over independent
// discount-like (static BP width 4) and quantity-like (width 6) columns, per
// row of the table: three_op is the plan as written — two selections and the
// intersect of their position lists, every list DeltaBP — and fused the one
// two-column scan the rewrite pass binds instead (ops.Runtime.SelectAnd).
func BenchmarkScan(b *testing.B) {
	column := func(seed int64, mod, off uint64, desc columns.FormatDesc) *columns.Column {
		rng := rand.New(rand.NewSource(seed))
		vals := make([]uint64, benchScanN)
		for i := range vals {
			vals[i] = rng.Uint64()%mod + off
		}
		col, err := formats.Compress(vals, desc)
		if err != nil {
			b.Fatal(err)
		}
		return col
	}
	for _, sc := range []struct {
		name   string
		in     *columns.Column
		lo, hi uint64
	}{
		{"staticbp_w4", column(42, 11, 0, columns.StaticBPDesc(4)), 1, 3},
		{"packed_w6", column(42, 50, 1, columns.StaticBPDesc(6)), 0, 24},
		{"uncompr", column(42, 50, 1, columns.UncomprDesc), 0, 24},
		{"deltabp", column(42, 50, 1, columns.DeltaBPDesc), 0, 24},
	} {
		b.Run(sc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ops.SelectBetweenAuto(sc.in, sc.lo, sc.hi, columns.DeltaBPDesc, 0, false); err != nil {
					b.Fatal(err)
				}
			}
			reportPerRow(b, benchScanN)
		})
	}

	disc, qty := column(42, 11, 0, columns.StaticBPDesc(4)), column(43, 50, 1, columns.StaticBPDesc(6))
	rt, out := ops.FixedRT(1), columns.DeltaBPDesc
	for _, q := range []struct {
		name                         string
		discLo, discHi, qtyLo, qtyHi uint64
	}{{"q11", 1, 3, 1, 24}, {"q12", 4, 6, 26, 35}, {"q13", 5, 7, 26, 35}} {
		for _, path := range []struct {
			name string
			run  func() error
		}{
			{"three_op", func() error {
				sd, err := rt.SelectBetweenAuto(disc, q.discLo, q.discHi, out, 0, false)
				if err != nil {
					return err
				}
				sq, err := rt.SelectBetweenAuto(qty, q.qtyLo, q.qtyHi, out, 0, false)
				if err != nil {
					return err
				}
				_, err = rt.Intersect(sd, sq, out)
				return err
			}},
			{"fused", func() error {
				_, err := rt.SelectAnd(disc, q.discLo, q.discHi-q.discLo, qty, q.qtyLo, q.qtyHi-q.qtyLo, out)
				return err
			}},
		} {
			b.Run("and_"+q.name+"/"+path.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if err := path.run(); err != nil {
						b.Fatal(err)
					}
				}
				reportPerRow(b, benchScanN)
			})
		}
	}
}

// BenchmarkSortedSet measures the streamed sorted-set kernels on the position
// lists Q1.1's two predicates leave (~330 k and ~580 k of 1.2 M rows), both
// DeltaBP-compressed like the plan's intermediates.
func BenchmarkSortedSet(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	positions := func(mod, below uint64) *columns.Column {
		var pos []uint64
		for i := 0; i < benchScanN; i++ {
			if rng.Uint64()%mod < below {
				pos = append(pos, uint64(i))
			}
		}
		col, err := formats.Compress(pos, columns.DeltaBPDesc)
		if err != nil {
			b.Fatal(err)
		}
		return col
	}
	x, y := positions(11, 3), positions(50, 24)
	for _, op := range []struct {
		name string
		run  func(a, b *columns.Column, out columns.FormatDesc) (*columns.Column, error)
	}{{"intersect", ops.FixedRT(1).Intersect}, {"merge", ops.FixedRT(1).Merge}} {
		b.Run(op.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := op.run(x, y, columns.DeltaBPDesc); err != nil {
					b.Fatal(err)
				}
			}
			reportPerRow(b, x.N()+y.N())
		})
	}
}

// BenchmarkKernels measures the element-wise kernels of one worker on
// benchScanN-row columns, in ns per element: sum over an uncompressed column,
// calc_add/calc_mul over two uncompressed columns, and the project gather at
// the ~27 % sorted positions of Q1.1's discount predicate from an uncompressed
// (gather_uncompr) and a static BP (gather_staticbp) data column. The kernel
// ladder (kernelLadder) follows, each row on the AVX-512 and the portable
// path.
func BenchmarkKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	x, y := make([]uint64, benchScanN), make([]uint64, benchScanN)
	var pos []uint64
	for i := range x {
		x[i], y[i] = rng.Uint64()%(1<<20), rng.Uint64()%11
		if rng.Uint64()%11 < 3 {
			pos = append(pos, uint64(i))
		}
	}
	xc, yc, pc := columns.FromValues(x), columns.FromValues(y), columns.FromValues(pos)
	xbp, err := formats.Compress(x, columns.StaticBPDesc(0))
	if err != nil {
		b.Fatal(err)
	}
	rt := ops.FixedRT(1)
	calc := func(op ops.CalcKind) func() error {
		return func() error { _, err := rt.CalcBinary(op, xc, yc, columns.UncomprDesc); return err }
	}
	gather := func(data *columns.Column) func() error {
		return func() error { _, err := rt.Project(data, pc, columns.UncomprDesc); return err }
	}
	for _, k := range []struct {
		name string
		n    int
		run  func() error
	}{
		{"sum", benchScanN, func() error { _, _, err := rt.SumAuto(xc); return err }},
		{"calc_add", benchScanN, calc(ops.CalcAdd)},
		{"calc_mul", benchScanN, calc(ops.CalcMul)},
		{"gather_uncompr", len(pos), gather(xc)},
		{"gather_staticbp", len(pos), gather(xbp)},
	} {
		b.Run(k.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := k.run(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(k.n), "ns/elem")
		})
	}
	for _, k := range kernelLadder() {
		for _, path := range []string{"avx512", "portable"} {
			b.Run(k.name+"/"+path, func(b *testing.B) {
				if ok, missing := bitutil.AVX512(); !ok && path == "avx512" {
					b.Skipf("no AVX-512 path: the CPU lacks %s", missing)
				}
				forcePortable.Store(path == "portable")
				defer forcePortable.Store(false)
				for i := 0; i < b.N; i++ {
					k.run()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(k.n), "ns/elem")
			})
		}
	}
}

// forcePortable is the kernel-path test hook of morphstore/internal/bitutil:
// while it is set, every kernel runs its portable Go loop.
//
//go:linkname forcePortable morphstore/internal/bitutil.forcePortable
var forcePortable atomic.Bool

// ladderRow is one kernel of the ladder, run over n values.
type ladderRow struct {
	name string
	n    int
	run  func()
}

// kernelLadder returns the kernels with an AVX-512 path (package bitutil),
// each run over benchScanN values in blockLen-value blocks, the engine's
// block buffer:
//
//   - unpack_wW: static BP decode at width W, and at width 60 (past the
//     vector unpack, so the Go loop on both paths);
//   - probe_dense/spanS_hitH: the dense-key join probe over a table of S+1
//     slots, H % of them (and of the uniform probe keys) hits;
//   - select_range: the range test at Q1.1's discount selectivity (0..10 for
//     [1, 3], ~27 %);
//   - select_and: the fused conjunction of that test and Q1.1's quantity test
//     (1..50 for [1, 24]);
//   - pack_wW: static BP encode at width W as the static BP writer runs it
//     on an operator's output stage: the width scan (MaxBits) and then the
//     pack of each block, read from one cache-resident blockLen-value stage
//     and written to the column's words, at the unpack's widths and at
//     width 1 (the DELTA+BP blocks of dense position lists, which pack1
//     packs on both paths) and 60 (past the vector pack and the unaligned
//     steps, so the accumulator loop on both paths);
//   - maxbits: the width scan alone, over the same kind of stage;
//   - gather_bp_wW/dD: the project's gather from static BP at width W, of
//     the sorted positions of a D % selection, in blockLen-position chunks,
//     per position;
//   - gather_words/dD: the same gather from uncompressed words;
//   - profile/S: stats.Collect over profileN values of shape S — uniform20
//     (uniform 20-bit values), sorted (ascending, gaps of 0..15) and lowcard
//     (7 distinct values, Q1.1's discount domain).
func kernelLadder() []ladderRow {
	const blockLen = formats.BufferLen
	rng := rand.New(rand.NewSource(43))
	blocks := func(f func(off, end int)) func() {
		return func() {
			for off := 0; off < benchScanN; off += blockLen {
				f(off, min(off+blockLen, benchScanN))
			}
		}
	}
	gen := func(f func() uint64) []uint64 {
		vals := make([]uint64, benchScanN)
		for i := range vals {
			vals[i] = f()
		}
		return vals
	}
	stage, stageB := make([]uint64, blockLen), make([]uint64, blockLen)
	var rows []ladderRow
	widths := []uint{7, 13, 20, 32}
	packed := map[uint][]uint64{}
	for _, w := range widths {
		w := w
		words := make([]uint64, bitutil.PackedWords(benchScanN, w))
		bitutil.Pack(words, gen(rng.Uint64), w)
		packed[w] = words
		rows = append(rows, ladderRow{fmt.Sprintf("unpack_w%d", w), benchScanN, blocks(func(off, end int) {
			bitutil.Unpack(stage[:end-off], words[off*int(w)/64:], w)
		})})
	}
	uncompr := gen(rng.Uint64)
	for _, d := range []uint64{1, 10, 40, 100} {
		var pos []uint64
		for i := uint64(0); i < benchScanN; i++ {
			if rng.Uint64()%100 < d {
				pos = append(pos, i)
			}
		}
		chunks := func(f func(p []uint64)) func() {
			return func() {
				for off := 0; off < len(pos); off += blockLen {
					f(pos[off:min(off+blockLen, len(pos))])
				}
			}
		}
		for _, w := range widths {
			w, words := w, packed[w]
			rows = append(rows, ladderRow{fmt.Sprintf("gather_bp_w%d/d%d", w, d), len(pos), chunks(func(p []uint64) {
				bitutil.GatherBits(stage, words, p, w, benchScanN)
			})})
		}
		rows = append(rows, ladderRow{fmt.Sprintf("gather_words/d%d", d), len(pos), chunks(func(p []uint64) {
			bitutil.GatherWords(stage, uncompr, p)
		})})
	}
	for _, span := range []uint64{6000, 40000} {
		for _, hit := range []uint64{20, 40} {
			const lo = 19920101 // a yyyymmdd date key
			span := span
			tab := make([]uint32, span+1)
			for i := range tab {
				if rng.Uint64()%100 < hit {
					tab[i] = uint32(i) + 1
				}
			}
			keys := gen(func() uint64 { return lo + rng.Uint64()%(span+1) })
			rows = append(rows, ladderRow{fmt.Sprintf("probe_dense/span%d_hit%d", span, hit), benchScanN, blocks(func(off, end int) {
				bitutil.ProbeDense(keys[off:end], uint64(off), lo, span, tab, stage, stageB)
			})})
		}
	}
	var sum uint64
	for _, sh := range []struct {
		name string
		next func() uint64
	}{
		{"uniform20", func() uint64 { return rng.Uint64() % (1 << 20) }},
		{"sorted", func() uint64 { sum += rng.Uint64() % 16; return sum }},
		{"lowcard", func() uint64 { return 1 + rng.Uint64()%7 }},
	} {
		vals := make([]uint64, profileN)
		for i := range vals {
			vals[i] = sh.next()
		}
		rows = append(rows, ladderRow{"profile/" + sh.name, profileN, func() { stats.Collect(vals) }})
	}
	disc := gen(func() uint64 { return rng.Uint64() % 11 })
	qty := gen(func() uint64 { return 1 + rng.Uint64()%50 })
	rows = append(rows,
		ladderRow{"select_range", benchScanN, blocks(func(off, end int) {
			bitutil.SelectRange(disc[off:end], uint64(off), 1, 2, stage)
		})},
		ladderRow{"select_and", benchScanN, blocks(func(off, end int) {
			bitutil.SelectRangeAnd(disc[off:end], qty[off:end], uint64(off), 1, 2, 1, 23, stage)
		})})
	stageOf := func(mask uint64) []uint64 {
		vals := make([]uint64, blockLen)
		for i := range vals {
			vals[i] = rng.Uint64() & mask
		}
		return vals
	}
	for _, w := range append([]uint{1}, append(widths, 60)...) {
		w, vals := w, stageOf(bitutil.Mask(w))
		words := make([]uint64, bitutil.PackedWords(benchScanN, w))
		rows = append(rows, ladderRow{fmt.Sprintf("pack_w%d", w), benchScanN, blocks(func(off, end int) {
			if bitutil.MaxBits(vals[:end-off]) > w {
				panic("pack_w: value wider than the width")
			}
			bitutil.Pack(words[off*int(w)/64:], vals[:end-off], w)
		})})
	}
	scanned := stageOf(bitutil.Mask(63))
	rows = append(rows, ladderRow{"maxbits", benchScanN, blocks(func(off, end int) {
		bitutil.MaxBits(scanned[:end-off])
	})})
	// Drawn last, so the other rows keep their inputs.
	words60 := make([]uint64, bitutil.PackedWords(benchScanN, 60))
	bitutil.Pack(words60, gen(rng.Uint64), 60)
	rows = append(rows, ladderRow{"unpack_w60", benchScanN, blocks(func(off, end int) {
		bitutil.Unpack(stage[:end-off], words60[off*60/64:], 60)
	})})
	return rows
}

// BenchmarkParallelCalc measures the morsel-parallel element-wise multiply
// over two DynBP columns streamed in lockstep.
func BenchmarkParallelCalc(b *testing.B) {
	a, err := formats.Compress(datagen.Generate(datagen.C1, benchMicroN, 42), columns.DynBPDesc)
	if err != nil {
		b.Fatal(err)
	}
	c, err := formats.Compress(datagen.Generate(datagen.C1, benchMicroN, 43), columns.DynBPDesc)
	if err != nil {
		b.Fatal(err)
	}
	for _, par := range benchParLevels {
		b.Run(fmt.Sprintf("par%d", par), func(b *testing.B) {
			b.SetBytes(int64(benchMicroN * 8))
			for i := 0; i < b.N; i++ {
				if _, err := ops.FixedRT(par).CalcBinary(ops.CalcMul, a, c, columns.DynBPDesc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelSumGrouped measures the morsel-parallel grouped sum with
// per-worker partial group-sum arrays (1024 groups).
func BenchmarkParallelSumGrouped(b *testing.B) {
	const nGroups = 1024
	gidVals := make([]uint64, benchMicroN)
	for i := range gidVals {
		gidVals[i] = uint64(i) % nGroups
	}
	gids, err := formats.Compress(gidVals, columns.DynBPDesc)
	if err != nil {
		b.Fatal(err)
	}
	vals, err := formats.Compress(datagen.Generate(datagen.C1, benchMicroN, 42), columns.DynBPDesc)
	if err != nil {
		b.Fatal(err)
	}
	for _, par := range benchParLevels {
		b.Run(fmt.Sprintf("par%d", par), func(b *testing.B) {
			b.SetBytes(int64(benchMicroN * 8))
			for i := 0; i < b.N; i++ {
				if _, err := ops.FixedRT(par).SumGrouped(gids, vals, nGroups); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelSSBQ11 runs the select-heavy SSB Q1.1 over
// DynBP-compressed base columns at increasing WithParallelism. This is
// the headline morsel-parallelism measurement: on a >=4-core host, par4
// should run >= 2x faster than par1 while producing byte-identical results
// (TestExecuteParallelismEquivalence proves the identity).
func BenchmarkParallelSSBQ11(b *testing.B) { benchParallelSSB(b, ssb.Q11) }

// BenchmarkParallelSSBQ41 runs SSB Q4.1, whose plan has several independent
// dimension-table select branches: this exercises the concurrent DAG
// scheduler on top of the morsel-parallel kernels.
func BenchmarkParallelSSBQ41(b *testing.B) { benchParallelSSB(b, ssb.Q41) }

func benchParallelSSB(b *testing.B, q ssb.Query) {
	plan, enc := benchSSB(b, q)
	for _, par := range benchParLevels {
		b.Run(fmt.Sprintf("par%d", par), func(b *testing.B) {
			pq, err := core.NewEngine(enc, core.WithParallelism(par)).Prepare(plan)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				if _, err := pq.Execute(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineMultiQuery runs SSB Q1.1, prepared once on an engine with
// a GOMAXPROCS worker budget, from conc concurrent query streams: the
// shared-budget multi-query scheduling measurement. Every stream's results
// stay byte-identical to a sequential run (TestEngineConcurrentExecutes
// proves the identity).
func BenchmarkEngineMultiQuery(b *testing.B) {
	plan, enc := benchSSB(b, ssb.Q11)
	eng := core.NewEngine(enc)
	pq, err := eng.Prepare(plan)
	if err != nil {
		b.Fatal(err)
	}
	for _, conc := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("conc%d", conc), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				errCh := make(chan error, conc)
				for s := 0; s < conc; s++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						if _, err := pq.Execute(context.Background()); err != nil {
							errCh <- err
						}
					}()
				}
				wg.Wait()
				close(errCh)
				if err := <-errCh; err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCodecs measures compression and decompression throughput of every
// format on the Table 1 columns (the §2.1 speed-vs-rate trade-off).
func BenchmarkCodecs(b *testing.B) {
	for _, id := range []datagen.ColumnID{datagen.C1, datagen.C4} {
		vals := datagen.Generate(id, benchMicroN, 42)
		for _, desc := range formats.AllDescs() {
			b.Run(fmt.Sprintf("%v/%v/compress", id, desc), func(b *testing.B) {
				b.SetBytes(int64(len(vals) * 8))
				for i := 0; i < b.N; i++ {
					if _, err := formats.Compress(vals, desc); err != nil {
						b.Fatal(err)
					}
				}
			})
			col, err := formats.Compress(vals, desc)
			if err != nil {
				b.Fatal(err)
			}
			dst := make([]uint64, len(vals))
			b.Run(fmt.Sprintf("%v/%v/decompress", id, desc), func(b *testing.B) {
				b.SetBytes(int64(len(vals) * 8))
				for i := 0; i < b.N; i++ {
					r, err := formats.NewReader(col)
					if err != nil {
						b.Fatal(err)
					}
					for k := 0; k < len(dst); {
						c, err := r.Read(dst[k:])
						if err != nil || c == 0 {
							b.Fatalf("read stopped at %d of %d: %v", k, len(dst), err)
						}
						k += c
					}
				}
			})
		}
	}
}

// BenchmarkAblationBufferSize sweeps the cache-resident buffer size of the
// de/re-compression wrapper (the paper fixes 2048 elements = 16 KiB = half
// L1; this ablation justifies that choice).
func BenchmarkAblationBufferSize(b *testing.B) {
	vals := datagen.Generate(datagen.C1, benchMicroN, 42)
	col, err := formats.Compress(vals, columns.DynBPDesc)
	if err != nil {
		b.Fatal(err)
	}
	for _, size := range []int{512, 1024, 2048, 8192, 65536, 1 << 20} {
		b.Run(fmt.Sprintf("buf%d", size), func(b *testing.B) {
			buf := make([]uint64, size)
			b.SetBytes(int64(len(vals) * 8))
			for i := 0; i < b.N; i++ {
				r, err := formats.NewReader(col)
				if err != nil {
					b.Fatal(err)
				}
				w, err := formats.NewWriter(columns.ForBPDesc, len(vals))
				if err != nil {
					b.Fatal(err)
				}
				for {
					k, err := r.Read(buf)
					if err != nil {
						b.Fatal(err)
					}
					if k == 0 {
						break
					}
					if err := w.Write(buf[:k]); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := w.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationMorph compares direct morphing against the generic
// block-streaming path and against a full decompress-recompress detour.
func BenchmarkAblationMorph(b *testing.B) {
	vals := datagen.Generate(datagen.C1, benchMicroN, 42)
	col, err := formats.Compress(vals, columns.DynBPDesc)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("direct", func(b *testing.B) {
		b.SetBytes(int64(len(vals) * 8))
		for i := 0; i < b.N; i++ {
			if _, err := morph.Morph(col, columns.StaticBPDesc(0)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("generic_blockwise", func(b *testing.B) {
		b.SetBytes(int64(len(vals) * 8))
		for i := 0; i < b.N; i++ {
			if _, err := morph.Generic(col, columns.StaticBPDesc(0)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full_materialize", func(b *testing.B) {
		b.SetBytes(int64(len(vals) * 8))
		for i := 0; i < b.N; i++ {
			dec, err := formats.Decompress(col)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := formats.Compress(dec, columns.StaticBPDesc(0)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
