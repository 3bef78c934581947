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
	"testing"

	"morphstore/internal/bitutil"
	"morphstore/internal/columns"
	"morphstore/internal/core"
	"morphstore/internal/datagen"
	"morphstore/internal/formats"
	"morphstore/internal/morph"
	"morphstore/internal/ops"
	"morphstore/internal/ssb"
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
				if _, err := ops.FixedRT(par).SelectAuto(col, bitutil.CmpEq, needle, columns.DeltaBPDesc, false); err != nil {
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
				if _, _, err := ops.FixedRT(par).SumAuto(col, false); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelJoinN1 measures the morsel-parallel N:1 join probe over a
// DynBP probe column against the shared read-only build table (~50% match
// rate), once per build path: dense keys 0..4095 take the direct-address
// table, the same keys shifted left by 40 bits the hash map.
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
		for _, par := range benchParLevels {
			b.Run(fmt.Sprintf("%s/par%d", shape.name, par), func(b *testing.B) {
				b.SetBytes(int64(len(vals) * 8))
				for i := 0; i < b.N; i++ {
					if _, _, err := ops.FixedRT(par).JoinN1(probe, build, columns.DeltaBPDesc, columns.DynBPDesc, 0); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// benchScanN is the row count of the scan and sorted-set benchmarks: the
// fact table of the repository benchmark's SSB workloads.
const benchScanN = 1_200_000

// reportPerRow reports the benchmark's time per input row.
func reportPerRow(b *testing.B, rows int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rows), "ns/row")
}

// BenchmarkScan measures the range scan of SSB Q1.x per input shape, at the
// two selectivities of Q1.1: discount-like values 0..10 tested for [1, 3]
// (~27 %) and quantity-like values 1..50 tested for < 25 (~48 %). swar_wB is
// the packed-word kernel on static BP at SWAR width B and unpack_wB the same
// column through unpack + block kernel (their ratio is the A/B ROADMAP
// records); packed_w6 is static BP at a width with no SWAR form, uncompr the
// zero-copy block kernel, deltabp the block kernel behind a blocked codec.
func BenchmarkScan(b *testing.B) {
	column := func(mod, off uint64, desc columns.FormatDesc) *columns.Column {
		rng := rand.New(rand.NewSource(42))
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
	type scan struct {
		name        string
		in          *columns.Column
		lo, hi      uint64
		specialized bool
	}
	var scans []scan
	for _, w := range []uint{1, 2, 4, 8} {
		// Width 4 is the discount column itself; the other widths keep its
		// ~27 % with the domain scaled to the field range.
		mod := min(uint64(11), bitutil.Mask(w)+1)
		lo, hi := uint64(1), uint64(3)
		if w < 4 {
			lo, hi = 0, 0 // 1 of 2 (50 %), 1 of 4 (25 %)
		}
		in := column(mod, 0, columns.StaticBPDesc(w))
		scans = append(scans,
			scan{fmt.Sprintf("swar_w%d", w), in, lo, hi, true},
			scan{fmt.Sprintf("unpack_w%d", w), in, lo, hi, false})
	}
	scans = append(scans,
		scan{"packed_w6", column(50, 1, columns.StaticBPDesc(6)), 0, 24, true},
		scan{"uncompr", column(50, 1, columns.UncomprDesc), 0, 24, false},
		scan{"deltabp", column(50, 1, columns.DeltaBPDesc), 0, 24, false})
	for _, sc := range scans {
		b.Run(sc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ops.SelectBetweenAuto(sc.in, sc.lo, sc.hi, columns.DeltaBPDesc, 0, sc.specialized); err != nil {
					b.Fatal(err)
				}
			}
			reportPerRow(b, benchScanN)
		})
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
// (gather_uncompr) and a static BP (gather_staticbp) data column.
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
		{"sum", benchScanN, func() error { _, _, err := rt.SumAuto(xc, false); return err }},
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

// BenchmarkAblationSpecialized compares the specialized direct operators
// against the on-the-fly de/re-compression operators on the same columns.
func BenchmarkAblationSpecialized(b *testing.B) {
	vals := make([]uint64, benchMicroN)
	for i := range vals {
		vals[i] = uint64(i % 256)
	}
	sbp, err := formats.Compress(vals, columns.StaticBPDesc(8))
	if err != nil {
		b.Fatal(err)
	}
	dbp, err := formats.Compress(vals, columns.DynBPDesc)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("select_swar_direct", func(b *testing.B) {
		b.SetBytes(int64(len(vals) * 8))
		for i := 0; i < b.N; i++ {
			if _, err := ops.FixedRT(1).SelectAuto(sbp, bitutil.CmpLt, 10, columns.DeltaBPDesc, true); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("select_otf", func(b *testing.B) {
		b.SetBytes(int64(len(vals) * 8))
		for i := 0; i < b.N; i++ {
			if _, err := ops.FixedRT(1).SelectAuto(sbp, bitutil.CmpLt, 10, columns.DeltaBPDesc, false); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sum_dynbp_direct", func(b *testing.B) {
		b.SetBytes(int64(len(vals) * 8))
		for i := 0; i < b.N; i++ {
			if _, _, err := ops.FixedRT(1).SumAuto(dbp, true); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sum_otf", func(b *testing.B) {
		b.SetBytes(int64(len(vals) * 8))
		for i := 0; i < b.N; i++ {
			if _, _, err := ops.FixedRT(1).SumAuto(dbp, false); err != nil {
				b.Fatal(err)
			}
		}
	})
}
