// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§5), plus ablations of MorphStore-Go's own design choices.
//
// Each figure-level benchmark executes the complete experiment series per
// iteration (all format combinations, or all 13 SSB queries) and reports
// auxiliary metrics (memory footprints) through b.ReportMetric, so a single
// `go test -bench=. -benchmem` regenerates every reported series at bench
// scale. The paper-style printed tables come from `go run ./cmd/msrepro`.
package morphstore

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"morphstore/internal/bitutil"
	"morphstore/internal/columns"
	"morphstore/internal/core"
	"morphstore/internal/datagen"
	"morphstore/internal/formats"
	"morphstore/internal/monetsim"
	"morphstore/internal/morph"
	"morphstore/internal/ops"
	"morphstore/internal/ssb"
	"morphstore/internal/vector"
)

const (
	benchMicroN = 1 << 20 // micro-benchmark column size (paper: 128 Mi)
	benchSF     = 0.01    // SSB scale factor (paper: 10)
)

// BenchmarkTable1Generate regenerates the four synthetic columns of Table 1.
func BenchmarkTable1Generate(b *testing.B) {
	for _, id := range datagen.All {
		b.Run(id.String(), func(b *testing.B) {
			b.SetBytes(int64(benchMicroN * 8))
			for i := 0; i < b.N; i++ {
				vals := datagen.Generate(id, benchMicroN, 42)
				if len(vals) != benchMicroN {
					b.Fatal("bad size")
				}
			}
		})
	}
}

// BenchmarkFigure5Select regenerates Figure 5: one iteration runs the
// select operator over all 25 input/output format combinations.
func BenchmarkFigure5Select(b *testing.B) {
	descs := formats.PaperDescs()
	for _, id := range datagen.All {
		b.Run(id.String(), func(b *testing.B) {
			vals, needle := datagen.GenerateSelectWorkload(id, benchMicroN, 42)
			inputs := make([]*columns.Column, len(descs))
			for i, d := range descs {
				c, err := formats.Compress(vals, d)
				if err != nil {
					b.Fatal(err)
				}
				inputs[i] = c
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range descs {
					for _, outd := range descs {
						if _, err := ops.FixedRT(1).SelectAuto(inputs[j], bitutil.CmpEq, needle, outd, vector.Vec512, false); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
		})
	}
}

// BenchmarkFigure6SimpleQuery regenerates Figure 6: the simple query under
// its four format configurations, reporting the footprint.
func BenchmarkFigure6SimpleQuery(b *testing.B) {
	cases := []struct {
		name string
		x, y datagen.ColumnID
	}{
		{"case1_C1_C1", datagen.C1, datagen.C1},
		{"case2_C1_C4", datagen.C1, datagen.C4},
		{"case3_C2_C3", datagen.C2, datagen.C3},
	}
	for _, cse := range cases {
		xvals, needle := datagen.GenerateSelectWorkload(cse.x, benchMicroN, 42)
		yvals := datagen.Generate(cse.y, benchMicroN, 43)
		db := core.NewDB()
		db.AddTable("r", map[string][]uint64{"x": xvals, "y": yvals})
		bld := core.NewBuilder()
		x := bld.Scan("r", "x")
		y := bld.Scan("r", "y")
		sel := bld.Select("x_sel", x, bitutil.CmpEq, needle)
		proj := bld.Project("y_proj", y, sel)
		bld.Result(bld.SumWhole("total", proj))
		plan, err := bld.Build()
		if err != nil {
			b.Fatal(err)
		}

		static := columns.StaticBPDesc(0)
		configs := []struct {
			name  string
			base  map[string]columns.FormatDesc
			inter map[string]columns.FormatDesc
		}{
			{"uncompressed", nil, nil},
			{"staticbp_base", map[string]columns.FormatDesc{"r.x": static, "r.y": static}, nil},
			{"staticbp_all", map[string]columns.FormatDesc{"r.x": static, "r.y": static},
				map[string]columns.FormatDesc{"x_sel": static, "y_proj": static}},
			{"cascades", map[string]columns.FormatDesc{"r.x": static, "r.y": static},
				map[string]columns.FormatDesc{"x_sel": columns.DeltaBPDesc, "y_proj": columns.ForBPDesc}},
		}
		for _, cfg := range configs {
			b.Run(cse.name+"/"+cfg.name, func(b *testing.B) {
				enc, err := db.Encode(cfg.base)
				if err != nil {
					b.Fatal(err)
				}
				c := core.UncompressedConfig(vector.Vec512)
				if cfg.inter != nil {
					c.Inter = cfg.inter
				}
				var foot int
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := core.Execute(plan, enc, c)
					if err != nil {
						b.Fatal(err)
					}
					foot = res.Meas.Footprint()
				}
				b.ReportMetric(float64(foot)/(1<<20), "footprint-MiB")
			})
		}
	}
}

// --- shared SSB setup ----------------------------------------------------

var (
	benchSSBOnce sync.Once
	benchSSBData *ssb.Data
	benchSSBPlan map[ssb.Query]*core.Plan
	benchSSBErr  error
)

func getBenchSSB(b *testing.B) (*ssb.Data, map[ssb.Query]*core.Plan) {
	benchSSBOnce.Do(func() {
		benchSSBData, benchSSBErr = ssb.Generate(benchSF, 42)
		if benchSSBErr != nil {
			return
		}
		benchSSBPlan = make(map[ssb.Query]*core.Plan)
		for _, q := range ssb.Queries {
			p, err := ssb.BuildPlan(q, benchSSBData.Dicts)
			if err != nil {
				benchSSBErr = err
				return
			}
			benchSSBPlan[q] = p
		}
	})
	if benchSSBErr != nil {
		b.Fatal(benchSSBErr)
	}
	return benchSSBData, benchSSBPlan
}

// runAllQueries executes all 13 queries under the config builder and
// returns the total footprint.
func runAllQueries(b *testing.B, db *core.DB, plans map[ssb.Query]*core.Plan,
	cfg func(*core.Plan) *core.Config) int {
	foot := 0
	for _, q := range ssb.Queries {
		res, err := core.Execute(plans[q], db, cfg(plans[q]))
		if err != nil {
			b.Fatalf("%s: %v", q, err)
		}
		foot += res.Meas.Footprint()
	}
	return foot
}

// BenchmarkFigure1And9Systems regenerates Figures 1 and 9: one sub-benchmark
// per system, each iteration running all 13 SSB queries.
func BenchmarkFigure1And9Systems(b *testing.B) {
	data, plans := getBenchSSB(b)

	b.Run("monetdb_scalar", func(b *testing.B) {
		mdb, err := monetsim.NewDB(data.DB, false)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, q := range ssb.Queries {
				if _, err := monetsim.Execute(plans[q], mdb); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("monetdb_narrow", func(b *testing.B) {
		mdb, err := monetsim.NewDB(data.DB, true)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, q := range ssb.Queries {
				if _, err := monetsim.Execute(plans[q], mdb); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("morphstore_scalar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runAllQueries(b, data.DB, plans, func(*core.Plan) *core.Config {
				return core.UncompressedConfig(vector.Scalar)
			})
		}
	})
	b.Run("morphstore_vec512", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runAllQueries(b, data.DB, plans, func(*core.Plan) *core.Config {
				return core.UncompressedConfig(vector.Vec512)
			})
		}
	})
	b.Run("morphstore_vec512_compressed", func(b *testing.B) {
		assigns := make(map[ssb.Query]*core.Assignment)
		encs := make(map[ssb.Query]*core.DB)
		for _, q := range ssb.Queries {
			a, err := core.CostBasedAssignment(plans[q], data.DB)
			if err != nil {
				b.Fatal(err)
			}
			enc, err := data.DB.Encode(a.Base)
			if err != nil {
				b.Fatal(err)
			}
			assigns[q], encs[q] = a, enc
		}
		var foot int
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			foot = 0
			for _, q := range ssb.Queries {
				res, err := core.Execute(plans[q], encs[q], assigns[q].Config(vector.Vec512, true))
				if err != nil {
					b.Fatal(err)
				}
				foot += res.Meas.Footprint()
			}
		}
		b.ReportMetric(float64(foot)/(1<<20), "footprint-MiB")
	})
}

// benchAssignSeries executes all 13 queries under per-query assignments.
func benchAssignSeries(b *testing.B, data *ssb.Data, plans map[ssb.Query]*core.Plan,
	assign func(q ssb.Query) (*core.Assignment, error)) {
	assigns := make(map[ssb.Query]*core.Assignment)
	encs := make(map[ssb.Query]*core.DB)
	for _, q := range ssb.Queries {
		a, err := assign(q)
		if err != nil {
			b.Fatal(err)
		}
		enc, err := data.DB.Encode(a.Base)
		if err != nil {
			b.Fatal(err)
		}
		assigns[q], encs[q] = a, enc
	}
	var foot int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		foot = 0
		for _, q := range ssb.Queries {
			res, err := core.Execute(plans[q], encs[q], assigns[q].Config(vector.Vec512, false))
			if err != nil {
				b.Fatal(err)
			}
			foot += res.Meas.Footprint()
		}
	}
	b.ReportMetric(float64(foot)/(1<<20), "footprint-MiB")
}

// staticAssignFor assigns static BP to every column of the plan.
func staticAssignFor(p *core.Plan) *core.Assignment {
	a := core.NewAssignment()
	for _, name := range p.BaseColumns() {
		a.Base[name] = columns.StaticBPDesc(0)
	}
	for _, name := range p.IntermediateNames() {
		a.Inter[name] = columns.StaticBPDesc(0)
	}
	return a
}

// BenchmarkFigure7Combinations regenerates Figure 7: the worst,
// uncompressed, static BP, and best format combinations over all queries.
func BenchmarkFigure7Combinations(b *testing.B) {
	data, plans := getBenchSSB(b)
	bests := make(map[ssb.Query]*core.Assignment)
	worsts := make(map[ssb.Query]*core.Assignment)
	for _, q := range ssb.Queries {
		best, worst, err := core.FootprintSearch(plans[q], data.DB)
		if err != nil {
			b.Fatal(err)
		}
		bests[q], worsts[q] = best, worst
	}
	b.Run("worst", func(b *testing.B) {
		benchAssignSeries(b, data, plans, func(q ssb.Query) (*core.Assignment, error) { return worsts[q], nil })
	})
	b.Run("uncompressed", func(b *testing.B) {
		benchAssignSeries(b, data, plans, func(q ssb.Query) (*core.Assignment, error) { return core.NewAssignment(), nil })
	})
	b.Run("staticbp", func(b *testing.B) {
		benchAssignSeries(b, data, plans, func(q ssb.Query) (*core.Assignment, error) { return staticAssignFor(plans[q]), nil })
	})
	b.Run("best", func(b *testing.B) {
		benchAssignSeries(b, data, plans, func(q ssb.Query) (*core.Assignment, error) { return bests[q], nil })
	})
}

// BenchmarkFigure8BaseVsIntermediates regenerates Figure 8: uncompressed vs
// compressed base columns only vs compressed base and intermediates.
func BenchmarkFigure8BaseVsIntermediates(b *testing.B) {
	data, plans := getBenchSSB(b)
	full := make(map[ssb.Query]*core.Assignment)
	for _, q := range ssb.Queries {
		a, err := core.CostBasedAssignment(plans[q], data.DB)
		if err != nil {
			b.Fatal(err)
		}
		full[q] = a
	}
	b.Run("uncompressed", func(b *testing.B) {
		benchAssignSeries(b, data, plans, func(q ssb.Query) (*core.Assignment, error) { return core.NewAssignment(), nil })
	})
	b.Run("base_only", func(b *testing.B) {
		benchAssignSeries(b, data, plans, func(q ssb.Query) (*core.Assignment, error) {
			a := core.NewAssignment()
			for k, v := range full[q].Base {
				a.Base[k] = v
			}
			return a, nil
		})
	})
	b.Run("base_and_intermediates", func(b *testing.B) {
		benchAssignSeries(b, data, plans, func(q ssb.Query) (*core.Assignment, error) { return full[q], nil })
	})
}

// BenchmarkFigure10CostModel regenerates Figure 10: footprint of static BP
// vs the cost-based selection vs the exhaustive best combination.
func BenchmarkFigure10CostModel(b *testing.B) {
	data, plans := getBenchSSB(b)
	b.Run("staticbp", func(b *testing.B) {
		benchAssignSeries(b, data, plans, func(q ssb.Query) (*core.Assignment, error) { return staticAssignFor(plans[q]), nil })
	})
	b.Run("costbased", func(b *testing.B) {
		benchAssignSeries(b, data, plans, func(q ssb.Query) (*core.Assignment, error) {
			return core.CostBasedAssignment(plans[q], data.DB)
		})
	})
	b.Run("best", func(b *testing.B) {
		benchAssignSeries(b, data, plans, func(q ssb.Query) (*core.Assignment, error) {
			best, _, err := core.FootprintSearch(plans[q], data.DB)
			return best, err
		})
	})
}

// parLevels are the parallelism degrees the morsel/scheduler benchmarks
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
				if _, err := ops.FixedRT(par).SelectAuto(col, bitutil.CmpEq, needle, columns.DeltaBPDesc, vector.Vec512, false); err != nil {
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
				if _, _, err := ops.FixedRT(par).SumAuto(col, vector.Vec512, false); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelJoinN1 measures the morsel-parallel N:1 join probe over a
// DynBP probe column against a shared read-only hash table (~50% match rate).
func BenchmarkParallelJoinN1(b *testing.B) {
	vals := datagen.Generate(datagen.C1, benchMicroN, 42)
	probeVals := make([]uint64, len(vals))
	const nBuild = 4096
	for i, v := range vals {
		probeVals[i] = v % (2 * nBuild)
	}
	probe, err := formats.Compress(probeVals, columns.DynBPDesc)
	if err != nil {
		b.Fatal(err)
	}
	buildVals := make([]uint64, nBuild)
	for i := range buildVals {
		buildVals[i] = uint64(i)
	}
	build := columns.FromValues(buildVals)
	for _, par := range benchParLevels {
		b.Run(fmt.Sprintf("par%d", par), func(b *testing.B) {
			b.SetBytes(int64(len(vals) * 8))
			for i := 0; i < b.N; i++ {
				if _, _, err := ops.FixedRT(par).JoinN1(probe, build, columns.DeltaBPDesc, columns.DynBPDesc, vector.Vec512); err != nil {
					b.Fatal(err)
				}
			}
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
				if _, err := ops.FixedRT(par).CalcBinary(ops.CalcMul, a, c, columns.DynBPDesc, vector.Vec512); err != nil {
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
				if _, err := ops.FixedRT(par).SumGrouped(gids, vals, nGroups, vector.Vec512); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// dynBPBaseAssign compresses every base column of the plan with DynBP,
// except randomly accessed ones, which must keep random access (static BP).
func dynBPBaseAssign(p *core.Plan) map[string]columns.FormatDesc {
	base := make(map[string]columns.FormatDesc)
	for _, name := range p.BaseColumns() {
		if p.RandomAccessed(name) {
			base[name] = columns.StaticBPDesc(0)
		} else {
			base[name] = columns.DynBPDesc
		}
	}
	return base
}

// BenchmarkParallelSSBQ11 runs the select-heavy SSB Q1.1 over
// DynBP-compressed base columns at increasing Config.Parallelism. This is
// the headline morsel-parallelism measurement: on a >=4-core host, par4
// should run >= 2x faster than par1 while producing byte-identical results
// (TestExecuteParallelismEquivalence proves the identity).
func BenchmarkParallelSSBQ11(b *testing.B) {
	data, plans := getBenchSSB(b)
	plan := plans[ssb.Q11]
	enc, err := data.DB.Encode(dynBPBaseAssign(plan))
	if err != nil {
		b.Fatal(err)
	}
	for _, par := range benchParLevels {
		b.Run(fmt.Sprintf("par%d", par), func(b *testing.B) {
			cfg := core.UncompressedConfig(vector.Vec512)
			cfg.Parallelism = par
			for i := 0; i < b.N; i++ {
				if _, err := core.Execute(plan, enc, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelSSBQ41 runs SSB Q4.1, whose plan has several independent
// dimension-table select branches: this exercises the concurrent DAG
// scheduler on top of the morsel-parallel kernels.
func BenchmarkParallelSSBQ41(b *testing.B) {
	data, plans := getBenchSSB(b)
	plan := plans[ssb.Q41]
	enc, err := data.DB.Encode(dynBPBaseAssign(plan))
	if err != nil {
		b.Fatal(err)
	}
	for _, par := range benchParLevels {
		b.Run(fmt.Sprintf("par%d", par), func(b *testing.B) {
			cfg := core.UncompressedConfig(vector.Vec512)
			cfg.Parallelism = par
			for i := 0; i < b.N; i++ {
				if _, err := core.Execute(plan, enc, cfg); err != nil {
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
	data, plans := getBenchSSB(b)
	plan := plans[ssb.Q11]
	enc, err := data.DB.Encode(dynBPBaseAssign(plan))
	if err != nil {
		b.Fatal(err)
	}
	eng := core.NewEngine(enc, core.WithStyle(vector.Vec512))
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
			if _, err := ops.FixedRT(1).SelectAuto(sbp, bitutil.CmpLt, 10, columns.DeltaBPDesc, vector.Vec512, true); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("select_otf", func(b *testing.B) {
		b.SetBytes(int64(len(vals) * 8))
		for i := 0; i < b.N; i++ {
			if _, err := ops.FixedRT(1).SelectAuto(sbp, bitutil.CmpLt, 10, columns.DeltaBPDesc, vector.Vec512, false); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sum_dynbp_direct", func(b *testing.B) {
		b.SetBytes(int64(len(vals) * 8))
		for i := 0; i < b.N; i++ {
			if _, _, err := ops.FixedRT(1).SumAuto(dbp, vector.Vec512, true); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sum_otf", func(b *testing.B) {
		b.SetBytes(int64(len(vals) * 8))
		for i := 0; i < b.N; i++ {
			if _, _, err := ops.FixedRT(1).SumAuto(dbp, vector.Vec512, false); err != nil {
				b.Fatal(err)
			}
		}
	})
}
