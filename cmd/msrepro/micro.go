package main

import (
	"context"
	"fmt"
	"time"

	"morphstore/internal/bitutil"
	"morphstore/internal/columns"
	"morphstore/internal/core"
	"morphstore/internal/datagen"
	"morphstore/internal/formats"
	"morphstore/internal/ops"
	"morphstore/internal/stats"
)

// runTable1 regenerates Table 1: the synthetic column definitions, verified
// against the generated data.
func runTable1(opt options) error {
	header(fmt.Sprintf("Table 1: synthetic columns (%d data elements; paper: 128 Mi)", opt.n))
	fmt.Printf("%-4s %-42s %-7s %8s\n", "col", "data distribution", "sorted", "max bits")
	dists := map[datagen.ColumnID]string{
		datagen.C1: "uniform in [0, 63]",
		datagen.C2: "99.99% uniform in [0,63], 0.01% 2^63-1",
		datagen.C3: "uniform in [2^62, 2^62+63]",
		datagen.C4: "uniform in [2^47, 2^47+100K]",
	}
	for _, id := range datagen.All {
		vals := datagen.Generate(id, opt.n, opt.seed)
		p := stats.Collect(vals)
		fmt.Printf("%-4v %-42s %-7v %8d\n", id, dists[id], p.Sorted, p.MaxBits)
	}
	return nil
}

// timeIt reports the minimum duration of f over opt.repeats runs.
func timeIt(repeats int, f func() error) (time.Duration, error) {
	var best time.Duration
	for i := 0; i < repeats; i++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		d := time.Since(start)
		if i == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

// runFig5 regenerates Figure 5: the select-operator runtime for all 25
// input/output format combinations over the C1-C4 select workloads.
func runFig5(opt options) error {
	header(fmt.Sprintf("Figure 5: select-operator runtime, all 25 format combinations (n=%d, 90%% selectivity)", opt.n))
	descs := formats.PaperDescs()
	for _, id := range datagen.All {
		vals, needle := datagen.GenerateSelectWorkload(id, opt.n, opt.seed)
		// Pre-encode the input column in every format.
		inputs := make([]*columns.Column, len(descs))
		for i, d := range descs {
			c, err := formats.Compress(vals, d)
			if err != nil {
				return err
			}
			inputs[i] = c
		}
		var uncomprT time.Duration
		bestT, worstT := time.Duration(-1), time.Duration(-1)
		var bestIn, bestOut, worstIn, worstOut columns.FormatDesc
		fmt.Printf("\n-- input column %v --\n", id)
		fmt.Printf("%-14s", "in \\ out")
		for _, od := range descs {
			fmt.Printf(" %12v", od)
		}
		fmt.Println()
		for i, ind := range descs {
			fmt.Printf("%-14v", ind)
			for _, outd := range descs {
				t, err := timeIt(opt.repeats, func() error {
					_, err := ops.FixedRT(1).SelectAuto(inputs[i], bitutil.CmpEq, needle, outd)
					return err
				})
				if err != nil {
					return err
				}
				fmt.Printf(" %9.2f ms", ms(t))
				if ind.Kind == columns.Uncompressed && outd.Kind == columns.Uncompressed {
					uncomprT = t
				}
				if bestT < 0 || t < bestT {
					bestT, bestIn, bestOut = t, ind, outd
				}
				if worstT < 0 || t > worstT {
					worstT, worstIn, worstOut = t, ind, outd
				}
			}
			fmt.Println()
		}
		fmt.Printf("uncompressed %.2f ms | best %v->%v %.2f ms (%.0f%% saved) | worst %v->%v %.2f ms (%+.0f%%)\n",
			ms(uncomprT), bestIn, bestOut, ms(bestT), 100*(1-float64(bestT)/float64(uncomprT)),
			worstIn, worstOut, ms(worstT), 100*(float64(worstT)/float64(uncomprT)-1))
	}
	fmt.Println("\npaper shape: best combo saves 72-81%; worst adds ~20%; compressing the output")
	fmt.Println("(an intermediate) matters more than the input; best output format is DELTA+BP.")
	return nil
}

// fig6Case is one of the three base-column combinations of Figure 6.
type fig6Case struct {
	name string
	x, y datagen.ColumnID
	// cascades for the intermediates in the fourth configuration.
	xFmt, yFmt columns.FormatDesc
}

// runFig6 regenerates Figure 6: memory footprint by column and runtime by
// operator for the simple query SELECT SUM(Y) FROM R WHERE X = c.
func runFig6(opt options) error {
	header(fmt.Sprintf("Figure 6: simple query SELECT SUM(Y) FROM R WHERE X = c (n=%d)", opt.n))
	cases := []fig6Case{
		{"case 1 (X=C1, Y=C1)", datagen.C1, datagen.C1, columns.DeltaBPDesc, columns.ForBPDesc},
		{"case 2 (X=C1, Y=C4)", datagen.C1, datagen.C4, columns.DeltaBPDesc, columns.DeltaBPDesc},
		{"case 3 (X=C2, Y=C3)", datagen.C2, datagen.C3, columns.DeltaBPDesc, columns.ForBPDesc},
	}
	for _, cse := range cases {
		xvals, needle := datagen.GenerateSelectWorkload(cse.x, opt.n, opt.seed)
		yvals := datagen.Generate(cse.y, opt.n, opt.seed+100)
		db := core.NewDB()
		db.AddTable("r", map[string][]uint64{"x": xvals, "y": yvals})

		b := core.NewBuilder()
		x := b.Scan("r", "x")
		y := b.Scan("r", "y")
		xp := b.Select("x_sel", x, bitutil.CmpEq, needle)
		yp := b.Project("y_proj", y, xp)
		b.Result(b.SumWhole("total", yp))
		plan, err := b.Build()
		if err != nil {
			return err
		}

		configs := []struct {
			name  string
			base  map[string]columns.FormatDesc
			inter map[string]columns.FormatDesc
		}{
			{"uncompressed", nil, nil},
			{"staticBP base", map[string]columns.FormatDesc{
				"r.x": columns.StaticBPDesc(0), "r.y": columns.StaticBPDesc(0)}, nil},
			{"staticBP base+inter", map[string]columns.FormatDesc{
				"r.x": columns.StaticBPDesc(0), "r.y": columns.StaticBPDesc(0)},
				map[string]columns.FormatDesc{
					"x_sel": columns.StaticBPDesc(0), "y_proj": columns.StaticBPDesc(0)}},
			{"cascades for inter", map[string]columns.FormatDesc{
				"r.x": columns.StaticBPDesc(0), "r.y": columns.StaticBPDesc(0)},
				map[string]columns.FormatDesc{
					"x_sel": cse.xFmt, "y_proj": cse.yFmt}},
		}

		fmt.Printf("\n-- %s --\n", cse.name)
		fmt.Printf("%-22s %10s %10s %10s %10s | %9s %9s %9s | %9s\n",
			"configuration", "X [MiB]", "Y [MiB]", "X' [MiB]", "Y' [MiB]",
			"sel [ms]", "proj [ms]", "sum [ms]", "total[ms]")
		var refSum uint64
		for ci, cfg := range configs {
			enc, err := db.Encode(cfg.base)
			if err != nil {
				return err
			}
			// Paper reproduction: a single-worker engine yields sequential
			// operator timings of the plan as written (WithKeep); the plan
			// compiles once per configuration.
			eng := core.NewEngine(enc, core.WithParallelism(1))
			pq, err := eng.Prepare(plan, core.WithFormats(cfg.inter), core.WithKeep(true))
			if err != nil {
				return err
			}
			var res *core.Result
			t, err := timeIt(opt.repeats, func() error {
				var err error
				res, err = pq.Execute(context.Background())
				return err
			})
			if err != nil {
				return err
			}
			sum, _ := res.Cols["total"].Values()
			if ci == 0 {
				refSum = sum[0]
			} else if sum[0] != refSum {
				return fmt.Errorf("fig6 %s/%s: result %d != reference %d", cse.name, cfg.name, sum[0], refSum)
			}
			cb := res.Meas.ColBytes
			fmt.Printf("%-22s %10.2f %10.2f %10.2f %10.2f | %9.2f %9.2f %9.2f | %9.2f\n",
				cfg.name, mib(cb["r.x"]), mib(cb["r.y"]), mib(cb["x_sel"]), mib(cb["y_proj"]),
				ms(res.Meas.PerOp["select"]), ms(res.Meas.PerOp["project"]), ms(res.Meas.PerOp["sum"]),
				ms(t))
		}
	}
	fmt.Println("\npaper shape: compressing only base columns barely helps runtime (writing")
	fmt.Println("uncompressed intermediates dominates); compressing intermediates too shrinks")
	fmt.Println("both footprint and runtime; the best cascade is case-dependent.")
	return nil
}
