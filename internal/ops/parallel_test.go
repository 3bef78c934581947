package ops

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"morphstore/internal/bitutil"
	"morphstore/internal/columns"
	"morphstore/internal/formats"
	"morphstore/internal/qerr"
)

// parTestN is deliberately not a multiple of the 512-element block, so every
// column has an uncompressed remainder and the last partition is ragged.
const parTestN = 11*formats.BlockLen + 437

// parTestBlocks is the block count of a parTestN column; requesting more
// workers than blocks exercises the degenerate-partition clamping (the split
// caps partitions at the aligned minimum-morsel granularity).
const parTestBlocks = (parTestN + formats.BlockLen - 1) / formats.BlockLen

// parLevels are the parallelism degrees every operator is checked at; the
// sequential operator (degree 1 by definition) is the reference, and
// parTestBlocks+1 over-subscribes the column.
var parLevels = []int{1, 2, 3, 8, parTestBlocks + 1}

func parTestValues(n int) []uint64 {
	rng := rand.New(rand.NewSource(99))
	vals := make([]uint64, n)
	for i := range vals {
		if i%101 == 0 {
			vals[i] = uint64(rng.Intn(1 << 28)) // outliers for DynBP width variety
		} else {
			vals[i] = uint64(rng.Intn(500))
		}
	}
	return vals
}

// assertSameColumn fails unless got is byte-identical to want: same format,
// same extents, same physical words.
func assertSameColumn(t *testing.T, ctx string, want, got *columns.Column) {
	t.Helper()
	if got.Desc() != want.Desc() {
		t.Fatalf("%s: desc %v, want %v", ctx, got.Desc(), want.Desc())
	}
	if got.N() != want.N() || got.MainElems() != want.MainElems() {
		t.Fatalf("%s: extents n=%d/main=%d, want n=%d/main=%d",
			ctx, got.N(), got.MainElems(), want.N(), want.MainElems())
	}
	gw, ww := got.Words(), want.Words()
	if len(gw) != len(ww) {
		t.Fatalf("%s: %d words, want %d", ctx, len(gw), len(ww))
	}
	for i := range ww {
		if gw[i] != ww[i] {
			t.Fatalf("%s: word %d = %#x, want %#x", ctx, i, gw[i], ww[i])
		}
	}
}

// TestParallelOperatorEquivalence is the cross-product equivalence check:
// every parallel operator, at every parallelism degree, over every input
// format x output format, must produce a column
// byte-identical to the sequential path.
func TestParallelOperatorEquivalence(t *testing.T) {
	vals := parTestValues(parTestN)
	inputs := make(map[columns.Kind]*columns.Column)
	for _, d := range formats.AllDescs() {
		col, err := formats.Compress(vals, d)
		if err != nil {
			t.Fatal(err)
		}
		inputs[d.Kind] = col
	}

	for _, inDesc := range formats.AllDescs() {
		in := inputs[inDesc.Kind]
		for _, outDesc := range formats.AllDescs() {
			ctx := inDesc.String() + "->" + outDesc.String()

			seqSel, err := FixedRT(1).SelectAuto(in, bitutil.CmpLt, 250, outDesc, false)
			if err != nil {
				t.Fatalf("select %s: %v", ctx, err)
			}
			seqBet, err := FixedRT(1).SelectBetweenAuto(in, 100, 400, outDesc, 0, false)
			if err != nil {
				t.Fatalf("between %s: %v", ctx, err)
			}
			for _, par := range parLevels {
				got, err := FixedRT(par).SelectAuto(in, bitutil.CmpLt, 250, outDesc, false)
				if err != nil {
					t.Fatalf("par select %s p=%d: %v", ctx, par, err)
				}
				assertSameColumn(t, "select "+ctx, seqSel, got)
				got, err = FixedRT(par).SelectBetweenAuto(in, 100, 400, outDesc, 0, false)
				if err != nil {
					t.Fatalf("par between %s p=%d: %v", ctx, par, err)
				}
				assertSameColumn(t, "between "+ctx, seqBet, got)
			}
		}
	}
}

func TestParallelSumEquivalence(t *testing.T) {
	vals := parTestValues(parTestN)
	for _, inDesc := range formats.AllDescs() {
		in, err := formats.Compress(vals, inDesc)
		if err != nil {
			t.Fatal(err)
		}
		want, wantCol, err := FixedRT(1).SumAuto(in, false)
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range parLevels {
			got, gotCol, err := FixedRT(par).SumAuto(in, false)
			if err != nil {
				t.Fatalf("par sum %v p=%d: %v", inDesc, par, err)
			}
			if got != want {
				t.Fatalf("par sum %v p=%d: %d, want %d", inDesc, par, got, want)
			}
			assertSameColumn(t, "sum", wantCol, gotCol)
		}
	}
}

func TestParallelProjectEquivalence(t *testing.T) {
	vals := parTestValues(parTestN)
	// Sorted positions touching every third element, non-block-aligned count.
	posVals := make([]uint64, 0, parTestN/3)
	for i := 0; i < parTestN; i += 3 {
		posVals = append(posVals, uint64(i))
	}
	for _, dataDesc := range formats.RandomAccessDescs() {
		data, err := formats.Compress(vals, dataDesc)
		if err != nil {
			t.Fatal(err)
		}
		for _, posDesc := range formats.AllDescs() {
			pos, err := formats.Compress(posVals, posDesc)
			if err != nil {
				t.Fatal(err)
			}
			for _, outDesc := range formats.AllDescs() {
				want, err := FixedRT(1).Project(data, pos, outDesc)
				if err != nil {
					t.Fatal(err)
				}
				for _, par := range parLevels {
					got, err := FixedRT(par).Project(data, pos, outDesc)
					if err != nil {
						t.Fatalf("par project %v/%v/%v p=%d: %v",
							dataDesc, posDesc, outDesc, par, err)
					}
					assertSameColumn(t, "project", want, got)
				}
			}
		}
	}
}

func TestParallelSemiJoinEquivalence(t *testing.T) {
	vals := parTestValues(parTestN)
	buildVals := []uint64{1, 7, 42, 99, 123, 250, 444}
	for _, probeDesc := range formats.AllDescs() {
		probe, err := formats.Compress(vals, probeDesc)
		if err != nil {
			t.Fatal(err)
		}
		for _, buildDesc := range []columns.FormatDesc{columns.UncomprDesc, columns.DynBPDesc} {
			build, err := formats.Compress(buildVals, buildDesc)
			if err != nil {
				t.Fatal(err)
			}
			for _, outDesc := range formats.AllDescs() {
				want, err := FixedRT(1).SemiJoin(probe, build, outDesc)
				if err != nil {
					t.Fatal(err)
				}
				for _, par := range parLevels {
					got, err := FixedRT(par).SemiJoin(probe, build, outDesc)
					if err != nil {
						t.Fatalf("par semijoin %v/%v p=%d: %v",
							probeDesc, outDesc, par, err)
					}
					assertSameColumn(t, "semijoin", want, got)
				}
			}
		}
	}
}

// TestParallelJoinN1Equivalence checks the dual-output N:1 join: for every
// probe format x output format x parallelism degree, both stitched
// position lists must be byte-identical to the sequential join's.
func TestParallelJoinN1Equivalence(t *testing.T) {
	vals := parTestValues(parTestN)
	// Unique build keys covering about half of the probe value domain.
	buildVals := make([]uint64, 250)
	for i := range buildVals {
		buildVals[i] = uint64(2 * i)
	}
	for _, probeDesc := range formats.AllDescs() {
		probe, err := formats.Compress(vals, probeDesc)
		if err != nil {
			t.Fatal(err)
		}
		for _, buildDesc := range []columns.FormatDesc{columns.UncomprDesc, columns.DynBPDesc} {
			build, err := formats.Compress(buildVals, buildDesc)
			if err != nil {
				t.Fatal(err)
			}
			for _, outDesc := range formats.AllDescs() {
				ctx := probeDesc.String() + "->" + outDesc.String()
				wantP, wantB, err := JoinN1(probe, build, outDesc, outDesc, 0)
				if err != nil {
					t.Fatalf("join %s: %v", ctx, err)
				}
				for _, par := range parLevels {
					gotP, gotB, err := FixedRT(par).JoinN1(probe, build, outDesc, outDesc, 0)
					if err != nil {
						t.Fatalf("par join %s p=%d: %v", ctx, par, err)
					}
					assertSameColumn(t, "join probe pos "+ctx, wantP, gotP)
					assertSameColumn(t, "join build pos "+ctx, wantB, gotB)
				}
			}
		}
	}
}

// TestParallelJoinN1Skewed pins the stitch ordering of the join's dual
// outputs under extreme selectivity skew: one half of the probe column
// matches everything and the other half matches nothing, in both orders, so
// whole partitions produce either their full length or zero rows.
func TestParallelJoinN1Skewed(t *testing.T) {
	buildVals := make([]uint64, 300)
	for i := range buildVals {
		buildVals[i] = uint64(i)
	}
	mkProbe := func(matchFirstHalf bool) []uint64 {
		probe := make([]uint64, parTestN)
		for i := range probe {
			inFirst := i < parTestN/2
			if inFirst == matchFirstHalf {
				probe[i] = uint64(i % len(buildVals)) // hits the build side
			} else {
				probe[i] = uint64(1_000_000 + i) // misses
			}
		}
		return probe
	}
	for _, skew := range []struct {
		name       string
		matchFirst bool
	}{{"all_match_then_none", true}, {"none_then_all_match", false}} {
		probeVals := mkProbe(skew.matchFirst)
		for _, probeDesc := range formats.AllDescs() {
			probe, err := formats.Compress(probeVals, probeDesc)
			if err != nil {
				t.Fatal(err)
			}
			build := columns.FromValues(buildVals)
			for _, outDesc := range []columns.FormatDesc{columns.UncomprDesc, columns.StaticBPDesc(0), columns.DeltaBPDesc} {
				ctx := skew.name + "/" + probeDesc.String() + "->" + outDesc.String()
				wantP, wantB, err := JoinN1(probe, build, outDesc, outDesc, 0)
				if err != nil {
					t.Fatalf("%s: %v", ctx, err)
				}
				for _, par := range parLevels {
					gotP, gotB, err := FixedRT(par).JoinN1(probe, build, outDesc, outDesc, 0)
					if err != nil {
						t.Fatalf("%s p=%d: %v", ctx, par, err)
					}
					assertSameColumn(t, "skew join probe pos "+ctx, wantP, gotP)
					assertSameColumn(t, "skew join build pos "+ctx, wantB, gotB)
				}
			}
		}
	}
}

// TestParallelCalcEquivalence checks the lockstep dual-input calc: both
// inputs are split at shared boundaries even when their formats align
// differently (e.g. uncompressed x DynBP).
func TestParallelCalcEquivalence(t *testing.T) {
	aVals := parTestValues(parTestN)
	bVals := make([]uint64, parTestN)
	for i := range bVals {
		bVals[i] = uint64(i%977 + 1)
	}
	for _, aDesc := range formats.AllDescs() {
		a, err := formats.Compress(aVals, aDesc)
		if err != nil {
			t.Fatal(err)
		}
		for _, bDesc := range formats.AllDescs() {
			bcol, err := formats.Compress(bVals, bDesc)
			if err != nil {
				t.Fatal(err)
			}
			for _, outDesc := range formats.AllDescs() {
				for _, op := range []CalcKind{CalcAdd, CalcSub, CalcMul} {
					ctx := aDesc.String() + op.String() + bDesc.String() + "->" + outDesc.String()
					want, err := FixedRT(1).CalcBinary(op, a, bcol, outDesc)
					if err != nil {
						t.Fatalf("calc %s: %v", ctx, err)
					}
					for _, par := range parLevels {
						got, err := FixedRT(par).CalcBinary(op, a, bcol, outDesc)
						if err != nil {
							t.Fatalf("par calc %s p=%d: %v", ctx, par, err)
						}
						assertSameColumn(t, "calc "+ctx, want, got)
					}
				}
			}
		}
	}
}

// TestParallelSumGroupedEquivalence checks the partial-group-sum merge: for
// every gid format x value format x degree the merged sums must equal
// the sequential single-array accumulation bit for bit.
func TestParallelSumGroupedEquivalence(t *testing.T) {
	const nGroups = 37
	gidVals := make([]uint64, parTestN)
	vVals := parTestValues(parTestN)
	rng := rand.New(rand.NewSource(5))
	for i := range gidVals {
		gidVals[i] = uint64(rng.Intn(nGroups))
	}
	for _, gDesc := range formats.AllDescs() {
		gids, err := formats.Compress(gidVals, gDesc)
		if err != nil {
			t.Fatal(err)
		}
		for _, vDesc := range formats.AllDescs() {
			vals, err := formats.Compress(vVals, vDesc)
			if err != nil {
				t.Fatal(err)
			}
			ctx := gDesc.String() + "+" + vDesc.String()
			want, err := FixedRT(1).SumGrouped(gids, vals, nGroups)
			if err != nil {
				t.Fatalf("grouped sum %s: %v", ctx, err)
			}
			for _, par := range parLevels {
				got, err := FixedRT(par).SumGrouped(gids, vals, nGroups)
				if err != nil {
					t.Fatalf("par grouped sum %s p=%d: %v", ctx, par, err)
				}
				assertSameColumn(t, "grouped sum "+ctx, want, got)
			}
		}
	}
}

// TestParallelSumGroupedRejectsOutOfRange checks that an out-of-range group
// id fails the parallel path just like the sequential one.
func TestParallelSumGroupedRejectsOutOfRange(t *testing.T) {
	gidVals := make([]uint64, parTestN)
	gidVals[parTestN-1] = 99 // beyond nGroups below
	gids := columns.FromValues(gidVals)
	vals := columns.FromValues(parTestValues(parTestN))
	for _, par := range parLevels {
		if _, err := FixedRT(par).SumGrouped(gids, vals, 10); err == nil {
			t.Fatalf("p=%d: out-of-range group id must fail", par)
		}
	}
}

// TestParallelAutoMatchesSpecialized checks that the auto dispatchers stay
// byte-identical to the sequential auto path whether the specialized kernel
// runs per partition (static BP SWAR select/sum and per-block DynBP sum on
// splittable inputs) or the sequential side picks a specialized direct
// kernel on inputs that cannot split (RLE run-level).
func TestParallelAutoMatchesSpecialized(t *testing.T) {
	vals := make([]uint64, parTestN)
	for i := range vals {
		vals[i] = uint64(i % 200)
	}
	for _, inDesc := range []columns.FormatDesc{columns.StaticBPDesc(8), columns.DynBPDesc, columns.RLEDesc} {
		in, err := formats.Compress(vals, inDesc)
		if err != nil {
			t.Fatal(err)
		}
		want, err := FixedRT(1).SelectAuto(in, bitutil.CmpLt, 50, columns.DeltaBPDesc, true)
		if err != nil {
			t.Fatal(err)
		}
		wantBet, err := SelectBetweenAuto(in, 20, 120, columns.DeltaBPDesc, 0, true)
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range parLevels {
			got, err := FixedRT(par).SelectAuto(in, bitutil.CmpLt, 50, columns.DeltaBPDesc, true)
			if err != nil {
				t.Fatalf("%v p=%d: %v", inDesc, par, err)
			}
			assertSameColumn(t, "auto select "+inDesc.String(), want, got)
			got, err = FixedRT(par).SelectBetweenAuto(in, 20, 120, columns.DeltaBPDesc, 0, true)
			if err != nil {
				t.Fatalf("%v p=%d: %v", inDesc, par, err)
			}
			assertSameColumn(t, "auto between "+inDesc.String(), wantBet, got)
		}
		wantSum, _, err := FixedRT(1).SumAuto(in, true)
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range parLevels {
			gotSum, _, err := FixedRT(par).SumAuto(in, true)
			if err != nil {
				t.Fatalf("%v p=%d: %v", inDesc, par, err)
			}
			if gotSum != wantSum {
				t.Fatalf("auto sum %v p=%d: %d, want %d", inDesc, par, gotSum, wantSum)
			}
		}
	}
}

// TestParallelAutoSpecializedEdgeCases pins the dispatch edges of the SWAR
// kernels: predicate constants beyond the packed field range, range
// predicates straddling it, and a width-0 input must produce the generic
// kernels' column — same positions, same output descriptor — bit for bit, at
// every parallelism degree.
func TestParallelAutoSpecializedEdgeCases(t *testing.T) {
	vals := make([]uint64, parTestN)
	for i := range vals {
		vals[i] = uint64(i % 200)
	}
	packed, err := formats.Compress(vals, columns.StaticBPDesc(8))
	if err != nil {
		t.Fatal(err)
	}
	zeros, err := formats.Compress(make([]uint64, parTestN), columns.StaticBPDesc(0))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		in     *columns.Column
		out    columns.FormatDesc
		op     bitutil.CmpKind
		val    uint64
		lo, hi uint64
		rng    bool
	}{
		{name: "eq_beyond_width", in: packed, out: columns.DynBPDesc, op: bitutil.CmpEq, val: 1 << 30},
		{name: "lt_beyond_width", in: packed, out: columns.DynBPDesc, op: bitutil.CmpLt, val: 1 << 30},
		{name: "between_hi_beyond_width", in: packed, out: columns.DynBPDesc, lo: 100, hi: 1 << 30, rng: true},
		{name: "between_lo_beyond_width", in: packed, out: columns.DynBPDesc, lo: 1 << 30, hi: 1 << 31, rng: true},
		// An auto-width static BP output is refined to the position width
		// even when the width-0 input decides the predicate up front.
		{name: "between_width0_lo_nonzero", in: zeros, out: columns.StaticBPDesc(0), lo: 3, hi: 9, rng: true},
	}
	for _, tc := range cases {
		run := func(par int, specialized bool) *columns.Column {
			var got *columns.Column
			if tc.rng {
				got, err = FixedRT(par).SelectBetweenAuto(tc.in, tc.lo, tc.hi, tc.out, 0, specialized)
			} else {
				got, err = FixedRT(par).SelectAuto(tc.in, tc.op, tc.val, tc.out, specialized)
			}
			if err != nil {
				t.Fatalf("%s p=%d specialized=%v: %v", tc.name, par, specialized, err)
			}
			return got
		}
		want := run(1, false)
		for _, par := range parLevels {
			assertSameColumn(t, tc.name, want, run(par, true))
		}
	}

	// A truncated static BP column — far fewer packed words than its element
	// count needs — is typed corruption on every path: generic and
	// specialized, one morsel and many, never an out-of-range slice access
	// (which at par > 1 would surface as a recovered ErrPanic).
	trunc, err := columns.New(columns.StaticBPDesc(16), 100000, 100000, 10, make([]uint64, 10))
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 2} {
		for _, specialized := range []bool{false, true} {
			ctx := fmt.Sprintf("truncated static BP p=%d specialized=%v", par, specialized)
			rt := FixedRT(par)
			_, err := rt.SelectAuto(trunc, bitutil.CmpLt, 50, columns.DynBPDesc, specialized)
			if !errors.Is(err, qerr.ErrCorruptData) {
				t.Errorf("%s select: want ErrCorruptData, got %v", ctx, err)
			}
			_, err = rt.SelectBetweenAuto(trunc, 10, 90, columns.DynBPDesc, 0, specialized)
			if !errors.Is(err, qerr.ErrCorruptData) {
				t.Errorf("%s between: want ErrCorruptData, got %v", ctx, err)
			}
			_, _, err = rt.SumAuto(trunc, specialized)
			if !errors.Is(err, qerr.ErrCorruptData) {
				t.Errorf("%s sum: want ErrCorruptData, got %v", ctx, err)
			}
		}
	}
}

// TestStitchCompressedMatchesSerialWriter checks the parallel compressed
// stitch in isolation: for every output format and parallelism degree, the
// sectioned compress-and-concatenate path must produce the bytes of a single
// sequential writer consuming the same chunks.
func TestStitchCompressedMatchesSerialWriter(t *testing.T) {
	vals := parTestValues(parTestN)
	// Ragged chunks mimicking skewed per-morsel outputs, including empties.
	cuts := []int{0, 17, 17, 2048, 2500, 4096, parTestN}
	chunks := make([][]uint64, 0, len(cuts)-1)
	for i := 1; i < len(cuts); i++ {
		chunks = append(chunks, vals[cuts[i-1]:cuts[i]])
	}
	for _, desc := range append(formats.AllDescs(), columns.StaticBPDesc(36)) {
		want, err := StitchCompressed(desc, parTestN, chunks, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range parLevels[1:] {
			got, err := StitchCompressed(desc, parTestN, chunks, par)
			if err != nil {
				t.Fatalf("%v p=%d: %v", desc, par, err)
			}
			assertSameColumn(t, "stitch "+desc.String(), want, got)
		}
	}
	// Position-list shaped stream (sorted): the DeltaBP sweet spot.
	pos := make([]uint64, parTestN)
	for i := range pos {
		pos[i] = uint64(3 * i)
	}
	posChunks := [][]uint64{pos[:100], pos[100:4096], pos[4096:]}
	for _, desc := range formats.AllDescs() {
		want, err := StitchCompressed(desc, parTestN, posChunks, 1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := StitchCompressed(desc, parTestN, posChunks, 4)
		if err != nil {
			t.Fatalf("%v: %v", desc, err)
		}
		assertSameColumn(t, "stitch pos "+desc.String(), want, got)
	}
}

// TestStitchZeroAllocConcat extends the cross-product with the allocation
// contract of the stitch's serial tail: once the per-worker sections exist,
// splicing them at full-block boundaries costs a constant number of
// allocations (the result buffer and column), never per-block work.
func TestStitchZeroAllocConcat(t *testing.T) {
	// A position-list shaped stream: every value < parTestN, so the preset
	// static BP position width holds every section at one shared width.
	vals := make([]uint64, parTestN)
	for i := range vals {
		vals[i] = uint64(i)
	}
	for _, desc := range formats.AllDescs() {
		d := positionDesc(desc, parTestN) // as the parallel drivers request it
		ranges := formats.SplitRange(parTestN, 4, formats.ConcatAlign(d.Kind))
		if ranges == nil {
			t.Fatalf("%v: range did not split", d)
		}
		parts := make([]*columns.Column, len(ranges))
		for i, pt := range ranges {
			var prev uint64
			if pt.Start > 0 {
				prev = vals[pt.Start-1]
			}
			w, err := formats.NewSectionWriter(d, pt.Count, prev, pt.Start > 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Write(vals[pt.Start : pt.Start+pt.Count]); err != nil {
				t.Fatal(err)
			}
			if parts[i], err = w.Close(); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := formats.ConcatCompressed(parts[0].Desc(), parts); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 8 {
			t.Errorf("%v: aligned concat did %.0f allocations, want <= 8", d, allocs)
		}
	}
}
