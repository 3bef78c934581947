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

			seqSel, err := FixedRT(1).SelectAuto(in, bitutil.CmpLt, 250, outDesc)
			if err != nil {
				t.Fatalf("select %s: %v", ctx, err)
			}
			seqBet, err := FixedRT(1).SelectBetweenAuto(in, 100, 400, outDesc, 0, false)
			if err != nil {
				t.Fatalf("between %s: %v", ctx, err)
			}
			for _, par := range parLevels {
				got, err := FixedRT(par).SelectAuto(in, bitutil.CmpLt, 250, outDesc)
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

// TestSelectAndMatchesIntersect checks the fused conjunction against the
// operators it replaces: over every pair of input formats (streamed in
// lockstep, viewed or decompressed) and every output format, at every
// parallelism degree, SelectAnd's column is byte-identical to the sequential
// intersect of the two selections in the same output format.
func TestSelectAndMatchesIntersect(t *testing.T) {
	va := parTestValues(parTestN)
	vb := make([]uint64, len(va))
	for i := range vb {
		vb[i] = va[len(va)-1-i] % 300
	}
	compress := func(vals []uint64, d columns.FormatDesc) *columns.Column {
		col, err := formats.Compress(vals, d)
		if err != nil {
			t.Fatal(err)
		}
		return col
	}
	for _, da := range formats.AllDescs() {
		a := compress(va, da)
		for _, db := range formats.AllDescs() {
			b := compress(vb, db)
			for _, out := range formats.AllDescs() {
				ctx := fmt.Sprintf("%v&%v->%v", da, db, out)
				sa, err := FixedRT(1).SelectAuto(a, bitutil.CmpLt, 250, columns.DeltaBPDesc)
				if err != nil {
					t.Fatal(err)
				}
				sb, err := FixedRT(1).SelectBetweenAuto(b, 100, 200, columns.UncomprDesc, 0, false)
				if err != nil {
					t.Fatal(err)
				}
				want, err := FixedRT(1).Intersect(sa, sb, out)
				if err != nil {
					t.Fatal(err)
				}
				for _, par := range parLevels {
					got, err := FixedRT(par).SelectAnd(a, 0, 249, b, 100, 100, out)
					if err != nil {
						t.Fatalf("%s p=%d: %v", ctx, par, err)
					}
					assertSameColumn(t, fmt.Sprintf("%s p=%d", ctx, par), want, got)
				}
			}
		}
	}
	if _, err := FixedRT(1).SelectAnd(columns.FromValues(va), 0, 1, columns.FromValues(vb[1:]), 0, 1, columns.UncomprDesc); !errors.Is(err, qerr.ErrInvalidSchema) {
		t.Fatalf("unequal inputs: err = %v, want ErrInvalidSchema", err)
	}
}

func TestParallelSumEquivalence(t *testing.T) {
	vals := parTestValues(parTestN)
	for _, inDesc := range formats.AllDescs() {
		in, err := formats.Compress(vals, inDesc)
		if err != nil {
			t.Fatal(err)
		}
		want, wantCol, err := FixedRT(1).SumAuto(in)
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range parLevels {
			got, gotCol, err := FixedRT(par).SumAuto(in)
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
// probe format x output format x parallelism degree x kernel path, both
// stitched position lists must be byte-identical to the sequential join's.
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
				eachKernelPath(func(path string) {
					for _, par := range parLevels {
						gotP, gotB, err := FixedRT(par).JoinN1(probe, build, outDesc, outDesc, 0)
						if err != nil {
							t.Fatalf("par join %s p=%d %s: %v", ctx, par, path, err)
						}
						assertSameColumn(t, "join probe pos "+ctx+" "+path, wantP, gotP)
						assertSameColumn(t, "join build pos "+ctx+" "+path, wantB, gotB)
					}
				})
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

// TestParallelAutoMatchesSpecialized checks that the Auto operators stay
// byte-identical to the sequential path on splittable inputs (static BP at
// widths 2 and 8, DynBP) and on one that cannot split (RLE).
func TestParallelAutoMatchesSpecialized(t *testing.T) {
	mod := func(m uint64) []uint64 {
		vals := make([]uint64, parTestN)
		for i := range vals {
			vals[i] = uint64(i) % m
		}
		return vals
	}
	for _, tc := range []struct {
		desc             columns.FormatDesc
		vals             []uint64
		lt, betLo, betHi uint64
	}{
		{columns.StaticBPDesc(2), mod(4), 2, 1, 2},
		{columns.StaticBPDesc(8), mod(200), 50, 20, 120},
		{columns.DynBPDesc, mod(200), 50, 20, 120},
		{columns.RLEDesc, mod(200), 50, 20, 120},
	} {
		in, err := formats.Compress(tc.vals, tc.desc)
		if err != nil {
			t.Fatal(err)
		}
		want, err := FixedRT(1).SelectAuto(in, bitutil.CmpLt, tc.lt, columns.DeltaBPDesc)
		if err != nil {
			t.Fatal(err)
		}
		wantBet, err := SelectBetweenAuto(in, tc.betLo, tc.betHi, columns.DeltaBPDesc, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		wantSum, _, err := FixedRT(1).SumAuto(in)
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range parLevels {
			got, err := FixedRT(par).SelectAuto(in, bitutil.CmpLt, tc.lt, columns.DeltaBPDesc)
			if err != nil {
				t.Fatalf("%v p=%d: %v", tc.desc, par, err)
			}
			assertSameColumn(t, "auto select "+tc.desc.String(), want, got)
			got, err = FixedRT(par).SelectBetweenAuto(in, tc.betLo, tc.betHi, columns.DeltaBPDesc, 0, false)
			if err != nil {
				t.Fatalf("%v p=%d: %v", tc.desc, par, err)
			}
			assertSameColumn(t, "auto between "+tc.desc.String(), wantBet, got)
			gotSum, _, err := FixedRT(par).SumAuto(in)
			if err != nil {
				t.Fatalf("%v p=%d: %v", tc.desc, par, err)
			}
			if gotSum != wantSum {
				t.Fatalf("auto sum %v p=%d: %d, want %d", tc.desc, par, gotSum, wantSum)
			}
		}
	}
}

// TestParallelAutoSpecializedEdgeCases pins the edges of the packed field
// range: at every static BP width 1..32, predicate constants beyond it and
// range predicates straddling it — plus a width-0 input — must return the
// element-wise reference's positions in the refined output descriptor
// (positionDesc), bit for bit at every parallelism degree.
func TestParallelAutoSpecializedEdgeCases(t *testing.T) {
	type edge struct {
		name   string
		in     *columns.Column
		out    columns.FormatDesc
		op     bitutil.CmpKind
		val    uint64
		lo, hi uint64
		rng    bool
	}
	zeros, err := formats.Compress(make([]uint64, parTestN), columns.StaticBPDesc(0))
	if err != nil {
		t.Fatal(err)
	}
	// An auto-width static BP output is refined to the position width even
	// when the width-0 input decides the predicate up front.
	cases := []edge{{name: "between_width0_lo_nonzero", in: zeros, out: columns.StaticBPDesc(0), lo: 3, hi: 9, rng: true}}
	for w := uint(1); w <= 32; w++ {
		vals := make([]uint64, parTestN)
		for i := range vals {
			vals[i] = uint64(i) % min(200, bitutil.Mask(w)+1)
		}
		packed, err := formats.Compress(vals, columns.StaticBPDesc(w))
		if err != nil {
			t.Fatal(err)
		}
		beyond := bitutil.Mask(w) + 1
		cases = append(cases,
			edge{name: fmt.Sprintf("w%d_eq_beyond_width", w), in: packed, out: columns.DynBPDesc, op: bitutil.CmpEq, val: beyond},
			edge{name: fmt.Sprintf("w%d_lt_beyond_width", w), in: packed, out: columns.DynBPDesc, op: bitutil.CmpLt, val: beyond},
			edge{name: fmt.Sprintf("w%d_between_hi_beyond_width", w), in: packed, out: columns.DynBPDesc, lo: beyond / 2, hi: beyond, rng: true},
			edge{name: fmt.Sprintf("w%d_between_lo_beyond_width", w), in: packed, out: columns.DynBPDesc, lo: beyond, hi: 2 * beyond, rng: true})
	}
	for _, tc := range cases {
		run := func(par int) *columns.Column {
			var got *columns.Column
			rt := FixedRT(par)
			if tc.rng {
				got, err = rt.SelectBetweenAuto(tc.in, tc.lo, tc.hi, tc.out, 0, false)
			} else {
				got, err = rt.SelectAuto(tc.in, tc.op, tc.val, tc.out)
			}
			if err != nil {
				t.Fatalf("%s p=%d: %v", tc.name, par, err)
			}
			return got
		}
		var wantPos []uint64
		for i, v := range decode(t, tc.in) {
			if tc.rng && tc.lo <= v && v <= tc.hi || !tc.rng && tc.op.Eval(v, tc.val) {
				wantPos = append(wantPos, uint64(i))
			}
		}
		want := run(1)
		if !equalU64(decode(t, want), wantPos) || want.Desc() != positionDesc(tc.out, tc.in.N()) {
			t.Fatalf("%s: %d positions in %v, want %d in %v", tc.name, want.N(), want.Desc(), len(wantPos), positionDesc(tc.out, tc.in.N()))
		}
		for _, par := range parLevels {
			assertSameColumn(t, tc.name, want, run(par))
		}
	}

	// A truncated static BP column — far fewer packed words than its element
	// count needs — is typed corruption at narrow and wide widths, one
	// morsel and many, never an out-of-range slice access (which at par > 1
	// would surface as a recovered ErrPanic).
	for _, w := range []uint{2, 6, 16} {
		trunc, err := columns.New(columns.StaticBPDesc(w), 100000, 100000, 10, make([]uint64, 10))
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{1, 2} {
			rt := FixedRT(par)
			for name, run := range map[string]func() error{
				"select":  func() error { _, err := rt.SelectAuto(trunc, bitutil.CmpLt, 1, columns.DynBPDesc); return err },
				"between": func() error { _, err := rt.SelectBetweenAuto(trunc, 0, 1, columns.DynBPDesc, 0, false); return err },
				"sum":     func() error { _, _, err := rt.SumAuto(trunc); return err },
			} {
				if err := run(); !errors.Is(err, qerr.ErrCorruptData) {
					t.Errorf("truncated static BP w=%d p=%d %s: want ErrCorruptData, got %v", w, par, name, err)
				}
			}
		}
	}
}

// TestStitchCompressedMatchesSerialWriter checks the compressed stitch in
// isolation: for every output format and parallelism degree it produces the
// bytes of a single sequential writer consuming the same chunks, and a
// stitch at par 4 allocates no more than one at par 1 (one writer, no
// sections to splice).
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
		allocs := func(par int) float64 {
			return testing.AllocsPerRun(5, func() {
				if _, err := StitchCompressed(desc, parTestN, posChunks, par); err != nil {
					t.Fatal(err)
				}
			})
		}
		if a1, a4 := allocs(1), allocs(4); a4 > a1 {
			t.Errorf("%v: stitch at par 4 did %.0f allocations, %.0f at par 1", desc, a4, a1)
		}
	}
}
