package ops

import (
	"math/rand"
	"testing"

	"morphstore/internal/bitutil"
	"morphstore/internal/columns"
	"morphstore/internal/formats"
)

var allOps = []bitutil.CmpKind{bitutil.CmpEq, bitutil.CmpNe, bitutil.CmpLt, bitutil.CmpLe, bitutil.CmpGt, bitutil.CmpGe}

func mkCol(t *testing.T, vals []uint64, desc columns.FormatDesc) *columns.Column {
	t.Helper()
	c, err := formats.Compress(vals, desc)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func decode(t *testing.T, c *columns.Column) []uint64 {
	t.Helper()
	v, err := formats.Decompress(c)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func refSelect(vals []uint64, op bitutil.CmpKind, val uint64) []uint64 {
	var out []uint64
	for i, v := range vals {
		if op.Eval(v, val) {
			out = append(out, uint64(i))
		}
	}
	return out
}

func equalU64(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func genVals(n int, mod uint64, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = rng.Uint64() % mod
	}
	return vals
}

// TestSelectAllFormatsStyles runs the select operator over every in/out
// format pair against an element-wise reference —
// the correctness backbone of the Figure 5 experiment.
func TestSelectAllFormatsStyles(t *testing.T) {
	vals := genVals(3000, 50, 1)
	descs := formats.AllDescs()
	for _, inDesc := range descs {
		in := mkCol(t, vals, inDesc)
		for _, outDesc := range descs {
			for _, op := range allOps {
				got, err := FixedRT(1).SelectAuto(in, op, 25, outDesc, false)
				if err != nil {
					t.Fatalf("%v->%v %v: %v", inDesc, outDesc, op, err)
				}
				if got.Desc().Kind != outDesc.Kind {
					t.Fatalf("%v->%v: output kind %v", inDesc, outDesc, got.Desc())
				}
				want := refSelect(vals, op, 25)
				if !equalU64(decode(t, got), want) {
					t.Fatalf("%v->%v %v: wrong positions", inDesc, outDesc, op)
				}
			}
		}
	}
}

func TestSelectBetween(t *testing.T) {
	vals := genVals(5000, 100, 2)
	// {10, 5} is an inverted range: it matches nothing, for every kernel
	// (the generic ones test v-lo <= hi-lo, which would wrap) and format.
	for _, bounds := range [][2]uint64{{10, 30}, {10, 5}} {
		lo, hi := bounds[0], bounds[1]
		var want []uint64
		for i, v := range vals {
			if v >= lo && v <= hi {
				want = append(want, uint64(i))
			}
		}
		for _, inDesc := range append(formats.AllDescs(), columns.StaticBPDesc(8)) {
			in := mkCol(t, vals, inDesc)
			for _, specialized := range []bool{false, true} {
				got, err := FixedRT(1).SelectBetweenAuto(in, lo, hi, columns.DeltaBPDesc, 0, specialized)
				if err != nil {
					t.Fatalf("[%d,%d] %v specialized=%v: %v", lo, hi, inDesc, specialized, err)
				}
				if !equalU64(decode(t, got), want) {
					t.Fatalf("[%d,%d] %v specialized=%v: %d positions, want %d",
						lo, hi, inDesc, specialized, got.N(), len(want))
				}
			}
		}
	}
}

func TestSelectBetweenFullRange(t *testing.T) {
	vals := genVals(1000, 1<<63, 3)
	in := mkCol(t, vals, columns.UncomprDesc)
	got, err := FixedRT(1).SelectBetweenAuto(in, 0, ^uint64(0), columns.UncomprDesc, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != len(vals) {
		t.Fatalf("full range should match everything: %d of %d", got.N(), len(vals))
	}
}

func TestProject(t *testing.T) {
	data := genVals(4000, 1<<40, 4)
	posVals := []uint64{0, 5, 5, 17, 3999, 2048, 1}
	for _, dataDesc := range formats.RandomAccessDescs() {
		d := mkCol(t, data, dataDesc)
		for _, posDesc := range formats.AllDescs() {
			p := mkCol(t, posVals, posDesc)
			got, err := FixedRT(1).Project(d, p, columns.UncomprDesc)
			if err != nil {
				t.Fatalf("%v/%v: %v", dataDesc, posDesc, err)
			}
			want := make([]uint64, len(posVals))
			for i, ix := range posVals {
				want[i] = data[ix]
			}
			if !equalU64(decode(t, got), want) {
				t.Fatalf("%v/%v: wrong projection", dataDesc, posDesc)
			}
		}
	}
}

func TestProjectRejectsNonRandomAccessData(t *testing.T) {
	data := mkCol(t, genVals(2000, 100, 5), columns.DynBPDesc)
	pos := mkCol(t, []uint64{1, 2}, columns.UncomprDesc)
	if _, err := FixedRT(1).Project(data, pos, columns.UncomprDesc); err == nil {
		t.Error("project on DynBP data must fail (random access unsupported)")
	}
}

func TestProjectRejectsOutOfRangePositions(t *testing.T) {
	data := mkCol(t, genVals(100, 100, 6), columns.UncomprDesc)
	pos := mkCol(t, []uint64{5, 200}, columns.UncomprDesc)
	if _, err := FixedRT(1).Project(data, pos, columns.UncomprDesc); err == nil {
		t.Error("out-of-range position must fail")
	}
}

func TestJoinN1(t *testing.T) {
	// Build side: unique keys 100..149. Probe: values 80..170.
	build := make([]uint64, 50)
	for i := range build {
		build[i] = uint64(100 + i)
	}
	probe := genVals(4000, 91, 7)
	for i := range probe {
		probe[i] += 80
	}
	for _, probeDesc := range formats.PaperDescs() {
		pc := mkCol(t, probe, probeDesc)
		bc := mkCol(t, build, columns.UncomprDesc)
		pp, bp, err := JoinN1(pc, bc, columns.DeltaBPDesc, columns.DynBPDesc, 0)
		if err != nil {
			t.Fatalf("%v: %v", probeDesc, err)
		}
		gotP, gotB := decode(t, pp), decode(t, bp)
		var wantP, wantB []uint64
		for i, v := range probe {
			if v >= 100 && v < 150 {
				wantP = append(wantP, uint64(i))
				wantB = append(wantB, v-100)
			}
		}
		if !equalU64(gotP, wantP) || !equalU64(gotB, wantB) {
			t.Fatalf("%v: wrong join result", probeDesc)
		}
	}
}

func TestSemiJoin(t *testing.T) {
	build := []uint64{3, 9, 27}
	probe := genVals(3000, 30, 8)
	for _, probeDesc := range formats.PaperDescs() {
		pc := mkCol(t, probe, probeDesc)
		bc := mkCol(t, build, columns.StaticBPDesc(0))
		got, err := FixedRT(1).SemiJoin(pc, bc, columns.DeltaBPDesc)
		if err != nil {
			t.Fatalf("%v: %v", probeDesc, err)
		}
		var want []uint64
		for i, v := range probe {
			if v == 3 || v == 9 || v == 27 {
				want = append(want, uint64(i))
			}
		}
		if !equalU64(decode(t, got), want) {
			t.Fatalf("%v: wrong semijoin", probeDesc)
		}
	}
}

func TestGroupFirst(t *testing.T) {
	keys := []uint64{7, 3, 7, 7, 9, 3}
	for _, desc := range formats.PaperDescs() {
		kc := mkCol(t, keys, desc)
		gids, extents, err := FixedRT(1).GroupFirst(kc, columns.UncomprDesc, columns.UncomprDesc)
		if err != nil {
			t.Fatalf("%v: %v", desc, err)
		}
		if !equalU64(decode(t, gids), []uint64{0, 1, 0, 0, 2, 1}) {
			t.Fatalf("%v: gids = %v", desc, decode(t, gids))
		}
		if !equalU64(decode(t, extents), []uint64{0, 1, 4}) {
			t.Fatalf("%v: extents = %v", desc, decode(t, extents))
		}
	}
}

func TestGroupNext(t *testing.T) {
	// Rows: (a=1,b=1),(1,2),(2,1),(1,1),(2,1)
	a := []uint64{1, 1, 2, 1, 2}
	b := []uint64{1, 2, 1, 1, 1}
	ac := mkCol(t, a, columns.UncomprDesc)
	gids1, _, err := FixedRT(1).GroupFirst(ac, columns.UncomprDesc, columns.UncomprDesc)
	if err != nil {
		t.Fatal(err)
	}
	bc := mkCol(t, b, columns.StaticBPDesc(0))
	gids2, ext2, err := FixedRT(1).GroupNext(gids1, bc, columns.DynBPDesc, columns.UncomprDesc)
	if err != nil {
		t.Fatal(err)
	}
	if !equalU64(decode(t, gids2), []uint64{0, 1, 2, 0, 2}) {
		t.Fatalf("gids2 = %v", decode(t, gids2))
	}
	if !equalU64(decode(t, ext2), []uint64{0, 1, 2}) {
		t.Fatalf("ext2 = %v", decode(t, ext2))
	}
}

func TestGroupNextLengthMismatch(t *testing.T) {
	a := mkCol(t, []uint64{1, 2}, columns.UncomprDesc)
	b := mkCol(t, []uint64{1, 2, 3}, columns.UncomprDesc)
	if _, _, err := FixedRT(1).GroupNext(a, b, columns.UncomprDesc, columns.UncomprDesc); err == nil {
		t.Error("length mismatch must fail")
	}
}

func TestSumWhole(t *testing.T) {
	vals := genVals(10000, 1000, 9)
	var want uint64
	for _, v := range vals {
		want += v
	}
	for _, desc := range formats.AllDescs() {
		c := mkCol(t, vals, desc)
		got, col, err := FixedRT(1).SumAuto(c, false)
		if err != nil {
			t.Fatalf("%v: %v", desc, err)
		}
		if got != want {
			t.Fatalf("%v: sum = %d, want %d", desc, got, want)
		}
		if col.N() != 1 {
			t.Fatalf("%v: result column length %d", desc, col.N())
		}
	}
}

func TestSumGrouped(t *testing.T) {
	gids := []uint64{0, 1, 0, 2, 1, 0}
	vals := []uint64{10, 20, 30, 40, 50, 60}
	for _, gDesc := range formats.PaperDescs() {
		for _, vDesc := range formats.PaperDescs() {
			gc := mkCol(t, gids, gDesc)
			vc := mkCol(t, vals, vDesc)
			got, err := FixedRT(1).SumGrouped(gc, vc, 3)
			if err != nil {
				t.Fatalf("%v/%v: %v", gDesc, vDesc, err)
			}
			if !equalU64(decode(t, got), []uint64{100, 70, 40}) {
				t.Fatalf("%v/%v: sums = %v", gDesc, vDesc, decode(t, got))
			}
		}
	}
}

func TestSumGroupedBadGid(t *testing.T) {
	gc := mkCol(t, []uint64{0, 5}, columns.UncomprDesc)
	vc := mkCol(t, []uint64{1, 2}, columns.UncomprDesc)
	if _, err := FixedRT(1).SumGrouped(gc, vc, 2); err == nil {
		t.Error("out-of-range gid must fail")
	}
}

func TestCalcBinary(t *testing.T) {
	a := genVals(3000, 1000, 10)
	b := genVals(3000, 1000, 11)
	cases := []struct {
		op CalcKind
		f  func(x, y uint64) uint64
	}{
		{CalcAdd, func(x, y uint64) uint64 { return x + y }},
		{CalcSub, func(x, y uint64) uint64 { return x - y }},
		{CalcMul, func(x, y uint64) uint64 { return x * y }},
	}
	for _, aDesc := range formats.PaperDescs() {
		ac := mkCol(t, a, aDesc)
		bc := mkCol(t, b, columns.DynBPDesc)
		for _, cse := range cases {
			got, err := FixedRT(1).CalcBinary(cse.op, ac, bc, columns.DynBPDesc)
			if err != nil {
				t.Fatalf("%v %v: %v", aDesc, cse.op, err)
			}
			dec := decode(t, got)
			for i := range a {
				if dec[i] != cse.f(a[i], b[i]) {
					t.Fatalf("%v %v: elem %d", aDesc, cse.op, i)
				}
			}
		}
	}
}

func TestCalcLengthMismatch(t *testing.T) {
	a := mkCol(t, []uint64{1}, columns.UncomprDesc)
	b := mkCol(t, []uint64{1, 2}, columns.UncomprDesc)
	if _, err := FixedRT(1).CalcBinary(CalcAdd, a, b, columns.UncomprDesc); err == nil {
		t.Error("length mismatch must fail")
	}
}

func TestIntersectSorted(t *testing.T) {
	a := []uint64{1, 3, 5, 7, 9, 500, 1000, 2500}
	b := []uint64{2, 3, 4, 7, 500, 2500, 2600}
	want := []uint64{3, 7, 500, 2500}
	for _, aDesc := range formats.PaperDescs() {
		for _, bDesc := range formats.PaperDescs() {
			ac := mkCol(t, a, aDesc)
			bc := mkCol(t, b, bDesc)
			got, err := FixedRT(1).Intersect(ac, bc, columns.DeltaBPDesc)
			if err != nil {
				t.Fatalf("%v/%v: %v", aDesc, bDesc, err)
			}
			if !equalU64(decode(t, got), want) {
				t.Fatalf("%v/%v: intersect = %v", aDesc, bDesc, decode(t, got))
			}
		}
	}
}

func TestIntersectLarge(t *testing.T) {
	a := make([]uint64, 10000)
	bvals := make([]uint64, 5000)
	for i := range a {
		a[i] = uint64(2 * i)
	}
	for i := range bvals {
		bvals[i] = uint64(3 * i)
	}
	var want []uint64
	for i := 0; i < 15000; i += 6 {
		want = append(want, uint64(i))
	}
	ac := mkCol(t, a, columns.DeltaBPDesc)
	bc := mkCol(t, bvals, columns.DeltaBPDesc)
	got, err := FixedRT(1).Intersect(ac, bc, columns.DeltaBPDesc)
	if err != nil {
		t.Fatal(err)
	}
	dec := decode(t, got)
	if len(dec) != len(want) {
		t.Fatalf("len = %d, want %d", len(dec), len(want))
	}
	if !equalU64(dec, want) {
		t.Fatal("wrong intersection")
	}
}

func TestMergeSorted(t *testing.T) {
	a := []uint64{1, 3, 5, 100}
	b := []uint64{2, 3, 6, 100, 200}
	want := []uint64{1, 2, 3, 5, 6, 100, 200}
	for _, desc := range formats.PaperDescs() {
		ac := mkCol(t, a, desc)
		bc := mkCol(t, b, columns.UncomprDesc)
		got, err := FixedRT(1).Merge(ac, bc, columns.DeltaBPDesc)
		if err != nil {
			t.Fatalf("%v: %v", desc, err)
		}
		if !equalU64(decode(t, got), want) {
			t.Fatalf("%v: merge = %v", desc, decode(t, got))
		}
	}
}

func TestEmptyInputs(t *testing.T) {
	empty := mkCol(t, nil, columns.UncomprDesc)
	if got, err := FixedRT(1).SelectAuto(empty, bitutil.CmpEq, 1, columns.DynBPDesc, false); err != nil || got.N() != 0 {
		t.Errorf("select on empty: %v, n=%v", err, got.N())
	}
	s, _, err := FixedRT(1).SumAuto(empty, false)
	if err != nil || s != 0 {
		t.Errorf("sum on empty: %v %d", err, s)
	}
	i2, err := FixedRT(1).Intersect(empty, empty, columns.UncomprDesc)
	if err != nil || i2.N() != 0 {
		t.Errorf("intersect on empty: %v", err)
	}
	g, e, err := FixedRT(1).GroupFirst(empty, columns.UncomprDesc, columns.UncomprDesc)
	if err != nil || g.N() != 0 || e.N() != 0 {
		t.Errorf("group on empty: %v", err)
	}
}

func TestNilColumn(t *testing.T) {
	if _, err := FixedRT(1).SelectAuto(nil, bitutil.CmpEq, 1, columns.UncomprDesc, false); err == nil {
		t.Error("nil input must fail")
	}
	if _, err := FixedRT(1).Intersect(nil, nil, columns.UncomprDesc); err == nil {
		t.Error("nil input must fail")
	}
}
