package ops

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"morphstore/internal/bitutil"
	"morphstore/internal/columns"
	"morphstore/internal/formats"
)

// The reference of every dispatch test is the generic path, called
// in-package: the range test normalised over all of uint64 through unpack +
// block kernel, and the streamed sum. The dispatched operators must return
// its column bit for bit — same positions, same output descriptor.

func genericSelect(rt Runtime, in *columns.Column, op bitutil.CmpKind, val uint64, out columns.FormatDesc) (*columns.Column, error) {
	lo, span, empty, _ := op.Range(val, math.MaxUint64)
	return rt.selectRange("select", in, out, empty, scan(in, blockKernel(lo, span)))
}

func genericBetween(rt Runtime, in *columns.Column, lo, hi uint64, out columns.FormatDesc) (*columns.Column, error) {
	return rt.selectRange("select between", in, out, lo > hi, scan(in, blockKernel(lo, hi-lo)))
}

func genericSum(rt Runtime, in *columns.Column) (uint64, error) {
	total, err := rt.reduce("sum", in, nil, 1, sumStreamed(in))
	if err != nil {
		return 0, err
	}
	return total[0], nil
}

// dispatchN is the row count of the dispatch tests' inputs: at par 2 they
// split into morsels, the last ending inside a packed word.
const dispatchN = 2*formats.MinMorsel + 100

// dispatchPars are the worker counts the dispatch tests run at: one morsel,
// and two.
var dispatchPars = []int{1, 2}

// dispatchInput is one input the dispatch distinguishes, with its values.
type dispatchInput struct {
	in   *columns.Column
	vals []uint64
	max  uint64 // largest value the format's fields hold
}

// dispatchInputs returns static BP at every width 1..32 — both sides of the
// SWAR-select gate — plus RLE (runs of 5) and DynBP, each dispatchN rows of
// values in its field range.
func dispatchInputs(t *testing.T) []dispatchInput {
	t.Helper()
	rng := rand.New(rand.NewSource(13))
	gen := func(w uint, run int) []uint64 {
		vals := make([]uint64, dispatchN)
		for i := range vals {
			if i%run == 0 {
				vals[i] = rng.Uint64() & bitutil.Mask(w)
			} else {
				vals[i] = vals[i-1]
			}
		}
		return vals
	}
	var ins []dispatchInput
	add := func(desc columns.FormatDesc, w uint, run int) {
		vals := gen(w, run)
		ins = append(ins, dispatchInput{mkCol(t, vals, desc), vals, bitutil.Mask(w)})
	}
	for w := uint(1); w <= 32; w++ {
		add(columns.StaticBPDesc(w), w, 1)
	}
	add(columns.RLEDesc, 8, 5)
	add(columns.DynBPDesc, 8, 1)
	return ins
}

// kernelMaker names the function a dispatched kernel closure was made by:
// one of the given makers, or "" when none matches.
func kernelMaker(k any, makers ...string) string {
	name := runtime.FuncForPC(reflect.ValueOf(k).Pointer()).Name()
	for _, m := range makers {
		if strings.Contains(name, "."+m+".") {
			return m
		}
	}
	return ""
}

// TestAutoDispatch pins the dispatch tables of select.go and agg.go — which
// kernel each input's descriptor gets — and checks the dispatched select,
// between and sum of every format against the element-wise reference.
func TestAutoDispatch(t *testing.T) {
	for _, di := range dispatchInputs(t) {
		d := di.in.Desc()
		wantSel, wantSum := "scan", "sumStreamed"
		switch {
		case d.Kind == columns.StaticBP && d.Bits <= 2:
			wantSel = "swarSelect"
		case d.Kind == columns.RLE:
			wantSum = "sumRLE"
		}
		max, swar := selectDomain(di.in, 0)
		if got := kernelMaker(rangeKernel(di.in, 0, 0, swar), "swarSelect", "scan"); got != wantSel {
			t.Errorf("%v: select kernel %q, want %q", d, got, wantSel)
		}
		if swar != (wantSel == "swarSelect") || swar && max != di.max {
			t.Errorf("%v: select domain (%d, %v)", d, max, swar)
		}
		// A constant beyond the field range leaves the SWAR test to the block kernel.
		if _, swar := selectDomain(di.in, di.max+1); swar {
			t.Errorf("%v: SWAR select for a constant beyond the field range", d)
		}
		if got := kernelMaker(sumKernel(di.in), "sumRLE", "sumStreamed"); got != wantSum {
			t.Errorf("%v: sum kernel %q, want %q", d, got, wantSum)
		}
	}

	vals := genVals(5000, 256, 23)
	var want uint64
	for _, v := range vals {
		want += v
	}
	var wantBet []uint64
	for i, v := range vals {
		if v >= 10 && v <= 90 {
			wantBet = append(wantBet, uint64(i))
		}
	}
	for _, desc := range formats.AllDescs() {
		c := mkCol(t, vals, desc)
		for _, par := range dispatchPars {
			got, _, err := FixedRT(par).SumAuto(c)
			if err != nil || got != want {
				t.Fatalf("%v p=%d: sum = %d (%v), want %d", desc, par, got, err, want)
			}
			sel, err := FixedRT(par).SelectAuto(c, bitutil.CmpLt, 100, columns.DeltaBPDesc)
			if err != nil {
				t.Fatalf("%v p=%d: %v", desc, par, err)
			}
			if !equalU64(decode(t, sel), refSelect(vals, bitutil.CmpLt, 100)) {
				t.Fatalf("%v p=%d: wrong select", desc, par)
			}
			bet, err := FixedRT(par).SelectBetweenAuto(c, 10, 90, columns.DeltaBPDesc, 0, false)
			if err != nil {
				t.Fatalf("%v p=%d: %v", desc, par, err)
			}
			if !equalU64(decode(t, bet), wantBet) {
				t.Fatalf("%v p=%d: wrong between", desc, par)
			}
		}
	}
}

// TestSelectDirectMatchesGeneric checks the dispatched select against the
// generic reference for every comparison, constants at and beyond both ends
// of the field range, on every input the dispatch distinguishes.
func TestSelectDirectMatchesGeneric(t *testing.T) {
	for _, di := range dispatchInputs(t) {
		for _, par := range dispatchPars {
			rt := FixedRT(par)
			for _, op := range allOps {
				for _, val := range []uint64{0, 1, di.max / 2, di.max, di.max + 1, math.MaxUint64} {
					ctx := fmt.Sprintf("%v p=%d %v %d", di.in.Desc(), par, op, val)
					got, err := rt.SelectAuto(di.in, op, val, columns.DeltaBPDesc)
					if err != nil {
						t.Fatalf("%s: %v", ctx, err)
					}
					want, err := genericSelect(rt, di.in, op, val, columns.DeltaBPDesc)
					if err != nil {
						t.Fatalf("%s: generic: %v", ctx, err)
					}
					assertSameColumn(t, ctx, want, got)
				}
			}
			got, err := rt.SelectAuto(di.in, bitutil.CmpLe, di.max/2, columns.UncomprDesc)
			if err != nil || !equalU64(decode(t, got), refSelect(di.vals, bitutil.CmpLe, di.max/2)) {
				t.Fatalf("%v p=%d: generic and dispatched agree, but not with the element-wise reference (%v)", di.in.Desc(), par, err)
			}
		}
	}
}

func TestSelectDirectAllZeroColumn(t *testing.T) {
	vals := make([]uint64, 100)
	in := mkCol(t, vals, columns.StaticBPDesc(0))
	if in.Desc().Bits != 0 {
		t.Fatalf("all-zero column should pack at width 0, got %d", in.Desc().Bits)
	}
	got, err := FixedRT(1).SelectAuto(in, bitutil.CmpEq, 0, columns.UncomprDesc)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != 100 {
		t.Fatalf("all positions should match, got %d", got.N())
	}
	none, err := FixedRT(1).SelectAuto(in, bitutil.CmpGt, 0, columns.UncomprDesc)
	if err != nil {
		t.Fatal(err)
	}
	if none.N() != 0 {
		t.Fatalf("no position should match, got %d", none.N())
	}
}

// TestSelectBetweenDirectMatchesGeneric checks the dispatched between
// against the generic reference, with bounds at and beyond the field range
// and an inverted range, on every input the dispatch distinguishes.
func TestSelectBetweenDirectMatchesGeneric(t *testing.T) {
	for _, di := range dispatchInputs(t) {
		m := di.max
		bounds := [][2]uint64{
			{0, 0}, {1, 3}, {0, m}, {m / 2, m}, {m, math.MaxUint64},
			{m + 1, math.MaxUint64}, {3, 1},
		}
		for _, par := range dispatchPars {
			rt := FixedRT(par)
			for _, bd := range bounds {
				ctx := fmt.Sprintf("%v p=%d [%d,%d]", di.in.Desc(), par, bd[0], bd[1])
				got, err := rt.SelectBetweenAuto(di.in, bd[0], bd[1], columns.DeltaBPDesc, 0, false)
				if err != nil {
					t.Fatalf("%s: %v", ctx, err)
				}
				want, err := genericBetween(rt, di.in, bd[0], bd[1], columns.DeltaBPDesc)
				if err != nil {
					t.Fatalf("%s: generic: %v", ctx, err)
				}
				assertSameColumn(t, ctx, want, got)
			}
		}
	}
}

// TestSumDirectVariants checks the dispatched sum against the streamed sum
// and the element-wise total on every input the dispatch distinguishes.
func TestSumDirectVariants(t *testing.T) {
	for _, di := range dispatchInputs(t) {
		var total uint64
		for _, v := range di.vals {
			total += v
		}
		for _, par := range dispatchPars {
			got, _, err := FixedRT(par).SumAuto(di.in)
			if err != nil {
				t.Fatalf("%v p=%d: %v", di.in.Desc(), par, err)
			}
			want, err := genericSum(FixedRT(par), di.in)
			if err != nil {
				t.Fatalf("%v p=%d: streamed: %v", di.in.Desc(), par, err)
			}
			if got != want || got != total {
				t.Fatalf("%v p=%d: sum = %d, streamed %d, element-wise %d", di.in.Desc(), par, got, want, total)
			}
		}
	}
}

func TestSelectRLEDirect(t *testing.T) {
	vals := []uint64{5, 5, 5, 2, 2, 9, 5, 5}
	in := mkCol(t, vals, columns.RLEDesc)
	got, err := FixedRT(1).SelectAuto(in, bitutil.CmpEq, 5, columns.UncomprDesc)
	if err != nil {
		t.Fatal(err)
	}
	if !equalU64(decode(t, got), []uint64{0, 1, 2, 6, 7}) {
		t.Fatalf("positions = %v", decode(t, got))
	}
}

// swarSelectAt runs the SWAR kernel itself on a static BP column at any SWAR
// width, the predicate normalised over the field range as SelectAuto does
// where it dispatches to it; val must fit the field.
func swarSelectAt(in *columns.Column, op bitutil.CmpKind, val uint64) (*columns.Column, error) {
	lo, span, empty, _ := op.Range(val, bitutil.Mask(uint(in.Desc().Bits)))
	return FixedRT(1).selectRange("select", in, columns.UncomprDesc, empty, swarSelect(in, lo, span))
}

// Property: the SWAR select kernel equals the scalar reference at every SWAR
// width — not only the ones the dispatch runs it at — on arbitrary values and
// predicates.
func TestSelectDirectProperty(t *testing.T) {
	f := func(raw []uint64, predRaw uint64, opRaw uint8, bitsIdx uint8) bool {
		widths := []uint{1, 2, 4, 8, 16, 32}
		bits := widths[int(bitsIdx)%len(widths)]
		vals := make([]uint64, len(raw))
		for i, v := range raw {
			vals[i] = v & bitutil.Mask(bits)
		}
		op := allOps[int(opRaw)%len(allOps)]
		pred := predRaw & bitutil.Mask(bits)
		in, err := formats.Compress(vals, columns.StaticBPDesc(bits))
		if err != nil {
			return false
		}
		got, err := swarSelectAt(in, op, pred)
		if err != nil {
			return false
		}
		g, err := formats.Decompress(got)
		if err != nil {
			return false
		}
		return equalU64(g, refSelect(vals, op, pred))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// benchDirectN is the row count of BenchmarkDirectKernels' columns.
const benchDirectN = 1 << 20

// BenchmarkDirectKernels is the A/B behind the kernel dispatch of SelectAuto
// and SumAuto (select.go, agg.go): each direct kernel against the generic
// path on the same benchDirectN-row column, one worker, in ns per element.
//
//   - select/wB/{swar,unpack}: the SWAR range test on the packed words of a
//     static BP column at width B against unpack + block kernel, at Q1.1's
//     discount selectivity (values 0..10 tested for [1, 3], ~27 %; widths 1
//     and 2 test == 0 over their whole field range, 50 % and 25 %);
//   - sum/rle/{direct,streamed}: the run dot product against decoding the
//     runs, runs of 1..16.
func BenchmarkDirectKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	column := func(desc columns.FormatDesc, gen func() uint64) *columns.Column {
		vals := make([]uint64, benchDirectN)
		for i := range vals {
			vals[i] = gen()
		}
		return mkCol(b, vals, desc)
	}
	rt := FixedRT(1)
	sel := func(in *columns.Column, k emitKernel) func() error {
		return func() error { _, err := rt.emitPositions("select", in, columns.DeltaBPDesc, k); return err }
	}
	sum := func(in *columns.Column, k reduceKernel) func() error {
		return func() error { _, err := rt.reduce("sum", in, nil, 1, k); return err }
	}
	type row struct {
		name string
		run  func() error
	}
	var rows []row
	for _, w := range []uint{1, 2, 4, 8, 16, 32} {
		mod, lo, span := uint64(11), uint64(1), uint64(2)
		if w < 4 {
			mod, lo, span = bitutil.Mask(w)+1, 0, 0
		}
		in := column(columns.StaticBPDesc(w), func() uint64 { return rng.Uint64() % mod })
		rows = append(rows,
			row{fmt.Sprintf("select/w%d/swar", w), sel(in, swarSelect(in, lo, span))},
			row{fmt.Sprintf("select/w%d/unpack", w), sel(in, scan(in, blockKernel(lo, span)))})
	}
	var runVal, runLeft uint64
	rle := column(columns.RLEDesc, func() uint64 {
		if runLeft == 0 {
			runVal, runLeft = rng.Uint64()%11, 1+rng.Uint64()%16
		}
		runLeft--
		return runVal
	})
	rows = append(rows,
		row{"sum/rle/direct", sum(rle, sumRLE(rle))},
		row{"sum/rle/streamed", sum(rle, sumStreamed(rle))})
	for _, r := range rows {
		b.Run(r.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := r.run(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/benchDirectN, "ns/elem")
		})
	}
}

func TestU64Map(t *testing.T) {
	m := newU64Map(nil, 4)
	for i := uint64(0); i < 1000; i++ {
		m.put(i*7, i)
	}
	for i := uint64(0); i < 1000; i++ {
		v, ok := m.get(i * 7)
		if !ok || v != i {
			t.Fatalf("get(%d) = %d,%v", i*7, v, ok)
		}
	}
	if _, ok := m.get(3); ok {
		t.Error("missing key found")
	}
	// Zero key works.
	m.put(0, 42)
	if v, ok := m.get(0); !ok || v != 42 {
		t.Error("zero key")
	}
	// Overwrite.
	m.put(7, 99)
	if v, _ := m.get(7); v != 99 {
		t.Error("overwrite failed")
	}
	// getOrPut.
	if v, ins := m.getOrPut(7, 1); ins || v != 99 {
		t.Error("getOrPut existing")
	}
	if v, ins := m.getOrPut(123456789, 5); !ins || v != 5 {
		t.Error("getOrPut new")
	}
}

func TestPairMap(t *testing.T) {
	m := newPairMap(nil, 4)
	n := uint64(0)
	for a := uint64(0); a < 50; a++ {
		for b := uint64(0); b < 20; b++ {
			if v, ins := m.getOrPutMixed(a*hashMul, a, b, n); !ins || v != n {
				t.Fatalf("insert (%d,%d)", a, b)
			}
			n++
		}
	}
	n = 0
	for a := uint64(0); a < 50; a++ {
		for b := uint64(0); b < 20; b++ {
			if v, ins := m.getOrPutMixed(a*hashMul, a, b, 9999); ins || v != n {
				t.Fatalf("lookup (%d,%d) = %d, want %d", a, b, v, n)
			}
			n++
		}
	}
}
