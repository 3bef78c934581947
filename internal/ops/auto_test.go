package ops

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"morphstore/internal/bitutil"
	"morphstore/internal/columns"
	"morphstore/internal/formats"
)

// The Auto operators run one kernel whatever their input's format. These
// tests keep the input shapes that once had kernels of their own — static BP
// at widths 1 and 2 (among every width up to 32), an all-zero column at width
// 0, RLE — and check SelectAuto, SelectBetweenAuto and SumAuto on them against
// the element-wise reference, on both kernel paths, unsplit and in morsels.

// autoN is the row count of the inputs: at par 2 they split into morsels, the
// last ending inside a packed word.
const autoN = 2*formats.MinMorsel + 100

// autoPars are the worker counts the tests run at: one morsel, and two.
var autoPars = []int{1, 2}

// autoInput is one input shape, with its values.
type autoInput struct {
	in   *columns.Column
	vals []uint64
	max  uint64 // largest value the format's fields hold
}

// autoInputs returns static BP at every width 0..32 (width 0 all zero) plus
// RLE (runs of 5) and DynBP, each autoN rows of values in its field range.
func autoInputs(t *testing.T) []autoInput {
	t.Helper()
	rng := rand.New(rand.NewSource(13))
	gen := func(w uint, run int) []uint64 {
		vals := make([]uint64, autoN)
		for i := range vals {
			if i%run == 0 {
				vals[i] = rng.Uint64() & bitutil.Mask(w)
			} else {
				vals[i] = vals[i-1]
			}
		}
		return vals
	}
	var ins []autoInput
	add := func(desc columns.FormatDesc, w uint, run int) {
		vals := gen(w, run)
		ins = append(ins, autoInput{mkCol(t, vals, desc), vals, bitutil.Mask(w)})
	}
	for w := uint(0); w <= 32; w++ {
		add(columns.StaticBPDesc(w), w, 1)
	}
	add(columns.RLEDesc, 8, 5)
	add(columns.DynBPDesc, 8, 1)
	return ins
}

// TestAutoDispatch checks SumAuto, SelectAuto and SelectBetweenAuto of every
// format against the element-wise reference.
func TestAutoDispatch(t *testing.T) {
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
		for _, par := range autoPars {
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

// TestSelectDirectMatchesGeneric checks SelectAuto against the element-wise
// reference for every comparison, with constants at and beyond both ends of
// the field range, on every input shape; both kernel paths write the same
// bytes.
func TestSelectDirectMatchesGeneric(t *testing.T) {
	for _, di := range autoInputs(t) {
		for _, par := range autoPars {
			for _, op := range allOps {
				for _, val := range []uint64{0, 1, di.max / 2, di.max, di.max + 1, math.MaxUint64} {
					ctx := fmt.Sprintf("%v p=%d %v %d", di.in.Desc(), par, op, val)
					want := refSelect(di.vals, op, val)
					checkPaths(t, ctx, want, func() (*columns.Column, error) {
						return FixedRT(par).SelectAuto(di.in, op, val, columns.DeltaBPDesc)
					})
				}
			}
		}
	}
}

// checkPaths runs a position-list operator on both kernel paths and checks
// that each returns the positions want, and that the two write the same
// bytes.
func checkPaths(t *testing.T, ctx string, want []uint64, run func() (*columns.Column, error)) {
	t.Helper()
	var first *columns.Column
	eachKernelPath(func(path string) {
		got, err := run()
		if err != nil {
			t.Fatalf("%s: %s: %v", path, ctx, err)
		}
		if !equalU64(decode(t, got), want) {
			t.Fatalf("%s: %s: %d positions, want %d", path, ctx, got.N(), len(want))
		}
		if first == nil {
			first = got
		} else {
			assertSameColumn(t, path+": "+ctx, first, got)
		}
	})
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

// TestSelectBetweenDirectMatchesGeneric checks SelectBetweenAuto against the
// element-wise reference, with bounds at and beyond the field range and an
// inverted range, on every input shape and both kernel paths.
func TestSelectBetweenDirectMatchesGeneric(t *testing.T) {
	for _, di := range autoInputs(t) {
		m := di.max
		bounds := [][2]uint64{
			{0, 0}, {1, 3}, {0, m}, {m / 2, m}, {m, math.MaxUint64},
			{m + 1, math.MaxUint64}, {3, 1},
		}
		for _, par := range autoPars {
			for _, bd := range bounds {
				var want []uint64
				for i, v := range di.vals {
					if bd[0] <= v && v <= bd[1] {
						want = append(want, uint64(i))
					}
				}
				ctx := fmt.Sprintf("%v p=%d [%d,%d]", di.in.Desc(), par, bd[0], bd[1])
				checkPaths(t, ctx, want, func() (*columns.Column, error) {
					return FixedRT(par).SelectBetweenAuto(di.in, bd[0], bd[1], columns.DeltaBPDesc, 0, false)
				})
			}
		}
	}
}

// TestSumDirectVariants checks SumAuto against the element-wise total on
// every input shape and both kernel paths.
func TestSumDirectVariants(t *testing.T) {
	for _, di := range autoInputs(t) {
		var total uint64
		for _, v := range di.vals {
			total += v
		}
		for _, par := range autoPars {
			eachKernelPath(func(path string) {
				got, _, err := FixedRT(par).SumAuto(di.in)
				if err != nil || got != total {
					t.Fatalf("%s: %v p=%d: sum = %d (%v), element-wise %d", path, di.in.Desc(), par, got, err, total)
				}
			})
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

// Property: SelectAuto on static BP at widths 1 to 32 equals the scalar
// reference on arbitrary values and predicates, on both kernel paths.
func TestSelectDirectProperty(t *testing.T) {
	f := func(raw []uint64, predRaw uint64, opRaw uint8, bitsIdx uint8) bool {
		bits := 1 + uint(bitsIdx)%32
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
		ok := true
		eachKernelPath(func(string) {
			got, err := FixedRT(1).SelectAuto(in, op, pred, columns.UncomprDesc)
			if err != nil {
				ok = false
				return
			}
			g, err := formats.Decompress(got)
			ok = ok && err == nil && equalU64(g, refSelect(vals, op, pred))
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
