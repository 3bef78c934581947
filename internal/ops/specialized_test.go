package ops

import (
	"math/rand"
	"testing"
	"testing/quick"

	"morphstore/internal/bitutil"
	"morphstore/internal/columns"
	"morphstore/internal/formats"
)

// TestSelectDirectMatchesGeneric verifies the SWAR select on static BP
// agrees with the generic operator for every comparison and SWAR width.
func TestSelectDirectMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, bits := range []uint{1, 2, 4, 8, 16, 32} {
		n := 3000
		vals := make([]uint64, n)
		for i := range vals {
			vals[i] = rng.Uint64() & bitutil.Mask(bits)
		}
		in := mkCol(t, vals, columns.StaticBPDesc(bits))
		if !swarOK(in, 0) {
			t.Fatalf("bits=%d should support direct select", bits)
		}
		for _, op := range allOps {
			for _, val := range []uint64{0, 1, bitutil.Mask(bits) / 2, bitutil.Mask(bits), bitutil.Mask(bits) + 1, ^uint64(0)} {
				got, err := FixedRT(1).SelectAuto(in, op, val, columns.DeltaBPDesc, true)
				if err != nil {
					t.Fatalf("bits=%d %v val=%d: %v", bits, op, val, err)
				}
				want, err := FixedRT(1).SelectAuto(in, op, val, columns.DeltaBPDesc, false)
				if err != nil {
					t.Fatal(err)
				}
				if !equalU64(decode(t, got), decode(t, want)) {
					t.Fatalf("bits=%d %v val=%d: direct and generic disagree", bits, op, val)
				}
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
	got, err := FixedRT(1).SelectAuto(in, bitutil.CmpEq, 0, columns.UncomprDesc, true)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != 100 {
		t.Fatalf("all positions should match, got %d", got.N())
	}
	none, err := FixedRT(1).SelectAuto(in, bitutil.CmpGt, 0, columns.UncomprDesc, true)
	if err != nil {
		t.Fatal(err)
	}
	if none.N() != 0 {
		t.Fatalf("no position should match, got %d", none.N())
	}
}

func TestSelectBetweenDirectMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, bits := range []uint{2, 8, 16} {
		vals := make([]uint64, 2500)
		for i := range vals {
			vals[i] = rng.Uint64() & bitutil.Mask(bits)
		}
		in := mkCol(t, vals, columns.StaticBPDesc(bits))
		bounds := [][2]uint64{
			{0, 0}, {1, 3}, {0, bitutil.Mask(bits)},
			{bitutil.Mask(bits), ^uint64(0)}, {bitutil.Mask(bits) + 1, ^uint64(0)},
		}
		for _, b := range bounds {
			got, err := FixedRT(1).SelectBetweenAuto(in, b[0], b[1], columns.DeltaBPDesc, 0, true)
			if err != nil {
				t.Fatalf("bits=%d [%d,%d]: %v", bits, b[0], b[1], err)
			}
			want, err := FixedRT(1).SelectBetweenAuto(in, b[0], b[1], columns.DeltaBPDesc, 0, false)
			if err != nil {
				t.Fatal(err)
			}
			if !equalU64(decode(t, got), decode(t, want)) {
				t.Fatalf("bits=%d [%d,%d]: disagree", bits, b[0], b[1])
			}
		}
	}
}

func TestSumDirectVariants(t *testing.T) {
	vals := genVals(9000, 1<<14, 19)
	var want uint64
	for _, v := range vals {
		want += v
	}

	for _, desc := range []columns.FormatDesc{columns.StaticBPDesc(0), columns.DynBPDesc, columns.RLEDesc} {
		if got, _, err := FixedRT(1).SumAuto(mkCol(t, vals, desc), true); err != nil || got != want {
			t.Errorf("%v direct sum = %d (%v), want %d", desc, got, err, want)
		}
	}
}

func TestSelectRLEDirect(t *testing.T) {
	vals := []uint64{5, 5, 5, 2, 2, 9, 5, 5}
	in := mkCol(t, vals, columns.RLEDesc)
	got, err := FixedRT(1).SelectAuto(in, bitutil.CmpEq, 5, columns.UncomprDesc, true)
	if err != nil {
		t.Fatal(err)
	}
	if !equalU64(decode(t, got), []uint64{0, 1, 2, 6, 7}) {
		t.Fatalf("positions = %v", decode(t, got))
	}
}

func TestAutoDispatch(t *testing.T) {
	vals := genVals(5000, 256, 23)
	var want uint64
	for _, v := range vals {
		want += v
	}
	for _, desc := range formats.AllDescs() {
		c := mkCol(t, vals, desc)
		for _, specialized := range []bool{false, true} {
			got, _, err := FixedRT(1).SumAuto(c, specialized)
			if err != nil {
				t.Fatalf("%v specialized=%v: %v", desc, specialized, err)
			}
			if got != want {
				t.Fatalf("%v specialized=%v: sum = %d, want %d", desc, specialized, got, want)
			}
			sel, err := FixedRT(1).SelectAuto(c, bitutil.CmpLt, 100, columns.DeltaBPDesc, specialized)
			if err != nil {
				t.Fatalf("%v specialized=%v: %v", desc, specialized, err)
			}
			if !equalU64(decode(t, sel), refSelect(vals, bitutil.CmpLt, 100)) {
				t.Fatalf("%v specialized=%v: wrong select", desc, specialized)
			}
			bet, err := SelectBetweenAuto(c, 10, 90, columns.DeltaBPDesc, 0, specialized)
			if err != nil {
				t.Fatalf("%v specialized=%v: %v", desc, specialized, err)
			}
			var wantBet []uint64
			for i, v := range vals {
				if v >= 10 && v <= 90 {
					wantBet = append(wantBet, uint64(i))
				}
			}
			if !equalU64(decode(t, bet), wantBet) {
				t.Fatalf("%v specialized=%v: wrong between", desc, specialized)
			}
		}
	}
}

// Property: direct SWAR select equals scalar reference on arbitrary widths
// and predicates.
func TestSelectDirectProperty(t *testing.T) {
	f := func(raw []uint64, predRaw uint64, opRaw uint8, bitsIdx uint8) bool {
		widths := []uint{1, 2, 4, 8, 16, 32}
		bits := widths[int(bitsIdx)%len(widths)]
		vals := make([]uint64, len(raw))
		for i, v := range raw {
			vals[i] = v & bitutil.Mask(bits)
		}
		op := allOps[int(opRaw)%len(allOps)]
		pred := predRaw & bitutil.Mask(bits+1) // sometimes out of field range
		in, err := formats.Compress(vals, columns.StaticBPDesc(bits))
		if err != nil {
			return false
		}
		got, err := FixedRT(1).SelectAuto(in, op, pred, columns.UncomprDesc, true)
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

func TestU64Map(t *testing.T) {
	m := newU64Map(4)
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
	m := newPairMap(4)
	n := uint64(0)
	for a := uint64(0); a < 50; a++ {
		for b := uint64(0); b < 20; b++ {
			if v, ins := m.getOrPut(a, b, n); !ins || v != n {
				t.Fatalf("insert (%d,%d)", a, b)
			}
			n++
		}
	}
	n = 0
	for a := uint64(0); a < 50; a++ {
		for b := uint64(0); b < 20; b++ {
			if v, ins := m.getOrPut(a, b, 9999); ins || v != n {
				t.Fatalf("lookup (%d,%d) = %d, want %d", a, b, v, n)
			}
			n++
		}
	}
}
