package ops

import (
	"math/rand"
	"testing"
	"testing/quick"

	"morphstore/internal/bitutil"
	"morphstore/internal/columns"
	"morphstore/internal/formats"
)

// TestPositionWidthHint verifies that selections with an auto-width static
// BP output derive the width from the input length (positions < n) and that
// the resulting column still decodes correctly.
func TestPositionWidthHint(t *testing.T) {
	vals := genVals(100000, 10, 41)
	in := mkCol(t, vals, columns.UncomprDesc)
	got, err := FixedRT(1).SelectAuto(in, bitutil.CmpLt, 5, columns.StaticBPDesc(0))
	if err != nil {
		t.Fatal(err)
	}
	if got.Desc().Kind != columns.StaticBP {
		t.Fatalf("kind = %v", got.Desc())
	}
	// 100000 positions need 17 bits.
	if got.Desc().Bits != 17 {
		t.Fatalf("bits = %d, want 17", got.Desc().Bits)
	}
	if !equalU64(decode(t, got), refSelect(vals, bitutil.CmpLt, 5)) {
		t.Fatal("wrong positions")
	}
}

// TestPositionWidthHintJoin checks both join outputs get their own domain.
func TestPositionWidthHintJoin(t *testing.T) {
	probe := genVals(70000, 50, 43)
	build := make([]uint64, 50)
	for i := range build {
		build[i] = uint64(i)
	}
	pc := mkCol(t, probe, columns.UncomprDesc)
	bc := mkCol(t, build, columns.UncomprDesc)
	pp, bp, err := JoinN1(pc, bc, columns.StaticBPDesc(0), columns.StaticBPDesc(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	if pp.Desc().Bits != 17 { // probe positions < 70000
		t.Errorf("probe bits = %d, want 17", pp.Desc().Bits)
	}
	if bp.Desc().Bits != 6 { // build positions < 50
		t.Errorf("build bits = %d, want 6", bp.Desc().Bits)
	}
}

// Property: Select agrees with the reference on every input format for
// arbitrary data and operators, in the same bytes on both kernel paths.
func TestSelectEquivalenceProperty(t *testing.T) {
	descs := formats.AllDescs()
	f := func(raw []uint64, pred uint64, opRaw, descRaw uint8) bool {
		vals := make([]uint64, len(raw))
		for i, v := range raw {
			vals[i] = v % 1000
		}
		pred %= 1000
		op := allOps[int(opRaw)%len(allOps)]
		desc := descs[int(descRaw)%len(descs)]
		in, err := formats.Compress(vals, desc)
		if err != nil {
			return false
		}
		want := refSelect(vals, op, pred)
		var first *columns.Column
		ok := true
		eachKernelPath(func(string) {
			got, err := FixedRT(1).SelectAuto(in, op, pred, columns.DeltaBPDesc)
			if err != nil {
				ok = false
				return
			}
			dec, err := formats.Decompress(got)
			if err != nil || !equalU64(dec, want) {
				ok = false
			}
			if first == nil {
				first = got
			} else if got.Desc() != first.Desc() || !equalU64(got.Words(), first.Words()) {
				ok = false // the two kernel paths wrote different bytes
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Property: Intersect(a, b) == Intersect(b, a), is sorted, and contains
// exactly the common positions.
func TestIntersectProperty(t *testing.T) {
	f := func(rawA, rawB []uint16) bool {
		a := sortedUnique(rawA)
		b := sortedUnique(rawB)
		ca := mkColQuick(a)
		cb := mkColQuick(b)
		ab, err := FixedRT(1).Intersect(ca, cb, columns.DeltaBPDesc)
		if err != nil {
			return false
		}
		ba, err := FixedRT(1).Intersect(cb, ca, columns.DynBPDesc)
		if err != nil {
			return false
		}
		x, err := formats.Decompress(ab)
		if err != nil {
			return false
		}
		y, err := formats.Decompress(ba)
		if err != nil {
			return false
		}
		if !equalU64(x, y) {
			return false
		}
		inB := map[uint64]bool{}
		for _, v := range b {
			inB[v] = true
		}
		var want []uint64
		for _, v := range a {
			if inB[v] {
				want = append(want, v)
			}
		}
		return equalU64(x, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: Merge is the sorted union without duplicates.
func TestMergeProperty(t *testing.T) {
	f := func(rawA, rawB []uint16) bool {
		a := sortedUnique(rawA)
		b := sortedUnique(rawB)
		m, err := FixedRT(1).Merge(mkColQuick(a), mkColQuick(b), columns.UncomprDesc)
		if err != nil {
			return false
		}
		got, _ := m.Values()
		seen := map[uint64]bool{}
		for _, v := range append(append([]uint64{}, a...), b...) {
			seen[v] = true
		}
		if len(got) != len(seen) {
			return false
		}
		for i, v := range got {
			if !seen[v] {
				return false
			}
			if i > 0 && got[i-1] >= v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: group ids are dense, extents point at first occurrences, and
// grouped sums add up to the whole-column sum.
func TestGroupSumProperty(t *testing.T) {
	f := func(rawKeys []uint8, rawVals []uint16) bool {
		n := len(rawKeys)
		if len(rawVals) < n {
			n = len(rawVals)
		}
		keys := make([]uint64, n)
		vals := make([]uint64, n)
		var total uint64
		for i := 0; i < n; i++ {
			keys[i] = uint64(rawKeys[i] % 17)
			vals[i] = uint64(rawVals[i])
			total += vals[i]
		}
		gids, extents, err := FixedRT(1).GroupFirst(mkColQuick(keys), columns.DynBPDesc, columns.UncomprDesc)
		if err != nil {
			return false
		}
		sums, err := FixedRT(1).SumGrouped(gids, mkColQuick(vals), extents.N())
		if err != nil {
			return false
		}
		sv, _ := sums.Values()
		var got uint64
		for _, s := range sv {
			got += s
		}
		if got != total {
			return false
		}
		// Extents must be positions of first occurrences in ascending order
		// of group id; decoding keys at extents must yield distinct values.
		ev, err := formats.Decompress(extents)
		if err != nil {
			return false
		}
		seen := map[uint64]bool{}
		for _, e := range ev {
			k := keys[e]
			if seen[k] {
				return false
			}
			seen[k] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Property: project(identity positions) is the identity.
func TestProjectIdentityProperty(t *testing.T) {
	f := func(raw []uint64) bool {
		pos := make([]uint64, len(raw))
		for i := range pos {
			pos[i] = uint64(i)
		}
		data := mkColQuick(raw)
		out, err := FixedRT(1).Project(data, mkColQuick(pos), columns.UncomprDesc)
		if err != nil {
			return false
		}
		got, _ := out.Values()
		return equalU64(got, raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestReadersAfterPartialConsumption exercises operators over inputs whose
// readers return short blocks (remainder boundaries).
func TestRemainderBoundaryOps(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for _, n := range []int{511, 512, 513, 1023, 1025, 2047, 2049} {
		vals := make([]uint64, n)
		for i := range vals {
			vals[i] = uint64(rng.Intn(100))
		}
		for _, desc := range []columns.FormatDesc{columns.DynBPDesc, columns.DeltaBPDesc, columns.ForBPDesc} {
			in := mkCol(t, vals, desc)
			got, err := FixedRT(1).SelectAuto(in, bitutil.CmpLt, 50, columns.DynBPDesc)
			if err != nil {
				t.Fatalf("n=%d %v: %v", n, desc, err)
			}
			if !equalU64(decode(t, got), refSelect(vals, bitutil.CmpLt, 50)) {
				t.Fatalf("n=%d %v: wrong result at remainder boundary", n, desc)
			}
			s, _, err := FixedRT(1).SumAuto(in)
			if err != nil {
				t.Fatal(err)
			}
			var want uint64
			for _, v := range vals {
				want += v
			}
			if s != want {
				t.Fatalf("n=%d %v: sum %d != %d", n, desc, s, want)
			}
		}
	}
}

func sortedUnique(raw []uint16) []uint64 {
	seen := map[uint64]bool{}
	for _, v := range raw {
		seen[uint64(v)] = true
	}
	out := make([]uint64, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1] > out[j]; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

func mkColQuick(vals []uint64) *columns.Column {
	c := make([]uint64, len(vals))
	copy(c, vals)
	return columns.FromValues(c)
}
