package ops

import (
	"errors"
	"testing"

	"morphstore/internal/bitutil"
	"morphstore/internal/columns"
	"morphstore/internal/formats"
	"morphstore/internal/qerr"
)

// selectInReference computes the expected positions with plain Go.
func selectInReference(vals []uint64, set []uint64) []uint64 {
	member := make(map[uint64]bool, len(set))
	for _, s := range set {
		member[s] = true
	}
	var out []uint64
	for i, v := range vals {
		if member[v] {
			out = append(out, uint64(i))
		}
	}
	return out
}

// TestSelectInEquivalence checks the membership probe over every input
// format x output format x parallelism x kernel path against both the
// plain-Go reference and byte-identity with the sequential operator, for
// dense sets (the join's direct-address table, probed by bitutil.ProbeDense)
// of one to forty keys, a sparse one (its hash map) and the empty set.
func TestSelectInEquivalence(t *testing.T) {
	vals := parTestValues(parTestN)
	tens := make([]uint64, 0, 40)
	for v := uint64(0); v < 400; v += 10 {
		tens = append(tens, v)
	}
	sets := [][]uint64{
		{},
		{131},
		{3, 77, 250, 444},
		{1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 499},
		tens,
		{131, 1 << 40},
	}
	inputs := make(map[columns.Kind]*columns.Column)
	for _, d := range formats.AllDescs() {
		col, err := formats.Compress(vals, d)
		if err != nil {
			t.Fatal(err)
		}
		inputs[d.Kind] = col
	}
	eachKernelPath(func(path string) {
		for _, inDesc := range formats.AllDescs() {
			in := inputs[inDesc.Kind]
			for _, outDesc := range formats.AllDescs() {
				for si, set := range sets {
					ctx := path + ": " + inDesc.String() + "->" + outDesc.String()
					seq, err := FixedRT(1).SelectIn(in, set, outDesc)
					if err != nil {
						t.Fatalf("select in %s set=%d: %v", ctx, si, err)
					}
					wantPos := selectInReference(vals, set)
					gotPos, err := formats.Decompress(seq)
					if err != nil {
						t.Fatal(err)
					}
					if len(gotPos) != len(wantPos) {
						t.Fatalf("select in %s set=%d: %d positions, want %d", ctx, si, len(gotPos), len(wantPos))
					}
					for i := range wantPos {
						if gotPos[i] != wantPos[i] {
							t.Fatalf("select in %s set=%d: pos[%d]=%d, want %d", ctx, si, i, gotPos[i], wantPos[i])
						}
					}
					for _, par := range parLevels {
						got, err := FixedRT(par).SelectIn(in, set, outDesc)
						if err != nil {
							t.Fatalf("par select in %s set=%d p=%d: %v", ctx, si, par, err)
						}
						assertSameColumn(t, "select in "+ctx, seq, got)
					}
				}
			}
		}
	})
}

// TestSelectInMatchesSelect checks the cross-kernel identity the string
// layer relies on: a one-element set produces the same bytes as an equality
// select, and a contiguous set the same bytes as a range select.
func TestSelectInMatchesSelect(t *testing.T) {
	vals := parTestValues(parTestN)
	in := columns.FromValues(vals)
	for _, outDesc := range formats.PaperDescs() {
		eq, err := FixedRT(1).SelectAuto(in, bitutil.CmpEq, 131, outDesc)
		if err != nil {
			t.Fatal(err)
		}
		got, err := FixedRT(1).SelectIn(in, []uint64{131}, outDesc)
		if err != nil {
			t.Fatal(err)
		}
		assertSameColumn(t, "eq "+outDesc.String(), eq, got)

		bet, err := FixedRT(1).SelectBetweenAuto(in, 100, 120, outDesc, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		contig := make([]uint64, 0, 21)
		for v := uint64(100); v <= 120; v++ {
			contig = append(contig, v)
		}
		got, err = FixedRT(1).SelectIn(in, contig, outDesc)
		if err != nil {
			t.Fatal(err)
		}
		assertSameColumn(t, "range "+outDesc.String(), bet, got)
	}
}

func TestSelectInRejectsUnsortedSet(t *testing.T) {
	in := columns.FromValues([]uint64{1, 2, 3})
	for _, set := range [][]uint64{{5, 3}, {3, 3}} {
		if _, err := FixedRT(1).SelectIn(in, set, columns.UncomprDesc); !errors.Is(err, qerr.ErrInvalidSchema) {
			t.Fatalf("set %v: err = %v, want ErrInvalidSchema", set, err)
		}
		if _, err := FixedRT(2).SelectIn(in, set, columns.UncomprDesc); !errors.Is(err, qerr.ErrInvalidSchema) {
			t.Fatalf("par set %v: err = %v, want ErrInvalidSchema", set, err)
		}
	}
}
