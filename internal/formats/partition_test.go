package formats

import (
	"errors"
	"math/rand"
	"testing"

	"morphstore/internal/columns"
)

// sectionTestValues generates a deterministic value mix that every format
// represents: small values with occasional outliers, plus sorted stretches.
func sectionTestValues(n int) []uint64 {
	rng := rand.New(rand.NewSource(7))
	vals := make([]uint64, n)
	for i := range vals {
		switch {
		case i%97 == 0:
			vals[i] = uint64(rng.Intn(1 << 30))
		case i%5 == 0:
			vals[i] = uint64(i)
		default:
			vals[i] = uint64(rng.Intn(1024))
		}
	}
	return vals
}

func TestSplitColumnCoversColumn(t *testing.T) {
	n := 13*BlockLen + 123 // deliberately not block-aligned
	vals := sectionTestValues(n)
	for _, desc := range AllDescs() {
		col, err := Compress(vals, desc)
		if err != nil {
			t.Fatalf("%v: %v", desc, err)
		}
		for p := 1; p <= 9; p++ {
			parts := SplitColumn(col, p)
			if desc.Kind == columns.RLE {
				if parts != nil {
					t.Fatalf("RLE must not be partitionable, got %v", parts)
				}
				continue
			}
			if p <= 1 {
				if parts != nil {
					t.Fatalf("%v: p=1 must yield nil, got %v", desc, parts)
				}
				continue
			}
			if parts == nil {
				t.Fatalf("%v: p=%d yielded no partitions for n=%d", desc, p, n)
			}
			for _, pt := range parts[:len(parts)-1] {
				if pt.Count < MinMorsel {
					t.Fatalf("%v p=%d: morsel %v below minimum %d", desc, p, pt, MinMorsel)
				}
			}
			align := partitionAlign(desc.Kind)
			next := 0
			for _, pt := range parts {
				if pt.Start != next {
					t.Fatalf("%v p=%d: gap at %d (partition starts at %d)", desc, p, next, pt.Start)
				}
				if pt.Start%align != 0 {
					t.Fatalf("%v p=%d: start %d not aligned to %d", desc, p, pt.Start, align)
				}
				if pt.Count <= 0 {
					t.Fatalf("%v p=%d: empty partition at %d", desc, p, pt.Start)
				}
				next = pt.Start + pt.Count
			}
			if next != n {
				t.Fatalf("%v p=%d: partitions cover %d of %d elements", desc, p, next, n)
			}
			if len(parts) > p {
				t.Fatalf("%v p=%d: got %d partitions", desc, p, len(parts))
			}
		}
	}
}

// TestSplitColumnsAligned checks that the shared boundaries of a dual split
// respect both formats' alignments, cover the columns exactly, and that
// non-partitionable or mismatched pairs refuse to split.
func TestSplitColumnsAligned(t *testing.T) {
	n := 13*BlockLen + 123
	vals := sectionTestValues(n)
	for _, descA := range AllDescs() {
		a, err := Compress(vals, descA)
		if err != nil {
			t.Fatalf("%v: %v", descA, err)
		}
		for _, descB := range AllDescs() {
			b, err := Compress(vals, descB)
			if err != nil {
				t.Fatalf("%v: %v", descB, err)
			}
			for _, p := range []int{2, 3, 8, n/BlockLen + 2} {
				parts := splitColumnsAligned(a, b, p)
				if partitionAlign(descA.Kind) == 0 || partitionAlign(descB.Kind) == 0 {
					if parts != nil {
						t.Fatalf("%v+%v: non-partitionable pair split into %v", descA, descB, parts)
					}
					continue
				}
				if parts == nil {
					t.Fatalf("%v+%v p=%d: no partitions for n=%d", descA, descB, p, n)
				}
				alignA := partitionAlign(descA.Kind)
				alignB := partitionAlign(descB.Kind)
				next := 0
				for _, pt := range parts {
					if pt.Start != next {
						t.Fatalf("%v+%v p=%d: gap at %d", descA, descB, p, next)
					}
					if pt.Start%alignA != 0 || pt.Start%alignB != 0 {
						t.Fatalf("%v+%v p=%d: start %d not aligned to %d/%d",
							descA, descB, p, pt.Start, alignA, alignB)
					}
					next = pt.Start + pt.Count
				}
				if next != n {
					t.Fatalf("%v+%v p=%d: partitions cover %d of %d", descA, descB, p, next, n)
				}
			}
		}
	}
	// Length mismatch must refuse to split.
	short, err := Compress(vals[:n-1], columns.UncomprDesc)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Compress(vals, columns.UncomprDesc)
	if err != nil {
		t.Fatal(err)
	}
	if parts := splitColumnsAligned(full, short, 4); parts != nil {
		t.Fatalf("mismatched lengths split into %v", parts)
	}
}

func TestSectionReaderMatchesFullDecode(t *testing.T) {
	n := 15*BlockLen + 301
	vals := sectionTestValues(n)
	for _, desc := range AllDescs() {
		if partitionAlign(desc.Kind) == 0 {
			continue
		}
		col, err := Compress(vals, desc)
		if err != nil {
			t.Fatalf("%v: %v", desc, err)
		}
		for _, p := range []int{2, 3, 8} {
			parts := SplitColumn(col, p)
			for _, pt := range parts {
				r, err := NewSectionReader(col, pt.Start, pt.Count)
				if err != nil {
					t.Fatalf("%v p=%d section %v: %v", desc, p, pt, err)
				}
				got := make([]uint64, 0, pt.Count)
				buf := make([]uint64, BufferLen)
				for {
					k, err := r.Read(buf)
					if err != nil {
						t.Fatalf("%v p=%d section %v: %v", desc, p, pt, err)
					}
					if k == 0 {
						break
					}
					got = append(got, buf[:k]...)
				}
				want := vals[pt.Start : pt.Start+pt.Count]
				if len(got) != len(want) {
					t.Fatalf("%v p=%d section %v: got %d elements, want %d", desc, p, pt, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%v p=%d section %v: element %d = %d, want %d", desc, p, pt, i, got[i], want[i])
					}
				}
			}
		}
	}
}

func TestSectionReaderRejectsMisuse(t *testing.T) {
	vals := sectionTestValues(3 * BlockLen)
	dyn, err := Compress(vals, columns.DynBPDesc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSectionReader(dyn, 5, 100); err == nil {
		t.Fatal("unaligned start must be rejected")
	}
	if _, err := NewSectionReader(dyn, 0, len(vals)+1); err == nil {
		t.Fatal("out-of-range section must be rejected")
	}
	rle, err := Compress(vals, columns.RLEDesc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSectionReader(rle, 0, len(vals)); err == nil {
		t.Fatal("RLE section read must be rejected")
	}
	// A section ending inside a block of the compressed main part.
	r, err := NewSectionReader(dyn, 0, BlockLen+100)
	if err == nil {
		_, err = r.Read(make([]uint64, BufferLen))
	}
	if err == nil {
		t.Fatal("section end inside a block must be rejected")
	}
	// A truncated static BP column: typed corruption from the constructor or
	// the first Read, never an out-of-range slice access.
	r, err = NewSectionReader(truncatedStaticBP(t), 4096, 4096)
	if err == nil {
		_, err = r.Read(make([]uint64, BufferLen))
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated static BP section: want ErrCorrupt, got %v", err)
	}
}
