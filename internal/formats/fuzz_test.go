package formats

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"morphstore/internal/columns"
)

// The fuzz targets drive the decompression and concatenation entry points
// with structurally arbitrary columns: any bit pattern a corrupted file or a
// buggy writer could produce. The contract under test is the robustness
// guarantee of the codec layer — no panic, no out-of-range access, every
// rejection a typed ErrCorrupt — plus, when a column does decode, agreement
// between the one-shot and the streaming decoder.

// fuzzDescs are the format candidates a fuzz input selects from; the static
// BP width comes from the input too (including out-of-range values).
func fuzzDesc(kindSel, bits uint8) columns.FormatDesc {
	switch kindSel % 5 {
	case 0:
		return columns.DynBPDesc
	case 1:
		return columns.DeltaBPDesc
	case 2:
		return columns.ForBPDesc
	case 3:
		return columns.RLEDesc
	default:
		return columns.StaticBPDesc(uint(bits))
	}
}

// fuzzColumn assembles a column of the selected format from raw fuzzed words,
// or nil when the extents cannot form a column at all (columns.New rejects
// them before any codec sees the buffer).
func fuzzColumn(kindSel, bits uint8, n, mainElems uint16, data []byte) *columns.Column {
	nn, me := int(n), int(mainElems)
	if me > nn {
		me = nn
	}
	if len(data) > 1<<19 { // bound memory, not coverage: ~64K words suffice
		data = data[:1<<19]
	}
	words := make([]uint64, len(data)/8)
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(data[i*8:])
	}
	mainWords := len(words) - (nn - me)
	if mainWords < 0 {
		return nil
	}
	col, err := columns.New(fuzzDesc(kindSel, bits), nn, me, mainWords, words)
	if err != nil {
		return nil
	}
	return col
}

// seedColumn compresses vals into desc and registers the resulting valid
// column as a fuzz seed, so mutation starts from well-formed inputs.
func seedColumn(f *testing.F, vals []uint64, kindSel uint8) {
	col, err := Compress(vals, fuzzDesc(kindSel, 0))
	if err != nil {
		f.Fatal(err)
	}
	data := make([]byte, 8*len(col.Words()))
	for i, w := range col.Words() {
		binary.LittleEndian.PutUint64(data[i*8:], w)
	}
	f.Add(kindSel, col.Desc().Bits, uint16(col.N()), uint16(col.MainElems()), data)
}

func fuzzSeedValues() [][]uint64 {
	sorted := make([]uint64, 1500)
	for i := range sorted {
		sorted[i] = uint64(3 * i)
	}
	runs := make([]uint64, 1300)
	for i := range runs {
		runs[i] = uint64(i / 97)
	}
	// Small seeds (≤ 64 values) next to the whole-column ones: a mutation of
	// a one-block or one-group column reaches a decoder's header and length
	// checks in a few bytes.
	smallSorted := make([]uint64, 40)
	for i := range smallSorted {
		smallSorted[i] = uint64(3 * i)
	}
	smallRuns := make([]uint64, 60)
	for i := range smallRuns {
		smallRuns[i] = uint64(i / 20)
	}
	outlier := make([]uint64, 33)
	for i := range outlier {
		outlier[i] = uint64(i % 5)
	}
	outlier[17] = 1 << 40
	// One whole block and no remainder: a blocked main that ends the buffer.
	block := make([]uint64, BlockLen)
	for i := range block {
		block[i] = uint64(i * i)
	}
	return [][]uint64{sorted, runs, {7}, {}, smallSorted, smallRuns, outlier, {1 << 63, 0}, block}
}

func FuzzDecompress(f *testing.F) {
	for _, vals := range fuzzSeedValues() {
		for kindSel := uint8(0); kindSel < 5; kindSel++ {
			seedColumn(f, vals, kindSel)
		}
	}
	f.Fuzz(func(t *testing.T, kindSel, bits uint8, n, mainElems uint16, data []byte) {
		col := fuzzColumn(kindSel, bits, n, mainElems, data)
		if col == nil {
			return
		}
		dec, err := Decompress(col)
		if err != nil {
			return // a rejection is fine; a panic would have failed the run
		}
		// The streaming reader must agree with the one-shot decoder on any
		// column the one-shot decoder accepts.
		r, err := NewReader(col)
		if err != nil {
			t.Fatalf("NewReader after successful Decompress: %v", err)
		}
		got := make([]uint64, 0, col.N())
		buf := make([]uint64, BlockLen)
		for len(got) < col.N() {
			k, err := r.Read(buf)
			if err != nil {
				t.Fatalf("Read after successful Decompress: %v", err)
			}
			if k == 0 {
				break
			}
			got = append(got, buf[:k]...)
		}
		if len(got) != len(dec) {
			t.Fatalf("reader yielded %d elements, Decompress %d", len(got), len(dec))
		}
		for i := range got {
			if got[i] != dec[i] {
				t.Fatalf("reader disagrees with Decompress at element %d: %d != %d", i, got[i], dec[i])
			}
		}
	})
}

// FuzzConcatCorrupt complements concat_test.go's FuzzConcatCompressed (valid
// parts, arbitrary split points) with structurally arbitrary parts: the
// concatenation must reject or survive corrupt inputs, never panic.
func FuzzConcatCorrupt(f *testing.F) {
	for _, vals := range fuzzSeedValues() {
		for kindSel := uint8(0); kindSel < 5; kindSel++ {
			col, err := Compress(vals, fuzzDesc(kindSel, 0))
			if err != nil {
				f.Fatal(err)
			}
			data := make([]byte, 8*len(col.Words()))
			for i, w := range col.Words() {
				binary.LittleEndian.PutUint64(data[i*8:], w)
			}
			f.Add(kindSel, col.Desc().Bits,
				uint16(col.N()), uint16(col.MainElems()), data,
				uint16(col.N()), uint16(col.MainElems()), data)
		}
	}
	f.Fuzz(func(t *testing.T, kindSel, bits uint8, n1, m1 uint16, data1 []byte, n2, m2 uint16, data2 []byte) {
		a := fuzzColumn(kindSel, bits, n1, m1, data1)
		b := fuzzColumn(kindSel, bits, n2, m2, data2)
		if a == nil || b == nil {
			return
		}
		da, errA := Decompress(a)
		db, errB := Decompress(b)
		cat, err := ConcatCompressed(a.Desc(), []*columns.Column{a, b})
		if err != nil {
			if errA == nil && errB == nil && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("concat of two valid parts failed non-corrupt: %v", err)
			}
			return
		}
		if errA != nil || errB != nil {
			return // garbage in, unspecified out — only panics are failures
		}
		dc, err := Decompress(cat)
		if err != nil {
			t.Fatalf("decompress of concat result: %v", err)
		}
		want := append(append([]uint64{}, da...), db...)
		if len(dc) != len(want) {
			t.Fatalf("concat of %d and %d elements yielded %d", len(da), len(db), len(dc))
		}
		for i := range want {
			if dc[i] != want[i] {
				t.Fatalf("concat disagrees at element %d: %d != %d", i, dc[i], want[i])
			}
		}
	})
}

// TestFuzzSeedsRoundTrip runs every fuzz seed through the FuzzDecompress body
// deterministically, so `go test` exercises the harness without -fuzz.
func TestFuzzSeedsRoundTrip(t *testing.T) {
	for _, vals := range fuzzSeedValues() {
		for kindSel := uint8(0); kindSel < 5; kindSel++ {
			col, err := Compress(vals, fuzzDesc(kindSel, 0))
			if err != nil {
				t.Fatal(err)
			}
			dec, err := Decompress(col)
			if err != nil {
				t.Fatal(err)
			}
			if len(dec) != len(vals) || (len(vals) > 0 && !bytes.Equal(u64bytes(dec), u64bytes(vals))) {
				t.Fatalf("round trip of %d elements via %v failed", len(vals), col.Desc())
			}
		}
	}
}

func u64bytes(vals []uint64) []byte {
	out := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(out[i*8:], v)
	}
	return out
}
