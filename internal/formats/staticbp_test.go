package formats

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"morphstore/internal/bitutil"
	"morphstore/internal/bufpool"
	"morphstore/internal/columns"
)

// TestStaticBPWidenMatchesPack: the auto-width writer packs at the running
// maximum and widens what it has packed when a chunk needs more bits. Fed any
// input in any chunking, it must end with exactly the column Pack produces at
// the width of the whole input: same descriptor, element count and words. An
// explicit-width writer fed the same input plus one wider value must reject
// that value.
func TestStaticBPWidenMatchesPack(t *testing.T) {
	const n = 78*64 + 8 // not a multiple of 64: the last group is partial
	rng := rand.New(rand.NewSource(30))
	inputs := []struct {
		name string
		gen  func(n int, m uint64) []uint64 // m: the mask of the target width
	}{
		{"random", func(n int, m uint64) []uint64 {
			vals := make([]uint64, n)
			for i := range vals {
				vals[i] = rng.Uint64() & m
			}
			vals[rng.Intn(n)] = m // pin the width
			return vals
		}},
		// A ramp up to the width's maximum: every few chunks need one more bit.
		{"sorted", func(n int, m uint64) []uint64 {
			vals := make([]uint64, n)
			step := max(m/uint64(max(n-1, 1)), 1)
			for i := range vals {
				vals[i] = min(uint64(i), m) * step
			}
			return vals
		}},
		{"outlier in the last chunk", func(n int, m uint64) []uint64 {
			vals := make([]uint64, n)
			for i := range vals {
				vals[i] = rng.Uint64() & m & 31
			}
			vals[n-1] = m
			return vals
		}},
		{"zeros", func(n int, _ uint64) []uint64 { return make([]uint64, n) }},
		{"single value", func(int, uint64) []uint64 { return []uint64{rng.Uint64()} }},
	}
	for _, width := range []uint{0, 1, 13, 21, 63, 64} {
		m := bitutil.Mask(width)
		for _, in := range inputs {
			vals := in.gen(n, m)
			for i := range vals {
				vals[i] &= m
			}
			bits := bitutil.MaxBits(vals)
			want := make([]uint64, bitutil.PackedWords(len(vals), bits))
			bitutil.Pack(want, vals, bits)
			for _, chunk := range []int{1, 63, 64, 2048, len(vals)} {
				name := fmt.Sprintf("width %d, %s, chunks of %d", width, in.name, chunk)
				col := writeChunks(t, name, columns.StaticBPDesc(0), vals, chunk)
				if col.Desc() != columns.StaticBPDesc(bits) || col.N() != len(vals) || !slices.Equal(col.MainWords(), want) {
					t.Fatalf("%s: got %v, %d elements, %d words; want %v, %d elements, %d words (words equal: %v)",
						name, col.Desc(), col.N(), len(col.MainWords()), columns.StaticBPDesc(bits), len(vals), len(want),
						slices.Equal(col.MainWords(), want))
				}
				if width == 0 || width == 64 {
					continue // width 0 is the auto width; no value is wider than 64 bits
				}
				w, err := NewWriter(columns.StaticBPDesc(width), len(vals))
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < len(vals); i += chunk {
					if err := w.Write(vals[i:min(i+chunk, len(vals))]); err != nil {
						t.Fatalf("%s: explicit width: %v", name, err)
					}
				}
				err = w.Write([]uint64{m + 1})
				if err == nil || !strings.Contains(err.Error(), "value exceeds static BP width") {
					t.Fatalf("%s: explicit width accepted a %d-bit value (err %v)", name, width+1, err)
				}
			}
		}
	}
}

// TestAutoWidthWriterKernelPaths round-trips the auto-width writer on both
// kernel paths through widenings that repack vector-packed groups: the width
// grows inside one Write, whose widest value is its last, and again across
// Writes while a partial group is staged, ending at a width (57) the vector
// pack leaves to the Go loop. Both paths must produce the same words, and
// the column must decode to the input.
func TestAutoWidthWriterKernelPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	ramp := func(n int, width uint) []uint64 {
		vals := make([]uint64, n)
		for i := range vals {
			vals[i] = rng.Uint64() & bitutil.Mask(width-1)
		}
		vals[n-1] = bitutil.Mask(width) // the widest value comes last
		return vals
	}
	chunks := [][]uint64{
		ramp(200, 5),  // 3 groups packed at 5 bits, 8 values staged
		ramp(300, 13), // widens to 13 with 8 staged: repacks 3 groups
		ramp(1, 40),   // widens to 40 with 52 staged: repacks 7 groups
		ramp(2100, 40),
		ramp(1, 57), // widens to 57, past the vector pack's widths
	}
	var vals []uint64
	for _, c := range chunks {
		vals = append(vals, c...)
	}
	var words [][]uint64
	eachKernelPath(func(path string) {
		w, err := NewWriter(columns.StaticBPDesc(0), 64)
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range chunks {
			if err := w.Write(c); err != nil {
				t.Fatalf("%s: write %d: %v", path, i, err)
			}
		}
		col, err := w.Close()
		if err != nil {
			t.Fatalf("%s: close: %v", path, err)
		}
		if col.Desc() != columns.StaticBPDesc(57) || col.N() != len(vals) {
			t.Fatalf("%s: got %v with %d elements, want %v with %d", path, col.Desc(), col.N(), columns.StaticBPDesc(57), len(vals))
		}
		got, err := Decompress(col)
		if err != nil {
			t.Fatalf("%s: decompress: %v", path, err)
		}
		for i, v := range got {
			if v != vals[i] {
				t.Fatalf("%s: value %d decodes to %#x, want %#x", path, i, v, vals[i])
			}
		}
		words = append(words, slices.Clone(col.MainWords()))
	})
	if !slices.Equal(words[0], words[1]) {
		t.Fatal("the kernel paths packed different words")
	}
}

// writeChunks feeds vals to a new writer of desc in chunks of the given size
// and returns the closed column.
func writeChunks(t *testing.T, name string, desc columns.FormatDesc, vals []uint64, chunk int) *columns.Column {
	t.Helper()
	w, err := NewWriter(desc, len(vals))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(vals); i += chunk {
		if err := w.Write(vals[i:min(i+chunk, len(vals))]); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
	}
	col, err := w.Close()
	if err != nil {
		t.Fatalf("%s: close: %v", name, err)
	}
	return col
}

// TestAutoWidthWriterAllocation pins that the auto-width writer packs as
// values arrive: 1 Mi 13-bit values written in 2048-value chunks allocate
// little more than the packed column itself, not an 8-byte-per-value staging
// copy of the input.
func TestAutoWidthWriterAllocation(t *testing.T) {
	const n = 1 << 20
	rng := rand.New(rand.NewSource(13))
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = uint64(rng.Intn(1 << 13))
	}
	vals[0] = 1<<13 - 1 // the first chunk already needs all 13 bits
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	col := writeChunks(t, "13-bit", columns.StaticBPDesc(0), vals, BufferLen)
	runtime.ReadMemStats(&after)
	if col.Desc() != columns.StaticBPDesc(13) {
		t.Fatalf("desc = %v, want %v", col.Desc(), columns.StaticBPDesc(13))
	}
	packed := bitutil.PackedWords(n, 13) * 8
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(packed)*5/4; got > limit {
		t.Fatalf("writing %d values allocated %d bytes, want at most %d (1.25 x the %d packed bytes)", n, got, limit, packed)
	}
}

// TestAutoWidthWidenAllocation pins that widening allocates only to repack:
// an auto-width writer whose widenings find every value so far still staged
// — no whole group packed — allocates nothing once its lease's pool holds
// the buffer the first widening reserves.
func TestAutoWidthWidenAllocation(t *testing.T) {
	lease := bufpool.New().Lease()
	defer lease.Close()
	w := new(staticBPWriter)
	chunks := [][]uint64{{1, 0}, {6, 3}, {100, 50}, {1<<13 - 1, 7}} // each one widens
	allocs := testing.AllocsPerRun(20, func() {
		*w = staticBPWriter{auto: true, sizeHint: BufferLen, bufs: lease}
		for _, c := range chunks {
			if err := w.Write(c); err != nil {
				t.Fatal(err)
			}
		}
		if w.bits != 13 || w.inGroup != 8 {
			t.Fatalf("writer at width %d with %d values staged, want 13 and 8", w.bits, w.inGroup)
		}
		if err := lease.Put(w.words); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("widening without a group to repack allocated %.0f times per writer, want 0", allocs)
	}
}
