package bitutil

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMask(t *testing.T) {
	if Mask(0) != 0 {
		t.Errorf("Mask(0) = %x, want 0", Mask(0))
	}
	if Mask(1) != 1 {
		t.Errorf("Mask(1) = %x, want 1", Mask(1))
	}
	if Mask(64) != ^uint64(0) {
		t.Errorf("Mask(64) = %x, want all ones", Mask(64))
	}
	if Mask(63) != ^uint64(0)>>1 {
		t.Errorf("Mask(63) = %x", Mask(63))
	}
}

func TestMaxBits(t *testing.T) {
	cases := []struct {
		vals []uint64
		want uint
	}{
		{nil, 0},
		{[]uint64{0, 0, 0}, 0},
		{[]uint64{1}, 1},
		{[]uint64{63}, 6},
		{[]uint64{64}, 7},
		{[]uint64{1 << 62}, 63},
		{[]uint64{^uint64(0)}, 64},
		{[]uint64{5, 9, 2}, 4},
	}
	for _, c := range cases {
		if got := MaxBits(c.vals); got != c.want {
			t.Errorf("MaxBits(%v) = %d, want %d", c.vals, got, c.want)
		}
	}
}

func TestPackedWords(t *testing.T) {
	cases := []struct {
		n     int
		width uint
		want  int
	}{
		{0, 13, 0},
		{10, 0, 0},
		{64, 1, 1},
		{65, 1, 2},
		{64, 13, 13},
		{512, 6, 48},
		{1, 64, 1},
		{3, 63, 3},
	}
	for _, c := range cases {
		if got := PackedWords(c.n, c.width); got != c.want {
			t.Errorf("PackedWords(%d,%d) = %d, want %d", c.n, c.width, got, c.want)
		}
	}
}

func roundTrip(t *testing.T, src []uint64, width uint) {
	t.Helper()
	dst := make([]uint64, PackedWords(len(src), width))
	Pack(dst, src, width)
	got := make([]uint64, len(src))
	Unpack(got, dst, width)
	m := Mask(width)
	for i := range src {
		if got[i] != src[i]&m {
			t.Fatalf("width %d: elem %d = %x, want %x", width, i, got[i], src[i]&m)
		}
	}
	// Random access must agree as well.
	for _, i := range []int{0, len(src) / 3, len(src) - 1} {
		if len(src) == 0 {
			break
		}
		if g := Get(dst, i, width); g != src[i]&m {
			t.Fatalf("width %d: Get(%d) = %x, want %x", width, i, g, src[i]&m)
		}
	}
}

func TestPackUnpackAllWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for width := uint(1); width <= 64; width++ {
		for _, n := range []int{1, 7, 63, 64, 65, 512, 1000} {
			src := make([]uint64, n)
			for i := range src {
				src[i] = rng.Uint64() & Mask(width)
			}
			roundTrip(t, src, width)
		}
	}
}

func TestPackUnpackZeroWidth(t *testing.T) {
	dst := []uint64{123, 456}
	Unpack(dst, nil, 0)
	for i, v := range dst {
		if v != 0 {
			t.Errorf("elem %d = %d, want 0", i, v)
		}
	}
}

// TestSetGet: every value Pack sets reads back through the random-access Get.
func TestSetGet(t *testing.T) {
	for _, width := range []uint{3, 8, 13, 21, 33, 64} {
		n := 200
		words := make([]uint64, PackedWords(n, width))
		rng := rand.New(rand.NewSource(int64(width)))
		vals := make([]uint64, n)
		for i := range vals {
			vals[i] = rng.Uint64() & Mask(width)
		}
		Pack(words, vals, width)
		for i := range vals {
			if g := Get(words, i, width); g != vals[i] {
				t.Fatalf("width %d: Get(%d) = %x, want %x", width, i, g, vals[i])
			}
		}
	}
}

// TestGetFullLastWord: Get reads the word after a field's first one
// unconditionally, clamped to the last word. At every width, a stream whose
// last word is exactly filled — no padding word behind it — reads back
// without an out-of-range access, the last field included.
func TestGetFullLastWord(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	for width := uint(1); width <= 64; width++ {
		n := 64 / int(gcd(64, width)) // the fewest values that fill whole words
		vals := make([]uint64, n)
		for i := range vals {
			vals[i] = rng.Uint64() & Mask(width)
		}
		vals[n-1] = Mask(width)
		words := make([]uint64, PackedWords(n, width))
		Pack(words, vals, width)
		for i := range vals {
			if g := Get(words, i, width); g != vals[i] {
				t.Fatalf("width %d, %d values in %d words: Get(%d) = %x, want %x", width, n, len(words), i, g, vals[i])
			}
		}
	}
}

func gcd(a, b uint) uint {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// Property: packing then unpacking preserves values at any width.
func TestPackRoundTripProperty(t *testing.T) {
	f := func(raw []uint64, w8 uint8) bool {
		width := uint(w8%64) + 1
		src := make([]uint64, len(raw))
		m := Mask(width)
		for i, v := range raw {
			src[i] = v & m
		}
		dst := make([]uint64, PackedWords(len(src), width))
		Pack(dst, src, width)
		got := make([]uint64, len(src))
		Unpack(got, dst, width)
		for i := range src {
			if got[i] != src[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

var allCmpKinds = []CmpKind{CmpEq, CmpNe, CmpLt, CmpLe, CmpGt, CmpGe}

// TestCmpKindRange checks the normalisation against CmpKind.Eval over the
// 64-bit domain, for constants at both ends and in the middle, on a value
// grid that includes the wrap-around neighbours of the constant and of the
// domain bounds.
func TestCmpKindRange(t *testing.T) {
	const top = ^uint64(0)
	grid := []uint64{0, 1, 2, top / 2, top/2 + 1, top - 2, top - 1, top}
	for _, val := range []uint64{0, 1, top / 2, top - 1, top} {
		for _, d := range []uint64{0, 1, 2} {
			grid = append(grid, val-d, val+d)
		}
		for _, op := range allCmpKinds {
			lo, span, empty, ok := op.Range(val)
			if !ok {
				t.Fatalf("%v %d: not ok", op, val)
			}
			for _, x := range grid {
				if got, want := !empty && x-lo <= span, op.Eval(x, val); got != want {
					t.Fatalf("%d %v %d: range (lo=%d span=%d empty=%v) says %v, Eval says %v",
						x, op, val, lo, span, empty, got, want)
				}
			}
		}
	}
	if _, _, _, ok := CmpKind(9).Range(3); ok {
		t.Error("undefined CmpKind normalised")
	}
}

func BenchmarkUnpackWidth6(b *testing.B) {
	benchUnpack(b, 6)
}

func BenchmarkUnpackWidth13(b *testing.B) {
	benchUnpack(b, 13)
}

func BenchmarkUnpackWidth32(b *testing.B) {
	benchUnpack(b, 32)
}

func benchUnpack(b *testing.B, width uint) {
	n := 1 << 16
	src := make([]uint64, n)
	rng := rand.New(rand.NewSource(3))
	for i := range src {
		src[i] = rng.Uint64() & Mask(width)
	}
	packed := make([]uint64, PackedWords(n, width))
	Pack(packed, src, width)
	dst := make([]uint64, n)
	b.SetBytes(int64(n * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Unpack(dst, packed, width)
	}
}
