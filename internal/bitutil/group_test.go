package bitutil

import (
	"math/rand"
	"testing"
)

// TestUnpackGroup verifies group decoding against Get for every width.
func TestUnpackGroup(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	n := 64 * 7
	for width := uint(0); width <= 64; width++ {
		src := make([]uint64, n)
		for i := range src {
			src[i] = rng.Uint64() & Mask(width)
		}
		words := make([]uint64, PackedWords(n, width))
		Pack(words, src, width)
		var group [64]uint64
		for g := 0; g < n/64; g++ {
			UnpackGroup(&group, words, g, width)
			for j := 0; j < 64; j++ {
				if group[j] != src[g*64+j] {
					t.Fatalf("width %d group %d elem %d: %x want %x",
						width, g, j, group[j], src[g*64+j])
				}
			}
		}
	}
}

// TestPackUnpackKernelsMatchGeneric pins the generated kernels against the
// value-at-a-time Get on group-aligned data: 128 fields fill exactly 2·width
// words, so reading every field back checks every bit of the layout.
func TestPackUnpackKernelsMatchGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for width := uint(1); width <= 63; width++ {
		src := make([]uint64, 128)
		for i := range src {
			src[i] = rng.Uint64() & Mask(width)
		}
		// Kernel path (whole groups).
		fast := make([]uint64, PackedWords(len(src), width))
		Pack(fast, src, width)
		for i, v := range src {
			if g := Get(fast, i, width); g != v {
				t.Fatalf("width %d: field %d = %x, want %x", width, i, g, v)
			}
		}
	}
}

func BenchmarkUnpackGroup(b *testing.B) {
	n := 1 << 16
	src := make([]uint64, n)
	for i := range src {
		src[i] = uint64(i) & Mask(13)
	}
	words := make([]uint64, PackedWords(n, 13))
	Pack(words, src, 13)
	var group [64]uint64
	b.SetBytes(int64(n * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for g := 0; g < n/64; g++ {
			UnpackGroup(&group, words, g, 13)
		}
	}
}
