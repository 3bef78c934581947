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
