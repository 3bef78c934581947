package ops

import (
	"context"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"morphstore/internal/bufpool"
	"morphstore/internal/columns"
)

// refGroup is the map-based reference of GroupFirst (prev nil) and GroupNext:
// ids in order of first occurrence of each (previous gid, key) pair, and the
// position of each id's first occurrence.
func refGroup(prev, keys []uint64) (gids, extents []uint64) {
	type pair struct{ g, k uint64 }
	ids := make(map[pair]uint64)
	for i, k := range keys {
		p := pair{k: k}
		if prev != nil {
			p.g = prev[i]
		}
		id, ok := ids[p]
		if !ok {
			id = uint64(len(extents))
			ids[p] = id
			extents = append(extents, uint64(i))
		}
		gids = append(gids, id)
	}
	return gids, extents
}

// fuzzGroupKeys builds n keys from raw, read as a cycle of size-byte
// little-endian values (all zero when raw is shorter than size). Every third
// key in [at, end) is shifted left by shift, so a block there is wider than
// the ones around it while the unshifted keys repeat pairs seen before.
func fuzzGroupKeys(raw []byte, size, n, at, end int, shift uint8) []uint64 {
	keys := make([]uint64, n)
	vals := len(raw) / size
	for i := range keys {
		if vals > 0 {
			var w [8]byte
			copy(w[:], raw[size*(i%vals):size*(i%vals+1)])
			keys[i] = binary.LittleEndian.Uint64(w[:])
		}
		if i >= at && i < end && i%3 == 2 {
			keys[i] <<= shift % 64
		}
	}
	return keys
}

// TestGroupNextKeyBase: GroupNext over 7-bit gids and year keys 1992–1998
// (an SSB GROUP BY d_year after a 7-bit grouping) indexes the dense table by
// key − 1992, 2^10 slots; keys indexed from 0 would need 2^18, past
// directSpanCap, and move to the pair map.
func TestGroupNextKeyBase(t *testing.T) {
	const n = 4 * blockBuf
	gs, ks := make([]uint64, n), make([]uint64, n)
	for i := range gs {
		gs[i], ks[i] = uint64(i*37%128), 1998-uint64(i*5%7)
	}
	bufs := bufpool.New().Lease()
	defer bufs.Close()
	b := groupBuild{dense: denseIDs{bufs: bufs}}
	defer b.release()
	gids := make([]uint64, n)
	for at := 0; at < n; at += blockBuf {
		b.addPairs(gs[at:at+blockBuf], ks[at:at+blockBuf], uint64(at), gids[at:at+blockBuf])
	}
	if b.pairs != nil {
		t.Fatalf("7-bit gids and keys 1992-1998 fell over to the pair map (gb=%d kb=%d)", b.dense.gb, b.dense.kb)
	}
	wantG, wantE := refGroup(gs, ks)
	if !slices.Equal(gids, wantG) || !slices.Equal(b.firstPos, wantE) {
		t.Fatal("gids or extents differ from the reference")
	}
}

// FuzzGroup checks GroupFirst and GroupNext on both kernel paths against the
// reference. The keys are shifted wide in a window, so the dense table
// widens, is re-laid out, keeps its layout for a narrower block, moves its
// key base down for a block below it, or gives way to the hash table at a
// block boundary or inside a block, after ids were handed out. The previous
// gids of GroupNext are the single bytes of raw, shifted wide from prevAt on
// (checkGroup).
func FuzzGroup(f *testing.F) {
	const (
		capMax = directSpanCap - 1 // the widest key the dense table holds
		b      = blockBuf
	)
	le := func(v uint16) []byte { return binary.LittleEndian.AppendUint16(nil, v) }
	three := []byte{3, 0, 5, 0, 6, 0, 1, 0} // keys 3 5 6 1 and gids 3 0 5 0 6 0 1 0: 3 bits each
	// raw, n, at, span, shift, prevAt, prevShift
	f.Add([]byte{}, uint16(5000), uint16(0), uint16(0), uint8(0), uint16(0), uint8(0))                           // all-zero keys: width 0
	f.Add(append(le(3), le(capMax)...), uint16(b+1), uint16(0), uint16(0), uint8(0), uint16(0), uint8(0))        // keys at the slot cap
	f.Add(append(le(3), le(capMax)...), uint16(3*b), uint16(b), uint16(b), uint8(1), uint16(0), uint8(0))        // one bit over, in the second block
	f.Add([]byte{1, 0, 7, 0, 3, 0, 2, 0}, uint16(3*b), uint16(b+5), uint16(3*b), uint8(60), uint16(0), uint8(0)) // narrow block, then wide: the switch
	f.Add(three, uint16(3*b), uint16(b), uint16(2*b), uint8(5), uint16(2*b), uint8(4))                           // key widens, then the gids: 15 bits
	f.Add(three, uint16(3*b), uint16(b), uint16(2*b), uint8(5), uint16(2*b), uint8(6))                           // ... to 17: past the cap
	f.Add(three, uint16(3*b), uint16(0), uint16(b), uint8(5), uint16(0), uint8(0))                               // wide block, then narrow ones
	f.Add([]byte{255, 0, 4, 0}, uint16(3*b), uint16(b), uint16(b), uint8(1), uint16(0), uint8(0))                // GroupNext at the cap, then one bit over
	years := append(append(append(le(1992), le(1995)...), le(1998)...), le(1993)...)
	f.Add(years, uint16(3*b), uint16(0), uint16(0), uint8(0), uint16(0), uint8(0)) // keys 1992-1998: a key base above 0
	below := append(append(le(1000), le(1001)...), le(5)...)
	f.Add(below, uint16(3*b), uint16(0), uint16(b), uint8(8), uint16(0), uint8(0))                                             // first block's keys from 1000, later ones from 5: below the base
	f.Add(append(append(le(1000), le(1001)...), le(519)...), uint16(3*b), uint16(0), uint16(b), uint8(7), uint16(0), uint8(0)) // keys 1000-66432 fit the cap, from 519 they do not
	for _, n := range []uint16{0, 1, b - 1, b, b + 1} {
		f.Add([]byte{9, 0, 2, 0, 9, 1}, n, uint16(b-1), uint16(b), uint8(3), uint16(b), uint8(2))
	}
	f.Fuzz(func(t *testing.T, raw []byte, n, at, span uint16, shift uint8, prevAt uint16, prevShift uint8) {
		if len(raw) > 256 || int(n) > 3*b+1 {
			return
		}
		keys := fuzzGroupKeys(raw, 2, int(n), int(at), int(at)+int(span), shift)
		prev := fuzzGroupKeys(raw, 1, int(n), int(prevAt), int(n), prevShift)
		checkGroup(t, prev, keys)
	})
}

// TestGroupHashGrowth: FuzzGroup's raw yields at most 128 distinct keys, so
// its hash table never grows. Here a dense first block of 100 keys gives way
// to 4,000 distinct keys 2^20 apart, which GroupFirst and GroupNext (over
// previous gids 0–2) assign through the hash table: past 1,024 entries it
// grows from 2,048 slots three times. A last block repeats keys of both
// kinds, looked up after the growth.
func TestGroupHashGrowth(t *testing.T) {
	const wide = 4000
	var keys, prev []uint64
	for i := 0; i < blockBuf+wide+blockBuf; i++ {
		var k uint64
		switch {
		case i < blockBuf:
			k = uint64(i % 100)
		case i < blockBuf+wide:
			k = uint64(i-blockBuf+1) << 20
		default:
			k = uint64(i%100) << (20 * (i % 2))
		}
		keys, prev = append(keys, k), append(prev, uint64(i%3))
	}
	checkGroup(t, prev, keys)
}

// checkGroup runs GroupFirst over keys and GroupNext over prev and keys on
// both kernel paths and compares them with the reference. The gids are
// written auto-width, and the lease must get back everything but the
// outputs.
func checkGroup(t *testing.T, prev, keys []uint64) {
	t.Helper()
	wantFirstG, wantFirstE := refGroup(nil, keys)
	wantNextG, wantNextE := refGroup(prev, keys)
	eachKernelPath(func(path string) {
		for _, next := range []bool{false, true} {
			label := fmt.Sprintf("%s/next=%v", path, next)
			bufs := bufpool.New().Lease()
			rt := RT(context.Background(), nil, bufs, 1)
			var gids, extents *columns.Column
			var err error
			wantG, wantE := wantFirstG, wantFirstE
			if next {
				gids, extents, err = rt.GroupNext(columns.FromValues(prev), columns.FromValues(keys), columns.StaticBPDesc(0), columns.UncomprDesc)
				wantG, wantE = wantNextG, wantNextE
			} else {
				gids, extents, err = rt.GroupFirst(columns.FromValues(keys), columns.StaticBPDesc(0), columns.UncomprDesc)
			}
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if got := decode(t, gids); !slices.Equal(got, wantG) {
				t.Fatalf("%s: gids differ from the reference (%d vs %d values)", label, len(got), len(wantG))
			}
			if got := decode(t, extents); !slices.Equal(got, wantE) {
				t.Fatalf("%s: extents = %v, want %v", label, got, wantE)
			}
			for _, c := range []*columns.Column{gids, extents} {
				if err := bufs.Put(c.Words()); err != nil {
					t.Fatalf("%s: output words: %v", label, err)
				}
			}
			if out := bufs.Out(); out != 0 {
				t.Fatalf("%s: %d bytes still out of the lease", label, out)
			}
			bufs.Close()
		}
	})
}
