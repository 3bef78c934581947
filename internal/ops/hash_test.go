package ops

import (
	"testing"

	"morphstore/internal/bufpool"
)

// TestPairMapSingleKey drives a single-key table as the join and GroupFirst
// do, (0, key) throughout: growth from 16 slots past 1,000 keys, a missing
// key, the zero key, last-wins overwrite, and find and insert on present and
// new keys. The table keeps no first keys: at 2,048 slots it holds 16 bytes
// per slot plus the occupancy bit from its lease, and release gives all of
// it back.
func TestPairMapSingleKey(t *testing.T) {
	bufs := bufpool.New().Lease()
	defer bufs.Close()
	m := newPairMap(bufs, 4, false)
	for i := uint64(0); i < 1000; i++ {
		m.put(0, i*7, i)
	}
	for i := uint64(0); i < 1000; i++ {
		v, ok := m.get(0, i*7)
		if !ok || v != i {
			t.Fatalf("get(%d) = %d,%v", i*7, v, ok)
		}
	}
	if _, ok := m.get(0, 3); ok {
		t.Error("missing key found")
	}
	// Zero key works.
	m.put(0, 0, 42)
	if v, ok := m.get(0, 0); !ok || v != 42 {
		t.Error("zero key")
	}
	// Overwrite.
	m.put(0, 7, 99)
	if v, _ := m.get(0, 7); v != 99 {
		t.Error("overwrite failed")
	}
	// The grouping's get-or-put: find, then insert at the free slot.
	if i, found := m.find(0, 0, 7); !found || m.vals[i] != 99 {
		t.Error("find existing")
	}
	if i, found := m.find(0, 0, 123456789); found {
		t.Error("find new")
	} else if m.insert(i, 0, 123456789, 5); m.vals[i] != 5 {
		t.Error("insert new")
	}
	if got, want := bufs.Out(), int64(16*2048+2048/8); len(m.vals) != 2048 || got != want {
		t.Errorf("%d slots, %d bytes out of the lease; want 2048 slots, %d bytes", len(m.vals), got, want)
	}
	m.release()
	if got := bufs.Out(); got != 0 {
		t.Errorf("%d bytes still out after release", got)
	}
}

// TestPairMap drives a pair table with 1,000 pairs (the GroupNext
// refinement), and pins its 8 more bytes per slot for the first keys.
func TestPairMap(t *testing.T) {
	bufs := bufpool.New().Lease()
	defer bufs.Close()
	m := newPairMap(bufs, 4, true)
	n := uint64(0)
	for a := uint64(0); a < 50; a++ {
		for b := uint64(0); b < 20; b++ {
			i, found := m.find(a*hashMul, a, b)
			if found {
				t.Fatalf("insert (%d,%d): found before it was inserted", a, b)
			}
			m.insert(i, a, b, n)
			n++
		}
	}
	n = 0
	for a := uint64(0); a < 50; a++ {
		for b := uint64(0); b < 20; b++ {
			if v, found := m.get(a, b); !found || v != n {
				t.Fatalf("lookup (%d,%d) = %d, want %d", a, b, v, n)
			}
			n++
		}
	}
	if got, want := bufs.Out(), int64(24*2048+2048/8); len(m.vals) != 2048 || got != want {
		t.Errorf("%d slots, %d bytes out of the lease; want 2048 slots, %d bytes", len(m.vals), got, want)
	}
	m.release()
}

// TestPairMapHighBits inserts pairs that differ only in bits above any
// table's mask. The slot comes from the hash's top bits, so they spread over
// the table: no entry sits 64 or more slots past its home slot. From the low
// bits they would all share slot 0 and one probe chain.
func TestPairMapHighBits(t *testing.T) {
	m := newPairMap(nil, 4, true)
	for i := uint64(0); i < 4096; i++ {
		m.put(0, i<<40, i)
	}
	for j := range m.k1 {
		if !isUsed(m.used, uint64(j)) {
			continue
		}
		home := (m.k1[j]*hashMul ^ m.k2[j]) * hashMul >> m.shift
		if d := (uint64(j) - home) & m.mask; d >= 64 {
			t.Fatalf("pair (%d, %#x) sits %d slots past its home slot %d", m.k1[j], m.k2[j], d, home)
		}
	}
}
