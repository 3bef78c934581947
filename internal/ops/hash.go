package ops

import (
	"math/bits"

	"morphstore/internal/bufpool"
)

// pairMap is the operators' one hash table: a minimal open-addressing map
// from a pair of uint64 keys to a uint64 value, with linear probing,
// power-of-two capacity and multiply-shift hashing. The grouping refinement
// keys it on (previous group id, key); the join and GroupFirst use it for
// single keys, which are pairs with first key 0. A table built for single
// keys keeps no first-key array, so it costs 16 bytes per slot. The zero key
// is handled via an explicit occupancy bitmap, avoiding sentinel
// restrictions on the key domain. Its arrays come from a lease; release
// gives them back.
type pairMap struct {
	k1, k2 []uint64 // k1 is nil in a single-key table
	vals   []uint64
	used   []uint64 // occupancy, one bit per slot
	mask   uint64
	shift  uint
	size   int
	bufs   *bufpool.Lease
}

const hashMul = 0x9E3779B97F4A7C15 // 2^64 / golden ratio

// tableCap is the power-of-two slot count of a table sized for about n
// entries.
func tableCap(n int) int {
	cap := 16
	for cap < n*2 {
		cap <<= 1
	}
	return cap
}

// occupancy takes a cleared occupancy bitmap of slots bits from bufs.
func occupancy(bufs *bufpool.Lease, slots int) []uint64 {
	used := bufs.Get((slots + 63) / 64)
	clear(used)
	return used
}

// isUsed reports whether slot i is occupied.
func isUsed(used []uint64, i uint64) bool { return used[i>>6]>>(i&63)&1 != 0 }

// markUsed sets slot i occupied.
func markUsed(used []uint64, i uint64) { used[i>>6] |= 1 << (i & 63) }

// newPairMap creates a map sized for about n entries, its arrays from bufs.
// Unless pairs is set, every first key must be 0 and the map keeps none.
func newPairMap(bufs *bufpool.Lease, n int, pairs bool) *pairMap {
	m := &pairMap{bufs: bufs}
	m.alloc(tableCap(n), pairs)
	return m
}

// alloc gives the map empty arrays of cap slots, a first-key array only if
// pairs is set.
func (m *pairMap) alloc(cap int, pairs bool) {
	m.k1 = nil
	if pairs {
		m.k1 = m.bufs.Get(cap)
	}
	m.k2 = m.bufs.Get(cap)
	m.vals = m.bufs.Get(cap)
	m.used = occupancy(m.bufs, cap)
	m.mask = uint64(cap - 1)
	m.shift = 64 - uint(bits.TrailingZeros64(uint64(cap)))
	m.size = 0
}

// release gives the map's arrays back to its lease; the map is unusable
// afterwards.
func (m *pairMap) release() {
	for _, b := range [][]uint64{m.k1, m.k2, m.vals, m.used} {
		_ = m.bufs.Put(b) // issued by alloc, or nil
	}
	m.k1, m.k2, m.vals, m.used = nil, nil, nil, nil
}

// find returns the slot of (a, b) with found = true, or the free slot where
// it would go. The caller passes the first key's hash contribution mixA =
// a*hashMul; the home slot is the top bits of (mixA ^ b)*hashMul. The low
// bits of a product depend only on the low bits of its factors, so keys that
// differ only above the mask would share one probe chain. A single key b
// (a = 0) hashes to b*hashMul.
func (m *pairMap) find(mixA, a, b uint64) (uint64, bool) {
	i := (mixA ^ b) * hashMul >> m.shift
	for m.used[i>>6]>>(i&63)&1 != 0 { // isUsed, spelled out so get inlines
		if m.k2[i] == b && (m.k1 == nil || m.k1[i] == a) {
			return i, true
		}
		i = (i + 1) & m.mask
	}
	return i, false
}

// insert stores (a, b) -> v, which find placed at the free slot i; a table
// half full doubles first, and (a, b) is placed again.
func (m *pairMap) insert(i, a, b, v uint64) {
	if m.size*2 >= len(m.vals) {
		m.grow()
		i, _ = m.find(a*hashMul, a, b)
	}
	if m.k1 != nil {
		m.k1[i] = a
	}
	m.k2[i], m.vals[i] = b, v
	markUsed(m.used, i)
	m.size++
}

// put inserts or overwrites the value for (a, b): the last put wins.
func (m *pairMap) put(a, b, v uint64) {
	if i, found := m.find(a*hashMul, a, b); found {
		m.vals[i] = v
	} else {
		m.insert(i, a, b, v)
	}
}

// get looks up (a, b); the value is undefined unless found. It loads the
// value either way: a branch on found would cost get its inlining into the
// join's probe loop.
func (m *pairMap) get(a, b uint64) (v uint64, found bool) {
	i, found := m.find(a*hashMul, a, b)
	return m.vals[i], found
}

// grow doubles the table, re-inserting the entries in slot order.
func (m *pairMap) grow() {
	old := *m
	m.alloc(len(old.vals)*2, old.k1 != nil)
	for i := range old.vals {
		if isUsed(old.used, uint64(i)) {
			var a uint64
			if old.k1 != nil {
				a = old.k1[i]
			}
			j, _ := m.find(a*hashMul, a, old.k2[i])
			m.insert(j, a, old.k2[i], old.vals[i])
		}
	}
	old.release()
}
