package ops

import (
	"math/bits"

	"morphstore/internal/bufpool"
)

// u64Map is a minimal open-addressing hash map from uint64 keys to uint64
// values, tuned for the join/group operators: linear probing, power-of-two
// capacity, multiply-shift hashing. The zero key is handled via an explicit
// occupancy bitmap, avoiding sentinel restrictions on the key domain. Its
// arrays come from a lease; release gives them back.
type u64Map struct {
	keys  []uint64
	vals  []uint64
	used  []uint64 // occupancy, one bit per slot
	mask  uint64
	shift uint
	size  int
	bufs  *bufpool.Lease
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

// newU64Map creates a map sized for about n entries, its arrays from bufs.
func newU64Map(bufs *bufpool.Lease, n int) *u64Map {
	m := &u64Map{bufs: bufs}
	m.alloc(tableCap(n))
	return m
}

// alloc gives the map empty arrays of cap slots.
func (m *u64Map) alloc(cap int) {
	m.keys = m.bufs.Get(cap)
	m.vals = m.bufs.Get(cap)
	m.used = occupancy(m.bufs, cap)
	m.mask = uint64(cap - 1)
	m.shift = 64 - uint(bits.TrailingZeros64(uint64(cap)))
	m.size = 0
}

// release gives the map's arrays back to its lease; the map is unusable
// afterwards.
func (m *u64Map) release() {
	for _, b := range [][]uint64{m.keys, m.vals, m.used} {
		_ = m.bufs.Put(b) // issued by alloc
	}
	m.keys, m.vals, m.used = nil, nil, nil
}

func (m *u64Map) slot(k uint64) uint64 {
	return (k * hashMul) >> m.shift
}

// put inserts or overwrites the value for key k.
func (m *u64Map) put(k, v uint64) {
	if m.size*2 >= len(m.keys) {
		m.grow()
	}
	i := m.slot(k)
	for isUsed(m.used, i) {
		if m.keys[i] == k {
			m.vals[i] = v
			return
		}
		i = (i + 1) & m.mask
	}
	m.keys[i], m.vals[i] = k, v
	markUsed(m.used, i)
	m.size++
}

// getOrPut returns the existing value for k, or inserts def and returns it
// with inserted=true.
func (m *u64Map) getOrPut(k, def uint64) (v uint64, inserted bool) {
	if m.size*2 >= len(m.keys) {
		m.grow()
	}
	i := m.slot(k)
	for isUsed(m.used, i) {
		if m.keys[i] == k {
			return m.vals[i], false
		}
		i = (i + 1) & m.mask
	}
	m.keys[i], m.vals[i] = k, def
	markUsed(m.used, i)
	m.size++
	return def, true
}

// get looks up k.
func (m *u64Map) get(k uint64) (uint64, bool) {
	i := m.slot(k)
	for isUsed(m.used, i) {
		if m.keys[i] == k {
			return m.vals[i], true
		}
		i = (i + 1) & m.mask
	}
	return 0, false
}

func (m *u64Map) grow() {
	old := *m
	m.alloc(len(old.keys) * 2)
	for i := range old.keys {
		if isUsed(old.used, uint64(i)) {
			m.put(old.keys[i], old.vals[i])
		}
	}
	old.release()
}

// pairMap maps a pair of uint64 keys to a uint64 value; it backs the
// iterative group-by refinement (group id, next key) -> new group id. Its
// arrays come from a lease like u64Map's.
type pairMap struct {
	k1, k2 []uint64
	vals   []uint64
	used   []uint64 // occupancy, one bit per slot
	mask   uint64
	shift  uint
	size   int
	bufs   *bufpool.Lease
}

// newPairMap creates a map sized for about n entries, its arrays from bufs.
func newPairMap(bufs *bufpool.Lease, n int) *pairMap {
	m := &pairMap{bufs: bufs}
	m.alloc(tableCap(n))
	return m
}

// alloc gives the map empty arrays of cap slots.
func (m *pairMap) alloc(cap int) {
	m.k1 = m.bufs.Get(cap)
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
		_ = m.bufs.Put(b) // issued by alloc
	}
	m.k1, m.k2, m.vals, m.used = nil, nil, nil, nil
}

func pairHash(a, b uint64) uint64 {
	h := a*hashMul ^ b
	h *= hashMul
	return h
}

// slot is the home slot of a pair hash: its top bits, as in u64Map.slot. The
// low bits of a product depend only on the low bits of its factors, so
// pairs that differ only above the mask would share one probe chain.
func (m *pairMap) slot(h uint64) uint64 { return h >> m.shift }

// getOrPutMixed returns the existing value for (a, b), or inserts def and
// returns it with inserted = true. The caller passes the first key's hash
// contribution mixA = a*hashMul: the grouping loop processes runs of equal
// first keys, so hoisting the multiply out of the per-row call is a small but
// measurable win; pairHash(a, b) == (mixA ^ b) * hashMul keeps the slots
// identical to grow's.
func (m *pairMap) getOrPutMixed(mixA, a, b, def uint64) (v uint64, inserted bool) {
	if m.size*2 >= len(m.k1) {
		m.grow()
	}
	i := m.slot((mixA ^ b) * hashMul)
	for isUsed(m.used, i) {
		if m.k1[i] == a && m.k2[i] == b {
			return m.vals[i], false
		}
		i = (i + 1) & m.mask
	}
	m.k1[i], m.k2[i], m.vals[i] = a, b, def
	markUsed(m.used, i)
	m.size++
	return def, true
}

func (m *pairMap) grow() {
	old := *m
	m.alloc(len(old.k1) * 2)
	for i := range old.k1 {
		if isUsed(old.used, uint64(i)) {
			// re-insert
			j := m.slot(pairHash(old.k1[i], old.k2[i]))
			for isUsed(m.used, j) {
				j = (j + 1) & m.mask
			}
			m.k1[j], m.k2[j], m.vals[j] = old.k1[i], old.k2[i], old.vals[i]
			markUsed(m.used, j)
			m.size++
		}
	}
	old.release()
}
