// Package dict implements per-column string dictionaries: append-only
// string→ID translators behind an atomic snapshot, so a string column
// becomes a dictionary plus a plain uint64 ID column that the existing
// formats compress and the existing morsel-parallel operators execute.
//
// IDs are assigned in first-occurrence order, so appends never renumber
// existing rows; a snapshot taken at any moment stays valid forever for the
// rows written under it. Renumbering happens only through the explicit
// sorted-rebuild protocol (BeginSorted/CompleteSorted) the engine drives
// during remorph, which rewrites the ID column and the dictionary together
// under the engine's coherence locks — after it, IDs are in lexicographic
// order and prefix predicates become contiguous ID ranges.
//
// Every mutation is journaled in internal/wal's FNV-checksummed record
// framing, and Replay rebuilds a dictionary from that journal: Replay never
// panics and classifies every structural defect as qerr.ErrCorruptData
// (FuzzDictJournal drives this contract). It is the engine's only journal;
// a table's rows live once, in its main and delta tail.
package dict

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"morphstore/internal/faultpoint"
	"morphstore/internal/qerr"
)

// Snap is an immutable dictionary snapshot: a bidirectional string↔ID
// mapping frozen at one publish. Readers translate predicates and results
// against a Snap without locks; a Snap taken after a table state was read is
// always a superset of the IDs that state contains.
type Snap struct {
	strs   []string
	ids    map[string]uint64
	gen    uint64
	sorted bool
}

// Len returns the number of distinct strings in the snapshot. IDs are dense:
// every ID in [0, Len()) is valid.
func (s *Snap) Len() int { return len(s.strs) }

// Gen returns the snapshot's renumbering generation. Appending new strings
// keeps the generation (existing IDs are unchanged, so a translation cached
// at (gen, len) stays valid); only a sorted rebuild, which renumbers, bumps
// it.
func (s *Snap) Gen() uint64 { return s.gen }

// Sorted reports whether the snapshot's strings are in ascending
// lexicographic ID order, making prefix predicates contiguous ID ranges.
func (s *Snap) Sorted() bool { return s.sorted }

// ID returns the ID of str and whether it is in the dictionary.
func (s *Snap) ID(str string) (uint64, bool) {
	id, ok := s.ids[str]
	return id, ok
}

// String returns the string with the given ID and whether the ID is in
// range.
func (s *Snap) String(id uint64) (string, bool) {
	if id >= uint64(len(s.strs)) {
		return "", false
	}
	return s.strs[id], true
}

// Strings translates a column of IDs back to strings, erroring on any ID
// outside the dictionary.
func (s *Snap) Strings(ids []uint64) ([]string, error) {
	out := make([]string, len(ids))
	for i, id := range ids {
		if id >= uint64(len(s.strs)) {
			return nil, fmt.Errorf("dict: id %d out of range (%d strings)", id, len(s.strs))
		}
		out[i] = s.strs[id]
	}
	return out, nil
}

// PrefixRange returns the inclusive ID range [lo, hi] of the strings with
// the given prefix. It requires a sorted snapshot (the run is contiguous
// only then); ok is false on an unsorted snapshot or when no string matches.
func (s *Snap) PrefixRange(prefix string) (lo, hi uint64, ok bool) {
	if !s.sorted {
		return 0, 0, false
	}
	first := sort.Search(len(s.strs), func(i int) bool { return s.strs[i] >= prefix })
	// Strings sort before all their extensions, so the prefixed run starts at
	// first and the predicate below is monotone across the sorted order.
	end := sort.Search(len(s.strs), func(i int) bool {
		return s.strs[i] > prefix && !strings.HasPrefix(s.strs[i], prefix)
	})
	if first >= end {
		return 0, 0, false
	}
	return uint64(first), uint64(end - 1), true
}

// PrefixIDs returns the ascending IDs of every string with the given prefix,
// on any snapshot (a linear scan when unsorted).
func (s *Snap) PrefixIDs(prefix string) []uint64 {
	if s.sorted {
		lo, hi, ok := s.PrefixRange(prefix)
		if !ok {
			return nil
		}
		out := make([]uint64, 0, hi-lo+1)
		for id := lo; id <= hi; id++ {
			out = append(out, id)
		}
		return out
	}
	var out []uint64
	for id, str := range s.strs {
		if strings.HasPrefix(str, prefix) {
			out = append(out, uint64(id))
		}
	}
	return out
}

// Bytes returns the approximate heap footprint of the snapshot: string
// payloads plus per-entry slice and map overhead.
func (s *Snap) Bytes() int64 {
	var b int64
	for _, str := range s.strs {
		// Each string is held twice (slice and map key): payload ×2, a string
		// header in the slice, and ~48 bytes of map bucket amortized.
		b += 2*int64(len(str)) + 16 + 48
	}
	return b
}

// Dict is one column's dictionary: a mutable translator publishing immutable
// snapshots. All methods are safe for concurrent use; readers are lock-free.
type Dict struct {
	mu      sync.Mutex
	cur     atomic.Pointer[Snap]
	strs    []string // append-only backing of every snapshot's strs
	journal []byte
}

// New returns an empty dictionary. An empty dictionary is vacuously sorted.
func New() *Dict {
	d := &Dict{}
	d.cur.Store(&Snap{ids: map[string]uint64{}, sorted: true})
	return d
}

// Snap returns the current snapshot.
func (d *Dict) Snap() *Snap { return d.cur.Load() }

// Add translates strs to IDs, assigning fresh IDs in first-occurrence order
// to strings not yet in the dictionary and publishing a new snapshot if any
// were added. On error (injected at the dict-lookup-miss and dict-persist
// fault points) the dictionary is unchanged — the journal record and the
// snapshot publish happen only after every hit passed.
func (d *Dict) Add(strs []string) ([]uint64, error) {
	if len(strs) == 0 {
		return nil, nil
	}
	for _, str := range strs {
		if len(str) > maxStrLen {
			return nil, qerr.Tag(fmt.Errorf("dict: string of %d bytes exceeds the %d-byte limit", len(str), maxStrLen), qerr.ErrInvalidSchema)
		}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	s := d.cur.Load()
	ids := make([]uint64, len(strs))
	var fresh []string
	var pending map[string]uint64
	for i, str := range strs {
		if id, ok := s.ids[str]; ok {
			ids[i] = id
			continue
		}
		if id, ok := pending[str]; ok {
			ids[i] = id
			continue
		}
		if err := faultpoint.DictLookupMiss.Hit(); err != nil {
			return nil, fmt.Errorf("dict: translate %q: %w", str, err)
		}
		id := uint64(len(s.strs) + len(fresh))
		if pending == nil {
			pending = make(map[string]uint64)
		}
		pending[str] = id
		fresh = append(fresh, str)
		ids[i] = id
	}
	if len(fresh) == 0 {
		return ids, nil
	}
	if err := faultpoint.DictPersist.Hit(); err != nil {
		return nil, fmt.Errorf("dict: persist: %w", err)
	}
	d.journal = encodeAdd(d.journal, fresh)
	d.publish(s, fresh)
	return ids, nil
}

// publish extends the backing array with fresh strings and stores the next
// snapshot; the caller holds d.mu and has journaled fresh.
func (d *Dict) publish(s *Snap, fresh []string) {
	d.strs = append(d.strs, fresh...)
	ids := make(map[string]uint64, len(s.ids)+len(fresh))
	for str, id := range s.ids {
		ids[str] = id
	}
	sorted := s.sorted
	last := ""
	havePrev := len(s.strs) > 0
	if havePrev {
		last = s.strs[len(s.strs)-1]
	}
	for i, str := range fresh {
		ids[str] = uint64(len(s.strs) + i)
		if havePrev && str <= last {
			sorted = false
		}
		last, havePrev = str, true
	}
	ns := &Snap{strs: d.strs[:len(d.strs):len(d.strs)], ids: ids, gen: s.gen, sorted: sorted}
	d.cur.Store(ns)
}

// Journal returns the dictionary's journal: replaying it with Replay
// reproduces the dictionary's current snapshot. The returned slice aliases
// the live journal and must not be modified; it is only appended to.
func (d *Dict) Journal() []byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.journal[:len(d.journal):len(d.journal)]
}

// Rebuild is an in-progress sorted renumbering pinned against one snapshot.
// The engine computes it off-line during remorph (RemapAll rewrites the ID
// column being rebuilt), then publishes it with CompleteSorted under the
// same locks that swap the rebuilt column in.
type Rebuild struct {
	base  *Snap
	strs  []string // base's strings in sorted order
	remap []uint64 // remap[oldID] = newID, len == base.Len()
}

// BeginSorted pins the current snapshot and computes its sorted
// renumbering. It returns nil when the snapshot is already sorted (nothing
// to do). Concurrent Adds remain allowed; strings added after the pin keep
// their IDs through CompleteSorted (they renumber on the next rebuild).
func (d *Dict) BeginSorted() *Rebuild {
	base := d.cur.Load()
	if base.sorted {
		return nil
	}
	order := make([]int, len(base.strs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return base.strs[order[a]] < base.strs[order[b]] })
	strs := make([]string, len(order))
	remap := make([]uint64, len(order))
	for newID, oldID := range order {
		strs[newID] = base.strs[oldID]
		remap[oldID] = uint64(newID)
	}
	return &Rebuild{base: base, strs: strs, remap: remap}
}

// RemapTable returns the renumbering table itself: remap[oldID] = newID for
// every ID of the pinned snapshot. The delta store applies it to tail rows
// that survive the swap.
func (r *Rebuild) RemapTable() []uint64 { return r.remap }

// RemapAll rewrites a value slice in place from old IDs to post-rebuild IDs.
// IDs at or beyond the pinned snapshot (strings added after BeginSorted) are
// unchanged.
func (r *Rebuild) RemapAll(vals []uint64) {
	for i, v := range vals {
		if v < uint64(len(r.remap)) {
			vals[i] = r.remap[v]
		}
	}
}

// CompleteSorted publishes the renumbering: the pinned strings in sorted
// order, followed by any strings added since BeginSorted at their unchanged
// IDs. The journal is rewritten to a single record in the new order and the
// generation is bumped (cached translations invalidate). The caller must
// hold whatever locks make the renumbered ID column and this publish atomic
// to readers — the engine calls this from the delta store's swap callback.
func (d *Dict) CompleteSorted(r *Rebuild) {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := d.cur.Load()
	n0 := len(r.base.strs)
	strs := make([]string, 0, len(s.strs))
	strs = append(strs, r.strs...)
	strs = append(strs, s.strs[n0:]...)
	ids := make(map[string]uint64, len(strs))
	for id, str := range strs {
		ids[str] = uint64(id)
	}
	d.strs = strs
	d.journal = nil
	if len(strs) > 0 {
		d.journal = encodeAdd(nil, strs)
	}
	ns := &Snap{
		strs:   d.strs[:len(d.strs):len(d.strs)],
		ids:    ids,
		gen:    s.gen + 1,
		sorted: len(s.strs) == n0, // concurrent adds land unsorted at the end
	}
	d.cur.Store(ns)
}
