// Package dict implements per-column string dictionaries: append-only
// string→ID translators behind an atomic snapshot, so a string column
// becomes a dictionary plus a plain uint64 ID column that the existing
// formats compress and the existing morsel-parallel operators execute.
//
// IDs are assigned in first-occurrence order and never change: nothing
// renumbers a dictionary, so a snapshot taken at any moment stays valid
// forever for the rows written under it, and a later snapshot only adds
// strings at the end.
//
// Every mutation is journaled in internal/wal's FNV-checksummed record
// framing, and Replay rebuilds a dictionary from that journal: Replay never
// panics and classifies every structural defect as qerr.ErrCorruptData
// (FuzzDictJournal drives this contract). It is the engine's only journal;
// a table's rows live once, in its main and delta tail.
package dict

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"morphstore/internal/faultpoint"
	"morphstore/internal/qerr"
)

// Snap is an immutable dictionary snapshot: a bidirectional string↔ID
// mapping frozen at one publish. Readers translate predicates and results
// against a Snap without locks; a Snap taken after a table state was read is
// always a superset of the IDs that state contains, and two snapshots of one
// dictionary with the same Len are the same mapping.
type Snap struct {
	strs []string
	ids  map[string]uint64
}

// Len returns the number of distinct strings in the snapshot. IDs are dense:
// every ID in [0, Len()) is valid.
func (s *Snap) Len() int { return len(s.strs) }

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

// PrefixIDs returns the ascending IDs of every string with the given
// prefix.
func (s *Snap) PrefixIDs(prefix string) []uint64 {
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

// New returns an empty dictionary.
func New() *Dict {
	d := &Dict{}
	d.cur.Store(&Snap{ids: map[string]uint64{}})
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
	for i, str := range fresh {
		ids[str] = uint64(len(s.strs) + i)
	}
	d.cur.Store(&Snap{strs: d.strs[:len(d.strs):len(d.strs)], ids: ids})
}

// Journal returns the dictionary's journal: replaying it with Replay
// reproduces the dictionary's current snapshot. The returned slice aliases
// the live journal and must not be modified; it is only appended to, so a
// journal taken earlier is a byte prefix of every later one.
func (d *Dict) Journal() []byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.journal[:len(d.journal):len(d.journal)]
}
