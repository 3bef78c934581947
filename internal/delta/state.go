// Package delta implements the writable-table layer of the engine: a
// per-table delta store in the hot/cold style of hybrid OLTP/OLAP systems
// (Funke et al.) and of MorphStore's own main/remainder column split.
//
// Each writable table is a Table: an immutable compressed main part (the
// columns the read-only engine already serves) plus a delta — an append-only
// uncompressed tail per column and a sorted set of deleted absolute
// positions. Mutations (Append, Delete) are serialized per table and publish
// a new immutable State through an atomic pointer; readers load a State once
// (a snapshot) and see a frozen main+delta view forever after, regardless of
// concurrent mutations or remorph swaps. The tail and the deletion set are
// the only copy of the delta: nothing journals a table's rows.
//
// Reads go through State.Column, which merges main and delta into a single
// ordinary column in the main's format, so a dirty table stays compressed.
// With no deletions every format appends the tail (formats.AppendTail): a
// writer of that format copies the main's blocks, static BP groups or runs
// (it does not decode them) and encodes the tail once behind them. With
// deletions the live rows are decoded once and compressed in the main's
// kind (a static BP main at auto width). Either way the merged column equals
// the main's format applied to the live rows in one pass. Merged views are
// cached per State, so concurrent queries at one epoch share them. A State
// with an empty delta hands out the main column itself: the writable path
// then costs one nil check per scan.
//
// A background remorph (driven by the engine) folds the delta back into the
// main: BeginRebuild pins the current State, the caller builds each new main
// column off the hot path, and CompleteRebuild atomically swaps the new main
// in — remapping the tail rows and deletions that arrived during the rebuild
// — while in-flight readers finish on the State they pinned. The engine's
// fold takes the merged column (State.Column) as the new main, or its morph
// when the cost model picks another kind; State.Main and State.Tail give it
// the main whose profile it extends and the tail it extends it by.
package delta

import (
	"fmt"
	"sort"
	"sync"

	"morphstore/internal/columns"
	"morphstore/internal/faultpoint"
	"morphstore/internal/formats"
)

// State is one immutable snapshot of a writable table: the compressed main
// columns, the uncompressed delta tail, and the deletion set at one epoch.
// Loading a State pins the view — later mutations and remorph swaps publish
// new States and never touch an old one — so any number of readers can share
// a State concurrently. Merged main+delta views are built lazily and cached
// per column.
type State struct {
	epoch    uint64
	main     map[string]*columns.Column
	mainRows int
	tail     map[string][]uint64 // fixed-length views over the append-only backing
	tailRows int
	deleted  []uint64 // sorted absolute positions in [0, mainRows+tailRows)

	merged *mergeCache
}

// Epoch returns the state's version number; every Append, Delete, and
// completed remorph swap increments it.
func (s *State) Epoch() uint64 { return s.epoch }

// Rows returns the live row count: main plus tail minus deletions.
func (s *State) Rows() int { return s.mainRows + s.tailRows - len(s.deleted) }

// MainRows returns the row count of the compressed main part.
func (s *State) MainRows() int { return s.mainRows }

// TailRows returns the row count of the uncompressed delta tail.
func (s *State) TailRows() int { return s.tailRows }

// DeletedRows returns the number of pending deletions (positions deleted
// since the last remorph fold).
func (s *State) DeletedRows() int { return len(s.deleted) }

// Column returns the merged main+delta view of one column as an ordinary
// column in the main's format (merge). With an empty delta it is the stored
// main column itself (no copy, no allocation); otherwise the merged view is
// built on first access at this state and cached, so concurrent readers at
// one epoch share it.
func (s *State) Column(name string) (*columns.Column, error) {
	main, ok := s.main[name]
	if !ok {
		return nil, fmt.Errorf("delta: unknown column %q", name)
	}
	if s.tailRows == 0 && len(s.deleted) == 0 {
		return main, nil
	}
	s.merged.mu.Lock()
	defer s.merged.mu.Unlock()
	if c, ok := s.merged.cols[name]; ok {
		return c, nil
	}
	if err := faultpoint.DeltaMerge.Hit(); err != nil {
		return nil, fmt.Errorf("delta: merge %q: %w", name, err)
	}
	c, err := s.merge(name, main)
	if err != nil {
		return nil, err
	}
	s.merged.cols[name] = c
	return c, nil
}

// Main returns the stored main column of name at this state (nil for an
// unknown column): the column the last remorph swapped in, without the delta.
func (s *State) Main(name string) *columns.Column { return s.main[name] }

// Tail returns the delta tail of name at this state, the values appended
// since the last remorph in row order (nil for an unknown column). The slice
// is shared with the state; callers must not modify it.
func (s *State) Tail(name string) []uint64 { return s.tail[name] }

// mergeCache holds a state's lazily built merged views. It lives behind a
// pointer so State itself stays immutable and copyable.
type mergeCache struct {
	mu   sync.Mutex
	cols map[string]*columns.Column
}

// merge builds the merged main+delta view of one column in the main's
// format. With no deletions the tail is appended (formats.AppendTail): the
// main's compressed words are copied, not decoded, and the tail is encoded
// once behind them. With deletions the main is decoded straight into one
// slice, the tail copied behind it, the deleted positions compacted out in
// place, and the live rows compressed in the main's kind at auto width, as
// one pass over them would compress them.
func (s *State) merge(name string, main *columns.Column) (*columns.Column, error) {
	if len(s.deleted) == 0 {
		c, err := formats.AppendTail(main, s.tail[name])
		if err != nil {
			return nil, fmt.Errorf("delta: %q: %w", name, err)
		}
		return c, nil
	}
	all := make([]uint64, s.mainRows+s.tailRows)
	if base, ok := main.Values(); ok {
		copy(all, base)
	} else if err := formats.DecompressInto(all[:s.mainRows], main); err != nil {
		return nil, fmt.Errorf("delta: %q: %w", name, err)
	}
	copy(all[s.mainRows:], s.tail[name])
	live, di := all[:0], 0
	for i, v := range all {
		if di < len(s.deleted) && s.deleted[di] == uint64(i) {
			di++
			continue
		}
		live = append(live, v)
	}
	desc := main.Desc()
	desc.Bits = 0
	c, err := formats.Compress(live, desc)
	if err != nil {
		return nil, fmt.Errorf("delta: %q: %w", name, err)
	}
	return c, nil
}

// liveToAbs maps a live row number to its absolute position under the sorted
// deletion set: each deletion at or before the running position shifts it up.
func liveToAbs(p uint64, deleted []uint64) uint64 {
	for _, d := range deleted {
		if d <= p {
			p++
		} else {
			break
		}
	}
	return p
}

// mergeSorted unions two sorted uint64 slices (both duplicate-free, disjoint
// by construction) into a fresh sorted slice.
func mergeSorted(a, b []uint64) []uint64 {
	out := make([]uint64, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// sortedUnique sorts vals ascending and drops duplicates in place.
func sortedUnique(vals []uint64) []uint64 {
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	out := vals[:0]
	for i, v := range vals {
		if i == 0 || v != vals[i-1] {
			out = append(out, v)
		}
	}
	return out
}
