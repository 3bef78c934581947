package delta

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"morphstore/internal/columns"
	"morphstore/internal/faultpoint"
	"morphstore/internal/qerr"
)

// Table is one writable table: an immutable compressed main plus the mutable
// delta (append-only column tails, deletion set). Mutations are
// serialized by the table mutex and publish new immutable States through an
// atomic pointer; State loads are lock-free, so readers never contend with
// writers. At most one remorph rebuild runs at a time (BeginRebuild /
// CompleteRebuild / EndRebuild); the swap runs under the table mutex and
// in-flight readers finish on the State they pinned.
type Table struct {
	name string
	cols []string // sorted column names

	mu    sync.Mutex
	cur   atomic.Pointer[State]
	tails map[string][]uint64 // append-only backing arrays

	rebuild sync.Mutex // serializes remorph rebuilds
}

// NewTable wraps main (the stored columns of one table) as a writable table
// with an empty delta. All columns must be equally long and at least one is
// required; violations return an error matching qerr.ErrInvalidSchema. The
// main columns are shared, not copied — the caller must not mutate them.
func NewTable(name string, main map[string]*columns.Column) (*Table, error) {
	if len(main) == 0 {
		return nil, qerr.Tag(fmt.Errorf("delta: table %q has no columns", name), qerr.ErrInvalidSchema)
	}
	cols := make([]string, 0, len(main))
	for cn := range main {
		cols = append(cols, cn)
	}
	sort.Strings(cols)
	rows := main[cols[0]].N()
	mcopy := make(map[string]*columns.Column, len(main))
	tails := make(map[string][]uint64, len(main))
	for _, cn := range cols {
		if main[cn].N() != rows {
			return nil, qerr.Tag(
				fmt.Errorf("delta: table %q: ragged columns: %q has %d rows, %q has %d",
					name, cn, main[cn].N(), cols[0], rows),
				qerr.ErrInvalidSchema)
		}
		mcopy[cn] = main[cn]
		tails[cn] = nil
	}
	t := &Table{name: name, cols: cols, tails: tails}
	t.cur.Store(newState(0, mcopy, rows, t.tailViews(0), 0, nil))
	return t, nil
}

// newState assembles an immutable State with a fresh merge cache.
func newState(epoch uint64, main map[string]*columns.Column, mainRows int,
	tail map[string][]uint64, tailRows int, deleted []uint64) *State {
	return &State{
		epoch: epoch, main: main, mainRows: mainRows,
		tail: tail, tailRows: tailRows, deleted: deleted,
		merged: &mergeCache{cols: make(map[string]*columns.Column)},
	}
}

// tailViews builds fixed-length views of the tail backing at n rows; callers
// hold t.mu. Appends past n go to indices a view never covers, so published
// views are safe for concurrent reads.
func (t *Table) tailViews(n int) map[string][]uint64 {
	m := make(map[string][]uint64, len(t.cols))
	for _, cn := range t.cols {
		m[cn] = t.tails[cn][:n:n]
	}
	return m
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Columns returns the table's column names in sorted order.
func (t *Table) Columns() []string { return t.cols }

// State returns the table's current state (lock-free). The returned State is
// a pinned snapshot: it never changes, no matter what mutations or swaps
// follow.
func (t *Table) State() *State { return t.cur.Load() }

// Append adds rows to the table's delta tail: rows must hold exactly the
// table's columns, all equally long (an error matching qerr.ErrInvalidSchema
// otherwise, with the table unchanged). It returns the published state and
// the appended row count; appending zero rows is a no-op.
func (t *Table) Append(rows map[string][]uint64) (*State, int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.cur.Load()
	if len(rows) != len(t.cols) {
		return nil, 0, qerr.Tag(
			fmt.Errorf("delta: append to %q: got %d columns, table has %d", t.name, len(rows), len(t.cols)),
			qerr.ErrInvalidSchema)
	}
	n := -1
	for _, cn := range t.cols {
		vals, ok := rows[cn]
		if !ok {
			return nil, 0, qerr.Tag(
				fmt.Errorf("delta: append to %q: missing column %q", t.name, cn), qerr.ErrInvalidSchema)
		}
		if n < 0 {
			n = len(vals)
		} else if len(vals) != n {
			return nil, 0, qerr.Tag(
				fmt.Errorf("delta: append to %q: ragged rows: %q has %d values, %q has %d",
					t.name, cn, len(vals), t.cols[0], n),
				qerr.ErrInvalidSchema)
		}
	}
	if n == 0 {
		return s, 0, nil
	}
	if err := faultpoint.AppendLog.Hit(); err != nil {
		return nil, 0, fmt.Errorf("delta: append log %q: %w", t.name, err)
	}
	for _, cn := range t.cols {
		tl := t.tails[cn]
		if cap(tl)-len(tl) < n {
			// Double the backing: append grows a large slice by about a
			// quarter, so batches of thousands of rows would reallocate
			// the tail on almost every append.
			grown := make([]uint64, len(tl), len(tl)+max(n, len(tl)))
			copy(grown, tl)
			tl = grown
		}
		t.tails[cn] = append(tl, rows[cn]...)
	}
	ns := newState(s.epoch+1, s.main, s.mainRows, t.tailViews(s.tailRows+n), s.tailRows+n, s.deleted)
	t.cur.Store(ns)
	return ns, n, nil
}

// Delete removes rows by their current live position (0-based row numbers of
// the table as a reader sees it right now: main+tail order with earlier
// deletions already skipped). Duplicates are deleted once; a position at or
// beyond the live row count is an error and nothing is deleted. It returns
// the published state and the number of rows deleted.
func (t *Table) Delete(positions []uint64) (*State, int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.cur.Load()
	live := uint64(s.Rows())
	abs := make([]uint64, 0, len(positions))
	for _, p := range positions {
		if p >= live {
			return nil, 0, fmt.Errorf("delta: delete from %q: position %d out of range (%d live rows)", t.name, p, live)
		}
		abs = append(abs, liveToAbs(p, s.deleted))
	}
	abs = sortedUnique(abs)
	if len(abs) == 0 {
		return s, 0, nil
	}
	if err := faultpoint.AppendLog.Hit(); err != nil {
		return nil, 0, fmt.Errorf("delta: append log %q: %w", t.name, err)
	}
	nd := mergeSorted(s.deleted, abs)
	ns := newState(s.epoch+1, s.main, s.mainRows, s.tail, s.tailRows, nd)
	t.cur.Store(ns)
	return ns, len(abs), nil
}

// DeltaBytes returns the table's current delta footprint: tail backing and
// deletion set.
func (t *Table) DeltaBytes() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var b int64
	for _, cn := range t.cols {
		b += int64(len(t.tails[cn])) * 8
	}
	s := t.cur.Load()
	return b + int64(len(s.deleted))*8
}

// BeginRebuild claims the table's single rebuild slot and pins the state the
// rebuild will fold. It reports false — with no state — when a rebuild is
// already running or the delta is empty (nothing to fold). On true the
// caller must eventually call EndRebuild, normally after CompleteRebuild.
func (t *Table) BeginRebuild() (*State, bool) {
	if !t.rebuild.TryLock() {
		return nil, false
	}
	s := t.cur.Load()
	if s.tailRows == 0 && len(s.deleted) == 0 {
		t.rebuild.Unlock()
		return nil, false
	}
	return s, true
}

// EndRebuild releases the rebuild slot claimed by BeginRebuild (whether the
// rebuild completed or was abandoned).
func (t *Table) EndRebuild() { t.rebuild.Unlock() }

// SwapResult describes one completed remorph swap.
type SwapResult struct {
	// State is the published post-swap state.
	State *State
	// FoldedTail is the number of tail rows folded into the new main.
	FoldedTail int
	// FoldedDeletes is the number of deletions folded into the new main.
	FoldedDeletes int
}

// CompleteRebuild atomically swaps in the new main the caller rebuilt from
// the state s0 pinned by BeginRebuild: main must hold one column per table
// column with exactly s0.Rows() rows (the live rows of s0, in order).
// Mutations that arrived during the rebuild survive the swap — tail rows past
// s0 become the new delta tail and deletions not folded are remapped onto the
// new row numbering.
// In-flight readers keep the states they pinned; only new State loads see the
// swap. The caller still holds the rebuild slot and must EndRebuild after.
func (t *Table) CompleteRebuild(s0 *State, main map[string]*columns.Column) (SwapResult, error) {
	newMainRows := s0.Rows()
	mcopy := make(map[string]*columns.Column, len(t.cols))
	for _, cn := range t.cols {
		col, ok := main[cn]
		if !ok {
			return SwapResult{}, fmt.Errorf("delta: swap %q: rebuilt main is missing column %q", t.name, cn)
		}
		if col.N() != newMainRows {
			return SwapResult{}, fmt.Errorf("delta: swap %q: rebuilt column %q has %d rows, want %d",
				t.name, cn, col.N(), newMainRows)
		}
		mcopy[cn] = col
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s1 := t.cur.Load()
	total0 := uint64(s0.mainRows + s0.tailRows)
	// Keep only the tail rows appended after s0, on fresh backing so the
	// folded prefix can be collected.
	for _, cn := range t.cols {
		t.tails[cn] = append([]uint64(nil), t.tails[cn][s0.tailRows:s1.tailRows]...)
	}
	newTailRows := s1.tailRows - s0.tailRows
	// Remap the deletions that arrived during the rebuild: s1's set is a
	// superset of s0's (deletes only add). Folded entries vanish; survivors
	// below total0 shift down by the folded deletions before them; survivors
	// in the new tail shift by the folded prefix.
	var nd []uint64
	i := 0
	for _, d := range s1.deleted {
		for i < len(s0.deleted) && s0.deleted[i] < d {
			i++
		}
		if i < len(s0.deleted) && s0.deleted[i] == d {
			i++ // folded into the new main
			continue
		}
		if d < total0 {
			nd = append(nd, d-uint64(i))
		} else {
			nd = append(nd, uint64(newMainRows)+(d-total0))
		}
	}
	ns := newState(s1.epoch+1, mcopy, newMainRows, t.tailViews(newTailRows), newTailRows, nd)
	t.cur.Store(ns)
	return SwapResult{State: ns, FoldedTail: s0.tailRows, FoldedDeletes: len(s0.deleted)}, nil
}
