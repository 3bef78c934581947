package core

import (
	"context"
	"fmt"
	"maps"
	"sync"
	"time"

	"morphstore/internal/columns"
	"morphstore/internal/costmodel"
	"morphstore/internal/delta"
	"morphstore/internal/dict"
	"morphstore/internal/faultpoint"
	"morphstore/internal/formats"
	"morphstore/internal/metrics"
	"morphstore/internal/morph"
	"morphstore/internal/qerr"
	"morphstore/internal/stats"
)

// This file implements the engine's writable-table layer on top of
// internal/delta: Append/Delete mutate a per-table delta store, Snapshot
// pins the consistent main+delta view every execution reads (execute() pins
// one at admission), and Remorph — called directly or by the background
// worker WithRemorph starts — folds a table's delta into a compressed main
// chosen by the cost model, atomically swapped in while in-flight queries
// finish on the states they pinned. A string column's dictionary IDs never
// change, so the fold treats its ID column like any other column and never
// touches the dictionary.

// WithRemorph starts the engine's background remorph worker: every interval
// it scans the writable tables and rebuilds any whose delta (tail rows plus
// pending deletions) has reached threshold times the main row count
// (threshold <= 0 means any non-empty delta). Each rebuild re-picks every
// column's format with the cost model off the hot path, builds the new main
// (the merged main+delta column, already in the main's format, or its morph
// when the pick changes the format), and atomically swaps it in;
// queries already running finish on their pinned snapshots. The worker
// registers its rebuilds with the admission layer, so Engine.Close drains
// them like queries. Applies to NewEngine.
func WithRemorph(threshold float64, interval time.Duration) Option {
	return Option{name: "WithRemorph", scope: scopeEngine, apply: func(o *options) {
		o.remorphRatio, o.remorphEvery = threshold, interval
	}}
}

// Snapshot is a consistent read view over the engine's tables: each writable
// table is pinned at one delta state (epoch), and mutations or remorph swaps
// that happen later are invisible through it. Executions pin a snapshot at
// admission, so every operator of one query reads the same view. Tables
// never written through Append/Delete are served from base storage
// unchanged. A Snapshot is immutable and safe for concurrent use.
type Snapshot struct {
	states map[string]*delta.State
	// dicts pins, per writable table, the dictionary snapshot of each
	// dictionary-encoded column. Pinned after the table's state, each dict
	// snapshot covers every ID its state contains.
	dicts map[string]map[string]*dict.Snap
}

// Epoch returns the pinned delta epoch of a table (0 for tables without a
// delta store). Every Append, Delete, and remorph swap increments a table's
// epoch.
func (s *Snapshot) Epoch(table string) uint64 {
	if s == nil {
		return 0
	}
	if st, ok := s.states[table]; ok {
		return st.Epoch()
	}
	return 0
}

// Rows returns the live row count of a writable table at this snapshot; ok
// is false for tables without a delta store.
func (s *Snapshot) Rows(table string) (n int, ok bool) {
	if s == nil {
		return 0, false
	}
	st, found := s.states[table]
	if !found {
		return 0, false
	}
	return st.Rows(), true
}

// Dict returns the pinned dictionary snapshot of a dictionary-encoded
// column, or nil when the table is not writable at this snapshot (callers
// then read the live dictionary: IDs never change, so it translates every
// ID the snapshot's rows carry).
// Use it to translate a query's result IDs back to strings consistently
// with the rows the same snapshot serves.
func (s *Snapshot) Dict(table, column string) *dict.Snap {
	if s == nil {
		return nil
	}
	return s.dicts[table][column]
}

// columnOr resolves a scan through the snapshot: writable tables serve the
// pinned merged main+delta view, everything else the prepare-bound column.
func (s *Snapshot) columnOr(fallback *columns.Column, table, column string) (*columns.Column, error) {
	if s == nil {
		return fallback, nil
	}
	st, ok := s.states[table]
	if !ok {
		return fallback, nil
	}
	return st.Column(column)
}

// writableTable pairs a table's delta store with the engine-side admission
// bookkeeping: one byte reservation per append batch, tagged with the tail
// length it ends at, released when a remorph folds the batch into the main.
// The mutex guards resv (the delta store locks itself).
type writableTable struct {
	dt    *delta.Table
	dicts map[string]*dict.Dict // the table's string-column dictionaries

	mu   sync.Mutex
	resv []tailResv
}

// tailResv is one append batch's byte reservation at the admission gate.
type tailResv struct {
	tailEnd int // the table's tail length after the batch
	bytes   int64
}

// writable returns (creating on first use) the delta store of a table. The
// first Append or Delete against a table makes it writable: from then on
// every execution resolves the table's scans through its pinned snapshot.
func (e *Engine) writable(name string) (*writableTable, error) {
	e.wmu.Lock()
	defer e.wmu.Unlock()
	if wt, ok := e.wtabs[name]; ok {
		return wt, nil
	}
	t, ok := e.db.Tables[name]
	if !ok {
		return nil, fmt.Errorf("core: unknown table %q", name)
	}
	dt, err := delta.NewTable(name, t.Cols)
	if err != nil {
		return nil, err
	}
	wt := &writableTable{dt: dt, dicts: t.Dicts}
	e.wtabs[name] = wt
	return wt, nil
}

// snapshotOrNil pins the current state of every writable table, or returns
// nil when the engine has none (the read-only fast path: executions then
// skip snapshot resolution entirely).
func (e *Engine) snapshotOrNil() *Snapshot {
	e.wmu.Lock()
	defer e.wmu.Unlock()
	if len(e.wtabs) == 0 {
		return nil
	}
	m := make(map[string]*delta.State, len(e.wtabs))
	for n, wt := range e.wtabs {
		m[n] = wt.dt.State()
	}
	// Dictionary snapshots are pinned after every table state: appends run
	// dict.Add before delta.Append and IDs never change, so a dict snapshot
	// read later is a superset of the IDs its state contains.
	var dicts map[string]map[string]*dict.Snap
	for n, wt := range e.wtabs {
		if len(wt.dicts) == 0 {
			continue
		}
		if dicts == nil {
			dicts = make(map[string]map[string]*dict.Snap)
		}
		ds := make(map[string]*dict.Snap, len(wt.dicts))
		for cn, d := range wt.dicts {
			ds[cn] = d.Snap()
		}
		dicts[n] = ds
	}
	return &Snapshot{states: m, dicts: dicts}
}

// pickDB returns the tables as an execution admitted now reads them, for the
// cost-based pick to profile: each writable table's merged main+delta columns
// at its current state, every other table as registered. A column that is
// still the main the last remorph built (its delta is empty) carries the
// profile remorph stored, so the pick does not decode and profile it again.
func (e *Engine) pickDB() (*DB, error) {
	snap := e.snapshotOrNil()
	if snap == nil {
		return e.db, nil
	}
	view := &DB{Tables: maps.Clone(e.db.Tables)}
	for name, st := range snap.states {
		t := e.db.Tables[name]
		vt := &Table{Name: name, Cols: make(map[string]*columns.Column, len(t.Cols)), Dicts: t.Dicts}
		for cn := range t.Cols {
			col, err := st.Column(cn)
			if err != nil {
				return nil, err
			}
			vt.Cols[cn] = col
		}
		view.Tables[name] = vt
	}
	return view, nil
}

// Snapshot pins the engine's current read view: each writable table at its
// current delta epoch. The snapshot stays consistent forever — concurrent
// Append/Delete calls and remorph swaps publish new states and never mutate
// pinned ones. Executions pin their own snapshot at admission; Snapshot is
// for callers that want to inspect epochs and row counts.
func (e *Engine) Snapshot() *Snapshot {
	if s := e.snapshotOrNil(); s != nil {
		return s
	}
	return &Snapshot{}
}

// Append appends rows to a table's delta store: rows maps every column of
// the table to equally long value slices (an error matching ErrInvalidSchema
// otherwise — a nil or empty map included; the table is unchanged), and a
// batch of zero rows is a no-op. The rows are visible to every execution
// admitted after Append returns; running executions keep their pinned
// snapshots. Appends are serialized per table, cheap (no re-compression —
// the remorph worker folds the delta in the background), and under
// WithMemoryBudget each batch's bytes are reserved at the engine's admission
// gate until a remorph folds it: an append that does not fit waits in the
// admission queue until running queries release or a remorph folds earlier
// batches, and is shed with a retryable ErrAdmissionRejected under the
// WithAdmissionQueue bounds or its ctx. After Engine.Close, Append fails
// fast with ErrEngineClosed. It is AppendStrings without string columns.
func (e *Engine) Append(ctx context.Context, table string, rows map[string][]uint64) error {
	return e.AppendStrings(ctx, table, rows, nil)
}

// AppendStrings appends rows that mix plain uint64 columns (nums) and
// string columns (strs): every strs column must be dictionary-encoded
// (AddStringColumn) and no nums column may be. The strings are translated
// through the table's dictionary — new strings get fresh IDs in
// first-occurrence order — and the resulting ID rows append to the delta
// store under Append's visibility, admission and Close semantics. nums and
// strs together must cover exactly the table's columns with equally long
// slices (ErrInvalidSchema otherwise; the rows are not appended, though novel
// strings of a failed batch may remain in the dictionary — harmless, they
// simply match no row). This is the supported append path for tables with
// string columns. Dictionary IDs never change, so a batch needs no lock
// between its translation and its append: every ID it appends was published
// before the rows that carry it.
func (e *Engine) AppendStrings(ctx context.Context, table string, nums map[string][]uint64, strs map[string][]string) (err error) {
	defer e.opGuard("append", &err)
	ctx, done, err := e.begin(ctx)
	if err != nil {
		return err
	}
	defer done()
	wt, err := e.writable(table)
	if err != nil {
		return err
	}
	for cn := range strs {
		if wt.dicts[cn] == nil {
			return qerr.Tag(fmt.Errorf("core: append to %q: %q is not a dictionary-encoded string column", table, cn), qerr.ErrInvalidSchema)
		}
	}
	// Raw values for a string column would land as IDs its dictionary never
	// defined.
	for cn := range nums {
		if wt.dicts[cn] != nil {
			return qerr.Tag(fmt.Errorf("core: append to %q: string column %q needs strings, got uint64 values", table, cn), qerr.ErrInvalidSchema)
		}
	}
	nrows := 0
	for _, vals := range nums {
		nrows = len(vals)
		break
	}
	for _, vals := range strs {
		nrows = len(vals)
		break
	}
	bytes := int64(nrows) * 8 * int64(len(nums)+len(strs))
	if _, err := e.adm.admit(ctx, bytes, false); err != nil {
		return err
	}
	rows := make(map[string][]uint64, len(nums)+len(strs))
	for cn, vals := range nums {
		rows[cn] = vals
	}
	for cn, vals := range strs {
		ids, derr := wt.dicts[cn].Add(vals)
		if derr != nil {
			e.adm.release(bytes, false)
			return derr
		}
		if ids == nil {
			ids = []uint64{}
		}
		rows[cn] = ids
	}
	st, n, err := wt.dt.Append(rows)
	if err != nil || n == 0 {
		e.adm.release(bytes, false)
		return err
	}
	wt.mu.Lock()
	wt.resv = append(wt.resv, tailResv{tailEnd: st.TailRows(), bytes: bytes})
	wt.mu.Unlock()
	e.counters.appends.Add(1)
	e.counters.appendedRows.Add(int64(n))
	return nil
}

// Delete removes rows from a table by their current live position (0-based
// row numbers as a fresh query would see them). Duplicates are deleted once;
// an out-of-range position is an error and nothing is deleted. Deletions are
// applied as a mask at read time and folded into the main by the next
// remorph. Executions admitted after Delete returns see the rows gone;
// running executions keep their pinned snapshots. After Engine.Close, Delete
// fails fast with ErrEngineClosed.
func (e *Engine) Delete(ctx context.Context, table string, positions []uint64) (err error) {
	defer e.opGuard("delete", &err)
	_, done, err := e.begin(ctx)
	if err != nil {
		return err
	}
	defer done()
	wt, err := e.writable(table)
	if err != nil {
		return err
	}
	_, n, err := wt.dt.Delete(positions)
	if err != nil {
		return err
	}
	e.counters.deletes.Add(1)
	e.counters.deletedRows.Add(int64(n))
	return nil
}

// Remorph folds a table's delta into the main immediately (the background
// worker runs the same pass on its own schedule): at a pinned state each
// column's format is re-picked by the cost model over the paper's formats —
// from the main's stored profile extended by the tail when nothing is
// deleted, from a rescan of the live rows otherwise — and the new main, which
// keeps the profile the pick read, is atomically swapped in. Queries already
// running finish on their pinned snapshots — the swap never blocks them — and
// mutations that arrive during the rebuild survive it as the new delta. A
// table with an empty delta, or one whose rebuild is already running, is a
// no-op. After Engine.Close, Remorph fails fast with ErrEngineClosed.
func (e *Engine) Remorph(ctx context.Context, table string) (err error) {
	defer e.opGuard("remorph", &err)
	ctx, done, err := e.begin(ctx)
	if err != nil {
		return err
	}
	defer done()
	wt, err := e.writable(table)
	if err != nil {
		return err
	}
	return e.remorphTable(ctx, wt)
}

// remorphTable runs one rebuild+swap attempt against a writable table. The
// caller holds an admission registration; remorphTable claims the table's
// rebuild slot (no-op when taken or the delta is empty), rebuilds every
// column off the hot path, and completes the swap under the table mutex. A
// failure — cancellation, a compression error, an injected RemorphSwap
// fault — aborts the attempt with the old state intact; the worker retries
// on its next tick.
func (e *Engine) remorphTable(ctx context.Context, wt *writableTable) (err error) {
	s0, ok := wt.dt.BeginRebuild()
	if !ok {
		return nil
	}
	defer wt.dt.EndRebuild()
	start := time.Now()
	var span metrics.Span
	var inValues, outValues int64 // values the fold read, rows of the new mains
	tr := e.defs.tracer
	if tr != nil {
		span = metrics.Span{Query: metrics.ReserveQueryID(), Node: -1, Name: wt.dt.Name(), Op: "remorph"}
		tr.Begin(span, start)
		defer func() {
			ns := metrics.NodeStats{Node: -1, Name: wt.dt.Name(), Op: "remorph",
				Started: true, Done: err == nil, Wall: time.Since(start),
				InValues: inValues, OutValues: outValues}
			if err != nil {
				ns.Err = err.Error()
			}
			tr.End(span, time.Now(), ns)
		}()
	}
	defer func() {
		if err != nil {
			e.counters.remorphFailed.Add(1)
		}
	}()
	newMain := make(map[string]*columns.Column, len(wt.dt.Columns()))
	for _, cn := range wt.dt.Columns() {
		if err := ctx.Err(); err != nil {
			return err
		}
		col, read, err := wt.foldColumn(s0, cn)
		if err != nil {
			return err
		}
		newMain[cn] = col
		inValues += int64(read)
		outValues += int64(col.N())
	}
	if err := hitGuarded(faultpoint.RemorphSwap); err != nil {
		return err
	}
	res, err := wt.dt.CompleteRebuild(s0, newMain)
	if err != nil {
		return err
	}
	wt.releaseFolded(e.adm, res.FoldedTail)
	e.counters.remorphs.Add(1)
	e.counters.remorphRows.Add(int64(res.State.MainRows()))
	if tr != nil {
		tr.Event(span, time.Now(),
			metrics.Event{Kind: metrics.EvRemorphSwap, Value: int64(res.FoldedTail + res.FoldedDeletes)})
	}
	return nil
}

// foldColumn builds column cn's new main from the pinned state s0, stores
// its profile on it and returns it with the number of values the fold read.
// The new main starts from s0's merged column, which is already in the
// main's format (and which the queries reading s0 have usually built). Its
// profile is the one stored on s0's main extended by the tail when nothing
// is deleted, and otherwise collected from the merged column, decoding it
// once. When the cost model's pick keeps the merged column's kind, it is the
// new main; otherwise its morph into the pick is.
func (wt *writableTable) foldColumn(s0 *delta.State, cn string) (*columns.Column, int, error) {
	col, err := s0.Column(cn)
	if err != nil {
		return nil, 0, err
	}
	tail, read := s0.Tail(cn), 0
	var prof *stats.Profile
	if main := s0.Main(cn); s0.DeletedRows() == 0 && main.Profile() != nil {
		prof, _ = main.Profile().Append(tail) // nil for a tail below the main's minimum
		read = len(tail)
	}
	if prof == nil {
		if prof, err = profileOf(col); err != nil {
			return nil, 0, err
		}
		read = col.N()
	}
	if pick := pickFormat(prof); pick.Kind != col.Desc().Kind {
		if col, err = morph.Morph(col, pick); err != nil {
			return nil, 0, fmt.Errorf("core: remorph %q.%q: %w", wt.dt.Name(), cn, err)
		}
	}
	col.SetProfile(prof)
	return col, read, nil
}

// pickFormat is the fold's format pick: the smallest of the paper's formats
// by the cost model's size estimate (uncompressed for an empty column, where
// every estimate ties at the metadata and the first candidate wins).
func pickFormat(prof *stats.Profile) columns.FormatDesc {
	if d, err := costmodel.ChooseBySize(prof, formats.PaperDescs()); err == nil {
		return d
	}
	return columns.UncomprDesc
}

// releaseFolded returns to the admission gate the bytes of append batches the
// swap folded into the main (batch boundaries align with fold boundaries:
// both are published tail lengths) and rebases the survivors onto the new
// tail numbering.
func (wt *writableTable) releaseFolded(adm *admission, folded int) {
	wt.mu.Lock()
	defer wt.mu.Unlock()
	keep := wt.resv[:0]
	for _, r := range wt.resv {
		if r.tailEnd <= folded {
			adm.release(r.bytes, false)
		} else {
			r.tailEnd -= folded
			keep = append(keep, r)
		}
	}
	wt.resv = keep
}

// releaseDeltaReservations returns every writable table's outstanding batch
// bytes to the admission gate; Close calls it after the drain so a closed
// engine holds no reserved bytes.
func (e *Engine) releaseDeltaReservations() {
	e.wmu.Lock()
	defer e.wmu.Unlock()
	for _, wt := range e.wtabs {
		wt.mu.Lock()
		for _, r := range wt.resv {
			e.adm.release(r.bytes, false)
		}
		wt.resv = nil
		wt.mu.Unlock()
	}
}

// remorphLoop is the background worker WithRemorph starts: on every tick it
// sweeps the writable tables and rebuilds the over-threshold ones. It exits
// when Close signals remorphStop.
func (e *Engine) remorphLoop() {
	defer close(e.remorphDone)
	t := time.NewTicker(e.remorphEvery)
	defer t.Stop()
	for {
		select {
		case <-e.remorphStop:
			return
		case <-t.C:
			e.remorphSweep()
		}
	}
}

// remorphSweep runs one worker pass: every writable table whose delta
// crossed the threshold is rebuilt, each rebuild registered with the
// admission layer (so Close drains it) and cancelled through killCtx when
// Close abandons the graceful drain. Errors are counted (remorphFailed) and
// retried on the next tick.
func (e *Engine) remorphSweep() {
	e.wmu.Lock()
	wts := make([]*writableTable, 0, len(e.wtabs))
	for _, wt := range e.wtabs {
		wts = append(wts, wt)
	}
	e.wmu.Unlock()
	for _, wt := range wts {
		if !remorphDue(wt.dt.State(), e.remorphRatio) {
			continue
		}
		ctx, done, err := e.begin(context.Background())
		if err != nil {
			return // engine closed
		}
		func() {
			defer done()
			var rerr error
			defer e.opGuard("remorph", &rerr)
			rerr = e.remorphTable(ctx, wt)
		}()
	}
}

// remorphDue reports whether a table's delta has crossed the rebuild
// threshold: tail rows plus pending deletions at ratio times the main rows
// (ratio <= 0: any non-empty delta; an empty main folds on any delta).
func remorphDue(st *delta.State, ratio float64) bool {
	pending := st.TailRows() + st.DeletedRows()
	if pending == 0 {
		return false
	}
	if ratio <= 0 || st.MainRows() == 0 {
		return true
	}
	return float64(pending) >= ratio*float64(st.MainRows())
}
