package delta

import (
	"errors"
	"fmt"
	"testing"

	"morphstore/internal/columns"
	"morphstore/internal/formats"
	"morphstore/internal/qerr"
)

// compress builds a main column in the given format.
func compress(t *testing.T, vals []uint64, d columns.FormatDesc) *columns.Column {
	t.Helper()
	col, err := formats.Compress(vals, d)
	if err != nil {
		t.Fatalf("Compress(%v): %v", d, err)
	}
	return col
}

// decompress reads any column back to values.
func decompress(t *testing.T, col *columns.Column) []uint64 {
	t.Helper()
	vals, err := formats.Decompress(col)
	if err != nil {
		t.Fatalf("Decompress: %v", err)
	}
	return vals
}

// stateValues decodes the merged view of column cn at state s: its live
// values in row order.
func stateValues(t *testing.T, s *State, cn string) []uint64 {
	t.Helper()
	col, err := s.Column(cn)
	if err != nil {
		t.Fatal(err)
	}
	return decompress(t, col)
}

func seq(lo, n int) []uint64 {
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = uint64(lo + i)
	}
	return vals
}

func eq(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// model is a reference implementation of a single-column writable table: a
// plain slice of live values mutated with the same live-position semantics.
type model struct{ vals []uint64 }

func (m *model) append(vals []uint64) { m.vals = append(m.vals, vals...) }

func (m *model) delete(positions []uint64) {
	dead := make(map[uint64]bool, len(positions))
	for _, p := range positions {
		dead[p] = true
	}
	out := m.vals[:0]
	for i, v := range m.vals {
		if !dead[uint64(i)] {
			out = append(out, v)
		}
	}
	m.vals = out
}

// checkMerge appends tail to a table whose main is base compressed in d,
// deletes the rows at the absolute positions del and checks the merged view:
// it keeps the main's kind and is byte-identical to compressing the live rows
// in one pass in that kind at auto width.
func checkMerge(t *testing.T, d columns.FormatDesc, base, tail, del []uint64) {
	t.Helper()
	tab, err := NewTable("t", map[string]*columns.Column{"v": compress(t, base, d)})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := tab.Append(map[string][]uint64{"v": tail}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tab.Delete(del); err != nil {
		t.Fatal(err)
	}
	col, err := tab.State().Column("v")
	if err != nil {
		t.Fatal(err)
	}
	m := &model{}
	m.append(base)
	m.append(tail)
	m.delete(del)
	auto := d
	auto.Bits = 0
	want := compress(t, m.vals, auto)
	if col.Desc().Kind != d.Kind {
		t.Fatalf("merged column is %v, want the main's kind %v", col.Desc(), d)
	}
	if col.Desc() != want.Desc() || col.N() != want.N() || col.MainElems() != want.MainElems() ||
		len(col.MainWords()) != len(want.MainWords()) || !eq(col.Words(), want.Words()) {
		t.Fatalf("merged column %v differs from Compress(live rows) %v", col, want)
	}
}

// TestMergePerFormat checks the merged main+delta view for every format: the
// live rows stay in the main's format, byte-identical to compressing them in
// one pass, never materialized uncompressed. Byte identity pins the static
// BP width (a wider tail widens the main; deletions re-derive it) and the
// RLE runs (a tail continuing the main's last run extends it). A delete-free
// state appends the tail; deletions in the main, the tail, both, of every
// main row and behind an empty main recompress the live rows.
func TestMergePerFormat(t *testing.T) {
	type mergeCase struct {
		name            string
		base, tail, del []uint64
	}
	wide := func(n int, v uint64) []uint64 {
		vals := make([]uint64, n)
		for i := range vals {
			vals[i] = v - uint64(i%3)
		}
		return vals
	}
	runs := func(vals ...uint64) []uint64 {
		var out []uint64
		for _, v := range vals {
			for i := 0; i < 50; i++ {
				out = append(out, v)
			}
		}
		return out
	}
	common := []mergeCase{
		{"within-block", seq(0, 1300), seq(1300, 77), nil},  // 1300 = 2 full 512-blocks + 276 remainder
		{"across-block", seq(0, 1300), seq(1300, 700), nil}, // completes the remainder into a block
		{"one-value", seq(0, 1300), seq(1300, 1), nil},
		{"deleted-main", seq(0, 1300), seq(1300, 77), []uint64{0, 511, 512, 1299}},
		{"deleted-tail", seq(0, 1300), seq(1300, 700), []uint64{1300, 1500, 1999}},
		{"deleted-both", runs(7, 1, 9), seq(1300, 700), []uint64{3, 49, 50, 150, 848}},
		{"deleted-every-main-row", seq(0, 1300), seq(1300, 77), seq(0, 1300)},
		{"deleted-empty-main", nil, seq(5, 700), []uint64{0, 5, 699}},
	}
	extra := map[columns.Kind][]mergeCase{
		columns.StaticBP: {
			{"wider-tail", seq(0, 1000), wide(100, 1<<40), nil},
			{"group-aligned-main", seq(0, 1024), seq(1024, 70), nil},
			{"zero-width-main", make([]uint64, 130), seq(0, 5), nil},
			{"zero-width-both", make([]uint64, 130), make([]uint64, 9), nil},
			{"width-64-main", wide(100, ^uint64(0)), seq(0, 200), nil},
			{"empty-main", nil, seq(5, 70), nil},
			{"deleted-widest-rows", wide(100, 1<<40), seq(0, 200), seq(0, 100)},
		},
		columns.RLE: {
			{"extends-last-run", runs(1, 2, 3), runs(3, 4), nil},
			{"deleted-run-boundary", runs(1, 2, 3), runs(3, 4), []uint64{49, 50, 149, 150}},
		},
	}
	for _, d := range formats.AllDescs() {
		t.Run(d.String(), func(t *testing.T) {
			for _, c := range append(common, extra[d.Kind]...) {
				t.Run(c.name, func(t *testing.T) { checkMerge(t, d, c.base, c.tail, c.del) })
			}
		})
	}
	// A static BP main at a fixed width: the deletion merge packs the live
	// rows at their own width.
	t.Run("static_bp(20)/deleted-main", func(t *testing.T) {
		checkMerge(t, columns.StaticBPDesc(20), seq(0, 1300), seq(1300, 77), []uint64{3, 1000})
	})
}

// TestEmptyDeltaIsMainColumn checks the empty-delta fast path: the state
// hands out the stored column itself.
func TestEmptyDeltaIsMainColumn(t *testing.T) {
	main := compress(t, seq(0, 600), columns.DynBPDesc)
	tab, err := NewTable("t", map[string]*columns.Column{"v": main})
	if err != nil {
		t.Fatal(err)
	}
	col, err := tab.State().Column("v")
	if err != nil {
		t.Fatal(err)
	}
	if col != main {
		t.Fatal("empty delta should return the main column itself")
	}
}

// TestMergedViewCached checks merged views are built once per state.
func TestMergedViewCached(t *testing.T) {
	tab, err := NewTable("t", map[string]*columns.Column{"v": columns.FromValues(seq(0, 10))})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := tab.Append(map[string][]uint64{"v": seq(10, 5)}); err != nil {
		t.Fatal(err)
	}
	s := tab.State()
	c1, err := s.Column("v")
	if err != nil {
		t.Fatal(err)
	}
	c2, err := s.Column("v")
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Fatal("merged view not cached per state")
	}
}

// TestDeleteSemantics checks live-position deletes across main and tail,
// duplicate collapsing, and the deletion mask in merged reads.
func TestDeleteSemantics(t *testing.T) {
	m := &model{}
	m.append(seq(0, 100))
	tab, err := NewTable("t", map[string]*columns.Column{"v": compress(t, seq(0, 100), columns.DeltaBPDesc)})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := tab.Append(map[string][]uint64{"v": seq(100, 50)}); err != nil {
		t.Fatal(err)
	}
	m.append(seq(100, 50))

	// Two rounds of deletes: the second round's live positions land on rows
	// shifted by the first, exercising liveToAbs.
	for _, round := range [][]uint64{{3, 3, 97, 120}, {0, 95, 140}} {
		if _, n, err := tab.Delete(round); err != nil {
			t.Fatal(err)
		} else if want := len(sortedUnique(append([]uint64(nil), round...))); n != want {
			t.Fatalf("Delete(%v) deleted %d rows, want %d", round, n, want)
		}
		m.delete(round)
	}

	s := tab.State()
	if s.Rows() != len(m.vals) {
		t.Fatalf("Rows = %d, want %d", s.Rows(), len(m.vals))
	}
	col, err := s.Column("v")
	if err != nil {
		t.Fatal(err)
	}
	if got := decompress(t, col); !eq(got, m.vals) {
		t.Fatalf("merged values differ from model after deletes")
	}
}

// TestValidation checks the typed schema errors of NewTable, Append, and the
// out-of-range Delete error.
func TestValidation(t *testing.T) {
	if _, err := NewTable("t", nil); !errors.Is(err, qerr.ErrInvalidSchema) {
		t.Fatalf("NewTable with no columns: err = %v, want ErrInvalidSchema", err)
	}
	if _, err := NewTable("t", map[string]*columns.Column{
		"a": columns.FromValues(seq(0, 4)), "b": columns.FromValues(seq(0, 5)),
	}); !errors.Is(err, qerr.ErrInvalidSchema) {
		t.Fatalf("NewTable ragged: err = %v, want ErrInvalidSchema", err)
	}

	tab, err := NewTable("t", map[string]*columns.Column{
		"a": columns.FromValues(seq(0, 4)), "b": columns.FromValues(seq(10, 4)),
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, rows := range map[string]map[string][]uint64{
		"missing column": {"a": seq(0, 2)},
		"unknown column": {"a": seq(0, 2), "c": seq(0, 2)},
		"ragged rows":    {"a": seq(0, 2), "b": seq(0, 3)},
	} {
		if _, _, err := tab.Append(rows); !errors.Is(err, qerr.ErrInvalidSchema) {
			t.Fatalf("Append %s: err = %v, want ErrInvalidSchema", name, err)
		}
	}
	if s := tab.State(); s.Epoch() != 0 || s.TailRows() != 0 {
		t.Fatal("failed appends must not change the table")
	}
	if _, n, err := tab.Append(map[string][]uint64{"a": nil, "b": nil}); err != nil || n != 0 {
		t.Fatalf("zero-row append: n=%d err=%v, want no-op", n, err)
	}
	if _, _, err := tab.Delete([]uint64{4}); err == nil {
		t.Fatal("out-of-range delete must fail")
	}
	if s := tab.State(); s.DeletedRows() != 0 {
		t.Fatal("failed delete must not change the table")
	}
}

// TestSnapshotImmutable checks a pinned state never changes: mutations after
// the pin are invisible, and epochs increase monotonically.
func TestSnapshotImmutable(t *testing.T) {
	tab, err := NewTable("t", map[string]*columns.Column{"v": columns.FromValues(seq(0, 8))})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := tab.Append(map[string][]uint64{"v": seq(8, 4)}); err != nil {
		t.Fatal(err)
	}
	pinned := tab.State()
	pv := stateValues(t, pinned, "v")
	last := pinned.Epoch()
	for i := 0; i < 5; i++ {
		if _, _, err := tab.Append(map[string][]uint64{"v": seq(100*i, 3)}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := tab.Delete([]uint64{0}); err != nil {
			t.Fatal(err)
		}
		if e := tab.State().Epoch(); e <= last {
			t.Fatalf("epoch not monotone: %d after %d", e, last)
		} else {
			last = e
		}
	}
	if now := stateValues(t, pinned, "v"); !eq(now, pv) {
		t.Fatal("pinned state changed under mutations")
	}
}

// TestCompleteRebuildRemap is the swap-protocol test: mutations that arrive
// between BeginRebuild and CompleteRebuild survive the swap, with deletions
// remapped onto the new row numbering.
func TestCompleteRebuildRemap(t *testing.T) {
	m := &model{}
	m.append(seq(0, 600))
	tab, err := NewTable("t", map[string]*columns.Column{"v": compress(t, seq(0, 600), columns.DynBPDesc)})
	if err != nil {
		t.Fatal(err)
	}
	// Pre-rebuild delta: an append and deletes in both main and tail.
	if _, _, err := tab.Append(map[string][]uint64{"v": seq(600, 100)}); err != nil {
		t.Fatal(err)
	}
	m.append(seq(600, 100))
	if _, _, err := tab.Delete([]uint64{10, 20, 650}); err != nil {
		t.Fatal(err)
	}
	m.delete([]uint64{10, 20, 650})

	s0, ok := tab.BeginRebuild()
	if !ok {
		t.Fatal("BeginRebuild refused with a non-empty delta")
	}
	if _, ok := tab.BeginRebuild(); ok {
		t.Fatal("second BeginRebuild must refuse while one is running")
	}
	s0Live := append([]uint64(nil), m.vals...)

	// Mutations during the rebuild.
	if _, _, err := tab.Append(map[string][]uint64{"v": seq(9000, 30)}); err != nil {
		t.Fatal(err)
	}
	m.append(seq(9000, 30))
	during := []uint64{0, 5, 300, uint64(len(m.vals) - 2)}
	if _, _, err := tab.Delete(during); err != nil {
		t.Fatal(err)
	}
	m.delete(during)

	vals := stateValues(t, s0, "v")
	if !eq(vals, s0Live) {
		t.Fatal("pinned rebuild state drifted")
	}
	res, err := tab.CompleteRebuild(s0, map[string]*columns.Column{"v": compress(t, vals, columns.RLEDesc)})
	tab.EndRebuild()
	if err != nil {
		t.Fatalf("CompleteRebuild: %v", err)
	}
	if res.FoldedTail != 100 || res.FoldedDeletes != 3 {
		t.Fatalf("folded %d tail / %d deletes, want 100 / 3", res.FoldedTail, res.FoldedDeletes)
	}

	s := tab.State()
	if s.MainRows() != len(s0Live) {
		t.Fatalf("new main has %d rows, want %d", s.MainRows(), len(s0Live))
	}
	if s.TailRows() != 30 {
		t.Fatalf("surviving tail %d rows, want 30", s.TailRows())
	}
	if gm := stateValues(t, s, "v"); !eq(gm, m.vals) {
		t.Fatal("post-swap merged view differs from model")
	}

	// Another rebuild folds the surviving delta too.
	s1, ok := tab.BeginRebuild()
	if !ok {
		t.Fatal("BeginRebuild refused after swap with surviving delta")
	}
	vals1 := stateValues(t, s1, "v")
	if _, err := tab.CompleteRebuild(s1, map[string]*columns.Column{"v": columns.FromValues(vals1)}); err != nil {
		t.Fatal(err)
	}
	tab.EndRebuild()
	if _, ok := tab.BeginRebuild(); ok {
		t.Fatal("BeginRebuild must refuse with an empty delta")
	}
	if s := tab.State(); s.TailRows() != 0 || s.DeletedRows() != 0 {
		t.Fatal("second fold left delta state behind")
	}
}

// TestCompleteRebuildValidation checks the swap rejects a rebuilt main that
// does not match the pinned state.
func TestCompleteRebuildValidation(t *testing.T) {
	tab, err := NewTable("t", map[string]*columns.Column{"v": columns.FromValues(seq(0, 10))})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := tab.Append(map[string][]uint64{"v": seq(10, 2)}); err != nil {
		t.Fatal(err)
	}
	s0, ok := tab.BeginRebuild()
	if !ok {
		t.Fatal("BeginRebuild refused")
	}
	defer tab.EndRebuild()
	if _, err := tab.CompleteRebuild(s0, map[string]*columns.Column{}); err == nil {
		t.Fatal("missing column must fail the swap")
	}
	if _, err := tab.CompleteRebuild(s0, map[string]*columns.Column{"v": columns.FromValues(seq(0, 3))}); err == nil {
		t.Fatal("wrong row count must fail the swap")
	}
	if s := tab.State(); s.TailRows() != 2 {
		t.Fatal("failed swap must leave the table unchanged")
	}
}

// TestConcurrentReadersAndWriters hammers a table with concurrent appends,
// deletes, reads, and rebuilds; correctness is checked by the race detector
// plus basic invariants.
func TestConcurrentReadersAndWriters(t *testing.T) {
	tab, err := NewTable("t", map[string]*columns.Column{"v": compress(t, seq(0, 1024), columns.DynBPDesc)})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 4)
	go func() { // appender
		for i := 0; i < 200; i++ {
			if _, _, err := tab.Append(map[string][]uint64{"v": seq(i, 8)}); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	go func() { // deleter
		for i := 0; i < 100; i++ {
			if _, _, err := tab.Delete([]uint64{uint64(i % 512)}); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	go func() { // reader
		for i := 0; i < 200; i++ {
			s := tab.State()
			col, err := s.Column("v")
			if err != nil {
				done <- err
				return
			}
			if col.N() != s.Rows() {
				done <- fmt.Errorf("merged N %d != live rows %d at epoch %d", col.N(), s.Rows(), s.Epoch())
				return
			}
		}
		done <- nil
	}()
	go func() { // remorpher
		for i := 0; i < 20; i++ {
			s0, ok := tab.BeginRebuild()
			if !ok {
				continue
			}
			col, err := s0.Column("v")
			if err == nil {
				_, err = tab.CompleteRebuild(s0, map[string]*columns.Column{"v": col})
			}
			tab.EndRebuild()
			if err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	// Final invariant: the merged view holds every live row in the main's
	// format.
	s := tab.State()
	col, err := s.Column("v")
	if err != nil {
		t.Fatal(err)
	}
	if got := decompress(t, col); len(got) != s.Rows() || col.Desc().Kind != s.Main("v").Desc().Kind {
		t.Fatalf("merged view after the concurrent storm: %d rows in %v, want %d in the main's %v",
			len(got), col.Desc(), s.Rows(), s.Main("v").Desc())
	}
}
