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

// checkMerge appends tail to a table whose main is base compressed in d and
// checks the merged view: it keeps the main's format and is byte-identical to
// compressing base and tail in one pass.
func checkMerge(t *testing.T, d columns.FormatDesc, base, tail []uint64) {
	t.Helper()
	tab, err := NewTable("t", map[string]*columns.Column{"v": compress(t, base, d)})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := tab.Append(map[string][]uint64{"v": tail}); err != nil {
		t.Fatal(err)
	}
	col, err := tab.State().Column("v")
	if err != nil {
		t.Fatal(err)
	}
	want := compress(t, append(append([]uint64(nil), base...), tail...), d)
	if col.Desc() != want.Desc() || col.N() != want.N() || col.MainElems() != want.MainElems() ||
		len(col.MainWords()) != len(want.MainWords()) || !eq(col.Words(), want.Words()) {
		t.Fatalf("merged column %v differs from Compress(main+tail) %v", col, want)
	}
}

// TestMergePerFormat checks the merged main+delta view for every format: the
// tail is appended in the main's format, byte-identical to compressing main
// and tail in one pass, never materialized uncompressed. Byte identity pins
// the static BP width (a wider tail widens the main) and the RLE runs (a tail
// continuing the main's last run extends it).
func TestMergePerFormat(t *testing.T) {
	type mergeCase struct {
		name       string
		base, tail []uint64
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
		{"within-block", seq(0, 1300), seq(1300, 77)},  // 1300 = 2 full 512-blocks + 276 remainder
		{"across-block", seq(0, 1300), seq(1300, 700)}, // completes the remainder into a block
		{"one-value", seq(0, 1300), seq(1300, 1)},
	}
	extra := map[columns.Kind][]mergeCase{
		columns.StaticBP: {
			{"wider-tail", seq(0, 1000), wide(100, 1<<40)},
			{"group-aligned-main", seq(0, 1024), seq(1024, 70)},
			{"zero-width-main", make([]uint64, 130), seq(0, 5)},
			{"zero-width-both", make([]uint64, 130), make([]uint64, 9)},
			{"width-64-main", wide(100, ^uint64(0)), seq(0, 200)},
			{"empty-main", nil, seq(5, 70)},
		},
		columns.RLE: {
			{"extends-last-run", runs(1, 2, 3), runs(3, 4)},
		},
	}
	for _, d := range formats.AllDescs() {
		t.Run(d.String(), func(t *testing.T) {
			for _, c := range append(common, extra[d.Kind]...) {
				t.Run(c.name, func(t *testing.T) { checkMerge(t, d, c.base, c.tail) })
			}
		})
	}
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
	lv, err := s.LiveValues("v")
	if err != nil {
		t.Fatal(err)
	}
	if !eq(lv, m.vals) {
		t.Fatalf("LiveValues differ from model")
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
	pv, err := pinned.LiveValues("v")
	if err != nil {
		t.Fatal(err)
	}
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
	now, err := pinned.LiveValues("v")
	if err != nil {
		t.Fatal(err)
	}
	if !eq(now, pv) {
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

	vals, err := s0.LiveValues("v")
	if err != nil {
		t.Fatal(err)
	}
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
	got, err := s.LiveValues("v")
	if err != nil {
		t.Fatal(err)
	}
	if !eq(got, m.vals) {
		t.Fatal("post-swap live values differ from model")
	}
	col, err := s.Column("v")
	if err != nil {
		t.Fatal(err)
	}
	if gm := decompress(t, col); !eq(gm, m.vals) {
		t.Fatal("post-swap merged view differs from model")
	}

	// Another rebuild folds the surviving delta too.
	s1, ok := tab.BeginRebuild()
	if !ok {
		t.Fatal("BeginRebuild refused after swap with surviving delta")
	}
	vals1, err := s1.LiveValues("v")
	if err != nil {
		t.Fatal(err)
	}
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
			vals, err := s0.LiveValues("v")
			if err == nil {
				_, err = tab.CompleteRebuild(s0, map[string]*columns.Column{"v": columns.FromValues(vals)})
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
	// Final invariant: the merged view matches the live values exactly.
	s := tab.State()
	want, err := s.LiveValues("v")
	if err != nil {
		t.Fatal(err)
	}
	col, err := s.Column("v")
	if err != nil {
		t.Fatal(err)
	}
	if got := decompress(t, col); !eq(got, want) {
		t.Fatal("merged view differs from live values after concurrent storm")
	}
}
