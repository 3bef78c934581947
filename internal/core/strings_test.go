package core

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"morphstore/internal/columns"
	"morphstore/internal/dict"
	"morphstore/internal/formats"
	"morphstore/internal/qerr"
)

// TestAddStringColumnValidation checks the typed schema errors of
// DB.AddStringColumn and that a valid call registers both the ID column and
// the dictionary.
func TestAddStringColumnValidation(t *testing.T) {
	db := NewDB()
	if err := db.AddStringColumn("t", "s", []string{"b", "a", "b"}); err != nil {
		t.Fatal(err)
	}
	if err := db.AddStringColumn("t", "s", []string{"x", "y", "z"}); !errors.Is(err, qerr.ErrInvalidSchema) {
		t.Fatalf("duplicate column: err = %v, want ErrInvalidSchema", err)
	}
	if err := db.AddStringColumn("t", "s2", []string{"only-one"}); !errors.Is(err, qerr.ErrInvalidSchema) {
		t.Fatalf("ragged column: err = %v, want ErrInvalidSchema", err)
	}
	col, err := db.Column("t", "s")
	if err != nil {
		t.Fatal(err)
	}
	ids, err := formats.Decompress(col)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 || ids[0] != 0 || ids[1] != 1 || ids[2] != 0 {
		t.Fatalf("ID column = %v, want [0 1 0]", ids)
	}
	d := db.Dict("t", "s")
	if d == nil {
		t.Fatal("Dict returned nil for a string column")
	}
	if id, ok := d.Snap().ID("a"); !ok || id != 1 {
		t.Fatalf("dict ID(a) = %d,%v", id, ok)
	}
	if db.Dict("t", "missing") != nil || db.Dict("nope", "s") != nil {
		t.Fatal("Dict resolved an unknown column")
	}
	// Mixed table: numeric column added next to the string column.
	if err := db.AddTable("u", map[string][]uint64{"n": {1, 2}}); err != nil {
		t.Fatal(err)
	}
	if db.Dict("u", "n") != nil {
		t.Fatal("Dict resolved a plain numeric column")
	}
	if err := db.AddStringColumn("u", "s", []string{"p", "q"}); err != nil {
		t.Fatal(err)
	}
}

// stringSelectPlan selects rows of t where column s equals val and projects
// column v.
func stringSelectPlan(t *testing.T, val string) *Plan {
	t.Helper()
	b := NewBuilder()
	s := b.Scan("t", "s")
	v := b.Scan("t", "v")
	pos := b.SelectStrEq("pos", s, val)
	b.Result(b.Project("vals", v, pos))
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestStringSelectEndToEnd drives a string-equality predicate through the
// compressed parallel pipeline: prepare once, then keep executing across
// appends of new strings and a remorph — every execution must match a plain
// reference model, and the remorph keeps every dictionary ID.
func TestStringSelectEndToEnd(t *testing.T) {
	names := []string{"cherry", "apple", "banana", "apple", "date", "cherry", "apple"}
	vals := []uint64{10, 11, 12, 13, 14, 15, 16}
	db := NewDB()
	if err := db.AddStringColumn("t", "s", names); err != nil {
		t.Fatal(err)
	}
	if err := db.AddTable("t", map[string][]uint64{"v": vals}); !errors.Is(err, qerr.ErrInvalidSchema) {
		// AddTable refuses an existing table; add the column directly.
		t.Fatalf("expected duplicate-table error, got %v", err)
	}
	db.Tables["t"].Cols["v"] = columns.FromValues(vals)

	e := NewEngine(db, WithParallelism(4))
	defer e.Close(context.Background())
	ctx := context.Background()
	pr, err := e.Prepare(stringSelectPlan(t, "apple"), WithUniformFormat(columns.DynBPDesc))
	if err != nil {
		t.Fatal(err)
	}

	model := func(want string) []uint64 {
		var out []uint64
		for i, n := range names {
			if n == want {
				out = append(out, vals[i])
			}
		}
		return out
	}
	check := func(stage string) {
		t.Helper()
		res, err := pr.Execute(ctx)
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		got := resultValues(t, res, "vals")
		want := model("apple")
		if len(got) != len(want) {
			t.Fatalf("%s: %d rows, want %d (%v vs %v)", stage, len(got), len(want), got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: row %d = %d, want %d", stage, i, got[i], want[i])
			}
		}
	}
	check("initial")

	// Append rows with both known and fresh strings; the prepared plan must
	// re-translate because the dictionary grew.
	if err := e.AppendStrings(ctx, "t",
		map[string][]uint64{"v": {17, 18, 19}},
		map[string][]string{"s": {"apple", "elderberry", "apple"}}); err != nil {
		t.Fatal(err)
	}
	names = append(names, "apple", "elderberry", "apple")
	vals = append(vals, 17, 18, 19)
	check("after append")

	// Remorph folds the delta and keeps the first-occurrence IDs.
	if err := e.Remorph(ctx, "t"); err != nil {
		t.Fatal(err)
	}
	snap := e.Snapshot()
	ds := snap.Dict("t", "s")
	if ds == nil {
		t.Fatal("Snapshot.Dict returned nil after remorph")
	}
	if id, ok := ds.ID("apple"); !ok || id != 1 {
		t.Fatalf("ID(apple) = %d,%v, want its first-occurrence ID 1", id, ok)
	}
	check("after remorph")

	// Appends after the remorph still line up.
	if err := e.AppendStrings(ctx, "t",
		map[string][]uint64{"v": {20}},
		map[string][]string{"s": {"apple"}}); err != nil {
		t.Fatal(err)
	}
	names = append(names, "apple")
	vals = append(vals, 20)
	check("after post-remorph append")

	// A predicate string the dictionary does not hold selects nothing.
	pr2, err := e.Prepare(stringSelectPlan(t, "zucchini"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := pr2.Execute(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := resultValues(t, res, "vals"); len(got) != 0 {
		t.Fatalf("absent string matched %d rows", len(got))
	}
}

// TestStringSelectInAndPrefix checks the IN and prefix predicate builders
// end to end: on a fresh engine; on one whose static BP ID column has an
// appended row and a pending deletion, so the predicates read the compressed
// merged view; and on one that folded those writes by a remorph.
func TestStringSelectInAndPrefix(t *testing.T) {
	names := []string{"cherry", "apple", "apricot", "banana", "avocado", "cherry"}
	vals := []uint64{1, 2, 3, 4, 5, 6}
	mk := func(packed bool) *DB {
		db := NewDB()
		if err := db.AddStringColumn("t", "s", names); err != nil {
			t.Fatal(err)
		}
		if packed {
			ids, _ := db.Tables["t"].Cols["s"].Values()
			col, err := formats.Compress(ids, columns.StaticBPDesc(0))
			if err != nil {
				t.Fatal(err)
			}
			db.Tables["t"].Cols["s"] = col
		}
		db.Tables["t"].Cols["v"] = columns.FromValues(vals)
		return db
	}
	build := func(f func(b *Builder, s ColRef) ColRef) *Plan {
		b := NewBuilder()
		s := b.Scan("t", "s")
		v := b.Scan("t", "v")
		b.Result(b.Project("vals", v, f(b, s)))
		p, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	plans := map[string]*Plan{
		"in": build(func(b *Builder, s ColRef) ColRef {
			return b.SelectStrIn("pos", s, "banana", "cherry", "durian", "banana")
		}),
		"prefix": build(func(b *Builder, s ColRef) ColRef {
			return b.SelectStrPrefix("pos", s, "a")
		}),
		"prefix-miss": build(func(b *Builder, s ColRef) ColRef {
			return b.SelectStrPrefix("pos", s, "zz")
		}),
	}
	fresh := map[string][]uint64{
		"in":          {1, 4, 6},
		"prefix":      {2, 3, 5},
		"prefix-miss": nil,
	}
	// After appending ("almond", 7) and deleting row 0 ("cherry", 1).
	written := map[string][]uint64{
		"in":          {4, 6},
		"prefix":      {2, 3, 5, 7},
		"prefix-miss": nil,
	}
	for _, arm := range []string{"fresh", "dirty", "remorphed"} {
		e := NewEngine(mk(arm != "fresh"), WithParallelism(2))
		ctx := context.Background()
		want := fresh
		if arm != "fresh" {
			want = written
			if err := e.AppendStrings(ctx, "t", map[string][]uint64{"v": {7}},
				map[string][]string{"s": {"almond"}}); err != nil {
				t.Fatal(err)
			}
			if err := e.Delete(ctx, "t", []uint64{0}); err != nil {
				t.Fatal(err)
			}
		}
		if arm == "remorphed" {
			if err := e.Remorph(ctx, "t"); err != nil {
				t.Fatal(err)
			}
		}
		if arm != "fresh" {
			st := e.wtabs["t"].dt.State()
			if pending := st.TailRows() + st.DeletedRows(); (arm == "dirty") != (pending > 0) {
				t.Fatalf("%s: %d tail rows and %d deletions pending", arm, st.TailRows(), st.DeletedRows())
			}
			if col, err := st.Column("s"); err != nil {
				t.Fatal(err)
			} else if arm == "dirty" && col.Desc().Kind != columns.StaticBP {
				t.Fatalf("dirty: the merged ID column is %v, want static BP", col.Desc())
			}
		}
		for name, p := range plans {
			pr, err := e.Prepare(p)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			res, err := pr.Execute(ctx)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got := resultValues(t, res, "vals"); fmt.Sprint(got) != fmt.Sprint(want[name]) {
				t.Fatalf("%s %s: rows = %v, want %v", arm, name, got, want[name])
			}
		}
		if err := e.Close(ctx); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStringSelectPrepareErrors checks the prepare-time rejections: the
// input must be a base-column scan of a dictionary-encoded column.
func TestStringSelectPrepareErrors(t *testing.T) {
	db := NewDB()
	if err := db.AddStringColumn("t", "s", []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	db.Tables["t"].Cols["v"] = columns.FromValues([]uint64{1, 2})
	e := NewEngine(db, WithParallelism(1))
	defer e.Close(context.Background())

	// Non-dictionary column.
	b := NewBuilder()
	v := b.Scan("t", "v")
	b.Result(b.SelectStrEq("pos", v, "a"))
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Prepare(p); err == nil {
		t.Fatal("string select on a numeric column prepared")
	}

	// Non-scan input.
	b = NewBuilder()
	s := b.Scan("t", "s")
	pos := b.SelectStrEq("p1", s, "a")
	b.Result(b.SelectStrEq("p2", pos, "b"))
	if p, err = b.Build(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Prepare(p); err == nil {
		t.Fatal("string select on a derived column prepared")
	}
}

// TestAppendStringsValidation checks the typed errors and close semantics of
// Engine.AppendStrings.
func TestAppendStringsValidation(t *testing.T) {
	db := NewDB()
	if err := db.AddStringColumn("t", "s", []string{"a"}); err != nil {
		t.Fatal(err)
	}
	db.Tables["t"].Cols["v"] = columns.FromValues([]uint64{1})
	e := NewEngine(db, WithParallelism(1))
	ctx := context.Background()

	// String data for a column with no dictionary.
	if err := e.AppendStrings(ctx, "t", nil, map[string][]string{"v": {"x"}}); !errors.Is(err, qerr.ErrInvalidSchema) {
		t.Fatalf("non-dict string column: err = %v, want ErrInvalidSchema", err)
	}
	// Ragged batch.
	if err := e.AppendStrings(ctx, "t",
		map[string][]uint64{"v": {1, 2}},
		map[string][]string{"s": {"x"}}); !errors.Is(err, qerr.ErrInvalidSchema) {
		t.Fatalf("ragged batch: err = %v, want ErrInvalidSchema", err)
	}
	// Unknown table.
	if err := e.AppendStrings(ctx, "nope", nil, map[string][]string{"s": {"x"}}); err == nil {
		t.Fatal("append to unknown table must fail")
	}
	// Empty batch is a no-op.
	if err := e.AppendStrings(ctx, "t", map[string][]uint64{"v": {}}, map[string][]string{"s": {}}); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	if st := e.Stats(); st.AppendedRows != 0 {
		t.Fatalf("empty batch appended %d rows", st.AppendedRows)
	}
	// Valid append, then close semantics.
	if err := e.AppendStrings(ctx, "t", map[string][]uint64{"v": {2}}, map[string][]string{"s": {"b"}}); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if err := e.AppendStrings(ctx, "t", map[string][]uint64{"v": {3}}, map[string][]string{"s": {"c"}}); !errors.Is(err, qerr.ErrEngineClosed) {
		t.Fatalf("append after close: err = %v, want ErrEngineClosed", err)
	}
}

// TestAppendRejectsRawIDsForStringColumn: raw uint64 values for a string
// column would land as IDs its dictionary never defined, so a later string
// that gets such an ID would match them. The append fails with
// ErrInvalidSchema and leaves table and dictionary unchanged.
func TestAppendRejectsRawIDsForStringColumn(t *testing.T) {
	db := NewDB()
	if err := db.AddStringColumn("t", "s", []string{"apple", "banana"}); err != nil {
		t.Fatal(err)
	}
	db.Tables["t"].Cols["v"] = columns.FromValues([]uint64{10, 11})
	e := NewEngine(db, WithParallelism(1))
	defer e.Close(context.Background())
	ctx := context.Background()

	if err := e.Append(ctx, "t", map[string][]uint64{"s": {2}, "v": {12}}); !errors.Is(err, qerr.ErrInvalidSchema) {
		t.Fatalf("raw IDs for a string column: err = %v, want ErrInvalidSchema", err)
	}
	if err := e.AppendStrings(ctx, "t", map[string][]uint64{"s": {2}}, map[string][]string{"v": {"x"}}); !errors.Is(err, qerr.ErrInvalidSchema) {
		t.Fatalf("swapped nums and strs: err = %v, want ErrInvalidSchema", err)
	}
	if n, _ := e.Snapshot().Rows("t"); n != 2 {
		t.Fatalf("rejected appends left %d rows, want 2", n)
	}
	if n := db.Dict("t", "s").Snap().Len(); n != 2 {
		t.Fatalf("rejected appends left %d dictionary strings, want 2", n)
	}

	// The next string gets ID 2; only its own row may match it.
	if err := e.AppendStrings(ctx, "t", map[string][]uint64{"v": {13}}, map[string][]string{"s": {"zucchini"}}); err != nil {
		t.Fatal(err)
	}
	pr, err := e.Prepare(stringSelectPlan(t, "zucchini"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := pr.Execute(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := resultValues(t, res, "vals"); len(got) != 1 || got[0] != 13 {
		t.Fatalf("SelectStrEq(zucchini) = %v, want [13]", got)
	}
}

// TestSnapshotDictCoherence pins a snapshot and checks its dictionary can
// translate every ID its rows carry, both before and after concurrent
// appends and a remorph.
func TestSnapshotDictCoherence(t *testing.T) {
	db := NewDB()
	if err := db.AddStringColumn("t", "s", []string{"m", "k", "z"}); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(db, WithParallelism(2))
	defer e.Close(context.Background())
	ctx := context.Background()

	// A snapshot pinned before any write carries no dictionary view (the
	// read-only fast path); Dict is nil-safe there.
	if e.Snapshot().Dict("t", "s") != nil {
		t.Fatal("read-only snapshot carries a dict snap")
	}
	// First write makes the table writable; pin a snapshot, then mutate.
	if err := e.AppendStrings(ctx, "t", nil, map[string][]string{"s": {"q", "m"}}); err != nil {
		t.Fatal(err)
	}
	pinned := e.Snapshot()
	if err := e.Remorph(ctx, "t"); err != nil {
		t.Fatal(err)
	}
	// The pinned snapshot still resolves its own IDs.
	ds := pinned.Dict("t", "s")
	if ds == nil {
		t.Fatal("pinned Snapshot.Dict is nil")
	}
	for want, id := range map[string]uint64{"m": 0, "k": 1, "z": 2, "q": 3} {
		if got, ok := ds.String(id); !ok || got != want {
			t.Fatalf("pinned String(%d) = %q,%v want %q", id, got, ok, want)
		}
	}
	// A fresh snapshot sees the appended string at its first-occurrence ID.
	cur := e.Snapshot().Dict("t", "s")
	if cur == nil || cur.Len() != 4 {
		t.Fatalf("current dict snap = %+v", cur)
	}
	if id, ok := cur.ID("q"); !ok || id != 3 { // m k z q
		t.Fatalf("ID(q) = %d,%v, want 3", id, ok)
	}
	if e.Snapshot().Dict("t", "nope") != nil || e.Snapshot().Dict("nope", "s") != nil {
		t.Fatal("Snapshot.Dict resolved an unknown column")
	}

	// translateStrPred unit coverage for the collapse rules on this dict.
	if p := translateStrPred(cur, StrIn, "", []string{"k", "m"}); p.mode != strPredRange || p.lo != 0 || p.hi != 1 {
		t.Fatalf("contiguous IN = %+v", p)
	}
	if p := translateStrPred(cur, StrIn, "", []string{"m", "z"}); p.mode != strPredSet || len(p.set) != 2 {
		t.Fatalf("sparse IN = %+v", p)
	}
	if p := translateStrPred(cur, StrIn, "", []string{"nope"}); p.mode != strPredSet || len(p.set) != 0 {
		t.Fatalf("empty IN = %+v", p)
	}
	if p := translateStrPred(cur, StrEq, "q", nil); p.mode != strPredEq || p.id != 3 {
		t.Fatalf("eq = %+v", p)
	}
	if p := translateStrPred(cur, StrPrefix, "", nil); p.mode != strPredRange || p.lo != 0 || p.hi != 3 {
		t.Fatalf("empty prefix = %+v", p)
	}
}

// TestDictJournalAppendOnlyAcrossRemorph pins that dictionary IDs never
// change: a remorph of a table whose strings arrived out of lexicographic
// order leaves the stored IDs and the dictionary journal as they were, so a
// journal taken before it is a byte prefix of one taken after the next
// append, and replaying the later journal gives every string the ID the live
// snapshot gives it.
func TestDictJournalAppendOnlyAcrossRemorph(t *testing.T) {
	db := NewDB()
	if err := db.AddStringColumn("t", "s", []string{"pear", "fig", "pear", "apple"}); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(db, WithParallelism(2))
	defer e.Close(context.Background())
	ctx := context.Background()
	if err := e.AppendStrings(ctx, "t", nil, map[string][]string{"s": {"banana", "fig", "aardvark"}}); err != nil {
		t.Fatal(err)
	}
	d := db.Dict("t", "s")
	before := d.Journal()
	ids := stateValues(t, e.wtabs["t"].dt.State(), "s")
	if err := e.Remorph(ctx, "t"); err != nil {
		t.Fatal(err)
	}
	folded := stateValues(t, e.wtabs["t"].dt.State(), "s")
	if fmt.Sprint(folded) != fmt.Sprint(ids) {
		t.Fatalf("remorph rewrote the stored IDs: %v, was %v", folded, ids)
	}
	if err := e.AppendStrings(ctx, "t", nil, map[string][]string{"s": {"cherry", "apple"}}); err != nil {
		t.Fatal(err)
	}
	after := d.Journal()
	if len(after) <= len(before) || string(after[:len(before)]) != string(before) {
		t.Fatalf("the journal before the remorph (%d bytes) is not a prefix of the one after (%d bytes)",
			len(before), len(after))
	}
	rd, err := dict.Replay(after)
	if err != nil {
		t.Fatal(err)
	}
	live := e.Snapshot().Dict("t", "s")
	if rd.Snap().Len() != live.Len() {
		t.Fatalf("replay holds %d strings, the live snapshot %d", rd.Snap().Len(), live.Len())
	}
	for id := uint64(0); id < uint64(live.Len()); id++ {
		str, _ := live.String(id)
		if got, ok := rd.Snap().ID(str); !ok || got != id {
			t.Fatalf("replayed ID(%q) = %d,%v, live %d", str, got, ok, id)
		}
	}
}

// TestStringPlanIntrospection checks Nodes() surfaces the string predicate.
func TestStringPlanIntrospection(t *testing.T) {
	b := NewBuilder()
	s := b.Scan("t", "s")
	b.Result(b.SelectStrIn("pos", s, "x", "y"))
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, n := range p.Nodes() {
		if n.Op == OpSelectStr {
			found = true
			if n.StrKind != StrIn || len(n.StrVals) != 2 {
				t.Fatalf("introspected node = %+v", n)
			}
		}
	}
	if !found {
		t.Fatal("no OpSelectStr node introspected")
	}
	if fmt.Sprint(OpSelectStr) != "select_str" {
		t.Fatalf("OpSelectStr name = %q", fmt.Sprint(OpSelectStr))
	}
}

// TestFormatSearchOnStringPredicatePlan: the format searches run a plan with
// string predicates on encoded views of the base data, so those views must
// keep the tables' dictionaries (the greedy search used to rebuild its views
// without them and failed at prepare).
func TestFormatSearchOnStringPredicatePlan(t *testing.T) {
	const n = 3000
	names := make([]string, n)
	vals := make([]uint64, n)
	var want uint64
	for i := range names {
		names[i] = []string{"apple", "apricot", "banana", "cherry"}[i*7%4]
		vals[i] = uint64(i % 97)
		if names[i] != "cherry" {
			want += vals[i]
		}
	}
	db := NewDB()
	if err := db.AddStringColumn("t", "s", names); err != nil {
		t.Fatal(err)
	}
	db.Tables["t"].Cols["v"] = columns.FromValues(vals)

	b := NewBuilder()
	s, v := b.Scan("t", "s"), b.Scan("t", "v")
	pos := b.Merge("pos", b.SelectStrPrefix("ap", s, "ap"),
		b.Merge("eq_in", b.SelectStrEq("eq", s, "banana"), b.SelectStrIn("in", s, "banana", "nope")))
	b.Result(b.SumWhole("total", b.Project("vals", v, pos)))
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	greedy, err := RuntimeGreedySearch(p, db, false, 1)
	if err != nil {
		t.Fatalf("RuntimeGreedySearch: %v", err)
	}
	best, worst, err := FootprintSearch(p, db)
	if err != nil {
		t.Fatalf("FootprintSearch: %v", err)
	}
	for name, a := range map[string]*Assignment{"greedy": greedy, "best": best, "worst": worst} {
		enc, err := db.Encode(a.Base)
		if err != nil {
			t.Fatal(err)
		}
		res, err := execPlan(p, enc, 0, WithFormats(a.Inter))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, _ := res.Cols["total"].Values(); len(got) != 1 || got[0] != want {
			t.Fatalf("%s: total = %v, want %d", name, got, want)
		}
	}
}
