package ingest

import (
	"context"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"morphstore/internal/bitutil"
	"morphstore/internal/core"
	"morphstore/internal/faultpoint"
	"morphstore/internal/formats"
	"morphstore/internal/qerr"
)

// drain reads every batch of a source.
func drain(t *testing.T, src Source, max int) []*Batch {
	t.Helper()
	var out []*Batch
	for {
		b, err := src.Next(max)
		if errors.Is(err, io.EOF) {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
}

func TestCSVSourceDecodesAndSniffs(t *testing.T) {
	src := NewCSV(strings.NewReader("city,pop\nparis,100\nlyon,48\nparis,7\n"))
	if src.Schema() != nil {
		t.Fatal("schema known before any decode")
	}
	batches := drain(t, src, 2)
	want := []Column{{Name: "city", Kind: KindString}, {Name: "pop", Kind: KindUint}}
	if got := src.Schema(); !reflect.DeepEqual(got, want) {
		t.Fatalf("schema = %v, want %v", got, want)
	}
	if len(batches) != 2 || batches[0].Rows() != 2 || batches[1].Rows() != 1 {
		t.Fatalf("batch shapes: %d batches", len(batches))
	}
	if !reflect.DeepEqual(batches[0].Strs["city"], []string{"paris", "lyon"}) {
		t.Fatalf("city batch 0 = %v", batches[0].Strs["city"])
	}
	if !reflect.DeepEqual(batches[0].Nums["pop"], []uint64{100, 48}) {
		t.Fatalf("pop batch 0 = %v", batches[0].Nums["pop"])
	}
	if !reflect.DeepEqual(batches[1].Nums["pop"], []uint64{7}) {
		t.Fatalf("pop batch 1 = %v", batches[1].Nums["pop"])
	}
	// A numeric-looking string column: one non-numeric value in the sniff
	// window makes the whole column a string column.
	src = NewCSV(strings.NewReader("id\n1\nx\n2\n"))
	b := drain(t, src, 0)
	if src.Schema()[0].Kind != KindString {
		t.Fatal("mixed column sniffed numeric")
	}
	if !reflect.DeepEqual(b[0].Strs["id"], []string{"1", "x", "2"}) {
		t.Fatalf("mixed column = %v", b[0].Strs["id"])
	}
}

func TestCSVSourceTypedErrors(t *testing.T) {
	cases := map[string]struct {
		in   string
		want error
	}{
		"empty input":      {"", qerr.ErrInvalidSchema},
		"empty header":     {"a,,c\n1,2,3\n", qerr.ErrInvalidSchema},
		"duplicate header": {"a,a\n1,2\n", qerr.ErrInvalidSchema},
		"ragged row":       {"a,b\n1,2\n3\n", qerr.ErrInvalidSchema},
		"bare quote":       {"a,b\n1,\"x\"y\n", qerr.ErrCorruptData},
	}
	for name, tc := range cases {
		src := NewCSV(strings.NewReader(tc.in))
		_, err := src.Next(0)
		for err == nil {
			_, err = src.Next(0)
		}
		if errors.Is(err, io.EOF) || !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", name, err, tc.want)
		}
		// The failure latches: the source keeps returning it.
		if _, err2 := src.Next(0); !errors.Is(err2, tc.want) {
			t.Errorf("%s: latched err = %v, want %v", name, err2, tc.want)
		}
	}
	// A type flip after the sniff window: the column was fixed numeric by
	// the first batch, a later non-numeric value is a schema error.
	src := NewCSV(strings.NewReader("id\n1\n2\nx\n"))
	if _, err := src.Next(2); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Next(2); !errors.Is(err, qerr.ErrInvalidSchema) {
		t.Fatalf("type flip: err = %v, want ErrInvalidSchema", err)
	}
}

func TestJSONLinesSourceDecodesAndSniffs(t *testing.T) {
	in := `{"pop": 100, "city": "paris"}

	{"city": "lyon", "pop": 48}
`
	src := NewJSONLines(strings.NewReader(in))
	batches := drain(t, src, 0)
	// Keys are sorted for a stable schema order.
	want := []Column{{Name: "city", Kind: KindString}, {Name: "pop", Kind: KindUint}}
	if got := src.Schema(); !reflect.DeepEqual(got, want) {
		t.Fatalf("schema = %v, want %v", got, want)
	}
	if len(batches) != 1 || batches[0].Rows() != 2 {
		t.Fatalf("batches = %v", batches)
	}
	if !reflect.DeepEqual(batches[0].Strs["city"], []string{"paris", "lyon"}) {
		t.Fatalf("city = %v", batches[0].Strs["city"])
	}
	if !reflect.DeepEqual(batches[0].Nums["pop"], []uint64{100, 48}) {
		t.Fatalf("pop = %v", batches[0].Nums["pop"])
	}
}

func TestJSONLinesSourceTypedErrors(t *testing.T) {
	cases := map[string]struct {
		in   string
		want error
	}{
		"invalid json":   {"{\"a\": 1}\n{broken\n", qerr.ErrCorruptData},
		"non-object":     {"[1, 2]\n", qerr.ErrCorruptData},
		"trailing data":  {"{\"a\": 1} {\"a\": 2}\n", qerr.ErrCorruptData},
		"overlong line":  {"{\"a\": \"" + strings.Repeat("x", maxJSONLine) + "\"}\n", qerr.ErrCorruptData},
		"float value":    {"{\"a\": 1.5}\n", qerr.ErrInvalidSchema},
		"negative value": {"{\"a\": -3}\n", qerr.ErrInvalidSchema},
		"bool value":     {"{\"a\": true}\n", qerr.ErrInvalidSchema},
		"nested value":   {"{\"a\": {\"b\": 1}}\n", qerr.ErrInvalidSchema},
		"empty object":   {"{}\n", qerr.ErrInvalidSchema},
		"missing key":    {"{\"a\": 1, \"b\": 2}\n{\"a\": 3}\n", qerr.ErrInvalidSchema},
		"extra key":      {"{\"a\": 1}\n{\"a\": 2, \"b\": 3}\n", qerr.ErrInvalidSchema},
		"type flip":      {"{\"a\": 1}\n{\"a\": \"x\"}\n", qerr.ErrInvalidSchema},
	}
	for name, tc := range cases {
		src := NewJSONLines(strings.NewReader(tc.in))
		_, err := src.Next(0)
		for err == nil {
			_, err = src.Next(0)
		}
		if errors.Is(err, io.EOF) || !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", name, err, tc.want)
		}
		if _, err2 := src.Next(0); !errors.Is(err2, tc.want) {
			t.Errorf("%s: latched err = %v, want %v", name, err2, tc.want)
		}
	}
}

// TestLoadCreatesTableAndAppends is the end-to-end happy path of the
// acceptance criterion: a CSV file with a string column loads into a fresh
// engine, and a string-equality query executes through the compressed
// parallel operators byte-identically at parallelism 1 and 4.
func TestLoadCreatesTableAndAppends(t *testing.T) {
	const data = "nation,rev\nFRANCE,10\nGERMANY,20\nFRANCE,30\nJAPAN,40\nGERMANY,50\nFRANCE,60\n"
	run := func(par int) *core.Result {
		db := core.NewDB()
		e := core.NewEngine(db, core.WithParallelism(par))
		defer e.Close(context.Background())
		n, err := Load(context.Background(), e, "sales", NewCSV(strings.NewReader(data)), WithBatchRows(2))
		if err != nil {
			t.Fatal(err)
		}
		if n != 6 {
			t.Fatalf("loaded %d rows, want 6", n)
		}
		b := core.NewBuilder()
		s := b.Scan("sales", "nation")
		v := b.Scan("sales", "rev")
		pos := b.SelectStrEq("pos", s, "FRANCE")
		b.Result(b.Project("vals", v, pos))
		p, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		pr, err := e.Prepare(p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := pr.Execute(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1, r4 := run(1), run(4)
	vals, err := formats.Decompress(r1.Cols["vals"])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(vals, []uint64{10, 30, 60}) {
		t.Fatalf("FRANCE revenues = %v", vals)
	}
	// Byte-identity across parallelism.
	w, g := r1.Cols["vals"], r4.Cols["vals"]
	if w.N() != g.N() || len(w.Words()) != len(g.Words()) {
		t.Fatal("par 1 vs 4 shape mismatch")
	}
	for i, ww := range w.Words() {
		if g.Words()[i] != ww {
			t.Fatalf("par 1 vs 4 word %d differs", i)
		}
	}
}

func TestLoadIntoExistingTable(t *testing.T) {
	db := core.NewDB()
	if err := db.AddStringColumn("t", "s", []string{"seed"}); err != nil {
		t.Fatal(err)
	}
	e := core.NewEngine(db, core.WithParallelism(1))
	defer e.Close(context.Background())
	n, err := Load(context.Background(), e, "t", NewCSV(strings.NewReader("s\nalpha\nseed\n")))
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("loaded %d rows, want 2", n)
	}
	snap := e.Snapshot()
	if rows, ok := snap.Rows("t"); !ok || rows != 3 {
		t.Fatalf("table has %d rows, want 3", rows)
	}
	ds := snap.Dict("t", "s")
	if ds == nil || ds.Len() != 2 {
		t.Fatalf("dict snap = %+v", ds)
	}
	if id, ok := ds.ID("alpha"); !ok || id != 1 {
		t.Fatalf("ID(alpha) = %d,%v, want 1 (seed holds 0)", id, ok)
	}
}

// TestLoadDigitsIntoStringColumn: a later CSV whose values for an existing
// string column are all digits sniffs that column as uint; its values must
// not land as dictionary IDs. The load fails with ErrInvalidSchema and the
// table and dictionary keep their rows and strings.
func TestLoadDigitsIntoStringColumn(t *testing.T) {
	ctx := context.Background()
	db := core.NewDB()
	e := core.NewEngine(db, core.WithParallelism(1))
	defer e.Close(ctx)
	if _, err := Load(ctx, e, "t", NewCSV(strings.NewReader("level,n\nlow,1\nhigh,2\n"))); err != nil {
		t.Fatal(err)
	}
	n, err := Load(ctx, e, "t", NewCSV(strings.NewReader("level,n\n7,3\n")))
	if !errors.Is(err, qerr.ErrInvalidSchema) || n != 0 {
		t.Fatalf("digits for a string column: loaded %d rows, err = %v, want 0 and ErrInvalidSchema", n, err)
	}
	snap := e.Snapshot()
	if rows, _ := snap.Rows("t"); rows != 2 {
		t.Fatalf("table has %d rows, want 2", rows)
	}
	if ds := snap.Dict("t", "level"); ds == nil || ds.Len() != 2 {
		t.Fatalf("dict snap = %+v, want 2 strings", ds)
	}
}

func TestLoadEmptyAndErrorSemantics(t *testing.T) {
	ctx := context.Background()
	// An empty source creates nothing.
	db := core.NewDB()
	e := core.NewEngine(db, core.WithParallelism(1))
	defer e.Close(ctx)
	if _, err := Load(ctx, e, "t", NewCSV(strings.NewReader(""))); !errors.Is(err, qerr.ErrInvalidSchema) {
		t.Fatalf("empty CSV: err = %v, want ErrInvalidSchema", err)
	}
	if _, ok := db.Tables["t"]; ok {
		t.Fatal("failed load created the table")
	}
	// A header-only CSV decodes no rows: zero appended, no table.
	if n, err := Load(ctx, e, "t", NewCSV(strings.NewReader("a,b\n"))); err != nil || n != 0 {
		t.Fatalf("header-only load = %d, %v", n, err)
	}
	if _, ok := db.Tables["t"]; ok {
		t.Fatal("rowless load created the table")
	}
	// A mid-stream defect keeps the batches appended before it.
	n, err := Load(ctx, e, "t", NewCSV(strings.NewReader("a\nx\ny\nz\n\"w\"q\n")), WithBatchRows(2))
	if !errors.Is(err, qerr.ErrCorruptData) {
		t.Fatalf("mid-stream defect: err = %v, want ErrCorruptData", err)
	}
	if n != 2 {
		t.Fatalf("partial load kept %d rows, want 2", n)
	}
	if rows, ok := e.Snapshot().Rows("t"); !ok || rows != 2 {
		t.Fatalf("table has %d rows after partial load", rows)
	}
	// After Close, Load fails fast with the engine's error.
	if err := e.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(ctx, e, "t", NewCSV(strings.NewReader("a\nq\n"))); !errors.Is(err, qerr.ErrEngineClosed) {
		t.Fatalf("load after close: err = %v, want ErrEngineClosed", err)
	}
}

func TestLoadIngestBatchFaultPoint(t *testing.T) {
	defer faultpoint.DisarmAll()
	boom := qerr.Tag(errors.New("boom"), qerr.ErrCorruptData)
	hits := 0
	faultpoint.IngestBatch.Arm(func() error {
		hits++
		if hits > 1 {
			return boom
		}
		return nil
	})
	db := core.NewDB()
	e := core.NewEngine(db, core.WithParallelism(1))
	defer e.Close(context.Background())
	n, err := Load(context.Background(), e, "t", NewCSV(strings.NewReader("a\np\nq\nr\n")), WithBatchRows(1))
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want injected fault", err)
	}
	if n != 1 {
		t.Fatalf("loaded %d rows before the fault, want 1", n)
	}
}

// TestLoadNumericOnly checks a source with no string columns still loads.
func TestLoadNumericOnly(t *testing.T) {
	db := core.NewDB()
	e := core.NewEngine(db, core.WithParallelism(2))
	defer e.Close(context.Background())
	n, err := Load(context.Background(), e, "t", NewJSONLines(strings.NewReader("{\"a\": 1, \"b\": 2}\n{\"a\": 3, \"b\": 4}\n")))
	if err != nil || n != 2 {
		t.Fatalf("load = %d, %v", n, err)
	}
	b := core.NewBuilder()
	a := b.Scan("t", "a")
	pos := b.Select("pos", a, bitutil.CmpGe, 0)
	b.Result(b.Project("vals", a, pos))
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	pr, err := e.Prepare(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pr.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	vals, err := formats.Decompress(res.Cols["vals"])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(vals, []uint64{1, 3}) {
		t.Fatalf("a = %v", vals)
	}
}
