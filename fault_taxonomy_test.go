package morphstore

import (
	"context"
	"errors"
	"testing"

	"morphstore/internal/columns"
)

// The corruption acceptance test: structurally invalid compressed columns —
// whatever operator touches them, sequential or parallel, directly or inside
// an engine execution — must surface an error matching ErrCorruptData, never
// a panic or a silent wrong answer.

// corruptLen is the element count of every corrupt column and its valid
// companions: ~9.5 blocks, enough for the parallel engine to cut morsels, so
// the section readers and per-morsel kernels see the damage too.
const corruptLen = 9*512 + 300

// corruptVariants builds one corrupted column per corruption class, each
// derived from a valid compressed column of corruptLen elements.
func corruptVariants(t *testing.T) map[string]*Column {
	t.Helper()
	vals := make([]uint64, corruptLen)
	for i := range vals {
		vals[i] = uint64(i / 3) // gently increasing: every codec accepts it
	}
	rebuild := func(desc FormatDesc, n, mainElems, mainWords int, words []uint64) *Column {
		t.Helper()
		col, err := columns.New(desc, n, mainElems, mainWords, words)
		if err != nil {
			t.Fatal(err)
		}
		return col
	}
	out := make(map[string]*Column)

	// A truncated main part: the block data ends before the elements do.
	dyn, err := Compress(vals, DynBP)
	if err != nil {
		t.Fatal(err)
	}
	short := append(append([]uint64{}, dyn.MainWords()[:len(dyn.MainWords())-2]...), dyn.Remainder()...)
	out["truncated block"] = rebuild(dyn.Desc(), dyn.N(), dyn.MainElems(), len(dyn.MainWords())-2, short)

	// An out-of-range static bit width (70 > 64).
	stat, err := Compress(vals, StaticBPWidth(12))
	if err != nil {
		t.Fatal(err)
	}
	out["oversized staticbp width"] = rebuild(StaticBPWidth(70), stat.N(), stat.MainElems(),
		len(stat.MainWords()), append([]uint64{}, stat.Words()...))

	// Static BP packed words that end long before the elements do, at a width
	// the word-parallel (SWAR) kernels cover.
	out["truncated staticbp words"] = rebuild(StaticBPWidth(16), len(vals), len(vals), 10, make([]uint64, 10))

	// An RLE run length that overflows the column.
	rle, err := Compress(vals, RLE)
	if err != nil {
		t.Fatal(err)
	}
	overflow := append([]uint64{}, rle.Words()...)
	overflow[1] = 1 << 62
	out["overflowing rle run"] = rebuild(rle.Desc(), rle.N(), rle.MainElems(), len(rle.MainWords()), overflow)

	// An odd RLE word count: the trailing run lost its length word.
	odd := append([]uint64{}, rle.Words()[:len(rle.Words())-1]...)
	out["odd rle words"] = rebuild(rle.Desc(), rle.N(), rle.MainElems(), len(rle.MainWords())-1, odd)
	return out
}

func TestCorruptColumnsMatchSentinel(t *testing.T) {
	// Valid companions for the binary operators.
	vals := make([]uint64, corruptLen)
	for i := range vals {
		vals[i] = uint64(i / 3)
	}
	valid := FromValues(vals)
	// Positions covering every element: the sorted-set operators must then
	// consume a corrupt operand to its end instead of early-exiting before
	// they reach the damage.
	ctx := context.Background()
	seq, par := NewEngine(nil, WithParallelism(1)), NewEngine(nil, WithParallelism(4))
	pos, err := seq.Select(ctx, valid, CmpLt, ^uint64(0))
	if err != nil {
		t.Fatal(err)
	}

	ops := []struct {
		name string
		run  func(c *Column) error
	}{
		{"decompress", func(c *Column) error { _, err := Decompress(c); return err }},
		{"concat", func(c *Column) error { _, err := ConcatCompressed(c.Desc(), []*Column{c, c}); return err }},
		{"morph", func(c *Column) error { _, err := Morph(c, ForBP); return err }},
		{"select", func(c *Column) error { _, err := seq.Select(ctx, c, CmpLt, 50); return err }},
		{"par select", func(c *Column) error { _, err := par.Select(ctx, c, CmpLt, 50, WithOutput(DeltaBP)); return err }},
		{"between", func(c *Column) error { _, err := seq.SelectBetween(ctx, c, 10, 90); return err }},
		{"project data", func(c *Column) error { _, err := par.Project(ctx, c, pos); return err }},
		{"project pos", func(c *Column) error { _, err := par.Project(ctx, valid, c); return err }},
		{"sum", func(c *Column) error { _, err := seq.Sum(ctx, c); return err }},
		{"par sum", func(c *Column) error { _, err := par.Sum(ctx, c); return err }},
		{"calc", func(c *Column) error { _, err := par.Calc(ctx, CalcAdd, c, valid); return err }},
		{"semijoin probe", func(c *Column) error { _, err := par.SemiJoin(ctx, c, valid); return err }},
		{"semijoin build", func(c *Column) error { _, err := par.SemiJoin(ctx, valid, c); return err }},
		{"join probe", func(c *Column) error {
			_, _, err := par.JoinN1(ctx, c, valid)
			return err
		}},
		{"intersect", func(c *Column) error { _, err := par.Intersect(ctx, c, pos); return err }},
		{"union", func(c *Column) error { _, err := par.Union(ctx, c, pos); return err }},
		{"group", func(c *Column) error {
			_, _, err := par.GroupFirst(ctx, c)
			return err
		}},
		{"sum grouped", func(c *Column) error { _, err := par.SumGrouped(ctx, c, valid, corruptLen); return err }},
	}
	for name, corrupt := range corruptVariants(t) {
		for _, op := range ops {
			if op.name == "project data" && corrupt.Desc().Kind != columns.StaticBP {
				// Projection reads its data column by position; formats
				// without random access are rejected before any data is read.
				continue
			}
			t.Run(name+"/"+op.name, func(t *testing.T) {
				err := op.run(corrupt)
				if err == nil {
					t.Fatalf("%s accepted a column with a %s", op.name, name)
				}
				if !errors.Is(err, ErrCorruptData) {
					t.Fatalf("%s error does not match ErrCorruptData: %v", op.name, err)
				}
			})
		}
	}
}

// TestEngineCorruptColumnTyped: corruption reached through a full engine
// execution — scan, parallel operators, scheduler — still matches the
// sentinel, and the engine survives to run clean queries.
func TestEngineCorruptColumnTyped(t *testing.T) {
	vals := make([]uint64, 4*512+300)
	for i := range vals {
		vals[i] = uint64(i % 500)
	}
	db := NewDB()
	db.AddTable("t", map[string][]uint64{"a": vals, "b": vals})
	enc, err := db.Encode(map[string]FormatDesc{"t.a": DynBP, "t.b": StaticBP})
	if err != nil {
		t.Fatal(err)
	}

	b := NewPlanBuilder()
	a := b.Scan("t", "a")
	bb := b.Scan("t", "b")
	sel := b.Select("sel", a, CmpLt, 400)
	proj := b.Project("proj", bb, sel)
	b.Result(b.SumWhole("total", proj))
	plan, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	e := NewEngine(enc, WithParallelism(4))
	pr, err := e.Prepare(plan, WithUniformFormat(DynBP))
	if err != nil {
		t.Fatal(err)
	}
	want, err := pr.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// Corrupt the base column in place: truncate its main part.
	good := enc.Tables["t"].Cols["a"]
	short := append(append([]uint64{}, good.MainWords()[:len(good.MainWords())-2]...), good.Remainder()...)
	bad, err := columns.New(good.Desc(), good.N(), good.MainElems(), len(good.MainWords())-2, short)
	if err != nil {
		t.Fatal(err)
	}
	// Prepare binds base columns, so the corrupt column must be in place
	// before the plan is prepared.
	enc.Tables["t"].Cols["a"] = bad
	prBad, err := e.Prepare(plan, WithUniformFormat(DynBP))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prBad.Execute(context.Background()); !errors.Is(err, ErrCorruptData) {
		t.Fatalf("engine over corrupt base column: %v, want ErrCorruptData", err)
	}

	// The failure is isolated: the engine and the clean prepared plan
	// still produce the reference result.
	enc.Tables["t"].Cols["a"] = good
	got, err := pr.Execute(context.Background())
	if err != nil {
		t.Fatalf("execution after corruption repaired: %v", err)
	}
	if got.Cols["total"].Words()[0] != want.Cols["total"].Words()[0] {
		t.Fatal("result after corruption repaired differs")
	}
}

// TestNilColumnMatchesSentinel: a nil column handed to any one-off operator,
// in any operand slot, is malformed input — ErrInvalidSchema — not an
// untyped error and not a panic.
func TestNilColumnMatchesSentinel(t *testing.T) {
	ctx := context.Background()
	e := NewEngine(nil, WithParallelism(2))
	valid := FromValues([]uint64{0, 1, 2})
	ops := []struct {
		name string
		run  func(a, b *Column) error
	}{
		{"select", func(a, _ *Column) error { _, err := e.Select(ctx, a, CmpLt, 2); return err }},
		{"between", func(a, _ *Column) error { _, err := e.SelectBetween(ctx, a, 0, 1); return err }},
		{"project", func(a, b *Column) error { _, err := e.Project(ctx, a, b); return err }},
		{"sum", func(a, _ *Column) error { _, err := e.Sum(ctx, a); return err }},
		{"sum grouped", func(a, b *Column) error { _, err := e.SumGrouped(ctx, a, b, 3); return err }},
		{"semijoin", func(a, b *Column) error { _, err := e.SemiJoin(ctx, a, b); return err }},
		{"join", func(a, b *Column) error { _, _, err := e.JoinN1(ctx, a, b); return err }},
		{"calc", func(a, b *Column) error { _, err := e.Calc(ctx, CalcAdd, a, b); return err }},
		{"intersect", func(a, b *Column) error { _, err := e.Intersect(ctx, a, b); return err }},
		{"union", func(a, b *Column) error { _, err := e.Union(ctx, a, b); return err }},
		{"group first", func(a, _ *Column) error { _, _, err := e.GroupFirst(ctx, a); return err }},
		{"group next", func(a, b *Column) error { _, _, err := e.GroupNext(ctx, a, b); return err }},
	}
	for _, op := range ops {
		for _, args := range [][2]*Column{{nil, valid}, {valid, nil}, {nil, nil}} {
			err := op.run(args[0], args[1])
			if args[0] != nil && err == nil {
				continue // a unary operator: its only operand is valid
			}
			if !errors.Is(err, ErrInvalidSchema) {
				t.Errorf("%s(%v, %v): err = %v, want ErrInvalidSchema", op.name, args[0] != nil, args[1] != nil, err)
			}
		}
	}
}
