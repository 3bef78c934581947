package ops

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"morphstore/internal/bitutil"
	"morphstore/internal/columns"
	"morphstore/internal/faultpoint"
	"morphstore/internal/formats"
	"morphstore/internal/metrics"
	"morphstore/internal/qerr"
)

// faultTestColumn is large enough to split into many morsels at par 4.
func faultTestColumn(t testing.TB) *columns.Column {
	t.Helper()
	vals := make([]uint64, 16*formats.MinMorsel)
	for i := range vals {
		vals[i] = uint64(i % 1000)
	}
	col, err := formats.Compress(vals, columns.DynBPDesc)
	if err != nil {
		t.Fatal(err)
	}
	return col
}

// assertBudgetIdle asserts every worker token was returned — the invariant
// each failure mode must restore.
func assertBudgetIdle(t *testing.T, b *Budget, mode string) {
	t.Helper()
	if n := b.InUse(); n != 0 {
		t.Fatalf("%s: %d worker tokens leaked", mode, n)
	}
}

// driverShapes is one operator per morsel-driver shape; the failure-mode
// tests below run every mode once per shape, so each driver's cancellation,
// recover and fault-point plumbing is pinned without repeating the table per
// operator.
var driverShapes = []struct {
	name     string
	stitches bool // the driver finishes through the compressed stitch
	run      func(rt Runtime, col *columns.Column) error
}{
	{"emit", true, func(rt Runtime, col *columns.Column) error {
		_, err := rt.SelectAuto(col, bitutil.CmpLt, 500, columns.DeltaBPDesc)
		return err
	}},
	{"emit2", true, func(rt Runtime, col *columns.Column) error {
		build := make([]uint64, 1000) // every probe value joins
		for i := range build {
			build[i] = uint64(i)
		}
		_, _, err := rt.JoinN1(col, columns.FromValues(build), columns.DeltaBPDesc, columns.DynBPDesc, 0)
		return err
	}},
	{"map", true, func(rt Runtime, col *columns.Column) error {
		_, err := rt.CalcBinary(CalcAdd, col, col, columns.DynBPDesc)
		return err
	}},
	{"reduce", false, func(rt Runtime, col *columns.Column) error {
		_, _, err := rt.SumAuto(col)
		return err
	}},
}

// runOnBudget runs one driver shape at par workers drawing tokens from b.
func runOnBudget(ctx context.Context, b *Budget, par int, run func(Runtime, *columns.Column) error, col *columns.Column) error {
	return run(RT(ctx, b, nil, par), col)
}

// runSelect runs one parallel select on budget b and returns its error.
func runSelect(ctx context.Context, b *Budget, col *columns.Column) error {
	return runOnBudget(ctx, b, 4, driverShapes[0].run, col)
}

// TestBudgetIdleAfterFailureModes drives every driver shape through every
// failure mode and asserts the error is typed and the budget idle after each
// one. A panicking kernel must surface as a *qerr.QueryError carrying the
// panic value, the morsel index and the stack, and leave runtime and budget
// fully usable.
func TestBudgetIdleAfterFailureModes(t *testing.T) {
	defer faultpoint.DisarmAll()
	col := faultTestColumn(t)
	injected := fmt.Errorf("injected: %w", formats.ErrCorrupt)
	type shapeRun func(ctx context.Context, b *Budget, par int) error

	modes := []struct {
		name string
		run  func(t *testing.T, b *Budget, run shapeRun)
	}{
		{"success", func(t *testing.T, b *Budget, run shapeRun) {
			if err := run(context.Background(), b, 4); err != nil {
				t.Fatal(err)
			}
		}},
		{"cancellation", func(t *testing.T, b *Budget, run shapeRun) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if err := run(ctx, b, 4); !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled run: %v", err)
			}
		}},
		{"morsel claim error", func(t *testing.T, b *Budget, run shapeRun) {
			faultpoint.MorselClaim.Arm(func() error { return injected })
			defer faultpoint.MorselClaim.Disarm()
			if err := run(context.Background(), b, 4); !errors.Is(err, qerr.ErrCorruptData) {
				t.Fatalf("morsel-claim error not typed: %v", err)
			}
		}},
		{"kernel error", func(t *testing.T, b *Budget, run shapeRun) {
			faultpoint.KernelBody.Arm(func() error { return injected })
			defer faultpoint.KernelBody.Disarm()
			if err := run(context.Background(), b, 4); !errors.Is(err, qerr.ErrCorruptData) {
				t.Fatalf("kernel error not typed: %v", err)
			}
		}},
		{"kernel panic", func(t *testing.T, b *Budget, run shapeRun) {
			faultpoint.KernelBody.Arm(func() error { panic(injected) })
			defer faultpoint.KernelBody.Disarm()
			err := run(context.Background(), b, 4)
			if !errors.Is(err, qerr.ErrCorruptData) {
				t.Fatalf("panic with corrupt error must match the sentinel: %v", err)
			}
			var qe *qerr.QueryError
			if !errors.As(err, &qe) {
				t.Fatalf("panic did not surface as QueryError: %v", err)
			}
			if qe.Morsel < 0 || qe.Panic == "" || len(qe.Stack) == 0 {
				t.Fatalf("QueryError lost its morsel index, panic value or stack: %+v", qe)
			}
			assertBudgetIdle(t, b, "kernel panic")
			faultpoint.KernelBody.Disarm()
			if err := run(context.Background(), b, 4); err != nil {
				t.Fatalf("run after recovered panic: %v", err)
			}
		}},
		{"unsplit input", func(t *testing.T, b *Budget, run shapeRun) {
			// One worker runs the kernel as a single morsel on the calling
			// goroutine: no morsel is claimed, so neither work-queue fault
			// point can fire.
			faultpoint.MorselClaim.Arm(func() error { return injected })
			defer faultpoint.MorselClaim.Disarm()
			faultpoint.KernelBody.Arm(func() error { return injected })
			defer faultpoint.KernelBody.Disarm()
			if err := run(context.Background(), b, 1); err != nil {
				t.Fatalf("single-morsel run hit a work-queue fault point: %v", err)
			}
		}},
	}
	for _, shape := range driverShapes {
		for _, m := range modes {
			b := NewBudget(4)
			t.Run(shape.name+"/"+m.name, func(t *testing.T) {
				m.run(t, b, func(ctx context.Context, b *Budget, par int) error {
					return runOnBudget(ctx, b, par, shape.run, col)
				})
				assertBudgetIdle(t, b, m.name)
			})
		}
	}
	// The stitch seams are shared by the emit and map drivers.
	for _, fp := range []*faultpoint.Point{faultpoint.StitchSeam, faultpoint.ConcatFixup} {
		for _, shape := range driverShapes {
			if !shape.stitches {
				continue
			}
			b := NewBudget(4)
			fp.Arm(func() error { return injected })
			err := runOnBudget(context.Background(), b, 4, shape.run, col)
			fp.Disarm()
			if !errors.Is(err, qerr.ErrCorruptData) {
				t.Fatalf("%s: stitch fault not typed: %v", shape.name, err)
			}
			assertBudgetIdle(t, b, shape.name+" stitch fault")
		}
	}
}

// fallbackCounter is a tracer counting the sequential-fallback events of
// the spans it sees.
type fallbackCounter struct{ n int }

func (f *fallbackCounter) Begin(metrics.Span, time.Time)                  {}
func (f *fallbackCounter) End(metrics.Span, time.Time, metrics.NodeStats) {}
func (f *fallbackCounter) Event(_ metrics.Span, _ time.Time, ev metrics.Event) {
	if ev.Kind == metrics.EvSeqFallback {
		f.n++
	}
}

// onePassOps are the operators that run as one pass at every parallelism:
// the grouping operators over col, the sorted-set operators over two sorted
// lists as long as col.
var onePassOps = []struct {
	name string
	run  func(rt Runtime, col *columns.Column) ([]*columns.Column, error)
}{
	{"group_first", func(rt Runtime, col *columns.Column) ([]*columns.Column, error) {
		gids, ext, err := rt.GroupFirst(col, columns.DynBPDesc, columns.DeltaBPDesc)
		return []*columns.Column{gids, ext}, err
	}},
	{"group_next", func(rt Runtime, col *columns.Column) ([]*columns.Column, error) {
		gids, ext, err := rt.GroupNext(col, col, columns.DynBPDesc, columns.UncomprDesc)
		return []*columns.Column{gids, ext}, err
	}},
	{"intersect", func(rt Runtime, col *columns.Column) ([]*columns.Column, error) {
		out, err := rt.Intersect(sortedOf(col, 2), sortedOf(col, 3), columns.DeltaBPDesc)
		return []*columns.Column{out}, err
	}},
	{"merge", func(rt Runtime, col *columns.Column) ([]*columns.Column, error) {
		out, err := rt.Merge(sortedOf(col, 2), sortedOf(col, 3), columns.DeltaBPDesc)
		return []*columns.Column{out}, err
	}},
}

// sortedOf returns the positions 0, step, 2*step, ... as long as col.
func sortedOf(col *columns.Column, step int) *columns.Column {
	vals := make([]uint64, col.N())
	for i := range vals {
		vals[i] = uint64(step * i)
	}
	return columns.FromValues(vals)
}

// TestUnsplitRunRecorded: every driver shape run with one worker, and every
// one-pass operator at four workers over an input of many morsels, reports
// one sequential fallback through the attached collector, records no
// morsels, takes no budget token and charges nothing of its own — the
// counter holds exactly the outputs' bytes, charged here the way the engine
// charges every produced column.
func TestUnsplitRunRecorded(t *testing.T) {
	col := faultTestColumn(t)
	type run struct {
		name string
		par  int
		run  func(rt Runtime, col *columns.Column) ([]*columns.Column, error)
	}
	var runs []run
	for _, shape := range driverShapes {
		runs = append(runs, run{shape.name, 1, func(rt Runtime, col *columns.Column) ([]*columns.Column, error) {
			return nil, shape.run(rt, col)
		}})
	}
	for _, op := range onePassOps {
		runs = append(runs, run{op.name, 4, op.run})
	}
	for _, r := range runs {
		var fb fallbackCounter
		c := metrics.NewCollectorFor(metrics.ReserveQueryID(), 1, &fb)
		c.Define(0, "v", r.name, nil)
		nc := c.Node(0)
		nc.Begin(int64(col.N()))
		b, mres := NewBudget(4), &MemReservation{}
		rt := RT(context.Background(), b, nil, r.par).WithCollector(nc).WithMemReservation(mres)
		outs, err := r.run(rt, col)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		nc.Finish(0, nil, nil)
		if ns := c.Finish(nil).Nodes[0]; !ns.SeqFallback || ns.Morsels != 0 || fb.n != 1 {
			t.Fatalf("%s: SeqFallback=%v (%d events) Morsels=%d, want one fallback and 0 morsels", r.name, ns.SeqFallback, fb.n, ns.Morsels)
		}
		assertBudgetIdle(t, b, r.name)
		want := 0
		for _, out := range outs {
			want += out.PhysicalBytes()
			rt.ChargeMem(out.PhysicalBytes())
		}
		if got := mres.Charged(); got != int64(want) {
			t.Fatalf("%s: charged %d bytes, want the outputs' %d", r.name, got, want)
		}
	}
}

// TestRunPartsNoGoroutineLeak runs many failing executions and checks the
// worker goroutines all exited.
func TestRunPartsNoGoroutineLeak(t *testing.T) {
	defer faultpoint.DisarmAll()
	col := faultTestColumn(t)
	b := NewBudget(4)
	before := runtime.NumGoroutine()
	faultpoint.KernelBody.Arm(func() error { panic("injected") })
	for i := 0; i < 50; i++ {
		_ = runSelect(context.Background(), b, col)
	}
	faultpoint.DisarmAll()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, now)
	}
}

// TestRunPartsStopsSiblingsAfterFailure checks workers stop claiming morsels
// once one fails: with a fault firing on the first claim, the completed work
// should stay far below the partition count.
func TestRunPartsStopsSiblingsAfterFailure(t *testing.T) {
	defer faultpoint.DisarmAll()
	var fired bool
	faultpoint.MorselClaim.Arm(func() error {
		if !fired {
			fired = true
			return errors.New("injected first-claim failure")
		}
		return nil
	})
	ran := 0
	rt := FixedRT(1) // one worker: deterministic claim order
	err := rt.runTasks(100, func(_, _ int) error { ran++; return nil })
	if err == nil {
		t.Fatal("injected failure did not surface")
	}
	if ran != 0 {
		t.Fatalf("workers kept claiming after failure: %d tasks ran", ran)
	}
}
