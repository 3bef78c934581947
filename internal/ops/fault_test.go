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
		_, err := rt.SelectAuto(col, bitutil.CmpLt, 500, columns.DeltaBPDesc, false)
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
		_, _, err := rt.SumAuto(col, false)
		return err
	}},
}

// runOnBudget runs one driver shape at par workers drawing tokens from b.
func runOnBudget(ctx context.Context, b *Budget, par int, run func(Runtime, *columns.Column) error, col *columns.Column) error {
	return run(RT(ctx, b, par), col)
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

// TestUnsplitRunRecorded: every driver shape, run with one worker, reports
// the sequential fallback through the attached collector and records no
// morsels.
func TestUnsplitRunRecorded(t *testing.T) {
	col := faultTestColumn(t)
	for _, shape := range driverShapes {
		c := metrics.NewCollector(1, nil)
		c.Define(0, "v", shape.name, nil)
		nc := c.Node(0)
		nc.Begin(int64(col.N()))
		if err := shape.run(RT(context.Background(), nil, 1).WithCollector(nc), col); err != nil {
			t.Fatalf("%s: %v", shape.name, err)
		}
		nc.Finish(0, nil, nil)
		if ns := c.Finish(nil).Nodes[0]; !ns.SeqFallback || ns.Morsels != 0 {
			t.Fatalf("%s: SeqFallback=%v Morsels=%d, want true and 0", shape.name, ns.SeqFallback, ns.Morsels)
		}
	}
}

// TestGroupMergeFaultPanics checks the merge-phase fault point escalates to a
// panic (the grouping drivers have no error path there; the engine layer
// recovers it — see the core chaos test).
func TestGroupMergeFaultPanics(t *testing.T) {
	defer faultpoint.DisarmAll()
	col := faultTestColumn(t)
	faultpoint.GroupMerge.Arm(func() error { return errors.New("injected") })
	defer func() {
		if recover() == nil {
			t.Fatal("group merge did not escalate the injected error")
		}
	}()
	_, _, _ = FixedRT(4).GroupFirst(col, columns.UncomprDesc, columns.UncomprDesc)
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
