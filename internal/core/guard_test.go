package core

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"testing"
	"time"

	"morphstore/internal/bitutil"
	"morphstore/internal/columns"
	"morphstore/internal/faultpoint"
	"morphstore/internal/formats"
	"morphstore/internal/ops"
	"morphstore/internal/qerr"
)

// TestEntryGuard holds the contract of Engine.begin — the entry guard of
// every engine call that is not Prepared.Execute — once, over one call of
// each kind: a closed engine fails fast, a nil context works, a context that
// is already cancelled fails before anything changes, and a call still
// running when Close abandons its graceful drain comes back tagged
// ErrEngineClosed with nothing left in flight.
func TestEntryGuard(t *testing.T) {
	const (
		nRows      = 8 * 1024 // several morsels at par 2: the operator call has claims to stall
		batchBytes = 2 * 8    // one appended row of the two-column table
	)
	newEngine := func(t *testing.T) (*Engine, *columns.Column) {
		t.Helper()
		v, s := make([]uint64, nRows), make([]string, nRows)
		for i := range v {
			v[i], s[i] = uint64(i%97), "k"+strconv.Itoa(i%13)
		}
		db := NewDB()
		if err := db.AddTable("t", map[string][]uint64{"v": v}); err != nil {
			t.Fatal(err)
		}
		if err := db.AddStringColumn("t", "s", s); err != nil {
			t.Fatal(err)
		}
		in, err := db.Column("t", "v")
		if err != nil {
			t.Fatal(err)
		}
		// The budget admits exactly one appended row at a time, so a second
		// append parks in the admission queue (the byte-waiter subtest).
		e := NewEngine(db, WithParallelism(2), WithMemoryBudget(batchBytes))
		// A pending deletion reserves nothing and gives Remorph work to do.
		if err := e.Delete(context.Background(), "t", []uint64{nRows - 1}); err != nil {
			t.Fatal(err)
		}
		return e, in
	}
	// A call is held mid-flight until Close fires the kill context by a fault
	// point on its path that waits for it. (An append waiting for bytes is
	// not mid-flight: it parks in the admission queue, which Close sheds.)
	blockAt := func(p *faultpoint.Point) func(*testing.T, *Engine) {
		return func(_ *testing.T, e *Engine) {
			p.Arm(func() error { <-e.killCtx.Done(); return e.killCtx.Err() })
		}
	}
	calls := []struct {
		name  string
		call  func(ctx context.Context, e *Engine, in *columns.Column) error
		stall func(*testing.T, *Engine)
	}{
		{"append", func(ctx context.Context, e *Engine, _ *columns.Column) error {
			return e.Append(ctx, "t", map[string][]uint64{"v": {7}, "s": {0}})
		}, blockAt(faultpoint.AppendLog)},
		{"append_strings", func(ctx context.Context, e *Engine, _ *columns.Column) error {
			return e.AppendStrings(ctx, "t", map[string][]uint64{"v": {7}}, map[string][]string{"s": {"fresh"}})
		}, blockAt(faultpoint.AppendLog)},
		{"delete", func(ctx context.Context, e *Engine, _ *columns.Column) error {
			return e.Delete(ctx, "t", []uint64{0})
		}, blockAt(faultpoint.AppendLog)},
		{"remorph", func(ctx context.Context, e *Engine, _ *columns.Column) error {
			return e.Remorph(ctx, "t")
		}, blockAt(faultpoint.RemorphSwap)},
		{"select", func(ctx context.Context, e *Engine, in *columns.Column) error {
			_, err := e.Select(ctx, in, bitutil.CmpLt, 50)
			return err
		}, blockAt(faultpoint.MorselClaim)},
	}
	for _, c := range calls {
		t.Run(c.name+"/closed", func(t *testing.T) {
			e, in := newEngine(t)
			if err := e.Close(context.Background()); err != nil {
				t.Fatal(err)
			}
			if err := c.call(context.Background(), e, in); !errors.Is(err, qerr.ErrEngineClosed) {
				t.Fatalf("on a closed engine: %v, want ErrEngineClosed", err)
			}
		})
		t.Run(c.name+"/nil_ctx", func(t *testing.T) {
			e, in := newEngine(t)
			defer e.Close(context.Background())
			var none context.Context
			if err := c.call(none, e, in); err != nil {
				t.Fatalf("with a nil context: %v", err)
			}
		})
		t.Run(c.name+"/cancelled_ctx", func(t *testing.T) {
			e, in := newEngine(t)
			defer e.Close(context.Background())
			before, statsBefore := e.Snapshot(), e.Stats()
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			err := c.call(ctx, e, in)
			if !errors.Is(err, qerr.ErrQueryCanceled) || errors.Is(err, qerr.ErrEngineClosed) {
				t.Fatalf("with a cancelled context: %v, want ErrQueryCanceled only", err)
			}
			after, statsAfter := e.Snapshot(), e.Stats()
			rowsAfter, _ := after.Rows("t")
			if before.Epoch("t") != after.Epoch("t") {
				t.Fatalf("epoch moved %d -> %d under a cancelled context", before.Epoch("t"), after.Epoch("t"))
			}
			if b, _ := before.Rows("t"); b != rowsAfter {
				t.Fatalf("rows changed %d -> %d under a cancelled context", b, rowsAfter)
			}
			if statsBefore.Appends != statsAfter.Appends || statsBefore.Deletes != statsAfter.Deletes ||
				statsBefore.Remorphs != statsAfter.Remorphs {
				t.Fatalf("mutation counters moved under a cancelled context: %+v -> %+v", statsBefore, statsAfter)
			}
		})
		t.Run(c.name+"/close_abandons_drain", func(t *testing.T) {
			defer faultpoint.DisarmAll()
			e, in := newEngine(t)
			c.stall(t, e)
			errCh := make(chan error, 1)
			go func() { errCh <- c.call(context.Background(), e, in) }()
			waitFor(t, "the call to pass the guard", func() bool { return e.adm.counters().inflight == 1 })
			expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
			defer cancel()
			if err := e.Close(expired); !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("close over a stalled call: %v, want DeadlineExceeded (drain abandoned)", err)
			}
			if err := <-errCh; !errors.Is(err, qerr.ErrEngineClosed) {
				t.Fatalf("call cancelled by Close: %v, want ErrEngineClosed", err)
			}
			if n := e.adm.counters().inflight; n != 0 {
				t.Fatalf("%d calls still in flight after close", n)
			}
			if n := e.budget.InUse(); n != 0 {
				t.Fatalf("%d budget worker tokens leaked through close", n)
			}
			if n := e.adm.counters().reserved; n != 0 {
				t.Fatalf("%d bytes still reserved after close", n)
			}
		})
	}

	// An append starved of bytes parks in the admission queue holding
	// nothing: Close sheds it at once and still drains gracefully.
	t.Run("append/close_sheds_byte_waiter", func(t *testing.T) {
		e, _ := newEngine(t)
		row := map[string][]uint64{"v": {1}, "s": {0}}
		if err := e.Append(context.Background(), "t", row); err != nil {
			t.Fatal(err)
		}
		errCh := make(chan error, 1)
		go func() { errCh <- e.Append(context.Background(), "t", row) }()
		waitFor(t, "the append to park for bytes", func() bool { return e.adm.counters().queued == 1 })
		if err := e.Close(context.Background()); err != nil {
			t.Fatalf("close over a parked append: %v", err)
		}
		if err := <-errCh; !errors.Is(err, qerr.ErrEngineClosed) {
			t.Fatalf("parked append shed by Close: %v, want ErrEngineClosed", err)
		}
		if c := e.adm.counters(); c.inflight != 0 || c.queued != 0 || c.reserved != 0 {
			t.Fatalf("gate not empty after close: %+v", c)
		}
	})

	// One append path means one empty-batch rule: maps that do not cover the
	// table's columns are a schema error even when they are nil, and covering
	// maps with zero rows are a no-op.
	t.Run("empty_batches", func(t *testing.T) {
		e, _ := newEngine(t)
		defer e.Close(context.Background())
		ctx := context.Background()
		if err := e.Append(ctx, "t", nil); !errors.Is(err, qerr.ErrInvalidSchema) {
			t.Fatalf("Append(nil): %v, want ErrInvalidSchema", err)
		}
		if err := e.AppendStrings(ctx, "t", nil, nil); !errors.Is(err, qerr.ErrInvalidSchema) {
			t.Fatalf("AppendStrings(nil, nil): %v, want ErrInvalidSchema", err)
		}
		epoch := e.Snapshot().Epoch("t")
		if err := e.Append(ctx, "t", map[string][]uint64{"v": {}, "s": {}}); err != nil {
			t.Fatalf("zero-row Append: %v", err)
		}
		if err := e.AppendStrings(ctx, "t", map[string][]uint64{"v": {}}, map[string][]string{"s": {}}); err != nil {
			t.Fatalf("zero-row AppendStrings: %v", err)
		}
		if got := e.Snapshot().Epoch("t"); got != epoch || e.Stats().Appends != 0 {
			t.Fatalf("zero-row batches published epoch %d -> %d, %d appends", epoch, got, e.Stats().Appends)
		}
	})
}

// TestOneOffFaultsReleaseAdmission arms every fault point in turn and runs
// each of the twelve one-off operator calls under it, on inputs large enough
// to split at par 2: whatever fires — an error, or one escalated to a panic
// on the caller's goroutine — the call comes back typed and leaves no
// admission registration and no worker token behind, so Close drains at
// once. A panic between the entry guard and the deferred release used to
// leave the call registered, and Close then hung forever.
func TestOneOffFaultsReleaseAdmission(t *testing.T) {
	n := 4*formats.MinMorsel + 71
	a, b, gids, evens, thirds := make([]uint64, n), make([]uint64, n), make([]uint64, n), []uint64{}, []uint64{}
	for i := range a {
		a[i], b[i], gids[i] = uint64(i%251), uint64((i*7)%509), uint64(i%16)
		if i%2 == 0 {
			evens = append(evens, uint64(i))
		}
		if i%3 == 0 {
			thirds = append(thirds, uint64(i))
		}
	}
	build := make([]uint64, 128)
	for i := range build {
		build[i] = uint64(i)
	}
	colA, colB, colG := columns.FromValues(a), columns.FromValues(b), columns.FromValues(gids)
	posE, posT, colBuild := columns.FromValues(evens), columns.FromValues(thirds), columns.FromValues(build)
	calls := []func(ctx context.Context, e *Engine) error{
		func(ctx context.Context, e *Engine) error {
			_, err := e.Select(ctx, colA, bitutil.CmpLt, 100, WithOutput(columns.DeltaBPDesc))
			return err
		},
		func(ctx context.Context, e *Engine) error {
			_, err := e.SelectBetween(ctx, colA, 10, 90, WithOutput(columns.DeltaBPDesc))
			return err
		},
		func(ctx context.Context, e *Engine) error {
			_, err := e.Project(ctx, colA, posE, WithOutput(columns.DynBPDesc))
			return err
		},
		func(ctx context.Context, e *Engine) error {
			_, err := e.Sum(ctx, colA)
			return err
		},
		func(ctx context.Context, e *Engine) error {
			_, err := e.SumGrouped(ctx, colG, colA, 16)
			return err
		},
		func(ctx context.Context, e *Engine) error {
			_, err := e.SemiJoin(ctx, colA, colBuild, WithOutput(columns.DeltaBPDesc))
			return err
		},
		func(ctx context.Context, e *Engine) error {
			_, _, err := e.JoinN1(ctx, colA, colBuild, WithOutputs(columns.DeltaBPDesc, columns.DynBPDesc))
			return err
		},
		func(ctx context.Context, e *Engine) error {
			_, err := e.Calc(ctx, ops.CalcMul, colA, colB, WithOutput(columns.DynBPDesc))
			return err
		},
		func(ctx context.Context, e *Engine) error {
			_, err := e.Intersect(ctx, posE, posT, WithOutput(columns.DeltaBPDesc))
			return err
		},
		func(ctx context.Context, e *Engine) error {
			_, err := e.Union(ctx, posE, posT, WithOutput(columns.DeltaBPDesc))
			return err
		},
		func(ctx context.Context, e *Engine) error {
			_, _, err := e.GroupFirst(ctx, colG, WithOutputs(columns.DynBPDesc, columns.DeltaBPDesc))
			return err
		},
		func(ctx context.Context, e *Engine) error {
			_, _, err := e.GroupNext(ctx, colG, colB, WithOutputs(columns.DynBPDesc, columns.UncomprDesc))
			return err
		},
	}
	injected := fmt.Errorf("injected: %w", formats.ErrCorrupt)
	for _, p := range faultpoint.Points() {
		t.Run(p.Name(), func(t *testing.T) {
			defer faultpoint.DisarmAll()
			e := NewEngine(nil, WithParallelism(2))
			p.Arm(func() error { return injected })
			for i, call := range calls {
				if err := call(context.Background(), e); err != nil && !chaosTyped(err) {
					t.Fatalf("call %d: untyped error %v", i, err)
				}
			}
			p.Disarm()
			if n := e.adm.counters().inflight; n != 0 {
				t.Fatalf("%d one-off calls still registered after the fault", n)
			}
			if n := e.budget.InUse(); n != 0 {
				t.Fatalf("%d worker tokens leaked", n)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			if err := e.Close(ctx); err != nil {
				t.Fatalf("close after the fault: %v", err)
			}
		})
	}
}

// TestUndefinedCmpKind: a comparison kind outside the six defined ones used
// to select nothing, silently, on every kernel path. It is now an
// ErrInvalidSchema error from all three entry points, with the specialized
// kernels on and off.
func TestUndefinedCmpKind(t *testing.T) {
	const bad = bitutil.CmpKind(9)
	vals := make([]uint64, 300)
	for i := range vals {
		vals[i] = uint64(i % 8)
	}
	in, err := formats.Compress(vals, columns.StaticBPDesc(4)) // a SWAR width: the specialized path applies
	if err != nil {
		t.Fatal(err)
	}
	db := NewDB()
	if err := db.AddTable("t", map[string][]uint64{"v": vals}); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(db, WithParallelism(1))
	defer e.Close(context.Background())
	for _, specialized := range []bool{false, true} {
		if col, err := ops.FixedRT(1).SelectAuto(in, bad, 3, columns.UncomprDesc, specialized); !errors.Is(err, qerr.ErrInvalidSchema) {
			t.Errorf("Runtime.SelectAuto(specialized=%v) = %v, %v; want ErrInvalidSchema", specialized, col, err)
		}
		if col, err := e.Select(context.Background(), in, bad, 3, WithSpecialized(specialized)); !errors.Is(err, qerr.ErrInvalidSchema) {
			t.Errorf("Engine.Select(specialized=%v) = %v, %v; want ErrInvalidSchema", specialized, col, err)
		}
	}
	b := NewBuilder()
	b.Result(b.Select("sel", b.Scan("t", "v"), bad, 3))
	if p, err := b.Build(); !errors.Is(err, qerr.ErrInvalidSchema) {
		t.Errorf("Builder.Build = %v, %v; want ErrInvalidSchema", p, err)
	}
}

// TestUndefinedCalcKind: an arithmetic kind outside the three defined ones
// used to compute zeros with a nil error. It is now an ErrInvalidSchema error
// from all three entry points, on compressed and uncompressed inputs.
func TestUndefinedCalcKind(t *testing.T) {
	const bad = ops.CalcKind(9)
	vals := []uint64{1, 2, 3}
	db := NewDB()
	if err := db.AddTable("t", map[string][]uint64{"a": vals, "b": vals}); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(db, WithParallelism(1))
	defer e.Close(context.Background())
	for _, desc := range []columns.FormatDesc{columns.UncomprDesc, columns.DynBPDesc} {
		in, err := formats.Compress(vals, desc)
		if err != nil {
			t.Fatal(err)
		}
		if col, err := ops.FixedRT(1).CalcBinary(bad, in, in, columns.UncomprDesc); !errors.Is(err, qerr.ErrInvalidSchema) {
			t.Errorf("Runtime.CalcBinary(%v) = %v, %v; want ErrInvalidSchema", desc, col, err)
		}
		if col, err := e.Calc(context.Background(), bad, in, in); !errors.Is(err, qerr.ErrInvalidSchema) {
			t.Errorf("Engine.Calc(%v) = %v, %v; want ErrInvalidSchema", desc, col, err)
		}
	}
	b := NewBuilder()
	b.Result(b.Calc("c", bad, b.Scan("t", "a"), b.Scan("t", "b")))
	if p, err := b.Build(); !errors.Is(err, qerr.ErrInvalidSchema) {
		t.Errorf("Builder.Build = %v, %v; want ErrInvalidSchema", p, err)
	}
}
