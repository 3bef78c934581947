package morphstore_test

import (
	"context"
	"errors"
	"sync"
	"testing"

	ms "morphstore"
)

// TestFacadeEngineOneOff: the engine's option-based operator calls produce
// the same bytes at parallelism 2 as on a single-worker engine.
func TestFacadeEngineOneOff(t *testing.T) {
	n := 8 * 512
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = uint64(i % 301)
	}
	col, err := ms.Compress(vals, ms.DynBP)
	if err != nil {
		t.Fatal(err)
	}
	eng := ms.NewEngine(nil, ms.WithStyle(ms.Vec512), ms.WithParallelism(2))
	ctx := context.Background()

	seq := ms.NewEngine(nil, ms.WithStyle(ms.Vec512), ms.WithParallelism(1))
	want, err := seq.Select(ctx, col, ms.CmpLt, 100, ms.WithOutput(ms.DeltaBP))
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.Select(ctx, col, ms.CmpLt, 100, ms.WithOutput(ms.DeltaBP))
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != want.N() {
		t.Fatalf("select: %d positions, want %d", got.N(), want.N())
	}
	gw, ww := got.Words(), want.Words()
	if len(gw) != len(ww) {
		t.Fatalf("select: %d words, want %d", len(gw), len(ww))
	}
	for i := range ww {
		if gw[i] != ww[i] {
			t.Fatalf("select: word %d differs", i)
		}
	}

	wantSum, err := seq.Sum(ctx, col)
	if err != nil {
		t.Fatal(err)
	}
	gotSum, err := eng.Sum(ctx, col)
	if err != nil {
		t.Fatal(err)
	}
	if gotSum != wantSum {
		t.Fatalf("sum = %d, want %d", gotSum, wantSum)
	}
}

// TestFacadeEngineSSB: an SSB query prepared once executes concurrently
// from several goroutines with results matching the row-wise reference.
func TestFacadeEngineSSB(t *testing.T) {
	data, err := ms.GenerateSSB(0.002, 42)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := ms.BuildSSBPlan("1.1", data)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ms.SSBReference("1.1", data)
	if err != nil {
		t.Fatal(err)
	}
	eng := ms.NewEngine(data.DB, ms.WithStyle(ms.Vec512), ms.WithParallelism(3))
	q, err := eng.Prepare(plan, ms.WithUniformFormat(ms.DeltaBP))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := q.Execute(context.Background())
			if err != nil {
				errCh <- err
				return
			}
			rows, err := ms.ExtractSSBResult("1.1", res)
			if err != nil {
				errCh <- err
				return
			}
			if len(rows) != len(want) || rows[0].Sum != want[0].Sum {
				errCh <- errors.New("engine SSB result disagrees with reference")
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestFacadeEngineCancelled: a cancelled context surfaces through the
// facade as ctx.Err().
func TestFacadeEngineCancelled(t *testing.T) {
	db := ms.NewDB()
	db.AddTable("t", map[string][]uint64{"x": {1, 2, 3}})
	b := ms.NewPlanBuilder()
	x := b.Scan("t", "x")
	b.Result(b.SumWhole("total", x))
	plan, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	q, err := ms.NewEngine(db).Prepare(plan)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := q.Execute(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
