package ingest

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"morphstore/internal/core"
	"morphstore/internal/dict"
	"morphstore/internal/faultpoint"
	"morphstore/internal/qerr"
)

// chaosIngestTyped reports whether an ingest failure under chaos is one of
// the engine's typed errors (the injected faults are tagged ErrCorruptData).
func chaosIngestTyped(err error) bool {
	var qe *qerr.QueryError
	return errors.Is(err, qerr.ErrCorruptData) ||
		errors.Is(err, qerr.ErrInvalidSchema) ||
		errors.Is(err, qerr.ErrQueryCanceled) ||
		errors.Is(err, qerr.ErrQueryTimeout) ||
		errors.Is(err, qerr.ErrAdmissionRejected) ||
		errors.Is(err, qerr.ErrEngineClosed) ||
		errors.Is(err, qerr.ErrMemoryLimit) ||
		errors.As(err, &qe)
}

// TestChaosIngestClose races CSV and JSON-lines ingest against Engine.Close
// while the three ingest fault points (dict-persist, dict-lookup-miss,
// ingest-batch) are randomly armed with typed errors and delays. The
// contract: every failure is a taxonomy error, the engine's appended-row
// counter agrees exactly with the row totals the Load calls reported, the
// dictionaries stay internally consistent (their journals replay to the
// same mapping), and Close leaves no memory reservation, worker token, or
// goroutine behind.
func TestChaosIngestClose(t *testing.T) {
	defer faultpoint.DisarmAll()
	const rows = 96
	var csvData, jsonlData strings.Builder
	csvData.WriteString("k,s\n")
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&csvData, "%d,w%02d\n", i, i%17)
		fmt.Fprintf(&jsonlData, "{\"k\": %d, \"s\": \"w%02d\"}\n", i, i%17)
	}

	db := core.NewDB()
	// Pre-create both tables: concurrent Loads into one table must not race
	// on schema creation.
	for _, tab := range []string{"tc", "tj"} {
		if err := db.AddTable(tab, map[string][]uint64{"k": nil}); err != nil {
			t.Fatal(err)
		}
		if err := db.AddStringColumn(tab, "s", nil); err != nil {
			t.Fatal(err)
		}
	}
	baseline := runtime.NumGoroutine()
	e := core.NewEngine(db, core.WithParallelism(4),
		core.WithMaxConcurrentQueries(2),
		core.WithAdmissionQueue(8, 2*time.Millisecond),
		core.WithMemoryBudget(1<<30))

	injected := qerr.Tag(errors.New("chaos injected"), qerr.ErrCorruptData)
	points := []*faultpoint.Point{faultpoint.DictPersist, faultpoint.DictLookupMiss, faultpoint.IngestBatch}
	stop := make(chan struct{})
	var chaosWG sync.WaitGroup
	chaosWG.Add(1)
	go func() {
		defer chaosWG.Done()
		rng := rand.New(rand.NewSource(31))
		for {
			select {
			case <-stop:
				return
			default:
			}
			p := points[rng.Intn(len(points))]
			switch rng.Intn(4) {
			case 0:
				p.Disarm()
			case 1:
				p.Arm(func() error { return injected })
			case 2:
				// Fail roughly one hit in three so some batches get through.
				var n atomic.Int64
				p.Arm(func() error {
					if n.Add(1)%3 == 0 {
						return injected
					}
					return nil
				})
			default:
				p.Arm(func() error { time.Sleep(20 * time.Microsecond); return nil })
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()

	const goroutines, iters = 6, 10
	var loaded atomic.Int64 // sum of row totals reported by Load
	var closed atomic.Bool
	errCh := make(chan error, goroutines)
	var loadWG sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		loadWG.Add(1)
		go func(g int) {
			defer loadWG.Done()
			rng := rand.New(rand.NewSource(int64(400 + g)))
			for i := 0; i < iters; i++ {
				var src Source
				table := "tc"
				if rng.Intn(2) == 0 {
					src = NewCSV(strings.NewReader(csvData.String()))
				} else {
					table = "tj"
					src = NewJSONLines(strings.NewReader(jsonlData.String()))
				}
				n, err := Load(context.Background(), e, table, src, WithBatchRows(16))
				loaded.Add(int64(n))
				if err != nil {
					if !chaosIngestTyped(err) {
						errCh <- fmt.Errorf("goroutine %d iter %d: untyped chaos error: %v", g, i, err)
						return
					}
					if closed.Load() && errors.Is(err, qerr.ErrEngineClosed) {
						return
					}
				}
			}
		}(g)
	}

	time.Sleep(5 * time.Millisecond)
	closed.Store(true)
	cctx, ccancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	if err := e.Close(cctx); err != nil && !errors.Is(err, context.DeadlineExceeded) && !chaosIngestTyped(err) {
		t.Errorf("close under chaos: %v", err)
	}
	ccancel()
	loadWG.Wait()
	close(stop)
	chaosWG.Wait()
	faultpoint.DisarmAll()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if err := e.Close(context.Background()); err != nil {
		t.Fatalf("close after chaos: %v", err)
	}

	// Row accounting: the engine appended exactly the rows the Load calls
	// reported, no more, no fewer.
	st := e.Stats()
	if st.AppendedRows != loaded.Load() {
		t.Fatalf("engine appended %d rows, Load calls reported %d", st.AppendedRows, loaded.Load())
	}
	t.Logf("chaos ingest: %d rows loaded across %d tables", loaded.Load(), 2)

	// Dictionary consistency: every dictionary's journal replays to the same
	// mapping its snapshot holds (failed batches may have grown the dict —
	// harmless — but never out of step with its journal).
	for _, tab := range []string{"tc", "tj"} {
		d := db.Dict(tab, "s")
		rd, err := dict.Replay(d.Journal())
		if err != nil {
			t.Fatalf("%s dict journal does not replay: %v", tab, err)
		}
		s, rs := d.Snap(), rd.Snap()
		if s.Len() != rs.Len() {
			t.Fatalf("%s: replayed dict has %d strings, live has %d", tab, rs.Len(), s.Len())
		}
		for id := uint64(0); id < uint64(s.Len()); id++ {
			a, _ := s.String(id)
			b, _ := rs.String(id)
			if a != b {
				t.Fatalf("%s: ID %d is %q live, %q replayed", tab, id, a, b)
			}
		}
		if s.Len() > 17 {
			t.Fatalf("%s: dict grew to %d strings, data has 17 distinct", tab, s.Len())
		}
	}

	// Leak invariants.
	if st.MemReserved != 0 {
		t.Fatalf("%d bytes of memory reservation leaked", st.MemReserved)
	}
	if st.BudgetInUse != 0 {
		t.Fatalf("budget leaked: %d worker tokens in use", st.BudgetInUse)
	}
	if st.PooledBytes != 0 {
		t.Fatalf("buffer pool retains %d bytes after Close", st.PooledBytes)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > baseline {
		t.Fatalf("goroutines leaked: %d before chaos, %d after", baseline, now)
	}
}
