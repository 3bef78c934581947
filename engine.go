// Engine API: the primary way to execute queries and operators.
//
// An Engine owns a database, an engine-wide worker budget, and an admission
// gate. Plans are compiled once with Prepare — per-column formats resolved
// explicitly, uniformly, or cost-based; morph insertions bound per node — and
// executed any number of times, from any number of goroutines, under a
// context.Context. Each operator picks its kernel from the format of the
// column it is handed: a direct kernel on the compressed data where that
// format has a faster one, on-the-fly de/re-compression everywhere else.
//
//	eng := morphstore.NewEngine(db,
//		morphstore.WithParallelism(8),
//		morphstore.WithMaxConcurrentQueries(64))
//	q, err := eng.Prepare(plan, morphstore.WithCostBasedFormats())
//	res, err := q.Execute(ctx)
//
// Concurrent Execute calls share the engine's worker budget: every morsel
// worker of every running query holds one of its tokens while it claims
// morsels, results are byte-identical to a sequential run at every
// parallelism level, and a cancelled context stops the DAG scheduler and the
// running morsel loops within one morsel.
//
// The engine also offers every operator as a one-off call under the same
// budget, configured with the same functional options:
//
//	pos, err := eng.Select(ctx, col, morphstore.CmpGt, 3,
//		morphstore.WithOutput(morphstore.DeltaBP))
package morphstore

import (
	"time"

	"morphstore/internal/core"
)

// Engine owns a database, an engine-wide worker budget shared by the morsel
// workers of every concurrently executing query and one-off operator call,
// and an admission gate that bounds concurrent queries and, optionally, the
// bytes they reserve. It is safe for concurrent use, and shuts down
// gracefully with Close: admission
// stops (later calls match ErrEngineClosed), in-flight work drains, and
// stragglers are cancelled at the context's deadline. See core.Engine for
// the full method set: Prepare, Close, Stats, plus the one-off operators
// Select, SelectBetween, Project, Sum, SumGrouped, SemiJoin, JoinN1, Calc,
// Intersect, Union, GroupFirst, and GroupNext, all taking a context and
// options.
type Engine = core.Engine

// Prepared is a plan compiled against one engine: formats resolved, every
// node bound to a physical operator. It is immutable and safe for
// concurrent Execute(ctx) calls from many goroutines.
type Prepared = core.Prepared

// Snapshot is a consistent read view over the engine's tables, returned by
// Engine.Snapshot: each writable table pinned at one delta epoch, immune to
// later Append/Delete calls and remorph swaps. Every Execute pins its own
// snapshot at admission, so all operators of one query read the same view.
type Snapshot = core.Snapshot

// Option is a functional option for NewEngine, Engine.Prepare,
// Prepared.Execute, and the engine's one-off operator calls.
type Option = core.Option

// NewEngine returns an engine over db (nil means an empty database, for
// one-off operator use). Options set the worker budget (WithParallelism:
// 0 = GOMAXPROCS), the admission gate (WithMaxConcurrentQueries,
// WithMemoryBudget, WithAdmissionQueue), and the background remorph
// (WithRemorph).
func NewEngine(db *DB, opts ...Option) *Engine { return core.NewEngine(db, opts...) }

// WithKeep retains all intermediate columns in the result, and so runs the
// plan as written: no node is fused or elided by the engine's physical
// rewrites, every intermediate is materialized, and Meas counts them all.
// Applies to Prepare and Execute.
func WithKeep(on bool) Option { return core.WithKeep(on) }

// WithParallelism sets the worker-goroutine budget: at NewEngine the
// engine-wide budget shared by all concurrent queries, at Prepare/Execute
// and one-off operator calls the cap of that one query or operator. 0 means
// the engine budget (GOMAXPROCS for a fresh engine); 1 reproduces the
// sequential operator-at-a-time execution exactly. Results are
// byte-identical at every level.
func WithParallelism(n int) Option { return core.WithParallelism(n) }

// WithMaxConcurrentQueries bounds how many Execute calls run at once; the
// surplus parks in the engine's admission queue (honouring ctx and the
// WithAdmissionQueue bounds) and is admitted FIFO. 0 means unlimited.
// Applies to NewEngine.
func WithMaxConcurrentQueries(n int) Option { return core.WithMaxConcurrentQueries(n) }

// WithAdmissionQueue bounds the engine's admission queue — the one queue in
// which executions wait for a WithMaxConcurrentQueries slot and their
// WithMemoryBudget bytes, and appends for their bytes: at most depth
// requests park at once and none parks longer than maxWait in total. A
// request arriving at a full queue, or parked past maxWait or its own
// context's expiry, is shed with an error matching ErrAdmissionRejected
// (retryable — it never started). depth 0 means an unbounded queue, maxWait
// 0 no wait bound; without a slot limit or a budget nothing waits. Applies
// to NewEngine.
func WithAdmissionQueue(depth int, maxWait time.Duration) Option {
	return core.WithAdmissionQueue(depth, maxWait)
}

// WithMemoryBudget gives the engine's admission gate a byte budget for the
// intermediates of all concurrently executing queries and the delta tails of
// unfolded appends. Each execution reserves its plan's estimate for the
// tables' current rows (Prepared.MemoryEstimate) at admission, together
// with its slot; a request that does not fit waits in the admission queue
// without holding a slot and sheds with ErrAdmissionRejected when its wait
// expires. A query whose estimate exceeds the whole budget fails with
// ErrMemoryLimit. Actual peak usage is reported in QueryStats.MemPeak and
// Engine.Stats. 0 means no budget. Applies to NewEngine.
func WithMemoryBudget(bytes int64) Option { return core.WithMemoryBudget(bytes) }

// WithRemorph starts the engine's background remorph worker: every interval
// it scans the tables written through Engine.Append/Delete and rebuilds any
// whose delta (tail rows plus pending deletions) has reached threshold times
// the main row count (threshold <= 0 folds any non-empty delta). A rebuild
// re-picks each column's compression format with the cost model off the hot
// path — the merged main+delta column, which keeps the main's format, is the
// new main, morphed only when the pick changes the format — and atomically swaps
// the new main in; running queries finish on their pinned snapshots. Engine.Close stops
// the worker and drains an in-flight rebuild. Without this option the delta
// only folds on explicit Engine.Remorph calls. Applies to NewEngine.
func WithRemorph(threshold float64, interval time.Duration) Option {
	return core.WithRemorph(threshold, interval)
}

// WithFormats assigns compression formats to the named plan columns,
// overriding WithUniformFormat/WithCostBasedFormats choices (missing entries
// stay uncompressed). Applies to Prepare.
func WithFormats(m map[string]FormatDesc) Option { return core.WithFormats(m) }

// WithUniformFormat assigns one format to every intermediate of the plan
// (randomly accessed columns fall back to static BP). Applies to Prepare.
func WithUniformFormat(d FormatDesc) Option { return core.WithUniformFormat(d) }

// WithCostBasedFormats selects every intermediate's format with the
// gray-box cost model (footprint objective, §5) at prepare time, profiling
// the rows an execution admitted then would read: a writable table's live
// main plus delta, every other table as registered. Applies to Prepare.
func WithCostBasedFormats() Option { return core.WithCostBasedFormats() }

// WithOutput sets the output format of a one-off operator call (every
// output of dual-output operators). Defaults to Uncompressed. Applies to
// operator calls.
func WithOutput(d FormatDesc) Option { return core.WithOutput(d) }

// WithOutputs sets the two output formats of a dual-output operator call
// (JoinN1: probe positions, build positions; GroupFirst/GroupNext: group
// ids, extents). Applies to operator calls.
func WithOutputs(first, second FormatDesc) Option { return core.WithOutputs(first, second) }
