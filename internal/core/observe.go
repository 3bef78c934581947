package core

import (
	"errors"
	"sync/atomic"
	"time"

	"morphstore/internal/columns"
	"morphstore/internal/metrics"
	"morphstore/internal/qerr"
)

// This file wires the observability layer (internal/metrics) through the
// engine: the WithExecStats/WithTracer execution options, the per-execution
// collector construction, the engine-wide query/budget counters behind
// Engine.Stats, and the cardinality/format extraction the metrics package —
// a std-only leaf — cannot do itself.

// WithExecStats attaches a stats collector to one execution: when Execute
// returns, *dst holds the execution's QueryStats tree (per-operator morsel
// timings, cardinalities, formats), on success and failure alike. The
// collected columns are byte-identical to an uncollected run. Applies to
// Execute.
func WithExecStats(dst *metrics.QueryStats) Option {
	return Option{name: "WithExecStats", scope: scopeExec,
		apply: func(o *options) { o.stats = dst }}
}

// WithTracer streams live span begin/end and sequential-fallback events of
// every execution it applies to into t (see metrics.Tracer). At NewEngine or
// Prepare it covers every execution of the engine or plan; at Execute just
// that call. Attaching a tracer implies collection, so WithExecStats is not
// required to trace. Applies to NewEngine, Prepare, and Execute.
func WithTracer(t metrics.Tracer) Option {
	return Option{name: "WithTracer", scope: scopeEngine | scopePrepare | scopeExec,
		apply: func(o *options) { o.tracer = t }}
}

// engineCounters is the engine-wide observability state: monotonically
// increasing atomic counters, updated on every Execute outcome and every
// write-path call. It is the only mutable state an Engine carries.
type engineCounters struct {
	started     atomic.Int64
	succeeded   atomic.Int64
	rejected    atomic.Int64
	closed      atomic.Int64
	canceled    atomic.Int64
	timedOut    atomic.Int64
	corrupt     atomic.Int64
	panicked    atomic.Int64
	failedOther atomic.Int64
	memShed     atomic.Int64

	// Write-path counters (Engine.Append/Delete and the remorph worker).
	appends       atomic.Int64
	appendedRows  atomic.Int64
	deletes       atomic.Int64
	deletedRows   atomic.Int64
	remorphs      atomic.Int64
	remorphFailed atomic.Int64
	remorphRows   atomic.Int64
}

// query books one Execute outcome into exactly one outcome counter, chosen
// by qerr taxonomy class.
func (c *engineCounters) query(err error) {
	c.started.Add(1)
	var qe *qerr.QueryError
	switch {
	case err == nil:
		c.succeeded.Add(1)
	case errors.Is(err, qerr.ErrEngineClosed):
		c.closed.Add(1)
	case errors.Is(err, qerr.ErrAdmissionRejected):
		c.rejected.Add(1)
	case errors.Is(err, qerr.ErrQueryTimeout):
		c.timedOut.Add(1)
	case errors.Is(err, qerr.ErrQueryCanceled):
		c.canceled.Add(1)
	case errors.Is(err, qerr.ErrCorruptData):
		c.corrupt.Add(1)
	case errors.As(err, &qe):
		c.panicked.Add(1)
	default:
		c.failedOther.Add(1)
	}
}

// EngineStats is a point-in-time snapshot of an engine's lifetime counters,
// current budget utilization, and overload-protection state, returned by
// Engine.Stats. The outcome counters partition QueriesStarted: each finished
// Execute attempt lands in exactly one of them (classification order:
// closed, rejected, timeout, canceled, corrupt, panic, other), so Succeeded
// + the failure counters equals Started minus the executions still in
// flight.
type EngineStats struct {
	// QueriesStarted counts Execute calls that entered the engine.
	QueriesStarted int64
	// QueriesSucceeded counts executions that returned a result.
	QueriesSucceeded int64
	// QueriesRejected counts executions shed by the admission gate — queue
	// overflow or wait expiry — before they started.
	QueriesRejected int64
	// QueriesClosed counts executions failed because the engine closed:
	// fast-failed after Close, shed from the queue by Close, or cancelled
	// when Close gave up on the graceful drain.
	QueriesClosed int64
	// QueriesCanceled counts executions stopped mid-flight by context
	// cancellation.
	QueriesCanceled int64
	// QueriesTimedOut counts executions stopped mid-flight by a deadline.
	QueriesTimedOut int64
	// QueriesCorrupt counts executions failed on corrupt compressed data.
	QueriesCorrupt int64
	// QueriesPanicked counts executions failed by a recovered operator
	// panic not classified as one of the above.
	QueriesPanicked int64
	// QueriesFailedOther counts the remaining failures (e.g. misplaced
	// options).
	QueriesFailedOther int64
	// AdmissionQueued is the number of requests (queries, and appends
	// waiting for bytes) currently parked in the admission queue.
	AdmissionQueued int
	// AdmissionWaits counts requests that parked in the admission queue —
	// for a slot, for bytes, or both (engine-lifetime).
	AdmissionWaits int64
	// AdmissionWaitTotal is the summed queue wait time of all finished
	// parks (admitted and shed alike).
	AdmissionWaitTotal time.Duration
	// AdmissionShedOverflow counts requests shed on arrival because the
	// queue was at its WithAdmissionQueue depth.
	AdmissionShedOverflow int64
	// AdmissionShedExpired counts requests shed because their context or
	// the WithAdmissionQueue maxWait fired first.
	AdmissionShedExpired int64
	// AdmissionShedClosed counts requests shed because the engine closed
	// (fast-fails and queue sheds by Close).
	AdmissionShedClosed int64
	// EngineClosed reports that Close stopped admission.
	EngineClosed bool
	// MemBudget is the WithMemoryBudget byte budget (0 = none).
	MemBudget int64
	// MemReserved is the bytes currently reserved by running queries and
	// unfolded append batches.
	MemReserved int64
	// MemPeakReserved is the high-water mark of MemReserved.
	MemPeakReserved int64
	// MemOverBudget counts executions rejected (ErrMemoryLimit) because
	// their estimate exceeded the whole budget.
	MemOverBudget int64
	// BudgetTotal is the engine's worker allowance.
	BudgetTotal int
	// BudgetInUse is the number of worker tokens currently held by morsel
	// workers; zero whenever the engine is idle.
	BudgetInUse int
	// PooledBytes is the bytes of free word buffers the engine's buffer pool
	// retains for the next executions' intermediates. It never exceeds the
	// most bytes one execution drew from the pool at once times the most
	// executions and one-off operator calls that ran at once, and is zero
	// after Close.
	PooledBytes int64
	// Appends counts successful Engine.Append calls (including zero-row
	// no-ops).
	Appends int64
	// AppendedRows is the total row count over all successful appends.
	AppendedRows int64
	// Deletes counts successful Engine.Delete calls.
	Deletes int64
	// DeletedRows is the total row count over all successful deletes.
	DeletedRows int64
	// Remorphs counts completed remorph swaps (explicit Engine.Remorph calls
	// and background-worker sweeps alike).
	Remorphs int64
	// RemorphFailures counts remorph attempts that failed or were canceled
	// before their swap.
	RemorphFailures int64
	// RemorphRows is the total post-swap main row count over all completed
	// swaps — a measure of rebuild work done.
	RemorphRows int64
	// DeltaTables is the number of tables with write state (touched by
	// Append/Delete at least once).
	DeltaTables int
	// DeltaRows is the current total uncompressed delta-tail row count over
	// all writable tables.
	DeltaRows int
	// DeltaDeleted is the current total pending (unfolded) deletion count
	// over all writable tables.
	DeltaDeleted int
	// DeltaBytes is the current total delta footprint (tail backing,
	// deletion sets, journals) in bytes.
	DeltaBytes int64
}

// Stats returns a snapshot of the engine's lifetime query counters, current
// budget utilization, and admission state. Counters cover
// Prepared.Execute calls (the one-off operator methods draw on the worker
// budget — visible in BudgetInUse — but are not counted as queries).
// Safe for concurrent use; the counter groups are snapshotted individually,
// so a snapshot taken while queries run is approximate across groups but
// each field is exact.
func (e *Engine) Stats() EngineStats {
	adm := e.adm.counters()
	var dTables, dRows, dDel int
	var dBytes int64
	e.wmu.Lock()
	for _, wt := range e.wtabs {
		st := wt.dt.State()
		dTables++
		dRows += st.TailRows()
		dDel += st.DeletedRows()
		dBytes += wt.dt.DeltaBytes()
	}
	e.wmu.Unlock()
	return EngineStats{
		QueriesStarted:        e.counters.started.Load(),
		QueriesSucceeded:      e.counters.succeeded.Load(),
		QueriesRejected:       e.counters.rejected.Load(),
		QueriesClosed:         e.counters.closed.Load(),
		QueriesCanceled:       e.counters.canceled.Load(),
		QueriesTimedOut:       e.counters.timedOut.Load(),
		QueriesCorrupt:        e.counters.corrupt.Load(),
		QueriesPanicked:       e.counters.panicked.Load(),
		QueriesFailedOther:    e.counters.failedOther.Load(),
		AdmissionQueued:       adm.queued,
		AdmissionWaits:        adm.waits,
		AdmissionWaitTotal:    time.Duration(adm.waitNS),
		AdmissionShedOverflow: adm.shedOverflow,
		AdmissionShedExpired:  adm.shedExpired,
		AdmissionShedClosed:   adm.shedClosed,
		EngineClosed:          adm.closed,
		MemBudget:             e.adm.budget,
		MemReserved:           adm.reserved,
		MemPeakReserved:       adm.peakReserved,
		MemOverBudget:         e.counters.memShed.Load(),
		BudgetTotal:           e.budget.Total(),
		BudgetInUse:           e.budget.InUse(),
		PooledBytes:           e.pool.Held(),
		Appends:               e.counters.appends.Load(),
		AppendedRows:          e.counters.appendedRows.Load(),
		Deletes:               e.counters.deletes.Load(),
		DeletedRows:           e.counters.deletedRows.Load(),
		Remorphs:              e.counters.remorphs.Load(),
		RemorphFailures:       e.counters.remorphFailed.Load(),
		RemorphRows:           e.counters.remorphRows.Load(),
		DeltaTables:           dTables,
		DeltaRows:             dRows,
		DeltaDeleted:          dDel,
		DeltaBytes:            dBytes,
	}
}

// execObs is the per-execution admission observability state: the query id
// reserved before admission, and the wait/memory figures stamped into the
// QueryStats tree at finish. Its event emitters trace the admission
// pseudo-span (Node == -1) when a tracer is attached.
type execObs struct {
	query         uint64
	admissionWait time.Duration
	memEstimate   int64
	memPeak       int64
}

// span is the query-level admission pseudo-span of this execution.
func (ob *execObs) span() metrics.Span {
	return metrics.Span{Query: ob.query, Node: -1, Op: "admission"}
}

// shed traces an admission rejection (queue overflow, wait expiry, or closed
// engine) after a total wait of wait.
func (ob *execObs) shed(opt *options, wait time.Duration) {
	if opt.tracer != nil {
		opt.tracer.Event(ob.span(), time.Now(),
			metrics.Event{Kind: metrics.EvAdmissionShed, Value: wait.Nanoseconds()})
	}
}

// admitted traces a completed admission: the wait (when any) and the byte
// reservation (when the engine has a memory budget).
func (ob *execObs) admitted(opt *options, budgeted bool) {
	if opt.tracer == nil {
		return
	}
	if ob.admissionWait > 0 {
		opt.tracer.Event(ob.span(), time.Now(),
			metrics.Event{Kind: metrics.EvAdmissionWait, Value: ob.admissionWait.Nanoseconds()})
	}
	if budgeted {
		opt.tracer.Event(ob.span(), time.Now(),
			metrics.Event{Kind: metrics.EvMemReserve, Value: ob.memEstimate})
	}
}

// newCollector builds the execution's collector when stats or tracing were
// requested, pre-defining every plan node so even a failed execution's tree
// is fully labelled. Detached executions (the common case) return nil. The
// query id was reserved before admission (execObs) so admission events and
// operator spans share one number.
func (pr *Prepared) newCollector(opt *options, query uint64) *metrics.Collector {
	if opt.stats == nil && opt.tracer == nil {
		return nil
	}
	coll := metrics.NewCollectorFor(query, len(pr.p.nodes), opt.tracer)
	for _, n := range pr.p.nodes {
		var inputs []int
		seen := make(map[int]bool, len(n.inputs))
		for _, ref := range n.inputs {
			if id := ref.node.id; !seen[id] {
				seen[id] = true
				inputs = append(inputs, id)
			}
		}
		coll.Define(n.id, n.outNames[0], n.op.String(), inputs)
	}
	return coll
}

// finishCollector assembles the execution's stats tree, stamps the
// admission/memory figures, copies it into the WithExecStats destination,
// and attaches it to a *QueryError failure.
func finishCollector(coll *metrics.Collector, opt *options, err error, ob *execObs) {
	if coll == nil {
		return
	}
	qs := coll.Finish(err)
	qs.AdmissionWait = ob.admissionWait
	qs.MemEstimate = ob.memEstimate
	qs.MemPeak = ob.memPeak
	if opt.stats != nil {
		*opt.stats = *qs
	}
	var qe *qerr.QueryError
	if errors.As(err, &qe) {
		qe.Stats = qs
	}
}

// inputValues sums the element counts of the columns an operator reads; each
// consumed column reference counts (a project's data and positions inputs
// both do, and so do a fused conjunction's two scanned columns).
func inputValues(es *execState, inputs []ColRef) int64 {
	var total int64
	for _, ref := range inputs {
		total += int64(es.in(ref).N())
	}
	return total
}

// outputValues sums the element counts of a node's produced columns.
func outputValues(produced []*columns.Column) int64 {
	var total int64
	for _, col := range produced {
		total += int64(col.N())
	}
	return total
}

// outputFormats names the format kind each produced column materialized in.
func outputFormats(produced []*columns.Column) []string {
	if len(produced) == 0 {
		return nil
	}
	fs := make([]string, len(produced))
	for i, col := range produced {
		fs[i] = col.Desc().Kind.String()
	}
	return fs
}
