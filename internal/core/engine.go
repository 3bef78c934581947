package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"morphstore/internal/bufpool"
	"morphstore/internal/columns"
	"morphstore/internal/faultpoint"
	"morphstore/internal/formats"
	"morphstore/internal/metrics"
	"morphstore/internal/ops"
	"morphstore/internal/qerr"
	"morphstore/internal/vector"
)

// This file implements the engine API around the holistic processing model:
// an Engine owns the base data, an engine-wide worker budget and an
// admission gate; Prepare compiles a plan once — per-column formats
// resolved explicitly, uniformly, or cost-based, morphs inserted (physop.go)
// — into a Prepared query; and Prepared.Execute runs it under a context,
// with cancellation threaded through the DAG scheduler and the morsel loops,
// and with the morsel workers of concurrent Execute calls drawing on one
// engine-wide token budget.

// scope classifies where a functional option applies.
type scope uint8

const (
	scopeEngine scope = 1 << iota
	scopePrepare
	scopeExec
	scopeOp
)

func (s scope) String() string {
	switch s {
	case scopeEngine:
		return "NewEngine"
	case scopePrepare:
		return "Prepare"
	case scopeExec:
		return "Execute"
	case scopeOp:
		return "operator calls"
	}
	return "option"
}

// options is the resolved option set of one engine, preparation, execution,
// or one-off operator call. Layers merge: engine defaults, then Prepare
// overrides, then Execute overrides.
type options struct {
	keep       bool
	par        int           // 0 = engine budget / GOMAXPROCS
	maxQueries int           // 0 = unlimited
	admitDepth int           // admission queue bound; 0 = unbounded
	admitWait  time.Duration // admission queue wait bound; 0 = none
	memBudget  int64         // engine-wide byte budget of the admission gate; 0 = none
	// Background remorph (WithRemorph): delta-to-main ratio that triggers a
	// rebuild (<= 0 = any non-empty delta) and the worker's sweep interval
	// (0 = no worker).
	remorphRatio float64
	remorphEvery time.Duration
	// Format resolution (Prepare): explicit per-column formats, a uniform
	// format for every intermediate, or cost-based selection. Explicit
	// entries take precedence over uniform/cost-based choices.
	inter     map[string]columns.FormatDesc
	explicit  map[string]columns.FormatDesc
	uniform   *columns.FormatDesc
	costBased bool
	// Output formats of one-off operator calls (one entry applies to every
	// output; two entries address dual-output operators positionally).
	output []columns.FormatDesc
	// Observability (observe.go): the WithExecStats destination of one
	// execution and the tracer receiving its span/event stream. Both nil on
	// the common detached path.
	stats  *metrics.QueryStats
	tracer metrics.Tracer
}

// Option is a functional option for NewEngine, Engine.Prepare,
// Prepared.Execute, and the engine's one-off operator methods. Each option
// documents where it applies; passing it elsewhere is reported as an error
// by the receiving call.
type Option struct {
	name  string
	scope scope
	apply func(*options)
}

// apply merges opts into base, rejecting options that do not apply at sc.
func (base options) merged(sc scope, opts []Option) (options, error) {
	o := base
	// The format maps are layered: overrides copy-on-write so a Prepared's
	// resolved options never alias the engine defaults.
	for _, op := range opts {
		if op.scope&sc == 0 {
			return o, fmt.Errorf("core: option %s does not apply to %s", op.name, sc)
		}
		op.apply(&o)
	}
	return o, nil
}

// WithStyle sets nothing: every kernel has one loop (see package vector).
// Applies to NewEngine, Prepare, and one-off operator calls.
func WithStyle(vector.Style) Option {
	return Option{name: "WithStyle", scope: scopeEngine | scopePrepare | scopeOp,
		apply: func(*options) {}}
}

// WithSpecialized sets nothing: the input column's format picks each
// operator's kernel (ops.Runtime.SelectAuto, SumAuto). Applies to NewEngine,
// Prepare, and one-off operator calls.
func WithSpecialized(bool) Option {
	return Option{name: "WithSpecialized", scope: scopeEngine | scopePrepare | scopeOp,
		apply: func(*options) {}}
}

// WithAutoMorph sets nothing: a random-access consumer of a column whose
// format lacks random access always gets an on-the-fly morph to static BP.
// Applies to NewEngine and Prepare.
func WithAutoMorph(bool) Option {
	return Option{name: "WithAutoMorph", scope: scopeEngine | scopePrepare,
		apply: func(*options) {}}
}

// WithKeep retains all intermediate columns in the result (used by the
// format-search and cost-model tooling, the footprint measurements and the
// paper reproductions), and so runs the plan as written: the rewrite pass's
// operators (rewrite.go) stand aside, every node materializes its outputs,
// and Meas counts them all. Applies to Prepare and Execute.
func WithKeep(on bool) Option {
	return Option{name: "WithKeep", scope: scopePrepare | scopeExec,
		apply: func(o *options) { o.keep = on }}
}

// WithParallelism sets the worker-goroutine budget: at NewEngine the
// engine-wide budget shared by all concurrent queries, at Prepare/Execute
// and one-off operator calls the cap of that one query or operator.
// 0 means the engine budget (GOMAXPROCS for a fresh engine); 1 reproduces
// the sequential operator-at-a-time execution exactly. Results are
// byte-identical at every level.
func WithParallelism(n int) Option {
	return Option{name: "WithParallelism", scope: scopeEngine | scopePrepare | scopeExec | scopeOp,
		apply: func(o *options) { o.par = n }}
}

// WithMaxConcurrentQueries bounds how many Execute calls run at once; the
// surplus parks in the engine's admission queue (honouring ctx and the
// WithAdmissionQueue bounds) and is admitted FIFO. 0 means unlimited.
// Applies to NewEngine.
func WithMaxConcurrentQueries(n int) Option {
	return Option{name: "WithMaxConcurrentQueries", scope: scopeEngine,
		apply: func(o *options) { o.maxQueries = n }}
}

// WithAdmissionQueue bounds the engine's admission queue — the one FIFO in
// which Execute calls wait for a WithMaxConcurrentQueries slot and their
// WithMemoryBudget bytes, and appends wait for their bytes: at most depth
// requests park at once, and none parks longer than maxWait in total. A
// request arriving at a full queue, or parked past maxWait or its own
// context's expiry, is shed with an error matching ErrAdmissionRejected — it
// never started, so the rejection is retryable (IsRetryable) and is never
// classified as ErrQueryCanceled or ErrQueryTimeout. depth 0 means an
// unbounded queue, maxWait 0 no wait bound; the option has no effect
// without a slot limit or a memory budget. Applies to NewEngine.
func WithAdmissionQueue(depth int, maxWait time.Duration) Option {
	return Option{name: "WithAdmissionQueue", scope: scopeEngine,
		apply: func(o *options) { o.admitDepth, o.admitWait = depth, maxWait }}
}

// WithMemoryBudget gives the engine's admission gate a byte budget for the
// intermediate columns of all concurrently executing queries and the delta
// tails of all appended batches. Each execution reserves its plan's
// estimate for the tables' current rows (Prepared.MemoryEstimate) at
// admission, together with its slot, and returns it when it finishes; each
// append reserves its batch until a remorph folds it into the main. A
// request that does not fit waits in the admission queue without holding a
// slot, and sheds with ErrAdmissionRejected under the WithAdmissionQueue
// bounds or its own ctx.
// A query whose estimate exceeds the whole budget fails with ErrMemoryLimit.
// The bytes actually materialized are charged at the allocation sites and
// reported as QueryStats.MemPeak. 0 means no budget. Applies to NewEngine.
func WithMemoryBudget(bytes int64) Option {
	return Option{name: "WithMemoryBudget", scope: scopeEngine,
		apply: func(o *options) { o.memBudget = bytes }}
}

// WithFormats assigns compression formats to the named plan columns
// (DP2: each intermediate chosen independently; missing entries stay
// uncompressed). Applies to Prepare.
func WithFormats(m map[string]columns.FormatDesc) Option {
	return Option{name: "WithFormats", scope: scopePrepare, apply: func(o *options) {
		merged := make(map[string]columns.FormatDesc, len(o.explicit)+len(m))
		for k, v := range o.explicit {
			merged[k] = v
		}
		for k, v := range m {
			merged[k] = v
		}
		o.explicit = merged
	}}
}

// WithUniformFormat assigns one format to every intermediate of the plan
// (randomly accessed columns fall back to static BP). Applies to Prepare.
func WithUniformFormat(d columns.FormatDesc) Option {
	return Option{name: "WithUniformFormat", scope: scopePrepare, apply: func(o *options) {
		d := d
		o.uniform = &d
		o.costBased = false
	}}
}

// WithCostBasedFormats selects every intermediate's format with the
// gray-box cost model (footprint objective, §5): the plan's data
// characteristics are profiled once at prepare time and each column's
// format chosen from its compact profile. The profiles are taken from the
// rows an execution admitted at that moment would read: a writable table's
// live main plus delta (a failing merge fails Prepare), every other table
// as registered. Applies to Prepare.
func WithCostBasedFormats() Option {
	return Option{name: "WithCostBasedFormats", scope: scopePrepare, apply: func(o *options) {
		o.costBased = true
		o.uniform = nil
	}}
}

// WithOutput sets the output format of a one-off operator call (every
// output of dual-output operators). Applies to operator calls.
func WithOutput(d columns.FormatDesc) Option {
	return Option{name: "WithOutput", scope: scopeOp,
		apply: func(o *options) { o.output = []columns.FormatDesc{d} }}
}

// WithOutputs sets the two output formats of a dual-output operator call
// (JoinN1: probe positions, build positions; GroupFirst/GroupNext: group
// ids, extents). Applies to operator calls.
func WithOutputs(first, second columns.FormatDesc) Option {
	return Option{name: "WithOutputs", scope: scopeOp,
		apply: func(o *options) { o.output = []columns.FormatDesc{first, second} }}
}

// outputDesc returns the bound output format of output i of a one-off
// operator call; outputs default to uncompressed.
func (o *options) outputDesc(i int) columns.FormatDesc {
	switch {
	case len(o.output) == 0:
		return columns.UncomprDesc
	case i < len(o.output):
		return o.output[i]
	default:
		return o.output[0]
	}
}

// Engine owns a database, an engine-wide worker budget whose tokens the
// morsel workers of every concurrently executing query and one-off operator
// call hold while they claim morsels, a buffer pool their intermediates'
// words are drawn from and returned to, and an admission gate that bounds
// concurrent queries and, optionally, the bytes they and the delta tails
// reserve. It is safe for concurrent use; all its state is fixed at
// construction except the observability counters behind Stats (atomic), the
// admission state and the buffer pool (internally locked).
type Engine struct {
	db       *DB
	budget   *ops.Budget
	pool     *bufpool.Pool
	adm      *admission
	killCtx  context.Context    // done when Close gave up on graceful drain
	kill     context.CancelFunc // fires killCtx, cancelling in-flight work
	defs     options
	err      error
	counters engineCounters

	// Writable-table state (writable.go): the per-table delta stores created
	// lazily by Append/Delete, and the background remorph worker's lifecycle.
	wmu          sync.Mutex
	wtabs        map[string]*writableTable
	remorphRatio float64
	remorphEvery time.Duration
	remorphStop  chan struct{} // closed by Close (once) to stop the worker
	remorphDone  chan struct{} // closed by the worker on exit (nil without one)
	stopRemorph  sync.Once
}

// NewEngine returns an engine over db. Options set the worker budget
// (WithParallelism: 0 = GOMAXPROCS), the admission gate
// (WithMaxConcurrentQueries, WithMemoryBudget, WithAdmissionQueue), the
// background remorph (WithRemorph), and the engine-wide default tracer
// (WithTracer). A misplaced option is reported by the first Prepare/operator
// call.
func NewEngine(db *DB, o ...Option) *Engine {
	if db == nil {
		db = NewDB()
	}
	defs, err := options{}.merged(scopeEngine, o)
	e := &Engine{db: db, budget: ops.NewBudget(defs.par), pool: bufpool.New(), defs: defs, err: err}
	e.adm = newAdmission(defs.maxQueries, defs.memBudget, defs.admitDepth, defs.admitWait)
	e.killCtx, e.kill = context.WithCancel(context.Background())
	e.wtabs = make(map[string]*writableTable)
	e.remorphRatio, e.remorphEvery = defs.remorphRatio, defs.remorphEvery
	e.remorphStop = make(chan struct{})
	if err == nil && e.remorphEvery > 0 {
		e.remorphDone = make(chan struct{})
		go e.remorphLoop()
	}
	// Query/operator layers interpret par as their own cap; the engine-level
	// value has been consumed by the budget.
	e.defs.par = 0
	return e
}

// Close shuts the engine down gracefully: admission stops first — queued
// queries are shed and later Execute and operator calls fail fast with an
// error matching ErrEngineClosed — then Close waits for every in-flight
// query and one-off operator call to drain. If ctx expires before the drain
// completes, the stragglers are cancelled (they stop within one morsel and
// return errors matching ErrEngineClosed), the drain finishes, and Close
// returns the context's error; a nil ctx or one without a deadline waits
// indefinitely for the graceful drain. Close is idempotent and safe to call
// concurrently with executions; after it returns, no worker token is held,
// the admission gate holds no reserved bytes and the buffer pool retains no
// buffer.
func (e *Engine) Close(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	e.adm.close()
	e.stopRemorph.Do(func() { close(e.remorphStop) })
	if err := hitGuarded(faultpoint.CloseDrain); err != nil {
		// An injected drain fault leaves the engine closed but possibly
		// undrained; Close remains callable to finish the drain.
		return qerr.Tag(err, qerr.ErrEngineClosed)
	}
	if e.adm.drain(ctx) {
		e.waitRemorphWorker()
		e.releaseDeltaReservations()
		e.pool.Drain()
		return nil
	}
	e.kill()
	e.adm.drain(context.Background())
	e.waitRemorphWorker()
	e.releaseDeltaReservations()
	e.pool.Drain()
	return ctx.Err()
}

// waitRemorphWorker blocks until the background remorph worker exited (a
// no-op without one). Admission is closed and drained by the time Close
// calls it, so the worker is either parked on its ticker — it sees the stop
// signal promptly — or already gone.
func (e *Engine) waitRemorphWorker() {
	if e.remorphDone != nil {
		<-e.remorphDone
	}
}

// DB returns the engine's database.
func (e *Engine) DB() *DB { return e.db }

// Budget returns the engine's total worker budget.
func (e *Engine) Budget() int { return e.budget.Total() }

// Prepared is a plan compiled against one engine: formats resolved, every
// node bound to a physical operator. It is safe for concurrent Execute calls
// from many goroutines: the compiled plan is immutable, and the one thing an
// execution changes, the observation record (observed.go), is swapped
// atomically.
type Prepared struct {
	e     *Engine
	p     *Plan
	opt   options
	bound []boundNode
	life  lifetimes // when each intermediate dies (sched.go)
	sinks map[string]bool
	obs   atomic.Pointer[observation] // nil until the first successful execution
}

// Prepare compiles the plan once against the engine's database: per-column
// formats are resolved (explicit WithFormats, WithUniformFormat,
// or WithCostBasedFormats; explicit entries win), morph insertions are
// fixed, and configuration errors surface here rather than mid-execution.
func (e *Engine) Prepare(p *Plan, o ...Option) (*Prepared, error) {
	if e.err != nil {
		return nil, e.err
	}
	if p == nil {
		return nil, fmt.Errorf("core: nil plan")
	}
	opt, err := e.defs.merged(scopePrepare, o)
	if err != nil {
		return nil, err
	}
	if opt.inter, err = e.resolveFormats(p, &opt); err != nil {
		return nil, err
	}
	sinks := p.sinkSet()
	for name := range sinks {
		if d, ok := opt.inter[name]; ok && d.Kind != columns.Uncompressed {
			return nil, fmt.Errorf("core: result column %q must stay uncompressed, configured %v", name, d)
		}
	}
	c := &compiler{db: e.db, opt: &opt, sinks: sinks}
	bound := make([]boundNode, len(p.nodes))
	for i, n := range p.nodes {
		if bound[i], err = c.compile(n); err != nil {
			return nil, err
		}
	}
	c.rewrite(p, bound)
	pr := &Prepared{e: e, p: p, opt: opt, bound: bound, life: newLifetimes(bound), sinks: sinks}
	if _, err := pr.memoryEstimate(nil); err != nil {
		return nil, err
	}
	return pr, nil
}

// MemoryEstimate returns the bytes one execution of the prepared plan
// reserves at admission under WithMemoryBudget, for the tables' current rows
// (main plus delta, minus pending deletions). Until the first successful
// execution it is a conservative upper bound on the intermediate columns,
// every element costed at an uncompressed 8-byte word; after it, the most
// bytes the last successful execution held at once, scaled by the largest
// growth of a scanned table since and by 1.25, capped by that bound. A plan
// prepared WithKeep(true) always reserves the bound. Base columns are
// excluded (scans hand out the stored columns).
func (pr *Prepared) MemoryEstimate() int {
	est, _ := pr.memoryEstimate(pr.record(pr.opt.keep))
	return int(est)
}

// record returns the observation record an execution reads, nil for one
// that keeps every column: it runs the plan as written, which materializes
// more than the rewritten plan the record describes, so it reserves and
// sizes from the upper bound and publishes no record of its own.
func (pr *Prepared) record(keep bool) *observation {
	if keep {
		return nil
	}
	return pr.obs.Load()
}

// resolveFormats materializes the per-column format map of one preparation.
func (e *Engine) resolveFormats(p *Plan, opt *options) (map[string]columns.FormatDesc, error) {
	inter := make(map[string]columns.FormatDesc)
	switch {
	case opt.costBased:
		db, err := e.pickDB()
		if err != nil {
			return nil, err
		}
		a, err := CostBasedAssignment(p, db)
		if err != nil {
			return nil, err
		}
		for k, v := range a.Inter {
			inter[k] = v
		}
	case opt.uniform != nil:
		for _, name := range p.IntermediateNames() {
			d := *opt.uniform
			if p.RandomAccessed(name) && !formats.HasRandomAccess(d.Kind) {
				d = columns.StaticBPDesc(0)
			}
			inter[name] = d
		}
	}
	for k, v := range opt.explicit {
		inter[k] = v
	}
	return inter, nil
}

// Plan returns the prepared plan.
func (pr *Prepared) Plan() *Plan { return pr.p }

// Formats returns the formats bound to the plan's intermediates (a copy).
func (pr *Prepared) Formats() map[string]columns.FormatDesc {
	m := make(map[string]columns.FormatDesc, len(pr.opt.inter))
	for k, v := range pr.opt.inter {
		m[k] = v
	}
	return m
}

// Execute runs the prepared plan. The context cancels the execution: the
// DAG scheduler stops dispatching operators and running morsel loops stop
// within one morsel, returning an error matching ErrQueryCanceled (or
// ErrQueryTimeout when a deadline fired; a deadline also bounds the
// admission wait).
// Before it starts, the execution passes the engine's admission gate once:
// it waits, in one queue, until both a slot (WithMaxConcurrentQueries) and
// its memory estimate (WithMemoryBudget) are free, for at most the
// WithAdmissionQueue maxWait in total. A query shed there — queue overflow
// or wait expiry — returns an error matching ErrAdmissionRejected and never
// one of the mid-flight context sentinels: it did no work and is safe to
// retry (see IsRetryable).
// After Engine.Close, Execute fails fast with ErrEngineClosed.
// Concurrent Execute calls from any number of goroutines share the engine's
// worker budget and produce columns byte-identical to a sequential run. A
// failing execution — cancelled, corrupt data, or a recovered operator
// panic — is isolated to this call: the engine, the prepared plan and
// concurrent queries stay fully usable, and re-executing the same Prepared
// afterwards yields the same columns a fresh execution would. Execute
// options: WithParallelism (this query's cap), WithKeep, WithExecStats,
// WithTracer.
func (pr *Prepared) Execute(ctx context.Context, o ...Option) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opt, err := pr.opt.merged(scopeExec, o)
	var res *Result
	if err == nil {
		res, err = pr.execute(ctx, &opt)
	}
	pr.e.counters.query(err)
	return res, err
}

// execute runs the admission and the execution of the prepared plan.
func (pr *Prepared) execute(ctx context.Context, opt *options) (*Result, error) {
	e := pr.e
	// An engine Close that gave up on graceful draining cancels the
	// execution through this derived context.
	ctx, cancelExec := context.WithCancel(ctx)
	defer cancelExec()
	stopKill := context.AfterFunc(e.killCtx, cancelExec)
	defer stopKill()

	// The query id is reserved before admission so shed/wait events trace
	// under the same number as the execution's spans.
	obs := execObs{}
	if opt.stats != nil || opt.tracer != nil {
		obs.query = metrics.ReserveQueryID()
	}

	// Under a byte budget the execution reserves its plan's estimate for the
	// tables' current rows; an estimate over the whole budget can never be
	// granted and fails with ErrMemoryLimit.
	prev := pr.record(opt.keep)
	var est int64
	if e.adm.budget > 0 {
		var err error
		if est, err = pr.memoryEstimate(prev); err != nil {
			return nil, err
		}
	}
	wait, err := e.adm.admit(ctx, est, true)
	if err != nil {
		if errors.Is(err, qerr.ErrMemoryLimit) {
			e.counters.memShed.Add(1)
		} else {
			obs.shed(opt, wait)
		}
		return nil, err
	}
	defer e.adm.release(est, true)
	obs.admissionWait = wait
	obs.memEstimate = est
	obs.admitted(opt, e.adm.budget > 0)

	par := opt.par
	if par <= 0 {
		par = e.budget.Total()
	}
	mres := &ops.MemReservation{}
	bufs := e.pool.Lease()
	defer bufs.Close()
	es := &execState{
		outs: make([][]*columns.Column, len(pr.p.nodes)),
		seen: make([]observed, len(pr.p.nodes)),
		coll: pr.newCollector(opt, obs.query),
		mres: mres,
		bufs: bufs,
		// The snapshot pins every writable table's delta state for the whole
		// execution: all operators read one consistent main+delta view, and a
		// remorph swap completing mid-flight stays invisible. Nil on the
		// read-only fast path.
		snap: e.snapshotOrNil(),
		prev: prev,
		keep: opt.keep,
	}
	res := &Result{
		Cols: make(map[string]*columns.Column, len(pr.p.sinks)),
		Meas: Measure{
			PerOp:    make(map[string]time.Duration),
			ColBytes: make(map[string]int),
		},
	}
	if opt.keep {
		res.Inter = make(map[string]*columns.Column)
	}
	// A context that expired during admission runs no node, but leaves through
	// the same tail as every other outcome so the (all-unstarted) stats tree is
	// still published.
	if err = ctx.Err(); err == nil {
		err = pr.runPlan(ctx, es, res, par)
	}
	if err != nil {
		pr.releaseAll(es)
	}
	err = qerr.Classify(err)
	if err != nil && e.killCtx.Err() != nil && errors.Is(err, qerr.ErrQueryCanceled) {
		// The cancellation came from Engine.Close giving up on the graceful
		// drain, not from the caller's context.
		err = qerr.Tag(err, qerr.ErrEngineClosed)
	}
	obs.memPeak = mres.Peak()
	finishCollector(es.coll, opt, err, &obs)
	if err != nil {
		return nil, err
	}
	if !opt.keep {
		pr.obs.Store(observe(es))
	}
	return res, nil
}

// runNode executes one bound operator — the rewrite pass's operator where it
// bound one, unless the execution keeps every column; its morsel workers
// draw tokens from the engine budget. Scans do no kernel work (they hand out
// the stored column), so they run at width 1 and charge nothing.
//
// The node runs under a recover guard: a panic on the operator's own
// goroutine — the morsel workers have their own guards — is converted into a
// *QueryError instead of crashing the process, and every QueryError
// surfacing here is tagged with the operator it escaped from.
func (pr *Prepared) runNode(ctx context.Context, es *execState, bn *boundNode, par int) (produced []*columns.Column, err error) {
	run, inputs := bn.run, bn.n.inputs
	if bn.alt != nil && !es.keep {
		run, inputs = bn.alt.run, bn.alt.inputs
	}
	// The collector's Finish defer is registered before the recover guard so
	// it runs after it and records the final, panic-converted outcome — a
	// panicking node still leaves a coherent partial stats entry.
	nc := es.coll.Node(bn.n.id)
	nc.Begin(inputValues(es, inputs))
	defer func() { nc.Finish(outputValues(produced), outputFormats(produced), err) }()
	defer func() {
		if v := recover(); v != nil {
			qe := qerr.Recovered(v, -1)
			qe.Op = bn.n.op.String()
			produced, err = nil, qe
			return
		}
		var qe *qerr.QueryError
		if errors.As(err, &qe) && qe.Op == "" {
			qe.Op = bn.n.op.String()
		}
	}()
	if bn.n.op == OpScan {
		// Scans hand out stored columns — no intermediate bytes to charge.
		return run(es, ops.RT(ctx, nil, nil, 1).WithCollector(nc))
	}
	rt := ops.RT(ctx, pr.e.budget, es.bufs, par).WithCollector(nc).WithMemReservation(es.mres).WithObserved(es.prev.rows(bn.n.id))
	produced, err = run(es, rt)
	if err != nil {
		return nil, fmt.Errorf("core: %v %q: %w", bn.n.op, bn.n.outNames[0], err)
	}
	// Charge the materialized intermediates to the query's counter; the
	// parallel drivers' staging buffers and the stitch's section buffers
	// charge themselves through the runtime.
	for _, col := range produced {
		es.mres.Charge(col.PhysicalBytes())
	}
	return produced, nil
}

// account books the footprint and runtime of one completed node into the
// result. The scheduler serializes calls.
func (pr *Prepared) account(res *Result, n *Node, produced []*columns.Column, elapsed time.Duration, keep bool) {
	if n.op != OpScan {
		res.Meas.Runtime += elapsed
		res.Meas.PerOp[n.op.String()] += elapsed
	}
	for i, col := range produced {
		name := n.outNames[i]
		res.Meas.ColBytes[name] = col.PhysicalBytes()
		if n.op == OpScan {
			res.Meas.BaseBytes += col.PhysicalBytes()
		} else {
			res.Meas.InterBytes += col.PhysicalBytes()
		}
		if keep {
			res.Inter[name] = col
		}
		if pr.sinks[name] {
			res.Cols[name] = col
		}
	}
}
