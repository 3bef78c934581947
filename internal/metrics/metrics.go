// Package metrics implements the query observability layer: a low-overhead
// per-execution stats collector (per-operator morsel timings, cardinalities,
// formats, assembled into a QueryStats tree mirroring the plan DAG) and the
// pluggable Tracer interface with a ready-made JSON-lines implementation.
//
// The design splits responsibilities by write frequency so the morsel hot
// path stays allocation- and lock-free:
//
//   - per morsel (hottest): a worker records one timing into its own Shard
//     of the operator's NodeCollector — plain stores into a cache-line
//     padded slot indexed by worker id, no locks or atomics;
//   - per operator: the execution layer Begins/Finishes one NodeCollector
//     per plan node on the node's own goroutine, merging the shards exactly
//     once at finish.
//
// Every NodeCollector method is safe on a nil receiver and returns
// immediately, so the execution layers call them unconditionally: a
// collector-detached execution pays only nil checks (the overhead budget is
// the same as a disarmed internal/faultpoint site, low single-digit
// nanoseconds; cmd/msbench holds the detached cost of a whole query, its
// metrics_overhead, under a 2% ceiling).
//
// The package sits below internal/ops and internal/core, imports only the
// standard library, and is also imported by internal/qerr so a failed
// execution can attach its partial stats tree to the *qerr.QueryError.
package metrics

import (
	"sync/atomic"
	"time"
)

// QueryStats is the observed behavior of one Prepared.Execute call: a tree
// of per-operator NodeStats mirroring the plan DAG (indexed by plan node id,
// linked by NodeStats.Inputs), plus the execution's wall time and outcome.
// A failed or cancelled execution yields a coherent partial tree: every node
// is present, nodes that never ran have Started == false, the failing node
// carries Err.
type QueryStats struct {
	// Query is the engine-process-wide execution sequence number, shared
	// with every Span the same execution sent to its Tracer.
	Query uint64
	// Wall is the end-to-end execution time (admission wait excluded).
	Wall time.Duration
	// Failed reports whether the execution returned an error.
	Failed bool
	// Err is the execution's error text ("" on success).
	Err string
	// AdmissionWait is the time the execution spent parked in the engine's
	// admission queue, for a slot and its reserved bytes, before it started
	// (0 on the uncontended fast path).
	AdmissionWait time.Duration
	// MemEstimate is the intermediate-memory byte estimate the execution
	// reserved at the engine's admission gate (the plan's estimate for the
	// tables' rows at admission — an upper bound before the plan's first
	// successful run, the last successful run's charge scaled by the tables'
	// growth after it; 0 without a memory budget).
	MemEstimate int64
	// MemPeak is the peak intermediate bytes the execution actually
	// materialized, summed from the runtime charges of the operator outputs,
	// the parallel drivers' staging buffers and the stitch buffers.
	MemPeak int64
	// Nodes holds one entry per plan node, indexed by plan node id (the
	// plan's topological order).
	Nodes []NodeStats
}

// NodeStats is the observed behavior of one plan operator within one
// execution.
type NodeStats struct {
	// Node is the plan node id (the index of this entry in QueryStats.Nodes).
	Node int `json:"node"`
	// Name is the node's first output column name.
	Name string `json:"name"`
	// Op is the operator kind ("select", "join", "sum", ...).
	Op string `json:"op"`
	// Inputs lists the plan node ids this node consumed (its parents in the
	// stats tree); deduplicated, in input order.
	Inputs []int `json:"inputs,omitempty"`
	// Started reports whether the operator began running; a node of a failed
	// execution that was never dispatched has Started == false.
	Started bool `json:"started"`
	// Done reports whether the operator finished without error.
	Done bool `json:"done"`
	// Err is the operator's error text ("" unless this node failed).
	Err string `json:"err,omitempty"`
	// Wall is the operator's start-to-finish time on its own goroutine.
	Wall time.Duration `json:"wall_ns"`
	// Kernel is the time spent inside claimed morsels/tasks, summed over all
	// workers; under parallelism it exceeds the share of Wall spent in the
	// morsel loops.
	Kernel time.Duration `json:"kernel_ns"`
	// Morsels counts the morsels claimed from the operator's work queues.
	Morsels int64 `json:"morsels"`
	// Workers is the widest worker-goroutine count the operator ran with.
	Workers int `json:"workers"`
	// InValues is the total element count of the operator's inputs.
	InValues int64 `json:"in_values"`
	// OutValues is the total element count of the operator's outputs.
	OutValues int64 `json:"out_values"`
	// Formats names the format each output column materialized in.
	Formats []string `json:"formats,omitempty"`
	// SeqFallback reports that the operator fell back to sequential
	// execution (unsplittable input) on its own goroutine.
	SeqFallback bool `json:"seq_fallback,omitempty"`
}

// Shard is one worker's private morsel accounting slot. Shards are handed
// out by NodeCollector.Shards indexed by worker id, so recording needs no
// synchronization; the padding keeps two workers' slots off one cache line.
type Shard struct {
	// Morsels counts the morsels this worker completed.
	Morsels int64
	// KernelNS is the summed in-morsel time in nanoseconds.
	KernelNS int64
	_        [6]int64 // pad to 64 bytes against false sharing
}

// Record books one completed morsel/task of duration d.
func (s *Shard) Record(d time.Duration) {
	s.Morsels++
	s.KernelNS += int64(d)
}

// queryID numbers executions process-wide so trace spans of concurrent
// queries interleaved in one sink stay attributable.
var queryID atomic.Uint64

// ReserveQueryID draws the next process-wide execution number without
// building a collector. The execution layer reserves the id before admission
// so admission-wait and shed events trace under the same query number the
// collector later uses.
func ReserveQueryID() uint64 { return queryID.Add(1) }

// Collector gathers one execution's QueryStats tree and forwards span
// events to the execution's Tracer. The zero collector count (a nil
// *Collector) is the detached mode: Node returns nil and every downstream
// call is a no-op.
type Collector struct {
	query  uint64
	tracer Tracer
	start  time.Time
	nodes  []NodeCollector
}

// NewCollectorFor returns a collector for an execution of a plan with the
// given node count under a query id the caller reserved with ReserveQueryID
// (so pre-admission trace events and the collected stats share one number);
// tracer may be nil (stats only).
func NewCollectorFor(query uint64, nodes int, tracer Tracer) *Collector {
	c := &Collector{query: query, tracer: tracer, start: time.Now(), nodes: make([]NodeCollector, nodes)}
	for i := range c.nodes {
		c.nodes[i].c = c
		c.nodes[i].ns.Node = i
	}
	return c
}

// Define records a node's static identity (name, operator kind, input node
// ids) so even never-started nodes appear fully labelled in the tree.
func (c *Collector) Define(id int, name, op string, inputs []int) {
	ns := &c.nodes[id].ns
	ns.Name, ns.Op, ns.Inputs = name, op, inputs
	c.nodes[id].span = Span{Query: c.query, Node: id, Name: name, Op: op}
}

// Node returns the collector of one plan node; a nil collector returns nil,
// which every NodeCollector method accepts.
func (c *Collector) Node(id int) *NodeCollector {
	if c == nil {
		return nil
	}
	return &c.nodes[id]
}

// Finish assembles the execution's QueryStats snapshot. err is the
// execution's outcome (nil on success). It must be called after every node
// goroutine has returned.
func (c *Collector) Finish(err error) *QueryStats {
	qs := &QueryStats{Query: c.query, Wall: time.Since(c.start), Nodes: make([]NodeStats, len(c.nodes))}
	if err != nil {
		qs.Failed = true
		qs.Err = err.Error()
	}
	for i := range c.nodes {
		qs.Nodes[i] = c.nodes[i].ns
	}
	return qs
}

// NodeCollector gathers one operator's NodeStats within one execution. The
// execution layer calls Begin/Finish on the node's goroutine; the morsel
// runtime records into per-worker Shards between them. All methods are
// nil-receiver-safe no-ops so detached execution needs no branches at the
// call sites beyond the receiver nil check they compile to.
type NodeCollector struct {
	c      *Collector
	span   Span
	start  time.Time
	shards []Shard
	ns     NodeStats
}

// Begin marks the operator started, records its input cardinality, and
// emits the tracer span begin.
func (nc *NodeCollector) Begin(inValues int64) {
	if nc == nil {
		return
	}
	nc.start = time.Now()
	nc.ns.Started = true
	nc.ns.InValues = inValues
	if t := nc.c.tracer; t != nil {
		t.Begin(nc.span, nc.start)
	}
}

// Shards returns at least n per-worker accounting slots for a morsel loop
// about to run with n workers. Successive loops of the same operator (a
// driver's kernel pass, then its stitch) reuse the same slots, so the
// node's counts accumulate. Must be called before the workers start (it may
// grow the slice); a nil receiver returns nil, the detached marker the
// runtime checks per morsel.
func (nc *NodeCollector) Shards(n int) []Shard {
	if nc == nil {
		return nil
	}
	for len(nc.shards) < n {
		nc.shards = append(nc.shards, Shard{})
	}
	if n > nc.ns.Workers {
		nc.ns.Workers = n
	}
	return nc.shards
}

// SeqFallback records that the operator fell back to sequential execution
// and emits a tracer event.
func (nc *NodeCollector) SeqFallback() {
	if nc == nil {
		return
	}
	nc.ns.SeqFallback = true
	nc.event(Event{Kind: EvSeqFallback, Value: 1})
}

// Finish merges the per-worker shards, stamps the outputs and outcome, and
// emits the tracer span end. It runs on the node's goroutine after the
// morsel loops returned, on success and failure alike — a panicking node
// still leaves a coherent partial entry.
func (nc *NodeCollector) Finish(outValues int64, formats []string, err error) {
	if nc == nil {
		return
	}
	nc.ns.Wall = time.Since(nc.start)
	nc.ns.Morsels, nc.ns.Kernel = 0, 0
	for i := range nc.shards {
		nc.ns.Morsels += nc.shards[i].Morsels
		nc.ns.Kernel += time.Duration(nc.shards[i].KernelNS)
	}
	if err != nil {
		nc.ns.Err = err.Error()
	} else {
		nc.ns.Done = true
		nc.ns.OutValues = outValues
		nc.ns.Formats = formats
	}
	if t := nc.c.tracer; t != nil {
		t.End(nc.span, time.Now(), nc.ns)
	}
}

// event forwards one node-scoped event to the tracer.
func (nc *NodeCollector) event(ev Event) {
	if t := nc.c.tracer; t != nil {
		t.Event(nc.span, time.Now(), ev)
	}
}
