// Observability API: per-query stats trees, live tracing, and engine-wide
// counters.
//
// Attach a collector to one execution with WithExecStats and read the
// returned QueryStats tree — one NodeStats per plan operator, carrying
// morsel counts, worker counts, kernel timings, cardinalities, and output
// formats:
//
//	var qs morphstore.QueryStats
//	res, err := q.Execute(ctx, morphstore.WithExecStats(&qs))
//	for _, n := range qs.Nodes {
//		fmt.Println(n.Op, n.Name, n.Morsels, n.Kernel)
//	}
//
// Attach a Tracer (WithTracer, at NewEngine, Prepare, or Execute) to stream
// span begin/end, sequential-fallback and admission events live; NewJSONLTracer writes
// them as JSON lines (examples/observe prints one such trace). Engine.Stats
// returns the engine-wide counters: queries by outcome class and budget
// utilization. See docs/OBSERVABILITY.md for the full model.
package morphstore

import (
	"io"

	"morphstore/internal/core"
	"morphstore/internal/metrics"
)

// QueryStats is the observed behavior of one Execute call: a tree of
// per-operator NodeStats mirroring the plan DAG, plus wall time and outcome.
// A failed execution yields a coherent partial tree (also attached to the
// *QueryError when the failure was a recovered panic).
type QueryStats = metrics.QueryStats

// NodeStats is the observed behavior of one plan operator within one
// execution: morsel and worker counts, kernel and wall timings,
// input/output cardinalities, output formats, and sequential-fallback flag.
type NodeStats = metrics.NodeStats

// EngineStats is a snapshot of an engine's lifetime query counters (by
// outcome class) and current budget utilization, returned by Engine.Stats.
type EngineStats = core.EngineStats

// Tracer receives live span and event callbacks during execution; see
// metrics.Tracer for the implementation contract (must be safe for
// concurrent use, must not call back into the engine).
type Tracer = metrics.Tracer

// Span identifies one operator of one execution in a trace stream.
type Span = metrics.Span

// TraceEvent is a point-in-time occurrence within a span: a sequential
// fallback ("seq_fallback") on an operator span, or an admission wait, shed
// or memory reservation on the query's admission span.
type TraceEvent = metrics.Event

// JSONLTracer is a Tracer writing one JSON object per span/event callback —
// the format docs/OBSERVABILITY.md documents and examples/observe prints.
type JSONLTracer = metrics.JSONLTracer

// NewJSONLTracer returns a JSONL tracer writing to w. The caller owns w and
// closes it after the last traced execution finished.
func NewJSONLTracer(w io.Writer) *JSONLTracer { return metrics.NewJSONLTracer(w) }

// WithExecStats attaches a stats collector to one execution: when Execute
// returns, *dst holds the execution's QueryStats tree, on success and
// failure alike. Collection does not change the produced columns — results
// are byte-identical to an uncollected run. Applies to Execute.
func WithExecStats(dst *QueryStats) Option { return core.WithExecStats(dst) }

// WithTracer streams live span begin/end and point events into t: at
// NewEngine or Prepare for every execution of the engine or plan, at Execute
// for that one call. Applies to NewEngine, Prepare, and Execute.
func WithTracer(t Tracer) Option { return core.WithTracer(t) }
