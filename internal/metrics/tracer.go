package metrics

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Event kinds emitted through Tracer.Event.
const (
	// EvSeqFallback marks a fallback to sequential execution; Value is 1.
	EvSeqFallback = "seq_fallback"
	// EvAdmissionWait reports a query that parked at the engine's admission
	// gate (for a slot, its reserved bytes, or both) and was eventually
	// admitted; Value is the wait in nanoseconds. Emitted on the query-level
	// span (Node == -1, Op == "admission").
	EvAdmissionWait = "admission_wait"
	// EvAdmissionShed reports a query rejected by the admission gate
	// (queue overflow, wait expiry, or closed engine) before it started;
	// Value is the wait in nanoseconds (0 for immediate sheds). Emitted on
	// the query-level span.
	EvAdmissionShed = "admission_shed"
	// EvMemReserve reports the bytes a query reserved at the engine's
	// admission gate under a memory budget; Value is the reservation size.
	// Emitted on the query-level span.
	EvMemReserve = "mem_reserve"
	// EvRemorphSwap reports a completed background remorph: a writable
	// table's delta was folded into a freshly compressed main and atomically
	// swapped in; Value is the folded row count (tail rows + deletions).
	// Emitted on a table-level pseudo-span (Node == -1, Op == "remorph",
	// Name == the table).
	EvRemorphSwap = "remorph_swap"
)

// Span identifies one operator of one execution in a trace stream. The
// engine's admission layer emits query-level events under a pseudo-span with
// Node == -1 and Op == "admission" — those events precede every operator
// span of the same Query.
type Span struct {
	// Query is the execution sequence number (QueryStats.Query).
	Query uint64 `json:"query"`
	// Node is the plan node id.
	Node int `json:"node"`
	// Name is the node's first output column name.
	Name string `json:"name"`
	// Op is the operator kind.
	Op string `json:"op"`
}

// Event is a point-in-time occurrence within a span (see the Ev* kinds).
type Event struct {
	// Kind names the event (EvSeqFallback, EvAdmissionWait,
	// EvAdmissionShed, EvMemReserve, EvRemorphSwap).
	Kind string `json:"kind"`
	// Value is the event's payload (e.g. the admission wait in nanoseconds).
	Value int64 `json:"value"`
}

// Tracer receives live span and event callbacks during execution.
// Implementations must be safe for concurrent use: operators of one query
// run in parallel, and one tracer may serve many queries at once. Callbacks
// sit on the per-operator (not per-morsel) path, but a slow tracer still
// slows queries down, and tracers must never call back into the engine.
type Tracer interface {
	// Begin opens a span: the operator started at time at.
	Begin(s Span, at time.Time)
	// End closes a span with the operator's final stats snapshot.
	End(s Span, at time.Time, ns NodeStats)
	// Event reports a point event within an open span.
	Event(s Span, at time.Time, ev Event)
}

// JSONLTracer is a Tracer that appends one JSON object per callback to a
// writer — the format docs/OBSERVABILITY.md documents and examples/observe
// prints. Lines carry a monotonic at_ns offset from tracer creation, so
// spans from concurrent queries in one file order and diff cleanly. A mutex
// serializes writes; it is safe for concurrent use.
type JSONLTracer struct {
	mu    sync.Mutex
	enc   *json.Encoder
	epoch time.Time
	err   error
}

// traceLine is the JSONL wire format: a record type tag, the monotonic
// offset, the span, and — depending on the type — the event or the final
// node stats.
type traceLine struct {
	T    string `json:"t"` // "begin" | "end" | "event"
	AtNS int64  `json:"at_ns"`
	Span
	Event *Event     `json:"event,omitempty"`
	Stats *NodeStats `json:"stats,omitempty"`
}

// NewJSONLTracer returns a JSONL tracer writing to w. The caller owns w and
// closes it after the last traced execution finished; Err reports the first
// write failure.
func NewJSONLTracer(w io.Writer) *JSONLTracer {
	return &JSONLTracer{enc: json.NewEncoder(w), epoch: time.Now()}
}

// Begin writes a span-begin line.
func (t *JSONLTracer) Begin(s Span, at time.Time) {
	t.write(traceLine{T: "begin", AtNS: int64(at.Sub(t.epoch)), Span: s})
}

// End writes a span-end line carrying the operator's final stats.
func (t *JSONLTracer) End(s Span, at time.Time, ns NodeStats) {
	t.write(traceLine{T: "end", AtNS: int64(at.Sub(t.epoch)), Span: s, Stats: &ns})
}

// Event writes a point-event line.
func (t *JSONLTracer) Event(s Span, at time.Time, ev Event) {
	t.write(traceLine{T: "event", AtNS: int64(at.Sub(t.epoch)), Span: s, Event: &ev})
}

// Err returns the first write error, or nil.
func (t *JSONLTracer) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// write encodes one line under the tracer mutex, retaining the first error.
func (t *JSONLTracer) write(l traceLine) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.enc.Encode(l); err != nil && t.err == nil {
		t.err = err
	}
}
