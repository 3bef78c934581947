// Package qerr defines the engine's typed error taxonomy and the conversion
// of recovered panics into errors.
//
// Every failure mode of a query execution maps onto exactly one sentinel of
// this package, so callers can dispatch with errors.Is regardless of which
// layer produced the failure:
//
//   - ErrCorruptData: structurally invalid compressed data (the codec layer
//     wraps formats.ErrCorrupt around this sentinel, so every corruption
//     error anywhere in the engine matches it through the wrap chain),
//   - ErrInvalidSchema: malformed base data handed to the engine — ragged
//     column lengths, a duplicate table registration, or an append whose
//     rows do not match the table's column set,
//   - ErrQueryCanceled / ErrQueryTimeout: the execution context was
//     cancelled or hit its deadline,
//   - ErrMemoryLimit: the memory estimate exceeded the whole engine
//     budget,
//   - ErrAdmissionRejected: the query never started — shed by the bounded
//     admission queue or a wait for a slot or its bytes that expired,
//   - ErrEngineClosed: the engine was shut down with Engine.Close,
//   - ErrTransient: a failure expected to clear on retry (see IsRetryable),
//   - *QueryError: a panic in an operator kernel or worker goroutine,
//     recovered and isolated to the failing query.
//
// The package sits below internal/formats, internal/ops, and internal/core
// and imports none of them (only the leaf internal/metrics, for the stats
// tree a failed execution carries), so every layer can tag errors without
// cycles. The root morphstore package re-exports the sentinels and the
// QueryError type as its public error API.
package qerr

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"

	"morphstore/internal/metrics"
)

// The sentinel errors of the taxonomy. They are compared with errors.Is;
// concrete failures wrap them with contextual detail.
var (
	// ErrCorruptData reports structurally invalid compressed data: an
	// out-of-range bit width, a truncated block, an overflowing run length.
	ErrCorruptData = errors.New("corrupt compressed data")
	// ErrInvalidSchema reports malformed base data handed to the engine:
	// ragged column lengths, a duplicate table registration, or an append
	// whose rows do not match the table's column set. The call changed
	// nothing; fix the data and retry.
	ErrInvalidSchema = errors.New("invalid table schema")
	// ErrQueryCanceled reports an execution stopped by context cancellation.
	ErrQueryCanceled = errors.New("query canceled")
	// ErrQueryTimeout reports an execution stopped by a context deadline.
	ErrQueryTimeout = errors.New("query timeout")
	// ErrMemoryLimit reports a request whose memory estimate exceeds the
	// engine's whole WithMemoryBudget, so the admission gate can never grant
	// it.
	ErrMemoryLimit = errors.New("memory estimate over limit")
	// ErrAdmissionRejected reports a request that never started: it was shed
	// at the engine's admission gate — the bounded queue overflowed, or its
	// wait for a slot or its reserved bytes exceeded the queue's deadline or
	// the caller's context. Shed requests did no work and are retryable.
	ErrAdmissionRejected = errors.New("query rejected at admission gate")
	// ErrEngineClosed reports a call against an engine that has been shut
	// down with Engine.Close: later Execute and one-off operator calls fail
	// fast with it, queued waiters are shed with it, and in-flight queries
	// cancelled by the close deadline carry it alongside ErrQueryCanceled.
	ErrEngineClosed = errors.New("engine closed")
	// ErrTransient tags failures whose cause is expected to clear on its own
	// (an injected transient fault, a momentary resource blip): retrying the
	// same query against the same engine may succeed. It is the extension
	// point IsRetryable honours beyond the admission sheds.
	ErrTransient = errors.New("transient failure")
)

// IsRetryable reports whether retrying the failed call against the same
// engine can plausibly succeed. Admission sheds (queue overflow, queue-wait
// expiry) and transient-tagged failures are retryable: the query never ran,
// or failed for a reason expected to clear.
// A closed engine, corrupt data, a caller-cancelled context, and recovered
// panics are not — retrying replays the same outcome or overrides the
// caller's intent.
func IsRetryable(err error) bool {
	switch {
	case err == nil:
		return false
	case errors.Is(err, ErrEngineClosed):
		return false
	case errors.Is(err, ErrCorruptData):
		return false
	case errors.Is(err, ErrAdmissionRejected):
		return true
	case errors.Is(err, ErrTransient):
		return true
	}
	return false
}

// QueryError is a panic recovered inside a query execution, converted into
// an error so one failing operator cannot take down the process or its
// sibling queries. It records where the panic happened: the operator (filled
// in by the execution layer when known), the morsel or task index inside the
// operator (-1 when the panic was not morsel-scoped), the original panic
// value, and the goroutine stack at recovery time.
type QueryError struct {
	// Op names the operator that panicked ("" until the executor tags it).
	Op string
	// Morsel is the morsel/task index the panicking worker was processing,
	// or -1 when the panic happened outside the morsel loop.
	Morsel int
	// Panic is the original value passed to panic.
	Panic any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
	// Stats is the failed execution's partial stats tree, attached by the
	// execution layer when a collector was attached (nil otherwise). Nodes
	// that never ran have Started == false; the panicking node carries Err.
	Stats *metrics.QueryStats
}

// Error formats the failure with its operator and morsel context.
func (e *QueryError) Error() string {
	where := "query"
	if e.Op != "" {
		where = "operator " + e.Op
	}
	if e.Morsel >= 0 {
		return fmt.Sprintf("morphstore: panic in %s (morsel %d): %v", where, e.Morsel, e.Panic)
	}
	return fmt.Sprintf("morphstore: panic in %s: %v", where, e.Panic)
}

// Unwrap exposes an error panic value to errors.Is/As, so a kernel that
// panics with (or wrapping) a taxonomy sentinel still matches it.
func (e *QueryError) Unwrap() error {
	if err, ok := e.Panic.(error); ok {
		return err
	}
	return nil
}

// Recovered converts a recover() value into a *QueryError carrying the
// current stack. morsel is the morsel/task index being processed, or -1.
func Recovered(v any, morsel int) *QueryError {
	return &QueryError{Morsel: morsel, Panic: v, Stack: debug.Stack()}
}

// tagged pairs a concrete error with a taxonomy sentinel: errors.Is matches
// both chains, errors.As and the message follow the concrete error.
type tagged struct {
	err error
	tag error
}

func (t *tagged) Error() string { return t.err.Error() }

// Unwrap exposes both the concrete error and the sentinel.
func (t *tagged) Unwrap() []error { return []error{t.err, t.tag} }

// Tag attaches a taxonomy sentinel to err without changing its message:
// the result matches both err's chain and tag under errors.Is. A nil err
// returns nil; an err already matching tag is returned unchanged.
func Tag(err, tag error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, tag) {
		return err
	}
	return &tagged{err: err, tag: tag}
}

// Classify maps an execution error onto the taxonomy: context.Canceled is
// tagged ErrQueryCanceled and context.DeadlineExceeded ErrQueryTimeout.
// Corruption needs no mapping here — formats.ErrCorrupt wraps
// ErrCorruptData, so those errors already match. Other errors pass through
// unchanged; nil stays nil.
func Classify(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, context.DeadlineExceeded):
		return Tag(err, ErrQueryTimeout)
	case errors.Is(err, context.Canceled):
		return Tag(err, ErrQueryCanceled)
	}
	return err
}
