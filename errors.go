// Typed error taxonomy: every failure mode of a query execution maps onto
// exactly one sentinel of this file, so callers can dispatch with errors.Is
// regardless of which layer of the engine produced the failure:
//
//	res, err := q.Execute(ctx)
//	switch {
//	case errors.Is(err, morphstore.ErrCorruptData):
//		// structurally invalid compressed data — quarantine the column
//	case errors.Is(err, morphstore.ErrQueryTimeout):
//		// the context's deadline fired — maybe retry smaller
//	case errors.Is(err, morphstore.ErrQueryCanceled):
//		// the caller's context was cancelled
//	case errors.Is(err, morphstore.ErrAdmissionRejected):
//		// shed under overload before it started — safe to retry
//	case errors.Is(err, morphstore.ErrEngineClosed):
//		// the engine was shut down — do not retry here
//	}
//
// A panic inside an operator kernel or worker goroutine is recovered and
// isolated to the failing query — the engine, its prepared plans, and
// concurrent queries stay fully usable — and surfaces as a *QueryError
// recording the operator, the morsel index, the panic value, and the stack.
package morphstore

import "morphstore/internal/qerr"

// The sentinel errors of the taxonomy. Concrete failures wrap them with
// contextual detail (column sizes, block offsets, limits); compare with
// errors.Is.
var (
	// ErrCorruptData reports structurally invalid compressed data: an
	// out-of-range bit width, a truncated block, an overflowing run length.
	// Every corruption detected anywhere in the engine — decompression,
	// sequential readers, random access, compressed concatenation — matches
	// this sentinel.
	ErrCorruptData = qerr.ErrCorruptData
	// ErrInvalidSchema reports malformed base data handed to the engine:
	// ragged column lengths at DB.AddTable, a duplicate table registration,
	// or an Engine.Append whose rows do not match the table's column set or
	// give uint64 values for a string column. The failed call changed
	// nothing; fix the data and retry.
	ErrInvalidSchema = qerr.ErrInvalidSchema
	// ErrQueryCanceled reports an execution stopped by context cancellation.
	ErrQueryCanceled = qerr.ErrQueryCanceled
	// ErrQueryTimeout reports an execution stopped mid-flight by its
	// context's deadline (context.WithTimeout).
	ErrQueryTimeout = qerr.ErrQueryTimeout
	// ErrMemoryLimit reports an execution whose memory estimate exceeds the
	// whole WithMemoryBudget, or an append batch larger than the budget.
	// Never retryable: the request can never be granted.
	ErrMemoryLimit = qerr.ErrMemoryLimit
	// ErrAdmissionRejected reports a request the engine shed before it
	// started: the admission queue overflowed its WithAdmissionQueue depth,
	// or the caller's context or the queue's maxWait fired while it waited
	// for a slot or its WithMemoryBudget bytes. The request did no work, so
	// the rejection is retryable (IsRetryable reports true) and is never
	// classified as ErrQueryCanceled or ErrQueryTimeout — those are reserved
	// for mid-flight stops.
	ErrAdmissionRejected = qerr.ErrAdmissionRejected
	// ErrEngineClosed reports a call against an engine shut down with
	// Engine.Close: an Execute or operator call after Close, a query shed
	// from the admission queue by Close, or an in-flight execution cancelled
	// when Close abandoned its graceful drain. Never retryable.
	ErrEngineClosed = qerr.ErrEngineClosed
	// ErrTransient marks a failure as transient (safe to retry); the fault
	// injection used by the robustness tests tags injected failures with it.
	ErrTransient = qerr.ErrTransient
)

// IsRetryable reports whether err is safe to retry from scratch: the engine
// guarantees the failed call did no observable work. Admission sheds
// (ErrAdmissionRejected) and transient failures (ErrTransient) are
// retryable; corrupt data, a closed engine, and mid-flight cancellations or
// timeouts are not. A caller that wants retries loops on it (see the
// "Retry" section of docs/ARCHITECTURE.md).
func IsRetryable(err error) bool { return qerr.IsRetryable(err) }

// QueryError is a panic recovered inside a query execution, converted into
// an error so one failing operator cannot take down the process or its
// sibling queries. It records the operator, the morsel or task index inside
// the operator (-1 when the panic was not morsel-scoped), the original panic
// value, and the goroutine stack at recovery time. Retrieve it with
// errors.As; when the panic value is itself an error, errors.Is sees through
// to it.
type QueryError = qerr.QueryError
