package core

import "context"

// This file hands the external tests of the package (package core_test,
// which may import internal/ssb) the few internals they check.

// PoolLimit returns the retention cap of the engine's buffer pool.
func PoolLimit(e *Engine) int64 { return e.pool.Limit() }

// PoolLeases returns the leases open on the engine's buffer pool: one per
// execution or one-off operator call in flight.
func PoolLeases(e *Engine) int { return e.pool.Leases() }

// AdmitQuery reserves a query slot and bytes at the engine's admission gate,
// as an execution admitted with that estimate holds them while it runs, and
// returns their release.
func AdmitQuery(ctx context.Context, e *Engine, bytes int64) (release func(), err error) {
	if _, err := e.adm.admit(ctx, bytes, true); err != nil {
		return nil, err
	}
	return func() { e.adm.release(bytes, true) }, nil
}

// ShareRecord gives pr the observation record of from, a preparation of the
// same plan over the same data on another engine, as if pr had run.
func ShareRecord(pr, from *Prepared) { pr.obs.Store(from.obs.Load()) }
