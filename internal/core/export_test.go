package core

import (
	"context"

	"morphstore/internal/metrics"
	"morphstore/internal/stats"
)

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

// CheckSchedules checks the schedules pr derived at Prepare against its plan
// and qs, the stats tree of one of its executions (schedule_test.go).
func CheckSchedules(pr *Prepared, qs *metrics.QueryStats) error { return checkSchedules(pr, qs) }

// ProfiledColumns returns the profiles CostBasedAssignment picks from: those
// of the plan's profiling run, by column name.
func ProfiledColumns(p *Plan, db *DB) (map[string]*stats.Profile, error) {
	return profiledColumns(p, db)
}
