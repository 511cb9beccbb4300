package hbspk

import (
	"hbspk/internal/collective"
	"hbspk/internal/plan"
)

// Auto-tuned collectives over the public API (DESIGN.md §5.9): a
// Planner selects each collective family's cheapest variant per
// (machine fingerprint, payload-size bucket) from the closed-form cost
// table, once, and memoizes the pick. PlannedBcast is SPMD like every
// other collective — all processors call it with the same planner and
// the same total size n — and runs under Run or RunConcurrent like any
// other program.

// Planner is the auto-tuning variant selector and decision cache.
type Planner = plan.Planner

// PlannerStats is a snapshot of a Planner's counters.
type PlannerStats = plan.Stats

// PlannerDecision is one row of a Planner's decision-cache dump.
type PlannerDecision = plan.CachedDecision

// NewPlanner returns an empty Planner.
func NewPlanner() *Planner { return plan.New() }

// PlannedBcast broadcasts data from the machine's fastest leaf through
// the planner-selected variant; n is len(data), passed uniformly.
func PlannedBcast(c Ctx, p *Planner, n int, data []byte) ([]byte, error) {
	return collective.PlannedBcast(c, p, n, data)
}
