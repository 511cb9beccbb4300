package hbspk

import (
	"hbspk/internal/collective"
	"hbspk/internal/plan"
)

// Auto-tuned collectives over the public API (DESIGN.md §5.9): a
// Planner selects each collective family's cheapest variant per
// (machine fingerprint, payload-size bucket) from the closed-form cost
// table, once, and memoizes the pick. The Planned* entry points are SPMD
// like every other collective — all processors call them with the same
// planner and the same total size n — and run under Run or
// RunConcurrent like any other program.

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

// PlannedGather gathers every processor's bytes at the fastest leaf
// through the planner-selected variant; n is the machine-wide total.
func PlannedGather(c Ctx, p *Planner, n int, local []byte) (map[int][]byte, error) {
	return collective.PlannedGather(c, p, n, local)
}

// PlannedScatter distributes the fastest leaf's keyed pieces through
// the planner-selected variant; n is the machine-wide total.
func PlannedScatter(c Ctx, p *Planner, n int, pieces map[int][]byte) ([]byte, error) {
	return collective.PlannedScatter(c, p, n, pieces)
}

// PlannedAllGather gathers every processor's bytes to every processor
// through the planner-selected variant; n is the machine-wide total.
func PlannedAllGather(c Ctx, p *Planner, n int, local []byte) (map[int][]byte, error) {
	return collective.PlannedAllGather(c, p, n, local)
}

// PlannedReduce folds equal-width vectors to the fastest leaf through
// the planner-selected variant.
func PlannedReduce(c Ctx, p *Planner, local []int64, op Op) ([]int64, error) {
	return collective.PlannedReduce(c, p, local, op)
}

// PlannedAllReduce folds equal-width vectors to every processor through
// the planner-selected variant.
func PlannedAllReduce(c Ctx, p *Planner, local []int64, op Op) ([]int64, error) {
	return collective.PlannedAllReduce(c, p, local, op)
}

// PlannedScan computes the pid-order prefix fold through the
// planner-selected variant.
func PlannedScan(c Ctx, p *Planner, local []int64, op Op) ([]int64, error) {
	return collective.PlannedScan(c, p, local, op)
}

// PlannedTotalExchange routes keyed outgoing pieces through the
// planner-selected variant; n is the machine-wide total.
func PlannedTotalExchange(c Ctx, p *Planner, n int, outgoing map[int][]byte) (map[int][]byte, error) {
	return collective.PlannedTotalExchange(c, p, n, outgoing)
}
