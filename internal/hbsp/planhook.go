package hbsp

import "hbspk/internal/model"

// PlanHook is the engines' seam to the auto-tuned collective planner
// (internal/plan, DESIGN.md §5.9). Both engines invoke it only from
// SPMD-quiescent points — moments when every live processor is parked
// at a consistent cut and no collective can be mid-decision — so an
// implementation may republish selection state without desynchronizing
// the supersteps of an in-flight collective:
//
//   - the virtual engine calls it from the coordinator while all
//     processors wait on a completed root-scope barrier;
//   - the concurrent engine calls it from the single cut applier inside
//     a reorg/membership cut window, with all live processors parked
//     between the cut barriers.
//
// Either way the call comes from inside the run's membership cut
// (ledger.cut), on the concurrent engine under the run's lock: a hook
// must not call back into a Ctx. Implementations must be safe for
// concurrent use with the program-side planner calls of crashed
// processors that are still unwinding.
type PlanHook interface {
	// GlobalBarrier fires after a completed global (root-scope) barrier,
	// the engine's refinement-commit point. step is the 1-based count of
	// completed global supersteps this run.
	GlobalBarrier(t *model.Tree, step int)

	// TreeChanged fires after the tree has been rebalanced
	// (Tree.Reorganize) or the membership epoch has changed (a processor
	// died or a dormant one is being activated) at a consistent cut.
	// oldFP is the tree's fingerprint before the mutation; t carries the
	// new one. Cached decisions for either are stale.
	TreeChanged(t *model.Tree, oldFP uint64)
}
