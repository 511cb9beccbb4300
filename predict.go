package hbspk

import "hbspk/internal/cost"

// Analytic cost prediction (§3.4, §4). Times are in the model's units:
// byte-send times of the fastest machine.

// CostBreakdown is a per-superstep cost prediction.
type CostBreakdown = cost.Breakdown

// ByteDist is a per-processor byte distribution.
type ByteDist = cost.Dist

// EqualDist and BalancedDist build the §5.1 distribution policies.
func EqualDist(t *Tree, n int) ByteDist    { return cost.EqualDist(t, n) }
func BalancedDist(t *Tree, n int) ByteDist { return cost.BalancedDist(t, n) }

// PredictGather predicts the flat gather of d at the root processor.
func PredictGather(t *Tree, rootPid int, d ByteDist) CostBreakdown {
	return cost.GatherFlat(t, rootPid, d)
}

// PredictBcastHier predicts the hierarchical broadcast of n bytes.
func PredictBcastHier(t *Tree, n int, twoPhaseTop bool) CostBreakdown {
	return cost.BcastHier(t, n, twoPhaseTop)
}

// TwoPhaseCrossoverSize returns the problem size above which the
// two-phase broadcast beats the one-phase broadcast (§4.4), or +Inf.
func TwoPhaseCrossoverSize(t *Tree) float64 { return cost.TwoPhaseCrossoverSize(t) }
