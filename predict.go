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

// PredictGatherHier predicts the hierarchical gather of d.
func PredictGatherHier(t *Tree, d ByteDist) CostBreakdown {
	return cost.GatherHier(t, d)
}

// PredictBcastOnePhase and PredictBcastTwoPhase predict the §4.4
// broadcasts of n bytes.
func PredictBcastOnePhase(t *Tree, rootPid, n int) CostBreakdown {
	return cost.BcastOnePhaseFlat(t, rootPid, n)
}
func PredictBcastTwoPhase(t *Tree, rootPid int, d ByteDist) CostBreakdown {
	return cost.BcastTwoPhaseFlat(t, rootPid, d)
}

// PredictBcastHier predicts the hierarchical broadcast of n bytes.
func PredictBcastHier(t *Tree, n int, twoPhaseTop bool) CostBreakdown {
	return cost.BcastHier(t, n, twoPhaseTop)
}

// PredictScatter, PredictAllGather, PredictReduce, PredictReduceHier,
// PredictScan and PredictTotalExchange cover the thesis suite.
func PredictScatter(t *Tree, rootPid int, d ByteDist) CostBreakdown {
	return cost.ScatterFlat(t, rootPid, d)
}
func PredictAllGather(t *Tree, d ByteDist) CostBreakdown { return cost.AllGatherFlat(t, d) }
func PredictReduce(t *Tree, rootPid int, d ByteDist, opCost float64) CostBreakdown {
	return cost.ReduceFlat(t, rootPid, d, opCost)
}
func PredictReduceHier(t *Tree, d ByteDist, opCost float64) CostBreakdown {
	return cost.ReduceHier(t, d, opCost)
}
func PredictScan(t *Tree, rootPid int, d ByteDist, opCost float64) CostBreakdown {
	return cost.ScanFlat(t, rootPid, d, opCost)
}
func PredictTotalExchange(t *Tree, d ByteDist) CostBreakdown {
	return cost.TotalExchangeFlat(t, d)
}

// TwoPhaseCrossoverSize returns the problem size above which the
// two-phase broadcast beats the one-phase broadcast (§4.4), or +Inf.
func TwoPhaseCrossoverSize(t *Tree) float64 { return cost.TwoPhaseCrossoverSize(t) }
