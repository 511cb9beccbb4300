package plan

import (
	"hbspk/internal/cost"
	"hbspk/internal/model"
)

// Closed-form cost hooks: every shipped collective variant exposes its
// analytic cost.Breakdown as a function of (machine tree, problem size),
// keyed by the entrypoint name a caller writes in source, except that
// BcastHier is two rows, BcastHier and BcastHierTwoPhase, one per value
// of its twoPhaseTop argument. This is the ONE variant table in the
// tree, its price side: the runtime Planner picks from it. Its run side
// is collective.RowCalls, one call per row, which the Planned*
// dispatchers run on a pick and internal/catalog runs as one program
// per row: hbspk-sim runs and attributes it against the row,
// hbspk-predict prices it and experiments.SuiteSummary prints the rows.
// TestEveryRowRunsWhatItPrices runs each row's program on Virtual and
// holds every term of every step, and the work after the last barrier,
// to the row's price. The choice is made at run time, on the tree and
// size the run has: switch points move with the machine. The closed
// forms themselves live in internal/cost; this file fixes the inputs
// they are priced on, which the catalogue's programs build: the root is
// the fastest leaf, byte rows take cost.BalancedDist (BcastTwoPhase's
// first phase is BalancedPieces, cut by its RowCalls call from the
// root's data), and the vector rows (reduce, allreduce, reduce-scatter,
// scan) take VecLen-element vectors, which travel as their 8·VecLen
// bytes and are combined at the library operators' cost.OpCost;
// ReduceScatter cuts its vector into collective.EqualPieces' element
// segments. A Planned* dispatcher prices a vector collective at 8 bytes
// per element per processor, which VecLen maps back to the vector.

// CostVariant is one collective entrypoint with a closed-form cost.
type CostVariant struct {
	// Name is the exported entrypoint ("BcastOnePhase", "GatherHier").
	Name string
	// Family groups variants that compute the same result and are
	// therefore interchangeable at a callsite ("bcast", "gather", ...).
	Family string
	// Hier marks the variants that exploit the machine hierarchy.
	Hier bool
	// Cost returns the analytic breakdown of moving/combining n total
	// bytes on t, with the fastest leaf as root.
	Cost func(t *model.Tree, n int) cost.Breakdown
}

// Predict returns the variant's total predicted time for n bytes on t.
func (v CostVariant) Predict(t *model.Tree, n int) float64 {
	return v.Cost(t, n).Total()
}

// CostVariants returns the closed-form table for every shipped variant
// that has one, in a stable order (family, then flat before hier).
func CostVariants() []CostVariant {
	root := func(t *model.Tree) int { return t.Pid(t.FastestLeaf()) }
	vs := []CostVariant{
		{"Gather", "gather", false, func(t *model.Tree, n int) cost.Breakdown {
			return cost.GatherFlat(t, root(t), cost.BalancedDist(t, n))
		}},
		{"GatherHier", "gather", true, func(t *model.Tree, n int) cost.Breakdown {
			return cost.GatherHier(t, cost.BalancedDist(t, n))
		}},
		{"BcastOnePhase", "bcast", false, func(t *model.Tree, n int) cost.Breakdown {
			return cost.BcastOnePhaseFlat(t, root(t), n)
		}},
		{"BcastTwoPhase", "bcast", false, func(t *model.Tree, n int) cost.Breakdown {
			return cost.BcastTwoPhaseFlat(t, root(t), cost.BalancedDist(t, n))
		}},
		{"BcastBinomial", "bcast", false, func(t *model.Tree, n int) cost.Breakdown {
			return cost.BcastBinomial(t, root(t), n)
		}},
		{"BcastHier", "bcast", true, func(t *model.Tree, n int) cost.Breakdown {
			return cost.BcastHier(t, n, false)
		}},
		{"BcastHierTwoPhase", "bcast", true, func(t *model.Tree, n int) cost.Breakdown {
			return cost.BcastHier(t, n, true)
		}},
		{"Scatter", "scatter", false, func(t *model.Tree, n int) cost.Breakdown {
			return cost.ScatterFlat(t, root(t), cost.BalancedDist(t, n))
		}},
		{"ScatterHier", "scatter", true, func(t *model.Tree, n int) cost.Breakdown {
			return cost.ScatterHier(t, cost.BalancedDist(t, n))
		}},
		{"AllGather", "allgather", false, func(t *model.Tree, n int) cost.Breakdown {
			return cost.AllGatherFlat(t, cost.BalancedDist(t, n))
		}},
		{"AllGatherHier", "allgather", true, func(t *model.Tree, n int) cost.Breakdown {
			return cost.AllGatherHierCost(t, cost.BalancedDist(t, n))
		}},
		{"Reduce", "reduce", false, func(t *model.Tree, n int) cost.Breakdown {
			return cost.ReduceFlat(t, root(t), vectors(t, n, t.NProcs()), cost.OpCost)
		}},
		{"ReduceHier", "reduce", true, func(t *model.Tree, n int) cost.Breakdown {
			return cost.ReduceHier(t, vectors(t, n, t.NProcs()), cost.OpCost)
		}},
		{"AllReduce", "allreduce", true, func(t *model.Tree, n int) cost.Breakdown {
			return cost.AllReduceHier(t, vectors(t, n, t.NProcs()), cost.OpCost)
		}},
		{"ReduceScatter", "reduce-scatter", false, func(t *model.Tree, n int) cost.Breakdown {
			return cost.ReduceScatterFlat(t, vectors(t, n, 1), cost.OpCost)
		}},
		{"Scan", "scan", false, func(t *model.Tree, n int) cost.Breakdown {
			return cost.ScanFlat(t, root(t), vectors(t, n, t.NProcs()), cost.OpCost)
		}},
		{"ScanHier", "scan", true, func(t *model.Tree, n int) cost.Breakdown {
			return cost.ScanHierCost(t, 8*VecLen(t, n), cost.OpCost)
		}},
		{"TotalExchange", "alltoall", false, func(t *model.Tree, n int) cost.Breakdown {
			return cost.TotalExchangeFlat(t, cost.BalancedDist(t, n))
		}},
	}
	return vs
}

// VecLen is the element count of each processor's vector in a vector
// row of n bytes on t: n/(8p), at least one.
func VecLen(t *model.Tree, n int) int { return max(1, n/8/t.NProcs()) }

// vectors is the bytes each processor holds of k VecLen-element
// vectors cut as evenly as collective.EqualPieces cuts: k = p is one
// whole vector each, k = 1 one vector's ReduceScatter segments.
func vectors(t *model.Tree, n, k int) cost.Dist {
	d := cost.EqualDist(t, k*VecLen(t, n))
	for i := range d {
		d[i] *= 8
	}
	return d
}

// VariantByName returns the named variant's hook, if it has one.
func VariantByName(name string) (CostVariant, bool) {
	for _, v := range CostVariants() {
		if v.Name == name {
			return v, true
		}
	}
	return CostVariant{}, false
}

// VariantsFor returns the variants of one family, table order.
func VariantsFor(family string) []CostVariant {
	var out []CostVariant
	for _, v := range CostVariants() {
		if v.Family == family {
			out = append(out, v)
		}
	}
	return out
}

// BestVariant returns the cheapest variant of the family for n bytes on
// t, with its predicted time; ok is false for an unknown family.
func BestVariant(t *model.Tree, family string, n int) (best CostVariant, at float64, ok bool) {
	for _, v := range VariantsFor(family) {
		if c := v.Predict(t, n); !ok || c < at {
			best, at, ok = v, c, true
		}
	}
	return best, at, ok
}
