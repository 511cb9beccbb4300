package collective

import (
	"fmt"

	"hbspk/internal/hbsp"
	"hbspk/internal/model"
	"hbspk/internal/plan"
)

// The run side of the cost table (DESIGN.md §5.9): RowCalls maps every
// plan.CostVariants row to the one call that runs it as the row prices
// it, on the full tree and rooted at the fastest leaf; a flat rooted
// row is its RootedCalls form at the fastest leaf. The planner's
// dispatchers, the catalogue's programs and the planner's gates all run
// a row through it. A call has its family's signature:
type (
	BcastCall    func(c hbsp.Ctx, data []byte) ([]byte, error)                     // bcast
	GatherCall   func(c hbsp.Ctx, local []byte) (map[int][]byte, error)            // gather, allgather
	ScatterCall  func(c hbsp.Ctx, pieces map[int][]byte) ([]byte, error)           // scatter
	ExchangeCall func(c hbsp.Ctx, outgoing map[int][]byte) (map[int][]byte, error) // alltoall
	VectorCall   func(c hbsp.Ctx, local []int64, op Op) ([]int64, error)           // reduce, allreduce, reduce-scatter, scan
)

// RowCalls maps each cost-table row's name to the call that runs it.
// It is built once; a lookup allocates nothing.
var RowCalls = rowCalls()

func rowCalls() map[string]any {
	calls := map[string]any{
		"GatherHier": GatherCall(GatherHier),
		"BcastHier": BcastCall(func(c hbsp.Ctx, data []byte) ([]byte, error) {
			return BcastHier(c, data, false)
		}),
		"BcastHierTwoPhase": BcastCall(func(c hbsp.Ctx, data []byte) ([]byte, error) {
			return BcastHier(c, data, true)
		}),
		"ScatterHier": ScatterCall(ScatterHier),
		"AllGather": GatherCall(func(c hbsp.Ctx, local []byte) (map[int][]byte, error) {
			return AllGather(c, c.Tree().Root, local)
		}),
		"AllGatherHier": GatherCall(AllGatherHier),
		"ReduceHier":    VectorCall(ReduceHier),
		"AllReduce":     VectorCall(AllReduce),
		// Each processor's vector is cut into p equal segments.
		"ReduceScatter": VectorCall(func(c hbsp.Ctx, local []int64, op Op) ([]int64, error) {
			t := c.Tree()
			return ReduceScatter(c, t.Root, local, EqualPieces(c, t.Root, len(local)), op)
		}),
		"Scan": VectorCall(func(c hbsp.Ctx, local []int64, op Op) ([]int64, error) {
			return Scan(c, c.Tree().Root, local, op)
		}),
		"ScanHier": VectorCall(ScanHier),
		"TotalExchange": ExchangeCall(func(c hbsp.Ctx, outgoing map[int][]byte) (map[int][]byte, error) {
			return TotalExchange(c, c.Tree().Root, outgoing)
		}),
	}
	for row, at := range RootedCalls {
		calls[row] = at(FastestPid)
	}
	return calls
}

// RootedCalls maps each flat rooted row to its call on the full tree at
// any root: the call at root(tree)'s pid, read on every call, so that it
// follows a reorganized tree. At FastestPid it is the row's RowCalls call.
var RootedCalls = map[string]func(root func(*model.Tree) int) any{
	"Gather":        rooted[GatherCall](Gather),
	"BcastOnePhase": rooted[BcastCall](BcastOnePhase),
	// The root cuts the first phase's pieces from its data.
	"BcastTwoPhase": rooted[BcastCall](func(c hbsp.Ctx, s *model.Machine, root int, data []byte) ([]byte, error) {
		var d Dist
		if c.Pid() == root {
			d = BalancedPieces(c, s, len(data))
		}
		return BcastTwoPhase(c, s, root, data, d)
	}),
	"BcastBinomial": rooted[BcastCall](BcastBinomial),
	"Scatter":       rooted[ScatterCall](Scatter),
	"Reduce": func(root func(*model.Tree) int) any {
		return VectorCall(func(c hbsp.Ctx, local []int64, op Op) ([]int64, error) {
			return Reduce(c, c.Tree().Root, root(c.Tree()), local, op)
		})
	},
}

// rooted makes a flat collective of one argument a rooted form of call
// type F.
func rooted[F ~func(hbsp.Ctx, A) (R, error), A, R any](f func(hbsp.Ctx, *model.Machine, int, A) (R, error)) func(func(*model.Tree) int) any {
	return func(root func(*model.Tree) int) any {
		return F(func(c hbsp.Ctx, a A) (R, error) { return f(c, c.Tree().Root, root(c.Tree()), a) })
	}
}

// FastestPid is the pid of the tree's fastest leaf, every rooted row's
// root.
func FastestPid(t *model.Tree) int { return t.Pid(t.FastestLeaf()) }

// Planner-dispatched collectives (DESIGN.md §5.9): each Planned* entry
// point asks the auto-tuning planner for the cheapest row of its family
// on the current tree and payload bucket and runs that row's RowCalls
// entry. The cached hit path adds only a fingerprint read, one
// lock-free cache load and one RowCalls lookup to the direct call.
//
// SPMD contract: all processors of the machine call the same Planned*
// entry point with the same n — the collective's TOTAL payload in
// bytes, which every processor must know (payload-carrying arguments
// such as a broadcast's data live only at the supplying leaf, so the
// size travels as an explicit uniform argument). The planner guarantees
// all processors resolve the same variant, so the superstep structures
// stay aligned. Conventions match the cost table: the scope is the full
// tree and the data-supplying root is the fastest leaf.

// layoutIsPidOrder reports whether the tree's leaf slot (depth-first
// layout) order coincides with pid order. True on every freshly built
// tree; a reorganization that permutes leaves across slots breaks it.
// The predicate is a pure function of the tree state the fingerprint
// hashes, so every processor of an SPMD program agrees on it.
func layoutIsPidOrder(t *model.Tree) bool {
	for slot, l := range t.Root.Leaves() {
		if t.Pid(l) != slot {
			return false
		}
	}
	return true
}

// planned resolves the planner's pick for family at n total bytes and
// returns the call that runs it; the processor whose Decide priced the
// pick records the pick event.
func planned[F any](c hbsp.Ctx, p *plan.Planner, family string, n int) (F, error) {
	var call F
	d, ok := p.Decide(c.Tree(), family, n)
	if !ok {
		return call, fmt.Errorf("collective: planner knows no variants for family %q", family)
	}
	if d.Fresh {
		hbsp.RecorderOf(c).Pick(family, d.Variant.Name, c.Pid(), int64(n), d.Pred, hbsp.NowOf(c))
	}
	if call, ok = RowCalls[d.Variant.Name].(F); !ok {
		return call, fmt.Errorf("collective: planner picked %s variant %q, which no %T runs", family, d.Variant.Name, call)
	}
	return call, nil
}

// dispatch runs the planner's pick for family at n total bytes on arg.
func dispatch[F ~func(hbsp.Ctx, A) (R, error), A, R any](c hbsp.Ctx, p *plan.Planner, family string, n int, arg A) (R, error) {
	run, err := planned[F](c, p, family, n)
	if err != nil {
		var none R
		return none, err
	}
	return run(c, arg)
}

// dispatchVector runs the planner's pick for a vector family on local,
// priced at the machine-wide byte count of the equal-width int64
// vectors, as the cost table sizes the vector rows.
func dispatchVector(c hbsp.Ctx, p *plan.Planner, family string, local []int64, op Op) ([]int64, error) {
	run, err := planned[VectorCall](c, p, family, 8*len(local)*c.NProcs())
	if err != nil {
		return nil, err
	}
	return run(c, local, op)
}

// PlannedBcast broadcasts data from the fastest leaf to every processor
// through the planner-selected variant. Only the fastest leaf supplies
// data; n is its length, passed uniformly by every processor.
func PlannedBcast(c hbsp.Ctx, p *plan.Planner, n int, data []byte) ([]byte, error) {
	return dispatch[BcastCall](c, p, "bcast", n, data)
}

// PlannedGather gathers every processor's local payload to the fastest
// leaf through the planner-selected variant. n is the total byte count
// across all processors, passed uniformly.
func PlannedGather(c hbsp.Ctx, p *plan.Planner, n int, local []byte) (map[int][]byte, error) {
	return dispatch[GatherCall](c, p, "gather", n, local)
}

// PlannedScatter distributes the fastest leaf's keyed pieces through
// the planner-selected variant. n is the total byte count, passed
// uniformly; only the fastest leaf supplies pieces.
func PlannedScatter(c hbsp.Ctx, p *plan.Planner, n int, pieces map[int][]byte) ([]byte, error) {
	return dispatch[ScatterCall](c, p, "scatter", n, pieces)
}

// PlannedAllGather gathers every processor's local payload to every
// processor through the planner-selected variant. n is the total byte
// count, passed uniformly.
func PlannedAllGather(c hbsp.Ctx, p *plan.Planner, n int, local []byte) (map[int][]byte, error) {
	return dispatch[GatherCall](c, p, "allgather", n, local)
}

// PlannedReduce folds every processor's equal-width vector to the
// fastest leaf through the planner-selected variant. The payload size
// is derived from the vector width, which SPMD reduction already
// requires to be uniform.
func PlannedReduce(c hbsp.Ctx, p *plan.Planner, local []int64, op Op) ([]int64, error) {
	return dispatchVector(c, p, "reduce", local, op)
}

// PlannedAllReduce folds every processor's equal-width vector to every
// processor through the planner-selected variant.
func PlannedAllReduce(c hbsp.Ctx, p *plan.Planner, local []int64, op Op) ([]int64, error) {
	return dispatchVector(c, p, "allreduce", local, op)
}

// PlannedScan computes the pid-order prefix fold of every processor's
// equal-width vector through the planner-selected variant. ScanHier
// folds in tree (slot) order, so it is eligible only while slot order
// and pid order coincide — after a reorganization that permutes leaves
// the dispatcher pins the flat Scan, whose contract is pid order
// regardless of layout. The eligibility predicate is a pure function of
// the fingerprinted tree state, so all processors agree.
func PlannedScan(c hbsp.Ctx, p *plan.Planner, local []int64, op Op) ([]int64, error) {
	if !layoutIsPidOrder(c.Tree()) {
		return RowCalls["Scan"].(VectorCall)(c, local, op)
	}
	return dispatchVector(c, p, "scan", local, op)
}

// PlannedTotalExchange routes every processor's keyed outgoing pieces
// through the planner-selected variant. n is the total byte count
// across all processors, passed uniformly.
func PlannedTotalExchange(c hbsp.Ctx, p *plan.Planner, n int, outgoing map[int][]byte) (map[int][]byte, error) {
	return dispatch[ExchangeCall](c, p, "alltoall", n, outgoing)
}
