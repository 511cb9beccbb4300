package collective

import (
	"fmt"

	"hbspk/internal/hbsp"
	"hbspk/internal/model"
	"hbspk/internal/plan"
)

// Planner-dispatched collectives (DESIGN.md §5.9): each Planned* entry
// point asks the auto-tuning planner for the cheapest variant of its
// family on the current tree and payload bucket and dispatches it. The
// cached hit path adds only a fingerprint read, one lock-free cache load
// and a switch over the variant name to the direct call.
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
	next := 0
	ok := true
	t.Root.Walk(func(m *model.Machine) {
		if !m.IsLeaf() {
			return
		}
		if t.Pid(m) != next {
			ok = false
		}
		next++
	})
	return ok
}

// planDecide resolves the planner decision for family at n total bytes;
// the processor whose Decide priced it records the pick event.
func planDecide(c hbsp.Ctx, p *plan.Planner, family string, n int) (plan.Decision, error) {
	d, ok := p.Decide(c.Tree(), family, n)
	if !ok {
		return plan.Decision{}, fmt.Errorf("collective: planner knows no variants for family %q", family)
	}
	if d.Fresh {
		hbsp.RecorderOf(c).Pick(family, d.Variant.Name, c.Pid(), int64(n), d.Pred, hbsp.NowOf(c))
	}
	return d, nil
}

// PlannedBcast broadcasts data from the fastest leaf to every processor
// through the planner-selected variant. Only the fastest leaf supplies
// data; n is its length, passed uniformly by every processor.
func PlannedBcast(c hbsp.Ctx, p *plan.Planner, n int, data []byte) ([]byte, error) {
	d, err := planDecide(c, p, "bcast", n)
	if err != nil {
		return nil, err
	}
	t := c.Tree()
	root := t.Pid(t.FastestLeaf())
	switch d.Variant.Name {
	case "BcastOnePhase":
		return BcastOnePhase(c, t.Root, root, data)
	case "BcastTwoPhase":
		var dist Dist
		if c.Pid() == root {
			dist = BalancedPieces(c, t.Root, n)
		}
		return BcastTwoPhase(c, t.Root, root, data, dist)
	case "BcastBinomial":
		return BcastBinomial(c, t.Root, root, data)
	case "BcastHier":
		return BcastHier(c, data, false)
	case "BcastHierTwoPhase":
		return BcastHier(c, data, true)
	default:
		return nil, fmt.Errorf("collective: planner picked unknown bcast variant %q", d.Variant.Name)
	}
}

// PlannedGather gathers every processor's local payload to the fastest
// leaf through the planner-selected variant. n is the total byte count
// across all processors, passed uniformly.
func PlannedGather(c hbsp.Ctx, p *plan.Planner, n int, local []byte) (map[int][]byte, error) {
	d, err := planDecide(c, p, "gather", n)
	if err != nil {
		return nil, err
	}
	t := c.Tree()
	switch d.Variant.Name {
	case "Gather":
		return Gather(c, t.Root, t.Pid(t.FastestLeaf()), local)
	case "GatherHier":
		return GatherHier(c, local)
	default:
		return nil, fmt.Errorf("collective: planner picked unknown gather variant %q", d.Variant.Name)
	}
}

// PlannedScatter distributes the fastest leaf's keyed pieces through
// the planner-selected variant. n is the total byte count, passed
// uniformly; only the fastest leaf supplies pieces.
func PlannedScatter(c hbsp.Ctx, p *plan.Planner, n int, pieces map[int][]byte) ([]byte, error) {
	d, err := planDecide(c, p, "scatter", n)
	if err != nil {
		return nil, err
	}
	t := c.Tree()
	switch d.Variant.Name {
	case "Scatter":
		return Scatter(c, t.Root, t.Pid(t.FastestLeaf()), pieces)
	case "ScatterHier":
		return ScatterHier(c, pieces)
	default:
		return nil, fmt.Errorf("collective: planner picked unknown scatter variant %q", d.Variant.Name)
	}
}

// PlannedAllGather gathers every processor's local payload to every
// processor through the planner-selected variant. n is the total byte
// count, passed uniformly.
func PlannedAllGather(c hbsp.Ctx, p *plan.Planner, n int, local []byte) (map[int][]byte, error) {
	d, err := planDecide(c, p, "allgather", n)
	if err != nil {
		return nil, err
	}
	t := c.Tree()
	switch d.Variant.Name {
	case "AllGather":
		return AllGather(c, t.Root, local)
	case "AllGatherHier":
		return AllGatherHier(c, local)
	default:
		return nil, fmt.Errorf("collective: planner picked unknown allgather variant %q", d.Variant.Name)
	}
}

// PlannedReduce folds every processor's equal-width vector to the
// fastest leaf through the planner-selected variant. The payload size
// is derived from the vector width, which SPMD reduction already
// requires to be uniform.
func PlannedReduce(c hbsp.Ctx, p *plan.Planner, local []int64, op Op) ([]int64, error) {
	d, err := planDecide(c, p, "reduce", vecBytes(c, local))
	if err != nil {
		return nil, err
	}
	t := c.Tree()
	switch d.Variant.Name {
	case "Reduce":
		return Reduce(c, t.Root, t.Pid(t.FastestLeaf()), local, op)
	case "ReduceHier":
		return ReduceHier(c, local, op)
	default:
		return nil, fmt.Errorf("collective: planner picked unknown reduce variant %q", d.Variant.Name)
	}
}

// PlannedAllReduce folds every processor's equal-width vector to every
// processor through the planner-selected variant.
func PlannedAllReduce(c hbsp.Ctx, p *plan.Planner, local []int64, op Op) ([]int64, error) {
	d, err := planDecide(c, p, "allreduce", vecBytes(c, local))
	if err != nil {
		return nil, err
	}
	switch d.Variant.Name {
	case "AllReduce":
		return AllReduce(c, local, op)
	default:
		return nil, fmt.Errorf("collective: planner picked unknown allreduce variant %q", d.Variant.Name)
	}
}

// PlannedScan computes the pid-order prefix fold of every processor's
// equal-width vector through the planner-selected variant. ScanHier
// folds in tree (slot) order, so it is eligible only while slot order
// and pid order coincide — after a reorganization that permutes leaves
// the dispatcher pins the flat Scan, whose contract is pid order
// regardless of layout. The eligibility predicate is a pure function of
// the fingerprinted tree state, so all processors agree.
func PlannedScan(c hbsp.Ctx, p *plan.Planner, local []int64, op Op) ([]int64, error) {
	t := c.Tree()
	if !layoutIsPidOrder(t) {
		return Scan(c, t.Root, local, op)
	}
	d, err := planDecide(c, p, "scan", vecBytes(c, local))
	if err != nil {
		return nil, err
	}
	switch d.Variant.Name {
	case "Scan":
		return Scan(c, t.Root, local, op)
	case "ScanHier":
		return ScanHier(c, local, op)
	default:
		return nil, fmt.Errorf("collective: planner picked unknown scan variant %q", d.Variant.Name)
	}
}

// PlannedTotalExchange routes every processor's keyed outgoing pieces
// through the planner-selected variant. n is the total byte count
// across all processors, passed uniformly.
func PlannedTotalExchange(c hbsp.Ctx, p *plan.Planner, n int, outgoing map[int][]byte) (map[int][]byte, error) {
	d, err := planDecide(c, p, "alltoall", n)
	if err != nil {
		return nil, err
	}
	t := c.Tree()
	switch d.Variant.Name {
	case "TotalExchange":
		return TotalExchange(c, t.Root, outgoing)
	default:
		return nil, fmt.Errorf("collective: planner picked unknown alltoall variant %q", d.Variant.Name)
	}
}

// vecBytes is the uniform model payload of a vector collective: the
// machine-wide byte count of the equal-width int64 vectors, matching
// how the cost table sizes the reduce/scan closed forms.
func vecBytes(c hbsp.Ctx, local []int64) int {
	return 8 * len(local) * c.NProcs()
}
