package cost

import (
	"fmt"
	"slices"

	"hbspk/internal/model"
)

// Dist is a workload distribution: Dist[pid] is the number of bytes held
// by (or destined for) each processor. The paper writes x_{i,j} for the
// items in M_{i,j}'s possession; for a cluster that is the sum over its
// leaves.
type Dist []int

// Total returns n, the problem size.
func (d Dist) Total() int {
	n := 0
	for _, v := range d {
		n += v
	}
	return n
}

// EqualDist splits n as evenly as possible over the processors of the
// tree (c_j = 1/p, the homogeneous partitioning of §5.1's first
// experiment). Leftover bytes go to the lowest pids.
func EqualDist(t *model.Tree, n int) Dist {
	p := t.NProcs()
	d := make(Dist, p)
	q, r := n/p, n%p
	for i := range d {
		d[i] = q
		if i < r {
			d[i]++
		}
	}
	return d
}

// BalancedDist splits n proportionally to the leaves' c_{i,j} shares
// (balanced workloads, §4.1: "machines receive problem sizes relative to
// their communication and computational abilities"). Rounding residue
// goes to the fastest processor.
func BalancedDist(t *model.Tree, n int) Dist {
	leaves := t.Leaves()
	d := make(Dist, len(leaves))
	assigned := 0
	for i, l := range leaves {
		d[i] = int(float64(n) * l.Share)
		assigned += d[i]
	}
	if rest := n - assigned; rest > 0 {
		d[t.Pid(t.FastestLeaf())] += rest
	}
	return d
}

// subtreeBytes sums a distribution over the leaves of a machine: x_{i,j}.
func subtreeBytes(t *model.Tree, m *model.Machine, d Dist) int {
	n := 0
	for _, l := range m.Leaves() {
		n += d[t.Pid(l)]
	}
	return n
}

// GatherFlat is the HBSP^1 gather of §4.2 applied across the whole
// machine in a single superstep: every processor sends its bytes to the
// root processor. It is exact (no self-send; the root's own bytes never
// move). On an HBSP^2 tree this is the "flat" baseline that ignores the
// hierarchy.
func GatherFlat(t *model.Tree, rootPid int, d Dist) Breakdown {
	var flows []Flow
	for pid, bytes := range d {
		flows = append(flows, Flow{Src: pid, Dst: rootPid, Bytes: bytes})
	}
	b := Breakdown{G: t.G}
	b.Add(StepCost(t, t.Root, "super1 gather", flows, nil))
	return b
}

// GatherHier is the hierarchical gather of §4.3 generalized to any k:
// level by level, every level-i machine gathers its subtree's bytes at
// its coordinator, so after the super^i-step each level-i coordinator
// holds x_{i,j} and after the final super^k-step the root coordinator
// holds all n bytes. The super^i-steps of sibling clusters run
// concurrently (parallel steps). Every piece travels framed, with its
// PieceHeader.
func GatherHier(t *model.Tree, d Dist) Breakdown {
	b := Breakdown{G: t.G}
	for lvl := 1; lvl <= t.K(); lvl++ {
		b.addLevel(t, lvl, "gather", func(scope *model.Machine) ([]Flow, []float64) {
			return childFlows(t, scope, true, func(c *model.Machine) int { return framedBytes(t, c, d) }), nil
		})
	}
	return b
}

// PieceHeader is the bytes a piece carries besides its own when it
// travels in a frame with other processors' pieces: its origin pid and
// its length, a packed int32 and a byte-slice prefix of 5 bytes each.
// collective's frames size with it; the hierarchical gather, scatter and
// all-gather price it once per piece.
const PieceHeader = 10

// framedBytes is the frame of a machine's subtree's pieces: x_{i,j}
// bytes and one PieceHeader per leaf.
func framedBytes(t *model.Tree, m *model.Machine, d Dist) int {
	return subtreeBytes(t, m, d) + PieceHeader*len(m.Leaves())
}

// addLevel adds the super^lvl-steps of a hierarchical collective: one
// per cluster at level lvl, run at the same time and so priced as one
// Parallel step (§4.3); none when the level has no cluster. price gives
// a cluster's flows and per-participant work.
func (b *Breakdown) addLevel(t *model.Tree, lvl int, stage string, price func(scope *model.Machine) ([]Flow, []float64)) {
	label := fmt.Sprintf("super%d %s", lvl, stage)
	var subs []Step
	for _, scope := range t.MachinesAt(lvl) {
		if !scope.IsLeaf() {
			flows, works := price(scope)
			subs = append(subs, StepCost(t, scope, label, flows, works))
		}
	}
	if len(subs) > 0 {
		b.Add(ParallelStep(label, lvl, subs))
	}
}

// childFlows is one flow of bytes(child) bytes between the scope's
// coordinator and each child's: up to the scope's coordinator, or down
// from it.
func childFlows(t *model.Tree, scope *model.Machine, up bool, bytes func(child *model.Machine) int) []Flow {
	co := t.Pid(scope.Coordinator())
	var flows []Flow
	for _, child := range scope.Children {
		f := Flow{Src: co, Dst: t.Pid(child.Coordinator()), Bytes: bytes(child)}
		if up {
			f.Src, f.Dst = f.Dst, f.Src
		}
		flows = append(flows, f)
	}
	return flows
}

// BcastOnePhaseFlat is the one-phase broadcast of §4.4: the root
// processor sends all n bytes directly to every other processor in one
// superstep.
func BcastOnePhaseFlat(t *model.Tree, rootPid, n int) Breakdown {
	var flows []Flow
	for pid := 0; pid < t.NProcs(); pid++ {
		if pid != rootPid {
			flows = append(flows, Flow{Src: rootPid, Dst: pid, Bytes: n})
		}
	}
	b := Breakdown{G: t.G}
	b.Add(StepCost(t, t.Root, "super1 bcast-1phase", flows, nil))
	return b
}

// BcastTwoPhaseFlat is the two-phase broadcast of §4.4: the root
// scatters pieces (given by d, which may be equal or balanced and must
// sum to n) in the first superstep; in the second, every processor sends
// its piece to every other processor. "Our analysis also holds if P_j
// receives c_j·n elements during the first phase" (§5.3).
func BcastTwoPhaseFlat(t *model.Tree, rootPid int, d Dist) Breakdown {
	p := t.NProcs()
	b := Breakdown{G: t.G}
	var phase1 []Flow
	for pid := 0; pid < p; pid++ {
		if pid != rootPid {
			phase1 = append(phase1, Flow{Src: rootPid, Dst: pid, Bytes: d[pid]})
		}
	}
	b.Add(StepCost(t, t.Root, "super1 bcast scatter", phase1, nil))
	b.Add(StepCost(t, t.Root, "super1 bcast allgather", allPairs(p, func(src, _ int) int { return d[src] }), nil))
	return b
}

// allPairs is one flow of bytes(src, dst) from every processor to every
// other.
func allPairs(p int, bytes func(src, dst int) int) []Flow {
	var flows []Flow
	for src := 0; src < p; src++ {
		for dst := 0; dst < p; dst++ {
			if src != dst {
				flows = append(flows, Flow{Src: src, Dst: dst, Bytes: bytes(src, dst)})
			}
		}
	}
	return flows
}

// BcastHier is the hierarchical broadcast of §4.4 generalized to any k.
// Starting at the top, each super^i-step distributes the n bytes from
// the level-i coordinator to the coordinators of its children, using
// either the one-phase or the two-phase approach (twoPhaseTop); then the
// algorithm recurses into the clusters, which broadcast concurrently
// with the two-phase HBSP^1 algorithm (the paper's choice for
// intra-cluster broadcast).
func BcastHier(t *model.Tree, n int, twoPhaseTop bool) Breakdown {
	b := Breakdown{G: t.G}
	for lvl := t.K(); lvl >= 1; lvl-- {
		var subs []Step
		twoPhase := twoPhaseTop || lvl < t.K()
		for _, scope := range t.MachinesAt(lvl) {
			if scope.IsLeaf() {
				continue
			}
			subs = append(subs, bcastScopeSteps(t, scope, n, twoPhase)...)
		}
		if len(subs) == 0 {
			continue
		}
		// Group concurrent same-phase sub-steps: all scopes at this
		// level execute phase 1 together, then phase 2 together.
		phases := 1
		if twoPhase {
			phases = 2
		}
		for ph := 0; ph < phases; ph++ {
			var same []Step
			for i := ph; i < len(subs); i += phases {
				same = append(same, subs[i])
			}
			b.Add(ParallelStep(fmt.Sprintf("super%d bcast phase%d", lvl, ph+1), lvl, same))
		}
	}
	return b
}

// bcastScopeSteps returns the one or two steps of broadcasting n bytes
// from a scope's coordinator to the coordinators of its children. The
// two-phase scatter cuts n into m equal pieces, the first n mod m of
// them one byte longer (collective.EqualPieces), and the exchange sends
// the scope's root nothing: it cut the pieces, and what it sends, m−1
// of them, already sets its h_{i,j}, so the pieces it would get back
// never priced a step.
func bcastScopeSteps(t *model.Tree, scope *model.Machine, n int, twoPhase bool) []Step {
	rootPid := t.Pid(scope.Coordinator())
	var peers []int
	for _, child := range scope.Children {
		peers = append(peers, t.Pid(child.Coordinator()))
	}
	if !twoPhase {
		var flows []Flow
		for _, pid := range peers {
			if pid != rootPid {
				flows = append(flows, Flow{Src: rootPid, Dst: pid, Bytes: n})
			}
		}
		return []Step{StepCost(t, scope, fmt.Sprintf("super%d bcast-1phase", scope.Level), flows, nil)}
	}
	m := len(peers)
	piece := func(i int) int { return (n + m - 1 - i) / m } // n/m, +1 for i < n mod m
	var phase1 []Flow
	for i, pid := range peers {
		if pid != rootPid {
			phase1 = append(phase1, Flow{Src: rootPid, Dst: pid, Bytes: piece(i)})
		}
	}
	var phase2 []Flow
	for i, src := range peers {
		for _, dst := range peers {
			if src != dst && dst != rootPid {
				phase2 = append(phase2, Flow{Src: src, Dst: dst, Bytes: piece(i)})
			}
		}
	}
	return []Step{
		StepCost(t, scope, fmt.Sprintf("super%d bcast scatter", scope.Level), phase1, nil),
		StepCost(t, scope, fmt.Sprintf("super%d bcast exchange", scope.Level), phase2, nil),
	}
}

// BcastBinomial predicts the binomial-tree broadcast: ⌈log2 p⌉
// supersteps of recursive doubling, each moving n bytes per new holder.
func BcastBinomial(t *model.Tree, rootPid, n int) Breakdown {
	b := Breakdown{G: t.G}
	p := t.NProcs()
	rootIdx := rootPid
	for stride, round := 1, 0; stride < p; stride, round = stride*2, round+1 {
		var flows []Flow
		for v := 0; v < stride && v+stride < p; v++ {
			src := (v + rootIdx) % p
			dst := (v + stride + rootIdx) % p
			flows = append(flows, Flow{Src: src, Dst: dst, Bytes: n})
		}
		b.Add(StepCost(t, t.Root, fmt.Sprintf("binomial r%d", round), flows, nil))
	}
	return b
}

// ScatterFlat is the inverse of GatherFlat: the root processor sends
// d[j] bytes to each processor j in one superstep.
func ScatterFlat(t *model.Tree, rootPid int, d Dist) Breakdown {
	var flows []Flow
	for pid, bytes := range d {
		flows = append(flows, Flow{Src: rootPid, Dst: pid, Bytes: bytes})
	}
	b := Breakdown{G: t.G}
	b.Add(StepCost(t, t.Root, "super1 scatter", flows, nil))
	return b
}

// ScatterHier distributes d from the root coordinator down the tree
// level by level: each level-i coordinator forwards to its children's
// coordinators the bytes destined for their subtrees, framed with one
// PieceHeader per piece.
func ScatterHier(t *model.Tree, d Dist) Breakdown {
	b := Breakdown{G: t.G}
	for lvl := t.K(); lvl >= 1; lvl-- {
		b.addLevel(t, lvl, "scatter", func(scope *model.Machine) ([]Flow, []float64) {
			return childFlows(t, scope, false, func(c *model.Machine) int { return framedBytes(t, c, d) }), nil
		})
	}
	return b
}

// AllGatherFlat: every processor ends with all n bytes by exchanging
// pieces pairwise in one superstep (the second phase of the two-phase
// broadcast, with per-processor piece sizes from d).
func AllGatherFlat(t *model.Tree, d Dist) Breakdown {
	b := Breakdown{G: t.G}
	b.Add(StepCost(t, t.Root, "super1 allgather", allPairs(t.NProcs(), func(src, _ int) int { return d[src] }), nil))
	return b
}

// OpCost is the per-byte combining cost, on the fastest machine, of the
// library's reduction operators: collective.Sum, Max and Min charge
// 8·OpCost per int64 element. It is the opCost to pass the reduce and
// scan closed forms below when pricing those operators.
const OpCost = 0.05 / 8

// ReduceFlat: every processor sends its d[j]-byte partial value to the
// root, which combines them once they have arrived, after the barrier:
// the tail. opCost is the per-byte combining cost on the fastest
// machine; the root's work is scaled by its compute slowdown.
func ReduceFlat(t *model.Tree, rootPid int, d Dist, opCost float64) Breakdown {
	var flows []Flow
	incoming := 0
	for pid, bytes := range d {
		flows = append(flows, Flow{Src: pid, Dst: rootPid, Bytes: bytes})
		if pid != rootPid {
			incoming += bytes
		}
	}
	b := Breakdown{G: t.G, Tail: opCost * float64(incoming) * t.Leaf(rootPid).CompSlowdown}
	b.Add(StepCost(t, t.Root, "super1 reduce", flows, nil))
	return b
}

// ReduceHier combines partial values up the tree: each level-i
// coordinator combines its children's partials (concurrently across
// clusters), so the wire carries only combined values — the win of
// hierarchical reduction over slow upper links. A coordinator folds
// after its scope's barrier, so the fold is work of its parent's step,
// and the root's is the tail.
func ReduceHier(t *model.Tree, d Dist, opCost float64) Breakdown {
	// For a reduction, every machine's partial has the same width w
	// (the reduced value size); we take w = max leaf piece as the wire
	// unit.
	w := slices.Max(d)
	b := Breakdown{G: t.G, Tail: childFolds(t.Root, w, opCost)}
	for lvl := 1; lvl <= t.K(); lvl++ {
		b.addLevel(t, lvl, "reduce", func(scope *model.Machine) ([]Flow, []float64) {
			var works []float64
			for _, child := range scope.Children {
				works = append(works, childFolds(child, w, opCost))
			}
			return childFlows(t, scope, true, func(*model.Machine) int { return w }), works
		})
	}
	return b
}

// childFolds is the work of m's coordinator folding the w-byte values
// of m's children into one: m − 1 folds. A leaf folds nothing.
func childFolds(m *model.Machine, w int, opCost float64) float64 {
	if m.IsLeaf() {
		return 0
	}
	return opCost * float64(w*(len(m.Children)-1)) * m.Coordinator().CompSlowdown
}

// then appends next's steps to b's. b's tail is the root coordinator's
// work after b's last barrier; that processor's next barrier completes
// next's first step, whose one scope is the root, so the tail joins
// that step's work. next's tail is the whole's.
func (b Breakdown) then(next Breakdown) Breakdown {
	if len(next.Steps) > 0 {
		first := &next.Steps[0]
		if len(first.Parallel) > 0 {
			first = &first.Parallel[0]
		}
		first.Work += b.Tail
		b.Tail = 0
	}
	b.Steps = append(b.Steps, next.Steps...)
	b.Tail += next.Tail
	return b
}

// AllReduceHier is ReduceHier followed by BcastHier of the w-byte result.
func AllReduceHier(t *model.Tree, d Dist, opCost float64) Breakdown {
	return ReduceHier(t, d, opCost).then(BcastHier(t, slices.Max(d), false))
}

// ScanFlat is a prefix-sum over processor pids in two supersteps: all
// processors send their partial to the root, which computes every
// prefix, then scatters prefix j to processor j.
func ScanFlat(t *model.Tree, rootPid int, d Dist, opCost float64) Breakdown {
	return ReduceFlat(t, rootPid, d, opCost).then(ScatterFlat(t, rootPid, d))
}

// AllGatherHierCost composes the hierarchical gather and broadcast:
// every piece crosses each upper link O(1) times. The broadcast carries
// the gathered frame, a PieceHeader per piece.
func AllGatherHierCost(t *model.Tree, d Dist) Breakdown {
	return GatherHier(t, d).then(BcastHier(t, d.Total()+PieceHeader*t.NProcs(), false))
}

// ScanHierCost predicts the two-sweep hierarchical scan of a w-byte
// vector: the upward sweep is ReduceHier's, and in the downward sweep
// each scope's coordinator runs the prefix across its children, one
// w-byte flow to each child but the tree's first subtree, which has
// nothing to its left: m folds at the coordinator, or m − 1 in a scope
// of the first subtree, which has no offset to start from.
func ScanHierCost(t *model.Tree, w int, opCost float64) Breakdown {
	down := Breakdown{G: t.G}
	for lvl := t.K(); lvl >= 1; lvl-- {
		down.addLevel(t, lvl, "scan-down", func(scope *model.Machine) ([]Flow, []float64) {
			flows := childFlows(t, scope, false, func(*model.Machine) int { return w })
			folds := len(flows)
			if leftmost(scope) {
				flows, folds = flows[1:], folds-1
			}
			return flows, []float64{opCost * float64(w*folds) * scope.Coordinator().CompSlowdown}
		})
	}
	return ReduceHier(t, EqualDist(t, w*t.NProcs()), opCost).then(down)
}

// leftmost reports whether m's subtree is the tree's first: m is the
// first child of the first child ... of the root.
func leftmost(m *model.Machine) bool {
	for ; m.Parent() != nil; m = m.Parent() {
		if m.Parent().Children[0] != m {
			return false
		}
	}
	return true
}

// ReduceScatterFlat predicts the one-step reduce-scatter: each processor
// ships one segment per peer and, after the barrier, folds p-1 received
// segments of its own size: the tail, the slowest processor's fold.
func ReduceScatterFlat(t *model.Tree, d Dist, opCost float64) Breakdown {
	p := t.NProcs()
	b := Breakdown{G: t.G}
	for dst := 0; dst < p; dst++ {
		b.Tail = max(b.Tail, opCost*float64(d[dst]*(p-1))*t.Leaf(dst).CompSlowdown)
	}
	b.Add(StepCost(t, t.Root, "super1 reduce-scatter", allPairs(p, func(_, dst int) int { return d[dst] }), nil))
	return b
}

// TotalExchangeFlat is the all-to-all personalized exchange: processor i
// sends d[j]/p bytes to each j (a balanced matrix whose row sums follow
// d) in one superstep.
func TotalExchangeFlat(t *model.Tree, d Dist) Breakdown {
	p := t.NProcs()
	b := Breakdown{G: t.G}
	b.Add(StepCost(t, t.Root, "super1 total-exchange", allPairs(p, func(src, _ int) int { return d[src] / p }), nil))
	return b
}
