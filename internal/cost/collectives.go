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
// concurrently (parallel steps).
func GatherHier(t *model.Tree, d Dist) Breakdown {
	b := Breakdown{G: t.G}
	for lvl := 1; lvl <= t.K(); lvl++ {
		b.addLevel(t, lvl, "gather", func(scope *model.Machine) ([]Flow, []float64) {
			return childFlows(t, scope, true, func(c *model.Machine) int { return subtreeBytes(t, c, d) }), nil
		})
	}
	return b
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
	var phase2 []Flow
	for src := 0; src < p; src++ {
		for dst := 0; dst < p; dst++ {
			if src != dst {
				phase2 = append(phase2, Flow{Src: src, Dst: dst, Bytes: d[src]})
			}
		}
	}
	b.Add(StepCost(t, t.Root, "super1 bcast allgather", phase2, nil))
	return b
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
// two-phase exchange sends the scope's root nothing: it cut the pieces,
// and what it sends, m−1 of them, already sets its h_{i,j}, so the
// pieces it would get back never priced a step.
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
	piece := n / m
	var phase1 []Flow
	for _, pid := range peers {
		if pid != rootPid {
			phase1 = append(phase1, Flow{Src: rootPid, Dst: pid, Bytes: piece})
		}
	}
	var phase2 []Flow
	for _, src := range peers {
		for _, dst := range peers {
			if src != dst && dst != rootPid {
				phase2 = append(phase2, Flow{Src: src, Dst: dst, Bytes: piece})
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
// coordinators the bytes destined for their subtrees.
func ScatterHier(t *model.Tree, d Dist) Breakdown {
	b := Breakdown{G: t.G}
	for lvl := t.K(); lvl >= 1; lvl-- {
		b.addLevel(t, lvl, "scatter", func(scope *model.Machine) ([]Flow, []float64) {
			return childFlows(t, scope, false, func(c *model.Machine) int { return subtreeBytes(t, c, d) }), nil
		})
	}
	return b
}

// AllGatherFlat: every processor ends with all n bytes by exchanging
// pieces pairwise in one superstep (the second phase of the two-phase
// broadcast, with per-processor piece sizes from d).
func AllGatherFlat(t *model.Tree, d Dist) Breakdown {
	p := t.NProcs()
	var flows []Flow
	for src := 0; src < p; src++ {
		for dst := 0; dst < p; dst++ {
			if src != dst {
				flows = append(flows, Flow{Src: src, Dst: dst, Bytes: d[src]})
			}
		}
	}
	b := Breakdown{G: t.G}
	b.Add(StepCost(t, t.Root, "super1 allgather", flows, nil))
	return b
}

// OpCost is the per-byte combining cost, on the fastest machine, of the
// library's reduction operators: collective.Sum, Max and Min charge
// 8·OpCost per int64 element. It is the opCost to pass the reduce and
// scan closed forms below when pricing those operators.
const OpCost = 0.05 / 8

// ReduceFlat: every processor sends its d[j]-byte partial value to the
// root, which combines them. opCost is the per-byte combining cost on
// the fastest machine; the root's work is scaled by its compute
// slowdown.
func ReduceFlat(t *model.Tree, rootPid int, d Dist, opCost float64) Breakdown {
	var flows []Flow
	incoming := 0
	for pid, bytes := range d {
		flows = append(flows, Flow{Src: pid, Dst: rootPid, Bytes: bytes})
		if pid != rootPid {
			incoming += bytes
		}
	}
	root := t.Leaf(rootPid)
	work := opCost * float64(incoming) * root.CompSlowdown
	b := Breakdown{G: t.G}
	b.Add(StepCost(t, t.Root, "super1 reduce", flows, []float64{work}))
	return b
}

// ReduceHier combines partial values up the tree: each level-i
// coordinator combines its children's partials (concurrently across
// clusters), so the wire carries only combined values — the win of
// hierarchical reduction over slow upper links.
func ReduceHier(t *model.Tree, d Dist, opCost float64) Breakdown {
	b := Breakdown{G: t.G}
	// For a reduction, every machine's partial has the same width w
	// (the reduced value size); we take w = max leaf piece as the wire
	// unit.
	w := slices.Max(d)
	for lvl := 1; lvl <= t.K(); lvl++ {
		b.addLevel(t, lvl, "reduce", foldLevel(t, w, opCost, true))
	}
	return b
}

// foldLevel prices one cluster's step of a w-byte hierarchical fold: a
// w-byte flow between the coordinators of the scope and of each child,
// up or down, and the scope coordinator's fold of the children's m − 1
// values.
func foldLevel(t *model.Tree, w int, opCost float64, up bool) func(scope *model.Machine) ([]Flow, []float64) {
	return func(scope *model.Machine) ([]Flow, []float64) {
		work := opCost * float64(w*(len(scope.Children)-1)) * scope.Coordinator().CompSlowdown
		return childFlows(t, scope, up, func(*model.Machine) int { return w }), []float64{work}
	}
}

// AllReduceHier is ReduceHier followed by BcastHier of the w-byte result.
func AllReduceHier(t *model.Tree, d Dist, opCost float64) Breakdown {
	b := ReduceHier(t, d, opCost)
	down := BcastHier(t, slices.Max(d), false)
	b.Steps = append(b.Steps, down.Steps...)
	return b
}

// ScanFlat is a prefix-sum over processor pids in two supersteps: all
// processors send their partial to the root, which computes every
// prefix, then scatters prefix j to processor j.
func ScanFlat(t *model.Tree, rootPid int, d Dist, opCost float64) Breakdown {
	up := ReduceFlat(t, rootPid, d, opCost)
	down := ScatterFlat(t, rootPid, d)
	up.Steps = append(up.Steps, down.Steps...)
	return up
}

// AllGatherHierCost composes the hierarchical gather and broadcast:
// every piece crosses each upper link O(1) times.
func AllGatherHierCost(t *model.Tree, d Dist) Breakdown {
	b := GatherHier(t, d)
	down := BcastHier(t, d.Total(), false)
	b.Steps = append(b.Steps, down.Steps...)
	return b
}

// ScanHierCost predicts the two-sweep hierarchical scan of a w-byte
// vector: the upward sweep is shaped like ReduceHier, the downward sweep
// like ScatterHier with one w-byte offset per child.
func ScanHierCost(t *model.Tree, w int, opCost float64) Breakdown {
	d := make(Dist, t.NProcs())
	for i := range d {
		d[i] = w
	}
	b := ReduceHier(t, d, opCost)
	for lvl := t.K(); lvl >= 1; lvl-- {
		b.addLevel(t, lvl, "scan-down", foldLevel(t, w, opCost, false))
	}
	return b
}

// ReduceScatterFlat predicts the one-step reduce-scatter: each processor
// ships one segment per peer and folds p-1 received segments of its own
// size.
func ReduceScatterFlat(t *model.Tree, d Dist, opCost float64) Breakdown {
	p := t.NProcs()
	var flows []Flow
	works := make([]float64, 0, p)
	for src := 0; src < p; src++ {
		for dst := 0; dst < p; dst++ {
			if src != dst {
				flows = append(flows, Flow{Src: src, Dst: dst, Bytes: d[dst]})
			}
		}
	}
	for pid := 0; pid < p; pid++ {
		works = append(works, opCost*float64(d[pid]*(p-1))*t.Leaf(pid).CompSlowdown)
	}
	b := Breakdown{G: t.G}
	b.Add(StepCost(t, t.Root, "super1 reduce-scatter", flows, works))
	return b
}

// TotalExchangeFlat is the all-to-all personalized exchange: processor i
// sends d[j]/p bytes to each j (a balanced matrix whose row sums follow
// d) in one superstep.
func TotalExchangeFlat(t *model.Tree, d Dist) Breakdown {
	p := t.NProcs()
	var flows []Flow
	for src := 0; src < p; src++ {
		per := d[src] / p
		for dst := 0; dst < p; dst++ {
			if src != dst {
				flows = append(flows, Flow{Src: src, Dst: dst, Bytes: per})
			}
		}
	}
	b := Breakdown{G: t.G}
	b.Add(StepCost(t, t.Root, "super1 total-exchange", flows, nil))
	return b
}
