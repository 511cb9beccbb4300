package model

import (
	"fmt"
	"math"
	"sort"
)

// Online tree reorganization (DESIGN.md §5.7): the machine tree is the
// model's map of the real hierarchy, and the paper's premise is that
// the map mirrors the territory. In a drifting environment (noisy
// ranks, stragglers, churn) a frozen tree goes stale, so the engines
// fold measured per-step compute times into per-processor EWMA speed
// estimates (Reranker), and at a global barrier — the same consistent
// cut the checkpoint machinery uses — plan and apply a rebalance:
// leaves are permuted across the existing leaf slots (topology shape is
// preserved, EPOS-style: the root triggers, the new parent/children
// assignments propagate down the tree) and workload shares are
// re-derived from the estimates, so w = max_i(share_i · N · comp_i)
// shrinks when a straggler has been over-shared. Everything is a pure
// function of (layout, estimates, seed, epoch), so both engines compute
// identical plans and seeded runs stay reproducible.

// Reranker accumulates measured per-step effective compute slowdowns
// into an EWMA estimate per processor. Samples are in model units
// (static slowdown × transient straggler factor), so the estimate is
// directly comparable with Machine.CompSlowdown. The zero value of a
// slot means "never observed". Not safe for concurrent use; engines
// serialize access.
type Reranker struct {
	est []float64
	n   []int
}

// rerankAlpha is the Reranker's EWMA smoothing factor: fast enough to
// catch a straggler burst within a couple of supersteps.
const rerankAlpha = 0.5

// NewReranker returns a Reranker for nprocs processors.
func NewReranker(nprocs int) *Reranker {
	return &Reranker{est: make([]float64, nprocs), n: make([]int, nprocs)}
}

// Observe folds one measured sample for pid into its estimate.
func (r *Reranker) Observe(pid int, sample float64) {
	if pid < 0 || pid >= len(r.est) || sample <= 0 || math.IsNaN(sample) || math.IsInf(sample, 0) {
		return
	}
	if r.n[pid] == 0 {
		r.est[pid] = sample
	} else {
		r.est[pid] = (1-rerankAlpha)*r.est[pid] + rerankAlpha*sample
	}
	r.n[pid]++
}

// Estimate returns pid's current estimate and whether one exists.
func (r *Reranker) Estimate(pid int) (float64, bool) {
	if pid < 0 || pid >= len(r.est) || r.n[pid] == 0 {
		return 0, false
	}
	return r.est[pid], true
}

// Estimates returns a snapshot of every processor's estimate, 0 for
// never-observed slots — the form PlanReorg consumes.
func (r *Reranker) Estimates() []float64 {
	out := make([]float64, len(r.est))
	for pid := range r.est {
		if r.n[pid] > 0 {
			out[pid] = r.est[pid]
		}
	}
	return out
}

// ReorgPlan is one planned reorganization: a pure function of the
// tree's current layout, the estimates, the seed and the epoch, so
// every engine (and every replay) computes the same plan.
type ReorgPlan struct {
	// Epoch is the 1-based reorganization ordinal within the run.
	Epoch int
	// Seed drove the deterministic tie-breaking.
	Seed int64
	// Slots[i] is the pid assigned to the i-th leaf slot in canonical
	// slot order (see slotOrder).
	Slots []int
	// Shares[pid] is the rebalanced workload share (sums to 1).
	Shares []float64
	// Est[pid] is the effective slowdown the plan ranked pid by: the
	// measured estimate when one exists, the static slowdown otherwise.
	Est []float64
	// Moved counts leaves assigned to a different slot than they
	// currently occupy.
	Moved int
}

// slot is one leaf position of the tree: a parent cluster plus the
// index into its Children. The root itself can be a slot (single-leaf
// tree), flagged by parent == nil.
type slot struct {
	parent *Machine
	child  int
}

// slotOrder enumerates the tree's leaf slots in canonical order:
// depth-first from the root, each cluster contributing its own leaf
// children first (in current position order) and then recursing into
// its cluster children sorted fastest-communication-first (ties by
// sync cost, then current position). Earlier slots are better
// connected, so the plan fills them with the fastest leaves.
func (t *Tree) slotOrder() []slot {
	var out []slot
	var walk func(m *Machine)
	walk = func(m *Machine) {
		var clusters []int
		for i, c := range m.Children {
			if c.IsLeaf() {
				out = append(out, slot{parent: m, child: i})
			} else {
				clusters = append(clusters, i)
			}
		}
		sort.SliceStable(clusters, func(a, b int) bool {
			ca, cb := m.Children[clusters[a]], m.Children[clusters[b]]
			if ca.CommSlowdown != cb.CommSlowdown {
				return ca.CommSlowdown < cb.CommSlowdown
			}
			return ca.SyncCost < cb.SyncCost
		})
		for _, i := range clusters {
			walk(m.Children[i])
		}
	}
	if t.Root.IsLeaf() {
		return []slot{{parent: nil, child: 0}}
	}
	walk(t.Root)
	return out
}

// PlanReorg computes the seeded rebalance of the tree for the given
// estimates (est[pid] == 0 means no measurement; the leaf's static
// slowdown is used). The plan permutes leaves across the existing slots
// fastest-first — preserving the topology's shape — and re-derives
// shares inversely proportional to effective slowdown. Ties in the
// ranking are broken by a splitmix64 hash of (seed, epoch, pid), the
// EPOS-style seeded shuffle that keeps equal-speed machines rotating
// deterministically.
func PlanReorg(t *Tree, est []float64, seed int64, epoch int) *ReorgPlan {
	p := t.NProcs()
	plan := &ReorgPlan{
		Epoch:  epoch,
		Seed:   seed,
		Shares: make([]float64, p),
		Est:    make([]float64, p),
	}
	for pid, l := range t.leaves {
		e := 0.0
		if pid < len(est) {
			e = est[pid]
		}
		if e <= 0 {
			e = l.CompSlowdown
		}
		plan.Est[pid] = e
	}

	// Shares ∝ 1/estimate, renormalized to sum to 1.
	total := 0.0
	for _, e := range plan.Est {
		total += 1 / e
	}
	for pid, e := range plan.Est {
		plan.Shares[pid] = (1 / e) / total
	}

	// Rank pids fastest-first by estimate; seeded hash breaks ties so
	// equal machines don't freeze into their construction order.
	order := make([]int, p)
	for pid := range order {
		order[pid] = pid
	}
	tie := func(pid int) uint64 {
		return reorgMix(uint64(seed) ^ uint64(epoch)<<40 ^ uint64(pid))
	}
	sort.SliceStable(order, func(a, b int) bool {
		pa, pb := order[a], order[b]
		if plan.Est[pa] != plan.Est[pb] {
			return plan.Est[pa] < plan.Est[pb]
		}
		ha, hb := tie(pa), tie(pb)
		if ha != hb {
			return ha < hb
		}
		return pa < pb
	})

	slots := t.slotOrder()
	plan.Slots = make([]int, len(slots))
	for i, s := range slots {
		pid := order[i]
		plan.Slots[i] = pid
		occupant := t.Root
		if s.parent != nil {
			occupant = s.parent.Children[s.child]
		}
		if t.pids[occupant] != pid {
			plan.Moved++
		}
	}
	return plan
}

// Reorganize applies a plan in place: leaves are moved into their
// assigned slots, estimates and rebalanced shares are written onto the
// leaves, cluster slowdowns are re-lifted to their (possibly new)
// coordinators, cluster shares are re-summed, and the tree is
// re-indexed with every pid preserved. The tree remains Validate-clean.
// Machine pointers stay valid — scopes held by running programs keep
// working — which is what makes barrier-time reorganization safe.
func (t *Tree) Reorganize(plan *ReorgPlan) error {
	if len(plan.Slots) != len(t.leaves) || len(plan.Shares) != len(t.leaves) {
		return fmt.Errorf("model: reorg plan covers %d slots for %d leaves", len(plan.Slots), len(t.leaves))
	}
	slots := t.slotOrder()
	if len(slots) != len(plan.Slots) {
		return fmt.Errorf("model: reorg plan has %d slots, tree has %d", len(plan.Slots), len(slots))
	}
	for i, s := range slots {
		leaf := t.leaves[plan.Slots[i]]
		if s.parent == nil {
			continue // single-leaf tree: nothing to move
		}
		s.parent.Children[s.child] = leaf
		leaf.parent = s.parent
	}
	for pid, l := range t.leaves {
		l.EstComp = plan.Est[pid]
		l.Share = plan.Shares[pid]
	}

	// Re-index before anything asks a cluster for its coordinator: that
	// reads the subtree leaves index records, which still describe the
	// layout before the move.
	t.index()

	// Re-lift cluster slowdowns onto the new coordinators and re-sum
	// cluster shares, bottom-up — Normalize's invariant maintenance
	// without touching the leaf-level normalization.
	var lift func(m *Machine) float64
	lift = func(m *Machine) float64 {
		if m.IsLeaf() {
			return m.Share
		}
		s := 0.0
		for _, c := range m.Children {
			s += lift(c)
		}
		m.Share = s
		co := m.Coordinator()
		if m.CommSlowdown < co.CommSlowdown {
			m.CommSlowdown = co.CommSlowdown
		}
		if m.CompSlowdown < co.CompSlowdown {
			m.CompSlowdown = co.CompSlowdown
		}
		return s
	}
	lift(t.Root)
	t.invalidateRank() // the lift rewrote cluster parameters the fingerprint covers
	return nil
}

// reorgMix is the splitmix64 finalizer, the plan's tie-break hash.
func reorgMix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// TreeLayout is a snapshot of everything a reorganization can change:
// child order and the per-machine parameters. RunSchedules uses it to
// restore the pristine layout before each replay, so exploration under
// reorg stays a pure function of the seed.
type TreeLayout struct {
	children map[*Machine][]*Machine
	params   map[*Machine]layoutParams
}

type layoutParams struct {
	comm, comp, est, share float64
}

// SaveLayout captures the tree's current layout and parameters.
func (t *Tree) SaveLayout() *TreeLayout {
	l := &TreeLayout{
		children: make(map[*Machine][]*Machine),
		params:   make(map[*Machine]layoutParams),
	}
	t.Root.Walk(func(m *Machine) {
		if !m.IsLeaf() {
			l.children[m] = append([]*Machine(nil), m.Children...)
		}
		l.params[m] = layoutParams{
			comm: m.CommSlowdown, comp: m.CompSlowdown, est: m.EstComp, share: m.Share,
		}
	})
	return l
}

// RestoreLayout puts a SaveLayout snapshot back: child order and
// parameters are rewritten and the tree re-indexed (pids preserved —
// the leaf set cannot have changed).
func (t *Tree) RestoreLayout(l *TreeLayout) {
	for m, kids := range l.children {
		copy(m.Children, kids)
	}
	t.Root.Walk(func(m *Machine) {
		p, ok := l.params[m]
		if !ok {
			return
		}
		m.CommSlowdown, m.CompSlowdown, m.EstComp, m.Share = p.comm, p.comp, p.est, p.share
		for _, c := range m.Children {
			c.parent = m
		}
	})
	t.index()
}
