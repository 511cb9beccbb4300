package model

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Tolerance for floating-point invariant checks (share sums, unit
// normalization of the fastest machine).
const eps = 1e-9

// Tree is a complete HBSP^k machine: the root machine plus the global
// bandwidth indicator g. Construct one with New, which assigns the
// M_{i,j} level/index labels.
type Tree struct {
	// Root is the HBSP^k machine at level K.
	Root *Machine

	// G is the bandwidth indicator g: the cost per unit message for the
	// fastest machine to inject packets into the network.
	G float64

	k      int
	levels [][]*Machine // levels[i] holds the HBSP^i machines, by Index
	leaves []*Machine   // all processors, by pid
	pids   map[*Machine]int

	// Memoized fastest-first ranking (RankedLeaves/Rank), rebuilt lazily
	// under rankMu — programs query ranks concurrently on the Concurrent
	// engine — and invalidated whenever the parameters feeding the
	// ordering can have changed (index, Normalize, Reorganize,
	// RestoreLayout).
	rankMu sync.Mutex
	ranked []*Machine
	rankOf map[*Machine]int

	// Memoized Fingerprint: computed under rankMu and invalidated
	// together with the ranking (both are pure functions of the same
	// tree state), but read lock-free — the planner's decision-cache
	// hit path loads it on every collective dispatch, so a warm read
	// must not contend on the mutex. fpOK is the publication flag:
	// stored last (release) after fp, loaded first (acquire) by
	// readers.
	fp   atomic.Uint64
	fpOK atomic.Bool
}

// New builds a Tree from a machine hierarchy and bandwidth indicator g,
// assigning levels (level of node x is k - depth(x), §3.1) and per-level
// indexes, and wiring parent pointers. The input hierarchy is not
// modified; the returned tree owns a deep copy. New returns an error if
// g is not positive or the hierarchy is empty.
func New(root *Machine, g float64) (*Tree, error) {
	if root == nil {
		return nil, errors.New("model: nil root machine")
	}
	if g <= 0 || math.IsNaN(g) || math.IsInf(g, 0) {
		return nil, fmt.Errorf("model: bandwidth indicator g must be positive and finite, got %v", g)
	}
	t := &Tree{Root: root.clone(), G: g}
	t.index()
	return t, nil
}

// MustNew is New for statically known configurations; it panics on error.
func MustNew(root *Machine, g float64) *Tree {
	t, err := New(root, g)
	if err != nil {
		panic(err)
	}
	return t
}

// index assigns Level and Index to every machine, rebuilds the level
// and leaf tables and records every machine's scope facts. It is called
// by New and Clone and after every reorganization or layout restore —
// the only places structure changes. When the leaf set is unchanged the
// existing pid assignment is preserved — a reorganization moves
// processors around the tree without renaming them, so programs keep
// routing by pid — otherwise pids are assigned fresh in left-to-right
// tree order.
func (t *Tree) index() {
	t.k = t.Root.Height()
	t.levels = make([][]*Machine, t.k+1)
	var walked []*Machine
	var walk func(m *Machine, depth int)
	walk = func(m *Machine, depth int) {
		lvl := t.k - depth
		m.Level = lvl
		m.Index = len(t.levels[lvl])
		t.levels[lvl] = append(t.levels[lvl], m)
		if m.IsLeaf() {
			walked = append(walked, m)
		}
		for _, c := range m.Children {
			c.parent = m
			walk(c, depth+1)
		}
	}
	t.Root.parent = nil
	walk(t.Root, 0)

	same := len(t.pids) == len(walked)
	for _, l := range walked {
		if _, ok := t.pids[l]; !ok {
			same = false
			break
		}
	}
	if !same {
		t.pids = make(map[*Machine]int, len(walked))
		for pid, l := range walked {
			t.pids[l] = pid
		}
	}
	t.leaves = make([]*Machine, len(walked))
	for _, l := range walked {
		t.leaves[t.pids[l]] = l
	}

	// A subtree's leaves are contiguous in the walk, so every machine's
	// record is a window of it; record returns where m's window ends.
	var record func(m *Machine, lo int) int
	record = func(m *Machine, lo int) int {
		hi := lo
		if m.IsLeaf() {
			hi++
		}
		for _, c := range m.Children {
			hi = record(c, hi)
		}
		pids := make([]int, 0, hi-lo)
		for _, l := range walked[lo:hi] {
			pids = append(pids, t.pids[l])
		}
		sort.Ints(pids)
		m.facts = scopeFacts{fmt.Sprintf("M_{%d,%d}", m.Level, m.Index), walked[lo:hi:hi], pids}
		return hi
	}
	record(t.Root, 0)
	t.invalidateRank()
}

// invalidateRank drops the memoized ranking and fingerprint; the next
// RankedLeaves, Rank or Fingerprint call rebuilds them.
func (t *Tree) invalidateRank() {
	t.rankMu.Lock()
	t.ranked, t.rankOf = nil, nil
	t.fpOK.Store(false)
	t.rankMu.Unlock()
}

// K returns the height k of the machine tree: the number of distinct
// communication levels. K is 0 for a single processor.
func (t *Tree) K() int { return t.k }

// MachinesAt returns the HBSP^i machines at level i (m_i of them), in
// index order. It returns nil for levels outside [0, K].
func (t *Tree) MachinesAt(i int) []*Machine {
	if i < 0 || i > t.k {
		return nil
	}
	return t.levels[i]
}

// M returns m_i, the number of HBSP^i machines on level i.
func (t *Tree) M(i int) int { return len(t.MachinesAt(i)) }

// Lookup returns machine M_{i,j}, or nil if no such machine exists.
func (t *Tree) Lookup(i, j int) *Machine {
	ms := t.MachinesAt(i)
	if j < 0 || j >= len(ms) {
		return nil
	}
	return ms[j]
}

// Leaves returns every processor of the machine, by pid: the position
// of a leaf in this slice is its processor id. On a freshly built tree
// pid order coincides with left-to-right tree order; after a
// reorganization pids stay put while the leaves move, so this slice is
// no longer tree order (Machine.Leaves still is).
func (t *Tree) Leaves() []*Machine { return t.leaves }

// NProcs returns the number of processors (leaves).
func (t *Tree) NProcs() int { return len(t.leaves) }

// Pid returns the processor id of a leaf, or -1 if the machine is not a
// leaf of this tree.
func (t *Tree) Pid(m *Machine) int {
	pid, ok := t.pids[m]
	if !ok {
		return -1
	}
	return pid
}

// Leaf returns the processor with the given pid.
func (t *Tree) Leaf(pid int) *Machine {
	if pid < 0 || pid >= len(t.leaves) {
		return nil
	}
	return t.leaves[pid]
}

// ScopeAt returns the ancestor of the leaf sitting at exactly the given
// level (possibly the leaf itself), or nil if the leaf's ancestor chain
// skips that level — a childless machine attached high in the tree, like
// the paper's lone SGI workstation at level 1, has no level-0 scope.
func (t *Tree) ScopeAt(leaf *Machine, level int) *Machine {
	for m := leaf; m != nil; m = m.Parent() {
		if m.Level == level {
			return m
		}
		if m.Level > level {
			return nil
		}
	}
	return nil
}

// FastestLeaf returns the coordinator of the whole machine: the fastest
// processor, which the paper designates as the root's representative
// (r_{k,0} = 1).
func (t *Tree) FastestLeaf() *Machine { return t.Root.Coordinator() }

// SlowestLeaf returns the processor with the largest communication
// slowdown (ties broken by compute slowdown, then by pid order).
func (t *Tree) SlowestLeaf() *Machine {
	worst := t.leaves[0]
	for _, l := range t.leaves[1:] {
		if l.CommSlowdown > worst.CommSlowdown ||
			(l.CommSlowdown == worst.CommSlowdown && l.CompSlowdown > worst.CompSlowdown) {
			worst = l
		}
	}
	return worst
}

// RankedLeaves returns the processors ordered fastest-first by
// effective compute slowdown (the declared speeds standing in for §5.1's
// BYTEmark ranking, updated by measured estimates after a
// reorganization). The result is memoized —
// callers must treat it as read-only — and invalidated whenever the
// tree is re-indexed, normalized or reorganized.
func (t *Tree) RankedLeaves() []*Machine {
	t.rankMu.Lock()
	defer t.rankMu.Unlock()
	t.fillRankLocked()
	return t.ranked
}

// Rank returns the position of the leaf in the fastest-first compute
// ranking (0 = fastest), or -1 for a non-leaf.
func (t *Tree) Rank(m *Machine) int {
	if _, ok := t.pids[m]; !ok {
		return -1
	}
	t.rankMu.Lock()
	defer t.rankMu.Unlock()
	t.fillRankLocked()
	return t.rankOf[m]
}

// fillRankLocked rebuilds the memoized ranking if it was invalidated.
// Caller holds rankMu.
func (t *Tree) fillRankLocked() {
	if t.ranked != nil {
		return
	}
	t.ranked = sortLeavesBySpeed(t.leaves)
	t.rankOf = make(map[*Machine]int, len(t.ranked))
	for i, l := range t.ranked {
		t.rankOf[l] = i
	}
}

// Subtree extracts the machine rooted at M_{i,j} as an independent,
// normalized Tree with the same g: the view an HBSP^i cluster has of
// itself when running its own super-steps. The original tree is not
// modified.
func (t *Tree) Subtree(i, j int) (*Tree, error) {
	m := t.Lookup(i, j)
	if m == nil {
		return nil, fmt.Errorf("model: no machine M_{%d,%d}", i, j)
	}
	sub, err := New(m, t.G)
	if err != nil {
		return nil, err
	}
	return sub.Normalize(), nil
}

// Clone returns a deep copy of the tree, preserving the pid assignment
// (a clone of a reorganized tree keeps every processor's id even though
// pid order no longer matches tree order).
func (t *Tree) Clone() *Tree {
	m2c := make(map[*Machine]*Machine)
	c := &Tree{Root: t.Root.cloneInto(m2c), G: t.G}
	c.pids = make(map[*Machine]int, len(t.pids))
	for m, pid := range t.pids {
		c.pids[m2c[m]] = pid
	}
	c.index()
	return c
}

// Normalize rewrites the tree's parameters so that the model invariants
// hold, returning the tree for chaining:
//
//   - communication slowdowns are divided by the smallest leaf slowdown
//     so the fastest machine has r = 1 (§3.3),
//   - compute slowdowns are likewise normalized to the fastest,
//   - every cluster inherits the communication slowdown of its
//     coordinator leaf unless it already carries a strictly larger value
//     (a slower inter-cluster network must not be erased),
//   - leaf shares are rescaled to sum to 1 — leaves with no share are
//     first given one inversely proportional to their compute slowdown,
//     the paper's balanced-workload rule — and each cluster's share
//     becomes the sum of its children's.
func (t *Tree) Normalize() *Tree {
	minComm, minComp := math.Inf(1), math.Inf(1)
	for _, l := range t.leaves {
		minComm = math.Min(minComm, l.CommSlowdown)
		minComp = math.Min(minComp, l.CompSlowdown)
	}
	if minComm > 0 && minComm != 1 {
		t.Root.Walk(func(m *Machine) { m.CommSlowdown /= minComm })
	}
	if minComp > 0 && minComp != 1 {
		t.Root.Walk(func(m *Machine) { m.CompSlowdown /= minComp })
	}

	var lift func(m *Machine)
	lift = func(m *Machine) {
		for _, c := range m.Children {
			lift(c)
		}
		if !m.IsLeaf() {
			co := m.Coordinator()
			if m.CommSlowdown < co.CommSlowdown {
				m.CommSlowdown = co.CommSlowdown
			}
			if m.CompSlowdown < co.CompSlowdown {
				m.CompSlowdown = co.CompSlowdown
			}
		}
	}
	lift(t.Root)

	total := 0.0
	for _, l := range t.leaves {
		if l.Share <= 0 {
			l.Share = 1 / l.CompSlowdown
		}
		total += l.Share
	}
	if total > 0 && math.Abs(total-1) > 1e-12 {
		for _, l := range t.leaves {
			l.Share /= total
		}
	}
	var sum func(m *Machine) float64
	sum = func(m *Machine) float64 {
		if m.IsLeaf() {
			return m.Share
		}
		s := 0.0
		for _, c := range m.Children {
			s += sum(c)
		}
		m.Share = s
		return s
	}
	sum(t.Root)
	t.invalidateRank()
	return t
}

// Validate checks the model invariants and returns a descriptive error
// for the first violation found: positive finite parameters, fastest
// machine normalized to r = 1, cluster slowdowns at least as large as
// their coordinator's, leaf shares summing to 1, and cluster shares
// equal to the sum of their children's.
func (t *Tree) Validate() error {
	if t.G <= 0 {
		return fmt.Errorf("model: g = %v, want > 0", t.G)
	}
	minComm := math.Inf(1)
	var err error
	t.Root.Walk(func(m *Machine) {
		if err != nil {
			return
		}
		switch {
		case m.CommSlowdown <= 0 || math.IsNaN(m.CommSlowdown) || math.IsInf(m.CommSlowdown, 0):
			err = fmt.Errorf("model: %s %q has invalid r = %v", m.Label(), m.Name, m.CommSlowdown)
		case m.CompSlowdown <= 0 || math.IsNaN(m.CompSlowdown) || math.IsInf(m.CompSlowdown, 0):
			err = fmt.Errorf("model: %s %q has invalid compute slowdown %v", m.Label(), m.Name, m.CompSlowdown)
		case m.SyncCost < 0 || math.IsNaN(m.SyncCost):
			err = fmt.Errorf("model: %s %q has invalid L = %v", m.Label(), m.Name, m.SyncCost)
		case m.Share < 0 || m.Share > 1+eps:
			err = fmt.Errorf("model: %s %q has invalid c = %v", m.Label(), m.Name, m.Share)
		}
		if m.IsLeaf() && m.CommSlowdown < minComm {
			minComm = m.CommSlowdown
		}
	})
	if err != nil {
		return err
	}
	if math.Abs(minComm-1) > eps {
		return fmt.Errorf("model: fastest machine has r = %v, want 1 (call Normalize)", minComm)
	}
	t.Root.Walk(func(m *Machine) {
		if err != nil || m.IsLeaf() {
			return
		}
		if co := m.Coordinator(); m.CommSlowdown < co.CommSlowdown-eps {
			err = fmt.Errorf("model: cluster %s has r = %v faster than its coordinator's %v",
				m.Label(), m.CommSlowdown, co.CommSlowdown)
			return
		}
		s := 0.0
		for _, c := range m.Children {
			s += c.Share
		}
		if math.Abs(s-m.Share) > 1e-6 {
			err = fmt.Errorf("model: cluster %s share %v != children sum %v", m.Label(), m.Share, s)
		}
	})
	if err != nil {
		return err
	}
	total := 0.0
	for _, l := range t.leaves {
		total += l.Share
	}
	if math.Abs(total-1) > 1e-6 {
		return fmt.Errorf("model: leaf shares sum to %v, want 1 (call Normalize)", total)
	}
	return nil
}

// String renders the tree in ASCII with one line per machine.
func (t *Tree) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "HBSP^%d machine, g=%.3g, %d processors\n", t.k, t.G, t.NProcs())
	t.Root.render(&b, "", true)
	return b.String()
}
