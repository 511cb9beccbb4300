// Package model defines the machine representation of the HBSP^k model:
// a tree of heterogeneous machines (Williams & Parsons, IPPS 2001, §3.1)
// together with the model parameters of Table 1.
//
// An HBSP^k machine is a tree T = (V, E) of height k. Each node of T is
// itself a heterogeneous machine: the root is an HBSP^k machine, nodes at
// level i are HBSP^i machines, and the leaves are the individual
// processors that execute programs. Machines at level i are labeled
// M_{i,0}, M_{i,1}, ..., M_{i,m_i-1}.
//
// The model parameters carried by each node are
//
//	r_{i,j}  relative speed at which M_{i,j} injects packets into the
//	         network (fastest machine has r = 1, larger is slower)
//	L_{i,j}  overhead to barrier-synchronize the machines in the subtree
//	         of M_{i,j}
//	c_{i,j}  fraction of the problem size M_{i,j} receives
//
// and the tree carries the single bandwidth indicator g. The paper folds
// computational speed into the processor ranking produced by the
// BYTEmark benchmark; this package keeps a separate, declared compute
// slowdown per machine, so that the c_{i,j} estimation error observed in
// the paper's Figure 3(b) (compute rank used as a proxy for
// communication ability) can be reproduced faithfully.
package model

import (
	"fmt"
	"sort"
	"strings"
)

// Machine is one node of an HBSP^k tree. A Machine with no children is a
// processor (an HBSP^0 machine, or a degenerate higher-level machine such
// as the lone SGI workstation at level 1 of the paper's Figure 2). A
// Machine with children is a cluster whose representative during
// inter-cluster communication is its coordinator leaf.
type Machine struct {
	// Name identifies the machine in traces and rendered trees.
	Name string

	// Level is i in M_{i,j}: k minus the depth of the node. It is
	// assigned by New and is 0 for the deepest leaves.
	Level int

	// Index is j in M_{i,j}: the position of the machine among all
	// machines of its level, in left-to-right tree order. Assigned by
	// New.
	Index int

	// CommSlowdown is r_{i,j}: how many times slower than the fastest
	// machine this machine injects packets into the network. The
	// fastest machine has CommSlowdown 1.
	CommSlowdown float64

	// CompSlowdown is the relative computational slowness (1 = fastest),
	// declared in place of the paper's BYTEmark ranking. Figure 3(b)'s
	// shares estimate it under a seeded draw of estimation error, as the
	// paper's BYTEmark ranking gives.
	CompSlowdown float64

	// EstComp is the measured effective compute slowdown of the machine,
	// folded in from runtime attribution by the reorganization subsystem
	// (see Reranker). Zero means "no estimate": the machine is ranked by
	// its static CompSlowdown. When set, ranking, coordinator tie-breaks
	// and reorganized share assignment use it instead, so the tree tracks
	// the drifting environment; the static CompSlowdown keeps charging
	// the physics (a straggling machine still computes slowly whether or
	// not the tree has noticed).
	EstComp float64

	// SyncCost is L_{i,j}: the overhead of a barrier synchronization of
	// the machines in this machine's subtree. It is meaningful for
	// clusters; for leaves it is zero.
	SyncCost float64

	// Share is c_{i,j}: the fraction of the problem size this machine
	// receives under balanced workloads. For clusters it is the sum of
	// the children's shares. Normalize recomputes cluster shares and
	// rescales leaf shares to sum to 1.
	Share float64

	// Children are the HBSP^(i-1) machines composing this cluster; nil
	// for processors.
	Children []*Machine

	parent *Machine
	facts  scopeFacts
}

// scopeFacts is what Tree.index records about a machine's place in its
// tree, so that the per-superstep questions — who is under this scope,
// what is it called — are reads, not walks. index runs wherever structure
// changes and re-records every machine; the slices are shared, read-only.
// A machine outside a tree has the zero value and answers by walking.
type scopeFacts struct {
	label  string
	leaves []*Machine // subtree leaves, left to right
	pids   []int      // their pids, ascending
}

// Option configures a Machine built by NewLeaf or NewCluster.
type Option func(*Machine)

// WithComm sets the machine's r_{i,j} communication slowdown.
func WithComm(r float64) Option { return func(m *Machine) { m.CommSlowdown = r } }

// WithComp sets the machine's relative computational slowdown.
func WithComp(s float64) Option { return func(m *Machine) { m.CompSlowdown = s } }

// WithSync sets the machine's L_{i,j} barrier synchronization overhead.
func WithSync(l float64) Option { return func(m *Machine) { m.SyncCost = l } }

// WithShare sets the machine's c_{i,j} workload share.
func WithShare(c float64) Option { return func(m *Machine) { m.Share = c } }

// NewLeaf returns a processor with communication and compute slowdowns
// of 1 unless overridden by options.
func NewLeaf(name string, opts ...Option) *Machine {
	m := &Machine{Name: name, CommSlowdown: 1, CompSlowdown: 1}
	for _, o := range opts {
		o(m)
	}
	return m
}

// NewCluster returns a machine composed of the given children. Its
// slowdowns default to 1 (they are usually set explicitly to model the
// slower inter-cluster network, or inherited from the coordinator by
// Normalize).
func NewCluster(name string, children []*Machine, opts ...Option) *Machine {
	m := &Machine{Name: name, CommSlowdown: 1, CompSlowdown: 1, Children: children}
	for _, o := range opts {
		o(m)
	}
	return m
}

// IsLeaf reports whether the machine is a processor (an HBSP^0 machine
// or a childless higher-level machine that acts as one).
func (m *Machine) IsLeaf() bool { return len(m.Children) == 0 }

// EffComp is the compute slowdown used for ranking decisions: the
// measured EstComp when one has been folded in, the static CompSlowdown
// otherwise. Cost charging always uses CompSlowdown.
func (m *Machine) EffComp() float64 {
	if m.EstComp > 0 {
		return m.EstComp
	}
	return m.CompSlowdown
}

// Parent returns the enclosing cluster, or nil for the root.
func (m *Machine) Parent() *Machine { return m.parent }

// Fanout returns m_{i,j}, the number of children of the machine.
func (m *Machine) Fanout() int { return len(m.Children) }

// Label returns the M_{i,j} label of the machine.
func (m *Machine) Label() string {
	if m.facts.label != "" {
		return m.facts.label
	}
	return fmt.Sprintf("M_{%d,%d}", m.Level, m.Index)
}

// Height returns the height of the subtree rooted at m (0 for a leaf).
func (m *Machine) Height() int {
	h := 0
	for _, c := range m.Children {
		if ch := c.Height() + 1; ch > h {
			h = ch
		}
	}
	return h
}

// Leaves returns the processors of the subtree rooted at m, in
// left-to-right order. A childless machine is its own only leaf. Inside
// a Tree the result is the tree's record: shared, read-only.
func (m *Machine) Leaves() []*Machine {
	if m.facts.leaves != nil {
		return m.facts.leaves
	}
	if m.IsLeaf() {
		return []*Machine{m}
	}
	var out []*Machine
	for _, c := range m.Children {
		out = append(out, c.Leaves()...)
	}
	return out
}

// Pids returns the processor ids of the subtree's leaves in ascending
// order — the members of the scope m — as the tree recorded them: shared,
// read-only, and nil for a machine outside a Tree, which has no pids.
func (m *Machine) Pids() []int { return m.facts.pids }

// Walk visits the subtree rooted at m in preorder.
func (m *Machine) Walk(visit func(*Machine)) {
	visit(m)
	for _, c := range m.Children {
		c.Walk(visit)
	}
}

// Coordinator returns the representative leaf of the machine's subtree:
// the fastest leaf, following the paper's guidance that a coordinator
// "may represent the fastest machine in their subtree". Ties are broken
// by compute slowdown, then by tree order. For a leaf it returns the
// machine itself.
func (m *Machine) Coordinator() *Machine { return m.CoordinatorAmong(nil) }

// CoordinatorAmong returns the coordinator restricted to leaves for
// which alive returns true (nil means all leaves) — the re-election
// rule when machines fail: the fastest *live* machine of the subtree,
// by the same fastest-in-subtree ordering as Coordinator. It returns
// nil when no leaf is alive.
func (m *Machine) CoordinatorAmong(alive func(*Machine) bool) *Machine {
	if m.IsLeaf() {
		if alive == nil || alive(m) {
			return m
		}
		return nil
	}
	var best *Machine
	for _, l := range m.Leaves() {
		if alive != nil && !alive(l) {
			continue
		}
		if best == nil ||
			l.CommSlowdown < best.CommSlowdown ||
			(l.CommSlowdown == best.CommSlowdown && l.EffComp() < best.EffComp()) {
			best = l
		}
	}
	return best
}

// clone deep-copies the subtree rooted at m. Parent pointers within the
// copy are rebuilt; the copy's parent is nil.
func (m *Machine) clone() *Machine { return m.cloneInto(nil) }

// cloneInto is clone recording the original→copy mapping when dst is
// non-nil, so callers that must preserve identity-keyed state (pid
// assignments of a reorganized tree) can translate it.
func (m *Machine) cloneInto(dst map[*Machine]*Machine) *Machine {
	c := *m
	c.parent = nil
	c.facts = scopeFacts{} // the original's record names the original's leaves
	c.Children = make([]*Machine, len(m.Children))
	for i, ch := range m.Children {
		cc := ch.cloneInto(dst)
		cc.parent = &c
		c.Children[i] = cc
	}
	if dst != nil {
		dst[m] = &c
	}
	return &c
}

// render writes an ASCII rendering of the subtree.
func (m *Machine) render(b *strings.Builder, prefix string, last bool) {
	connector := "├─ "
	childPrefix := prefix + "│  "
	if last {
		connector = "└─ "
		childPrefix = prefix + "   "
	}
	if m.parent == nil {
		connector, childPrefix = "", prefix
	}
	fmt.Fprintf(b, "%s%s%s %s r=%.3g s=%.3g L=%.3g c=%.3g\n",
		prefix, connector, m.Label(), m.Name,
		m.CommSlowdown, m.CompSlowdown, m.SyncCost, m.Share)
	for i, c := range m.Children {
		c.render(b, childPrefix, i == len(m.Children)-1)
	}
}

// sortLeavesBySpeed returns the given leaves ordered fastest-first by
// effective compute slowdown (measured estimate when present, static
// otherwise), breaking ties by communication slowdown then index.
func sortLeavesBySpeed(leaves []*Machine) []*Machine {
	out := append([]*Machine(nil), leaves...)
	sort.SliceStable(out, func(a, b int) bool {
		la, lb := out[a], out[b]
		if la.EffComp() != lb.EffComp() {
			return la.EffComp() < lb.EffComp()
		}
		return la.CommSlowdown < lb.CommSlowdown
	})
	return out
}
