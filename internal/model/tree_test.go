package model

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestSyncDepthCost(t *testing.T) {
	tr := Figure1Cluster()
	// Deepest path: campus (250000) + LAN (25000); leaves cost 0.
	if got := tr.SyncDepthCost(); got != 275000 {
		t.Errorf("sync depth = %v, want 275000", got)
	}
	if got := MustNew(NewLeaf("cpu"), 1).Normalize().SyncDepthCost(); got != 0 {
		t.Errorf("single-processor sync depth = %v, want 0", got)
	}
}

func TestDOTExport(t *testing.T) {
	tr := Figure1Cluster()
	dot := tr.DOT()
	for _, want := range []string{"digraph hbspk", "HBSP^2", "shape=box", "shape=ellipse", "M_{2,0}", "->", "penwidth=2"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q", want)
		}
	}
	// One node line per machine.
	nodes := strings.Count(dot, "shape=")
	total := 0
	tr.Root.Walk(func(*Machine) { total++ })
	if nodes != total {
		t.Errorf("%d node declarations for %d machines", nodes, total)
	}
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

// SpecOf captures an existing tree as a Spec, suitable for re-encoding.
func SpecOf(t *Tree) *Spec {
	var capture func(m *Machine) NodeSpec
	capture = func(m *Machine) NodeSpec {
		n := NodeSpec{
			Name:  m.Name,
			Comm:  m.CommSlowdown,
			Comp:  m.CompSlowdown,
			Sync:  m.SyncCost,
			Share: m.Share,
		}
		for _, c := range m.Children {
			n.Children = append(n.Children, capture(c))
		}
		return n
	}
	return &Spec{G: t.G, Root: capture(t.Root)}
}

// Encode renders the spec as indented JSON, two spaces per level.
func (s *Spec) Encode() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// rankOf returns m's position in the fastest-first ranking, or -1 for a
// non-leaf.
func rankOf(tr *Tree, m *Machine) int {
	for i, l := range tr.RankedLeaves() {
		if l == m {
			return i
		}
	}
	return -1
}
