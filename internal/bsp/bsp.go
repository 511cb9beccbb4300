// Package bsp is the homogeneous baseline: Valiant's plain BSP cost
// model (§2, reference [19]), which the paper generalizes. It predicts
// collective costs while ignoring heterogeneity — every processor is
// assumed as fast as the fastest — and so quantifies what the HBSP^k
// model adds: the gap between a BSP prediction and the heterogeneous
// machine's actual (simulated) behaviour is the cost of pretending a
// heterogeneous cluster is uniform.
package bsp

import (
	"hbspk/internal/model"
)

// Machine is a plain BSP machine: p identical processors, bandwidth g,
// barrier cost L.
type Machine struct {
	P int
	G float64
	L float64
}

// Of views a heterogeneous tree as BSP by dropping every r and taking
// the root's sync cost: the prediction a BSP programmer would make for
// the same cluster.
func Of(t *model.Tree) Machine {
	return Machine{P: t.NProcs(), G: t.G, L: t.Root.SyncCost}
}

// StepTime is the BSP superstep cost w + g·h + L.
func (m Machine) StepTime(w, h float64) float64 { return w + m.G*h + m.L }

// Gather predicts the cost of gathering n bytes at one processor:
// the root receives n(p-1)/p bytes (equal pieces, no self-send), so
// h = n(p-1)/p.
func (m Machine) Gather(n int) float64 {
	h := float64(n) * float64(m.P-1) / float64(m.P)
	return m.StepTime(0, h)
}

// BcastOnePhase predicts the one-phase broadcast: the root sends n bytes
// to each of the other p-1 processors.
func (m Machine) BcastOnePhase(n int) float64 {
	return m.StepTime(0, float64(n)*float64(m.P-1))
}

// BcastTwoPhase predicts the two-phase broadcast of Juurlink & Wijshoff
// (reference [11]): scatter h = n, then all-gather h = n, two barriers.
// On a homogeneous machine this is the paper's g·n·(1 + r_s) + 2L with
// r_s = 1.
func (m Machine) BcastTwoPhase(n int) float64 {
	return m.StepTime(0, float64(n)) + m.StepTime(0, float64(n))
}

// AllGather predicts the all-gather with equal pieces: every processor
// sends its n/p piece to p-1 peers and receives n(p-1)/p.
func (m Machine) AllGather(n int) float64 {
	h := float64(n) * float64(m.P-1) / float64(m.P)
	return m.StepTime(0, h)
}
