package bsp

import (
	"fmt"
	"math"
	"testing"

	"hbspk/internal/cost"
	"hbspk/internal/model"
)

func TestOfDropsHeterogeneity(t *testing.T) {
	tr := model.UCFTestbed()
	m := Of(tr)
	if m.P != 10 || m.G != tr.G || m.L != tr.Root.SyncCost {
		t.Errorf("Of = %+v", m)
	}
}

func TestBSPMatchesHBSPOnHomogeneousMachine(t *testing.T) {
	// On a homogeneous machine the HBSP^k cost model must reduce to
	// plain BSP: the h-relation arithmetic agrees for every collective.
	tr := model.Homogeneous(8, 500)
	m := Of(tr)
	n := 80000
	root := 0
	if got, want := m.Gather(n), cost.GatherFlat(tr, root, cost.EqualDist(tr, n)).Total(); math.Abs(got-want) > 1e-9 {
		t.Errorf("gather: bsp %v vs hbsp %v", got, want)
	}
	if got, want := m.BcastOnePhase(n), cost.BcastOnePhaseFlat(tr, root, n).Total(); math.Abs(got-want) > 1e-9 {
		t.Errorf("bcast-1p: bsp %v vs hbsp %v", got, want)
	}
}

func TestBSPTwoPhaseNearHBSPOnHomogeneous(t *testing.T) {
	// The two-phase broadcast differs only by the (p-1)/p self-piece
	// factor; on 8 processors the BSP idealization g·n is within 15%.
	tr := model.Homogeneous(8, 500)
	m := Of(tr)
	n := 80000
	got := m.BcastTwoPhase(n)
	want := cost.BcastTwoPhaseFlat(tr, 0, cost.EqualDist(tr, n)).Total()
	if math.Abs(got-want)/want > 0.15 {
		t.Errorf("bcast-2p: bsp %v vs hbsp %v", got, want)
	}
}

func TestBSPUnderpredictsOnHeterogeneousMachine(t *testing.T) {
	// Pretending a strongly heterogeneous cluster is homogeneous
	// underestimates the two-phase broadcast: the slowest machine's
	// r_s = 3 inflates the exchange phase, which BSP cannot see.
	leaves := make([]*model.Machine, 6)
	for i := range leaves {
		r := 1 + float64(i)*0.4
		leaves[i] = model.NewLeaf(fmt.Sprintf("ws%d", i), model.WithComm(r), model.WithComp(r))
	}
	tr := model.MustNew(model.NewCluster("lan", leaves, model.WithSync(25000)), 1).Normalize()
	m := Of(tr)
	n := 500000
	bspPred := m.BcastTwoPhase(n)
	hbspPred := cost.BcastTwoPhaseFlat(tr, tr.Pid(tr.FastestLeaf()), cost.EqualDist(tr, n)).Total()
	if bspPred >= hbspPred {
		t.Errorf("BSP %v should underpredict HBSP %v on a heterogeneous machine", bspPred, hbspPred)
	}
	if hbspPred/bspPred < 1.1 {
		t.Errorf("gap %vx too small to be the heterogeneity penalty", hbspPred/bspPred)
	}
}

func TestAllGatherPrediction(t *testing.T) {
	m := Machine{P: 10, G: 1, L: 100}
	n := 10000
	if got, want := m.AllGather(n), 9000.0+100; got != want {
		t.Errorf("allgather = %v, want %v", got, want)
	}
}
