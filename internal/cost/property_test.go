package cost

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hbspk/internal/model"
)

// randomFlows builds a reproducible flow set on a tree.
func randomFlows(rng *rand.Rand, p, count int) []Flow {
	flows := make([]Flow, count)
	for i := range flows {
		flows[i] = Flow{Src: rng.Intn(p), Dst: rng.Intn(p), Bytes: rng.Intn(10000)}
	}
	return flows
}

// Property: h is monotone in message sizes — growing any flow cannot
// shrink the h-relation.
func TestPropertyHMonotoneInBytes(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := model.RandomTree(rng, 2, 4)
		flows := randomFlows(rng, tr.NProcs(), 8)
		h1 := HRelationRated(tr, tr.Root, flows, nil)
		grown := append([]Flow(nil), flows...)
		i := rng.Intn(len(grown))
		grown[i].Bytes += 1 + rng.Intn(5000)
		h2 := HRelationRated(tr, tr.Root, grown, nil)
		return h2 >= h1-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Property: h is subadditive over flow sets: h(A ∪ B) ≤ h(A) + h(B),
// and superadditive against each part: h(A ∪ B) ≥ max(h(A), h(B)).
func TestPropertyHSubadditive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := model.RandomTree(rng, 2, 4)
		a := randomFlows(rng, tr.NProcs(), 5)
		b := randomFlows(rng, tr.NProcs(), 5)
		ha := HRelationRated(tr, tr.Root, a, nil)
		hb := HRelationRated(tr, tr.Root, b, nil)
		hab := HRelationRated(tr, tr.Root, append(append([]Flow(nil), a...), b...), nil)
		if hab > ha+hb+1e-9 {
			return false
		}
		return hab >= ha-1e-9 && hab >= hb-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Property: scaling every flow by a constant scales h by the same
// constant (h is 1-homogeneous in bytes).
func TestPropertyHHomogeneous(t *testing.T) {
	f := func(seed int64, mulRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		mul := int(mulRaw%7) + 2
		tr := model.RandomTree(rng, 2, 4)
		flows := randomFlows(rng, tr.NProcs(), 6)
		h1 := HRelationRated(tr, tr.Root, flows, nil)
		scaled := make([]Flow, len(flows))
		for i, fl := range flows {
			fl.Bytes *= mul
			scaled[i] = fl
		}
		h2 := HRelationRated(tr, tr.Root, scaled, nil)
		diff := h2 - float64(mul)*h1
		return diff < 1e-6 && diff > -1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Property: improvement factors are invariant to scaling g — only
// absolute times change when the wire gets uniformly faster, provided
// the sync costs scale along (the paper's ratios are unit-free).
func TestPropertyImprovementInvariantToUnits(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := model.UCFTestbedN(2 + rng.Intn(8))
		n := 10000 + rng.Intn(500000)
		d := EqualDist(tr, n)
		fast, slow := tr.Pid(tr.FastestLeaf()), tr.Pid(tr.SlowestLeaf())
		ratio1 := GatherFlat(tr, slow, d).Total() / GatherFlat(tr, fast, d).Total()

		scaled := model.UCFTestbedN(tr.NProcs())
		scaled.G *= 3
		scaled.Root.Walk(func(m *model.Machine) { m.SyncCost *= 3 })
		ratio2 := GatherFlat(scaled, slow, d).Total() / GatherFlat(scaled, fast, d).Total()
		return ratio2-ratio1 < 1e-9 && ratio1-ratio2 < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: gather cost is minimized (among all root choices) by some
// root whose cost matches rooting at the fastest machine, when
// distributions are balanced — the §4.1 coordinator principle.
func TestPropertyFastestRootOptimalBalanced(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := model.UCFTestbedN(2 + rng.Intn(8))
		n := 50000 + rng.Intn(200000)
		d := BalancedDist(tr, n)
		best := 0
		bestT := GatherFlat(tr, 0, d).Total()
		for pid := 1; pid < tr.NProcs(); pid++ {
			if v := GatherFlat(tr, pid, d).Total(); v < bestT {
				best, bestT = pid, v
			}
		}
		fastT := GatherFlat(tr, tr.Pid(tr.FastestLeaf()), d).Total()
		_ = best
		return fastT <= bestT+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: every collective's cost is monotone in n.
func TestPropertyCostsMonotoneInN(t *testing.T) {
	tr := model.Figure1Cluster()
	root := tr.Pid(tr.FastestLeaf())
	kinds := []func(n int) float64{
		func(n int) float64 { return GatherFlat(tr, root, BalancedDist(tr, n)).Total() },
		func(n int) float64 { return GatherHier(tr, BalancedDist(tr, n)).Total() },
		func(n int) float64 { return BcastOnePhaseFlat(tr, root, n).Total() },
		func(n int) float64 { return BcastTwoPhaseFlat(tr, root, EqualDist(tr, n)).Total() },
		func(n int) float64 { return BcastHier(tr, n, false).Total() },
		func(n int) float64 { return AllGatherFlat(tr, EqualDist(tr, n)).Total() },
		func(n int) float64 { return AllGatherHierCost(tr, EqualDist(tr, n)).Total() },
		func(n int) float64 { return ReduceFlat(tr, root, EqualDist(tr, n), 0.05).Total() },
		func(n int) float64 { return ReduceHier(tr, EqualDist(tr, n), 0.05).Total() },
		func(n int) float64 { return ReduceScatterFlat(tr, EqualDist(tr, n), 0.05).Total() },
		func(n int) float64 { return ScanFlat(tr, root, EqualDist(tr, n), 0.05).Total() },
		func(n int) float64 { return ScanHierCost(tr, n/tr.NProcs()+1, 0.05).Total() },
		func(n int) float64 { return TotalExchangeFlat(tr, EqualDist(tr, n)).Total() },
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n1 := 1000 + rng.Intn(400000)
		n2 := n1 + 1000 + rng.Intn(400000)
		k := rng.Intn(len(kinds))
		return kinds[k](n2) >= kinds[k](n1)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: rated h-relations dominate unrated ones when all factors are
// at least 1, and equal them when the table is empty.
func TestPropertyRatedHDominates(t *testing.T) {
	f := func(seed int64, factRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := model.RandomTree(rng, 2, 4)
		flows := randomFlows(rng, tr.NProcs(), 6)
		rt := model.NewRateTable().Set("*", tr.Root.Name, 1+float64(factRaw%10))
		base := HRelationRated(tr, tr.Root, flows, nil)
		rated := HRelationRated(tr, tr.Root, flows, rt)
		return rated >= base-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
