package fabric

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hbspk/internal/cost"
	"hbspk/internal/model"
)

func pair(rSlow float64, L float64) *model.Tree {
	root := model.NewCluster("pair", []*model.Machine{
		model.NewLeaf("fast", model.WithComm(1), model.WithComp(1)),
		model.NewLeaf("slow", model.WithComm(rSlow), model.WithComp(rSlow)),
	}, model.WithSync(L))
	return model.MustNew(root, 1).Normalize()
}

func TestPureModelMatchesEquationOne(t *testing.T) {
	tr := pair(3, 7)
	f := New(tr, PureModel())
	res := f.StepCost(tr.Root, []cost.Flow{{Src: 1, Dst: 0, Bytes: 100}},
		[]float64{5, 2})
	// T = w + g·h + L = 5 + 1·300 + 7.
	if res.W != 5 || res.H != 300 || res.Comm != 300 || res.Sync != 7 || res.Time != 312 {
		t.Errorf("got W=%v H=%v Comm=%v Sync=%v T=%v, want 5/300/300/7/312",
			res.W, res.H, res.Comm, res.Sync, res.Time)
	}
	if res.Flows != 1 || res.Bytes != 100 {
		t.Errorf("flows=%d bytes=%d, want 1/100", res.Flows, res.Bytes)
	}
}

func TestSelfSendIsFree(t *testing.T) {
	tr := pair(3, 0)
	f := New(tr, PVM())
	res := f.StepCost(tr.Root, []cost.Flow{{Src: 0, Dst: 0, Bytes: 1000}}, nil)
	if res.Time != 0 || res.Flows != 0 || res.Bytes != 0 {
		t.Errorf("self-send charged: %+v", res)
	}
}

func TestPackUnpackChargedAsScaledWork(t *testing.T) {
	tr := pair(4, 0)
	f := New(tr, Config{PackByte: 0.5, UnpackByte: 0.25})
	// slow (comp 4) sends 100 bytes to fast (comp 1):
	// pack on slow = 0.5·100·4 = 200; unpack on fast = 0.25·100·1 = 25.
	res := f.StepCost(tr.Root, []cost.Flow{{Src: 1, Dst: 0, Bytes: 100}}, nil)
	if res.W != 200 {
		t.Errorf("W = %v, want 200 (slow machine's pack dominates)", res.W)
	}
	// And the reverse direction: pack on fast = 50, unpack on slow = 100.
	res = f.StepCost(tr.Root, []cost.Flow{{Src: 0, Dst: 1, Bytes: 100}}, nil)
	if res.W != 100 {
		t.Errorf("W = %v, want 100 (slow machine's unpack dominates)", res.W)
	}
}

func TestPackExceedsUnpackReproducesP2Anomaly(t *testing.T) {
	// The §5.2 observation: at p = 2 with equal shares it is better for
	// the root (receiver) to be the slow machine, because the expensive
	// pack then runs on the fast machine. T_s < T_f ⇔ T_s/T_f < 1.
	tr := pair(3.1, 25000)
	f := New(tr, PVM())
	n := 500000
	half := n / 2
	// Root = fast: slow sends to fast.
	tf := f.StepCost(tr.Root, []cost.Flow{{Src: 1, Dst: 0, Bytes: half}}, nil).Time
	// Root = slow: fast sends to slow.
	ts := f.StepCost(tr.Root, []cost.Flow{{Src: 0, Dst: 1, Bytes: half}}, nil).Time
	if ts >= tf {
		t.Errorf("T_s = %v should be below T_f = %v at p=2", ts, tf)
	}
}

func TestNoiseOnlySlowsAndIsDeterministic(t *testing.T) {
	tr := pair(2, 10)
	flows := []cost.Flow{{Src: 1, Dst: 0, Bytes: 1000}}
	base := New(tr, PureModel()).StepCost(tr.Root, flows, nil).Time
	pvm := New(tr, PVM()).StepCost(tr.Root, flows, nil).Time
	a := New(tr, PVMNoisy(0.3, 42))
	b := New(tr, PVMNoisy(0.3, 42))
	c := New(tr, PVMNoisy(0.3, 7))
	var ta, tb, tc float64
	for i := 0; i < 200; i++ {
		ta = a.StepCost(tr.Root, flows, nil).Time
		tb = b.StepCost(tr.Root, flows, nil).Time
		tc = c.StepCost(tr.Root, flows, nil).Time
		if ta != tb {
			t.Fatalf("same seed diverged at draw %d: %v vs %v", i, ta, tb)
		}
		// Every drawn factor lies in [1, 1+Noise).
		if ta < pvm || ta >= pvm*1.3 {
			t.Fatalf("noisy time %v outside [%v, %v)", ta, pvm, pvm*1.3)
		}
	}
	if ta == tc {
		t.Errorf("different seeds identical: %v", ta)
	}
	if ta < base {
		t.Errorf("noise sped the step up: %v < noiseless %v", ta, base)
	}
}

func TestWorkWithoutFlows(t *testing.T) {
	tr := pair(2, 3)
	f := New(tr, PureModel())
	res := f.StepCost(tr.Root, nil, []float64{11, 7})
	if res.Time != 11+3 {
		t.Errorf("T = %v, want 14", res.Time)
	}
}

// Property: pure-model step time always equals w + g·h + L for random
// flows on a random tree.
func TestPropertyPureModelEquation(t *testing.T) {
	f := func(seed int64, nflows uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := model.RandomTree(rng, 2, 4)
		fb := New(tr, PureModel())
		p := tr.NProcs()
		var flows []cost.Flow
		for i := 0; i < int(nflows%12); i++ {
			flows = append(flows, cost.Flow{
				Src: rng.Intn(p), Dst: rng.Intn(p), Bytes: rng.Intn(5000),
			})
		}
		work := make([]float64, p)
		work[rng.Intn(p)] = rng.Float64() * 100
		res := fb.StepCost(tr.Root, flows, work)
		want := res.W + tr.G*cost.HRelation(tr, tr.Root, flows) + tr.Root.SyncCost
		return math.Abs(res.Time-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}
