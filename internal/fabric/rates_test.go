package fabric

import (
	"testing"

	"hbspk/internal/cost"
	"hbspk/internal/model"
)

// The §6 extension: per-destination rate factors.

func ratedPair() *model.Tree {
	root := model.NewCluster("pair", []*model.Machine{
		model.NewLeaf("a", model.WithComm(1)),
		model.NewLeaf("b", model.WithComm(2)),
		model.NewLeaf("c", model.WithComm(1.5)),
	}, model.WithSync(0))
	return model.MustNew(root, 1).Normalize()
}

func TestRateTableDefaultsToOne(t *testing.T) {
	tr := ratedPair()
	flows := []cost.Flow{{Src: 1, Dst: 0, Bytes: 100}}
	base := cost.HRelationRated(tr, tr.Root, flows, nil)
	rated := cost.HRelationRated(tr, tr.Root, flows, model.NewRateTable())
	if base != rated {
		t.Errorf("empty table changed h: %v vs %v", base, rated)
	}
	if nilRated := cost.HRelationRated(tr, tr.Root, flows, nil); nilRated != base {
		t.Errorf("nil table changed h: %v vs %v", nilRated, base)
	}
}

func TestRateTableScalesSenderSide(t *testing.T) {
	tr := ratedPair()
	rt := model.NewRateTable().Set("b", "a", 3)
	flows := []cost.Flow{{Src: 1, Dst: 0, Bytes: 100}}
	// b (r=2) sends 100 to a with factor 3: h_b = 2·300 = 600;
	// a receives raw 100 at r=1.
	if h := cost.HRelationRated(tr, tr.Root, flows, rt); h != 600 {
		t.Errorf("h = %v, want 600", h)
	}
	// The reverse direction is unaffected.
	rev := []cost.Flow{{Src: 0, Dst: 1, Bytes: 100}}
	// a sends at factor 1 (no entry): h = max(1·100, 2·100) = 200.
	if h := cost.HRelationRated(tr, tr.Root, rev, rt); h != 200 {
		t.Errorf("reverse h = %v, want 200", h)
	}
}

func TestRateTableWildcards(t *testing.T) {
	tr := ratedPair()
	rt := model.NewRateTable().Set("b", "*", 5)
	flows := []cost.Flow{{Src: 1, Dst: 2, Bytes: 10}}
	// b→anything factor 5: h_b = 2·50 = 100 vs recv 1.5·10 = 15.
	if h := cost.HRelationRated(tr, tr.Root, flows, rt); h != 100 {
		t.Errorf("src-wildcard h = %v, want 100", h)
	}
	rt2 := model.NewRateTable().Set("*", "c", 4)
	// b→c: sender tally 40·r_b=80 vs recv 15.
	if h := cost.HRelationRated(tr, tr.Root, flows, rt2); h != 80 {
		t.Errorf("dst-wildcard h = %v, want 80", h)
	}
	// Exact beats wildcard.
	rt3 := model.NewRateTable().Set("b", "*", 5).Set("b", "c", 2)
	if h := cost.HRelationRated(tr, tr.Root, flows, rt3); h != 40 {
		t.Errorf("precedence h = %v, want 40", h)
	}
}

func TestRateTableInFabric(t *testing.T) {
	tr := ratedPair()
	rt := model.NewRateTable().Set("b", "a", 3)
	flows := []cost.Flow{{Src: 1, Dst: 0, Bytes: 1000}}
	fb := New(tr, Config{Rates: rt})
	if res, _ := fb.StepCost(tr.Root, flows, nil); res.H != 6000 || res.Comm != tr.G*6000 {
		t.Errorf("fabric h = %v, comm = %v; want 6000, g·6000", res.H, res.Comm)
	}
}

func TestRateTableRejectsBadFactor(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-positive factor accepted")
		}
	}()
	model.NewRateTable().Set("a", "b", 0)
}

func TestMsgOverheadChargedPerMessage(t *testing.T) {
	tr := ratedPair()
	fb := New(tr, Config{MsgOverhead: 50})
	// b (comp slowdown defaults to 1) sends two messages: overhead 100.
	flows := []cost.Flow{
		{Src: 1, Dst: 0, Bytes: 10},
		{Src: 1, Dst: 2, Bytes: 10},
	}
	res, _ := fb.StepCost(tr.Root, flows, nil)
	if res.W != 100 {
		t.Errorf("W = %v, want 100 (2 messages × 50)", res.W)
	}
}

func TestMsgOverheadFavorsAggregation(t *testing.T) {
	// The same bytes in one message vs ten: aggregation must win under
	// per-message overhead — the knob the related work's segmentation
	// tuning turns the other way.
	tr := ratedPair()
	fb := New(tr, Config{MsgOverhead: 200})
	one, oneTime := fb.StepCost(tr.Root, []cost.Flow{{Src: 1, Dst: 0, Bytes: 1000}}, nil)
	var many []cost.Flow
	for i := 0; i < 10; i++ {
		many = append(many, cost.Flow{Src: 1, Dst: 0, Bytes: 100})
	}
	split, splitTime := fb.StepCost(tr.Root, many, nil)
	if splitTime <= oneTime {
		t.Errorf("split %v not slower than aggregated %v", splitTime, oneTime)
	}
	if split.H != one.H {
		t.Errorf("h changed with splitting: %v vs %v", split.H, one.H)
	}
}

func TestCombineMessagesReducesOverheadOnly(t *testing.T) {
	tr := ratedPair()
	var many []cost.Flow
	for i := 0; i < 10; i++ {
		many = append(many, cost.Flow{Src: 1, Dst: 0, Bytes: 100})
	}
	plain := New(tr, Config{MsgOverhead: 200})
	combined := New(tr, Config{MsgOverhead: 200, CombineMessages: true})
	rp, _ := plain.StepCost(tr.Root, many, nil)
	rc, _ := combined.StepCost(tr.Root, many, nil)
	if rc.Flows != 1 || rp.Flows != 10 {
		t.Errorf("flows = %d/%d, want 1/10", rc.Flows, rp.Flows)
	}
	if rc.H != rp.H {
		t.Errorf("combining changed h: %v vs %v", rc.H, rp.H)
	}
	if rc.W >= rp.W {
		t.Errorf("combining did not cut per-message overhead: %v vs %v", rc.W, rp.W)
	}
	// Without per-message overhead, combining changes nothing.
	_, a := New(tr, Config{}).StepCost(tr.Root, many, nil)
	_, b := New(tr, Config{CombineMessages: true}).StepCost(tr.Root, many, nil)
	if a != b {
		t.Errorf("free combining changed time: %v vs %v", a, b)
	}
	// The caller's slice must not be mutated.
	if many[0].Bytes != 100 || len(many) != 10 {
		t.Error("StepCost mutated the caller's flow slice")
	}
}

func TestGatingPidAndImbalance(t *testing.T) {
	tr := ratedPair()
	fb := New(tr, Config{PackByte: 0.1})
	// b packs 1000 bytes (work 100), c packs 100 bytes (work 10).
	flows := []cost.Flow{
		{Src: 1, Dst: 0, Bytes: 1000},
		{Src: 2, Dst: 0, Bytes: 100},
	}
	res, _ := fb.StepCost(tr.Root, flows, nil)
	if res.GatingPid != 1 {
		t.Errorf("gating pid = %d, want 1", res.GatingPid)
	}
	// mean of positive works = (100+10)/2 = 55 → imbalance ≈ 1.818.
	if res.Imbalance < 1.8 || res.Imbalance > 1.85 {
		t.Errorf("imbalance = %v, want ≈1.818", res.Imbalance)
	}
	// No work at all: gating pid -1.
	none, _ := New(tr, Config{}).StepCost(tr.Root, flows, nil)
	if none.GatingPid != -1 || none.Imbalance != 0 {
		t.Errorf("no-work step: gating=%d imbalance=%v", none.GatingPid, none.Imbalance)
	}
}
