package experiments

import (
	"hbspk/internal/bsp"
	"hbspk/internal/cost"
	"hbspk/internal/model"
	"hbspk/internal/stats"
	"hbspk/internal/trace"
)

// BSPBlindness quantifies what the HBSP^k model adds over plain BSP
// (§2's positioning): for each collective on the heterogeneous testbed,
// compare the BSP prediction (which pretends every machine is as fast as
// the fastest) with the HBSP^k prediction. The BSP error is the cost of
// heterogeneity blindness. That each HBSP^k price is what its program
// runs in under the pure model is a check (TestBSPBlindness), not a
// result.
func BSPBlindness(cfg Config) (*Result, error) {
	tb := trace.NewTable("heterogeneity blindness: BSP vs HBSP^k predictions (8 machines, r_s=3, 500KB)",
		"collective", "BSP predicts", "HBSP^k predicts", "BSP rel err")
	worst := 0.0
	_, rows := blindnessRows()
	for _, row := range rows {
		e := stats.RelErr(row.bsp, row.hbsp)
		worst = max(worst, e)
		tb.AddF(row.name, row.bsp, row.hbsp, e)
	}
	return &Result{
		ID:         "blindness",
		Title:      "BSP vs HBSP^k prediction error",
		PaperClaim: "BSP 'is not appropriate for heterogeneous systems' (§1); HBSP predicts them",
		Table:      tb,
		Series:     []Series{{Name: "worst-bsp-err", Points: []Point{{X: 0, Y: worst}}}},
	}, nil
}

// blindnessN is the payload every blindness row is priced at.
const blindnessN = 500 * KB

// blindnessRow is one collective's BSP and HBSP^k predictions.
type blindnessRow struct {
	name      string
	bsp, hbsp float64
}

// blindnessRows returns the blindness machine and its five rows, each
// rooted at the fastest leaf, the gather, two-phase broadcast and
// all-gather on equal pieces. The machine is an 8-machine cluster whose
// slowest member has r = 3: wide enough heterogeneity that pretending it
// is uniform visibly misprices the exchange-heavy collectives.
func blindnessRows() (*model.Tree, []blindnessRow) {
	tr := clusterWithSlowest(3)
	m := bsp.Of(tr)
	root := tr.Pid(tr.FastestLeaf())
	n := blindnessN
	dEq := cost.EqualDist(tr, n)
	return tr, []blindnessRow{
		{"gather", m.Gather(n), cost.GatherFlat(tr, root, dEq).Total()},
		{"bcast-1phase", m.BcastOnePhase(n), cost.BcastOnePhaseFlat(tr, root, n).Total()},
		{"bcast-2phase", m.BcastTwoPhase(n), cost.BcastTwoPhaseFlat(tr, root, dEq).Total()},
		{"bcast-binomial", m.StepTime(0, float64(n)) * 4, cost.BcastBinomial(tr, root, n).Total()},
		{"allgather", m.AllGather(n), cost.AllGatherFlat(tr, dEq).Total()},
	}
}
