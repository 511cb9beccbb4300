package experiments

import (
	"hbspk/internal/bsp"
	"hbspk/internal/collective"
	"hbspk/internal/cost"
	"hbspk/internal/fabric"
	"hbspk/internal/hbsp"
	"hbspk/internal/stats"
	"hbspk/internal/trace"
)

// BSPBlindness quantifies what the HBSP^k model adds over plain BSP
// (§2's positioning): for each collective on the heterogeneous testbed,
// compare the BSP prediction (which pretends every machine is as fast as
// the fastest), the HBSP^k prediction, and the simulated time under the
// pure model. The HBSP^k prediction is exact by construction; the BSP
// error is the cost of heterogeneity blindness.
func BSPBlindness(cfg Config) (*Result, error) {
	// An 8-machine cluster whose slowest member has r = 3: wide enough
	// heterogeneity that pretending it is uniform visibly misprices the
	// exchange-heavy collectives.
	tr := clusterWithSlowest(3)
	m := bsp.Of(tr)
	root := tr.Pid(tr.FastestLeaf())
	n := 500 * KB
	dEq := cost.EqualDist(tr, n)

	tb := trace.NewTable("heterogeneity blindness: BSP vs HBSP^k predictions (8 machines, r_s=3, 500KB)",
		"collective", "BSP predicts", "HBSP^k predicts", "simulated", "BSP rel err", "HBSP^k rel err")
	res := &Result{
		ID:         "blindness",
		Title:      "BSP vs HBSP^k prediction error",
		PaperClaim: "BSP 'is not appropriate for heterogeneous systems' (§1); HBSP predicts them",
		Table:      tb,
	}

	pure := fabric.PureModel()
	rows := []struct {
		name     string
		bspPred  float64
		hbspPred float64
		prog     hbsp.Program
	}{
		{"gather", m.Gather(n), cost.GatherFlat(tr, root, dEq).Total(), gather(dEq, root)},
		{"bcast-1phase", m.BcastOnePhase(n), cost.BcastOnePhaseFlat(tr, root, n).Total(), bcastOnePhase(root, n)},
		{"bcast-2phase", m.BcastTwoPhase(n), cost.BcastTwoPhaseFlat(tr, root, dEq).Total(), bcastTwoPhase(root, n)},
		{"bcast-binomial", m.StepTime(0, float64(n)) * 4, cost.BcastBinomial(tr, root, n).Total(), bcastBinomial(root, n)},
		{"allgather", m.AllGather(n), cost.AllGatherFlat(tr, dEq).Total(), func(c hbsp.Ctx) error {
			_, err := collective.AllGather(c, c.Tree().Root, make([]byte, dEq[c.Pid()]))
			return err
		}},
	}
	worstBSP, worstHBSP := 0.0, 0.0
	for _, row := range rows {
		sim, err := measure(tr, pure, row.prog)
		if err != nil {
			return nil, err
		}
		eBSP := stats.RelErr(row.bspPred, sim)
		eHBSP := stats.RelErr(row.hbspPred, sim)
		if eBSP > worstBSP {
			worstBSP = eBSP
		}
		if eHBSP > worstHBSP {
			worstHBSP = eHBSP
		}
		tb.AddF(row.name, row.bspPred, row.hbspPred, sim, eBSP, eHBSP)
	}
	res.Series = []Series{
		{Name: "worst-bsp-err", Points: []Point{{X: 0, Y: worstBSP}}},
		{Name: "worst-hbsp-err", Points: []Point{{X: 0, Y: worstHBSP}}},
	}
	return res, nil
}
