package experiments

import (
	"fmt"

	"hbspk/internal/collective"
	"hbspk/internal/cost"
	"hbspk/internal/hbsp"
	"hbspk/internal/model"
	"hbspk/internal/plan"
	"hbspk/internal/trace"
)

// This file extends the paper's evaluation with the sensitivity studies
// its analysis section implies: how the §4 results move as the machine
// parameters r_{0,s} and L change, a full-suite cost summary, and a
// straggler study exercising the c_{i,j} load-balancing knob.

// clusterWithSlowest builds an 8-machine HBSP^1 cluster whose slowest
// member has communication slowdown rs and compute slowdown 1+rs/2.
func clusterWithSlowest(rs float64) *model.Tree {
	leaves := make([]*model.Machine, 8)
	for i := 0; i < 7; i++ {
		r := 1 + float64(i)*0.05
		leaves[i] = model.NewLeaf(fmt.Sprintf("ws%d", i),
			model.WithComm(r), model.WithComp(1+float64(i)*0.1))
	}
	leaves[7] = model.NewLeaf("straggler",
		model.WithComm(rs), model.WithComp(1+rs/2))
	return model.MustNew(model.NewCluster("lan", leaves, model.WithSync(25000)), 1).Normalize()
}

// SensitivityRS sweeps the slowest machine's r and reports the §4.4
// quantities that depend on it: the two-phase broadcast cost factor
// (1 + r_s), the crossover size n* = L/(g·(m−2−r_s)), and which
// algorithm wins at the paper's 500 KB point. As r_s approaches m−2 the
// crossover diverges — the paper's "it may be more appropriate not to
// include that machine in the computation" regime.
func SensitivityRS(cfg Config) (*Result, error) {
	tb := trace.NewTable("broadcast sensitivity to r_{0,s} (8 machines, L=25000)",
		"r_s", "T 2-phase(500KB)", "T 1-phase(500KB)", "crossover n*", "winner@500KB")
	res := &Result{
		ID:         "sens-rs",
		Title:      "Sensitivity: the slowest machine's r",
		PaperClaim: "two-phase wins for reasonable r_s; exclude machines with r_s ≥ m−2",
		Table:      tb,
	}
	n := 500 * KB
	var twoSeries, oneSeries Series
	twoSeries.Name, oneSeries.Name = "two-phase", "one-phase"
	rss := []float64{1, 1.5, 2, 3, 4, 5, 5.9, 6.5, 8}
	type rsPoint struct{ t1, t2, nstar float64 }
	pts := make([]rsPoint, len(rss))
	err := forEachPoint(len(rss), func(i int) error {
		// Each point builds its own cluster: the tree is not shared.
		tr := clusterWithSlowest(rss[i])
		root := tr.Pid(tr.FastestLeaf())
		t2, err := measure(tr, cfg.Fabric, bcastTwoPhase(root, n))
		if err != nil {
			return err
		}
		t1, err := measure(tr, cfg.Fabric, bcastOnePhase(root, n))
		if err != nil {
			return err
		}
		pts[i] = rsPoint{t1: t1, t2: t2, nstar: cost.TwoPhaseCrossoverSize(tr)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, rs := range rss {
		pt := pts[i]
		winner := "one-phase"
		if pt.t2 < pt.t1 {
			winner = "two-phase"
		}
		tb.AddF(rs, pt.t2, pt.t1, pt.nstar, winner)
		twoSeries.Points = append(twoSeries.Points, Point{X: rs, Y: pt.t2})
		oneSeries.Points = append(oneSeries.Points, Point{X: rs, Y: pt.t1})
	}
	res.Series = []Series{twoSeries, oneSeries}
	return res, nil
}

// SensitivityL sweeps the barrier cost L and reports the gather's
// fast-root improvement factor at 100 KB: larger L dilutes any
// algorithmic choice (§3.4's "the application must tolerate the
// latencies inherent in using hierarchical platforms").
func SensitivityL(cfg Config) (*Result, error) {
	tb := trace.NewTable("gather improvement sensitivity to L (p=10, n=100KB)",
		"L", "T_s/T_f", "crossover n*")
	res := &Result{
		ID:         "sens-l",
		Title:      "Sensitivity: the barrier cost L",
		PaperClaim: "synchronization overheads dilute algorithmic gains until n outgrows them",
		Table:      tb,
	}
	n := 100 * KB
	var s Series
	s.Name = "Ts/Tf"
	for _, L := range []float64{0, 2500, 25000, 250000, 2500000} {
		tr := model.UCFTestbedN(10)
		tr.Root.SyncCost = L
		d := cost.EqualDist(tr, n)
		ts, err := measure(tr, cfg.Fabric, gather(d, tr.Pid(tr.SlowestLeaf())))
		if err != nil {
			return nil, err
		}
		tf, err := measure(tr, cfg.Fabric, gather(d, tr.Pid(tr.FastestLeaf())))
		if err != nil {
			return nil, err
		}
		tb.AddF(L, ts/tf, cost.TwoPhaseCrossoverSize(tr))
		s.Points = append(s.Points, Point{X: L, Y: ts / tf})
	}
	res.Series = []Series{s}
	return res, nil
}

// SuiteSummary prints every row of the cost table (plan.CostVariants)
// on the testbed and the Figure 1 machine at the paper's smallest and
// largest sizes — the thesis-style appendix table, priced as the planner
// prices it.
func SuiteSummary(cfg Config) (*Result, error) {
	tb := trace.NewTable("collective suite predicted costs",
		"machine", "collective", "T(100KB)", "T(1000KB)", "steps")
	res := &Result{
		ID:         "suite",
		Title:      "Collective suite summary",
		PaperClaim: "additional HBSP^k collectives per the companion thesis [20]",
		Table:      tb,
	}
	machines := []struct {
		name string
		tr   *model.Tree
	}{
		{"ucf", model.UCFTestbed()},
		{"figure1", model.Figure1Cluster()},
	}
	small, large := 100*KB, 1000*KB
	for _, m := range machines {
		for _, v := range plan.CostVariants() {
			bl := v.Cost(m.tr, large)
			tb.AddF(m.name, v.Name, v.Predict(m.tr, small), bl.Total(), len(bl.Steps))
		}
	}
	return res, nil
}

// Straggler perturbs one machine of the testbed to 4x its compute
// slowdown mid-fleet (a background job on a non-dedicated workstation)
// and compares a compute-heavy gather under three policies: stale
// balanced shares, equal shares, and rebalanced shares measured after
// the slowdown. Rebalancing must win — the c_{i,j} knob doing its job.
func Straggler(cfg Config) (*Result, error) {
	tb := trace.NewTable("straggler study: one machine slows 4x (compute-heavy gather, 500KB)",
		"policy", "T", "vs rebalanced")
	res := &Result{
		ID:         "straggler",
		Title:      "Straggler study",
		PaperClaim: "c_{i,j} 'attempts to provide M_{i,j} with a problem size proportional to its abilities' (§3.3)",
		Table:      tb,
	}
	n := 500 * KB
	perturbed := model.UCFTestbedN(10)
	victim := perturbed.RankedLeaves()[2] // a mid-fast machine
	staleDist := cost.BalancedDist(perturbed, n)
	equalDist := cost.EqualDist(perturbed, n)
	victim.CompSlowdown *= 4
	// Clear the stale shares so Normalize re-derives them from the new
	// compute slowdowns.
	for _, l := range perturbed.Leaves() {
		l.Share = 0
	}
	perturbed.Normalize()
	rebalanced := cost.BalancedDist(perturbed, n)

	// A compute-then-gather step: each processor first charges work
	// proportional to its piece (a compute-heavy workload), then the
	// pieces are gathered at the fastest leaf.
	root := perturbed.Pid(perturbed.FastestLeaf())
	computeGather := func(d cost.Dist) (float64, error) {
		return measure(perturbed, cfg.Fabric, func(c hbsp.Ctx) error {
			c.Charge(2 * float64(d[c.Pid()]))
			_, err := collective.Gather(c, c.Tree().Root, root, make([]byte, d[c.Pid()]))
			return err
		})
	}
	tRebal, err := computeGather(rebalanced)
	if err != nil {
		return nil, err
	}
	for _, row := range []struct {
		name string
		d    cost.Dist
	}{
		{"stale balanced", staleDist},
		{"equal", equalDist},
		{"rebalanced", rebalanced},
	} {
		tv, err := computeGather(row.d)
		if err != nil {
			return nil, err
		}
		tb.AddF(row.name, tv, tv/tRebal)
		res.Series = append(res.Series, Series{Name: row.name, Points: []Point{{X: 0, Y: tv}}})
	}
	return res, nil
}
