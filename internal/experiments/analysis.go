package experiments

import (
	"fmt"
	"math"

	"hbspk/internal/catalog"
	"hbspk/internal/cost"
	"hbspk/internal/fabric"
	"hbspk/internal/model"
	"hbspk/internal/stats"
	"hbspk/internal/trace"
)

// BroadcastCrossover regenerates the §4.4 analysis comparing the
// one-phase and two-phase HBSP^1 broadcasts: simulated times for both
// across the size sweep, the analytic crossover n* = L/(g·(m−2−r_s)),
// and the winner per size. "For reasonable values of r_{0,s}, the
// two-phase approach is the better overall performer."
func BroadcastCrossover(cfg Config) (*Result, error) {
	tr := model.UCFTestbed()
	root := tr.Pid(tr.FastestLeaf())
	nstar := cost.TwoPhaseCrossoverSize(tr)
	tb := trace.NewTable(
		fmt.Sprintf("one-phase vs two-phase vs binomial broadcast (analytic 1p/2p crossover n* = %.0f bytes)", nstar),
		"size(KB)", "T 1-phase", "T 2-phase", "T binomial", "winner", "paper predicts (1p/2p)")
	res := &Result{
		ID:         "xphase",
		Title:      "§4.4: broadcast phase crossover",
		PaperClaim: "two-phase wins for reasonable r_s once g·n·(m-2-r_s) > L",
		Table:      tb,
	}
	var s1, s2, s3 Series
	s1.Name, s2.Name, s3.Name = "one-phase", "two-phase", "binomial"
	// Include sizes well below the crossover in addition to the paper
	// sweep, so both regimes show.
	all := append([]int{int(nstar / 4), int(nstar / 2)}, cfg.Sizes...)
	sizes := all[:0]
	for _, n := range all {
		if n > 0 {
			sizes = append(sizes, n)
		}
	}
	times := make([][3]float64, len(sizes))
	err := forEachPoint(len(sizes), func(i int) error {
		n := sizes[i]
		t1, err := measure(tr, cfg.Fabric, bcastOnePhase(root, n))
		if err != nil {
			return err
		}
		t2, err := measure(tr, cfg.Fabric, bcastTwoPhase(root, n))
		if err != nil {
			return err
		}
		t3, err := measure(tr, cfg.Fabric, bcastBinomial(root, n))
		if err != nil {
			return err
		}
		times[i] = [3]float64{t1, t2, t3}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, n := range sizes {
		t1, t2, t3 := times[i][0], times[i][1], times[i][2]
		winner := "one-phase"
		switch {
		case t2 <= t1 && t2 <= t3:
			winner = "two-phase"
		case t3 < t1 && t3 < t2:
			winner = "binomial"
		}
		predicted := "one-phase"
		if float64(n) > nstar {
			predicted = "two-phase"
		}
		tb.AddF(float64(n)/float64(KB), t1, t2, t3, winner, predicted)
		s1.Points = append(s1.Points, Point{X: float64(n), Y: t1})
		s2.Points = append(s2.Points, Point{X: float64(n), Y: t2})
		s3.Points = append(s3.Points, Point{X: float64(n), Y: t3})
	}
	res.Series = []Series{s1, s2, s3}
	return res, nil
}

// HierarchyPenalty regenerates the §3.4/§4.3 analysis: the extra cost of
// running the gather hierarchically on an HBSP^2 machine versus on an
// idealized flat machine over the same processors. The penalty must
// shrink as n grows — "if the problem size is large enough, these
// additional costs can be overcome."
func HierarchyPenalty(cfg Config) (*Result, error) {
	tb := trace.NewTable("penalty of hierarchy: gather on HBSP^2 vs flat machine",
		"machine", "size(KB)", "T hier", "T flat", "penalty")
	res := &Result{
		ID:         "penalty",
		Title:      "§3.4/§4.3: the penalty of hierarchy",
		PaperClaim: "extra level costs amortize as the problem grows",
		Table:      tb,
	}
	machines := []struct {
		name string
		tr   *model.Tree
	}{
		{"figure1", model.Figure1Cluster()},
		{"wan-grid", model.WideAreaGrid(3, 4, 12, 25000, 250000)},
	}
	gatherHier, err := catalog.Lookup("gather-hier")
	if err != nil {
		return nil, err
	}
	flats := make([]*model.Tree, len(machines))
	for i, m := range machines {
		flats[i] = cost.Flatten(m.tr)
	}
	// Fan the (machine × size) grid; point (mi, si) owns its slot.
	type penaltyPoint struct{ hier, flat float64 }
	pts := make([]penaltyPoint, len(machines)*len(cfg.Sizes))
	err = forEachPoint(len(pts), func(idx int) error {
		mi, si := idx/len(cfg.Sizes), idx%len(cfg.Sizes)
		m, flat, n := machines[mi], flats[mi], cfg.Sizes[si]
		d := cost.BalancedDist(m.tr, n)
		hier, err := measure(m.tr, cfg.Fabric, gatherHier.Program(m.tr, catalog.Args{N: n}))
		if err != nil {
			return err
		}
		tFlat, err := measure(flat, cfg.Fabric, gather(d, flat.Pid(flat.FastestLeaf())))
		if err != nil {
			return err
		}
		pts[idx] = penaltyPoint{hier: hier, flat: tFlat}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for mi, m := range machines {
		var series Series
		series.Name = m.name
		for si, n := range cfg.Sizes {
			pt := pts[mi*len(cfg.Sizes)+si]
			pen := pt.hier / pt.flat
			tb.AddF(m.name, n/KB, pt.hier, pt.flat, pen)
			series.Points = append(series.Points, Point{X: float64(n), Y: pen})
		}
		res.Series = append(res.Series, series)
	}
	return res, nil
}

// Calibrate demonstrates parameter recovery: probe supersteps of growing
// h-relations are timed on the virtual engine and a least squares fit of
// T against h recovers ĝ (slope) and L̂ (intercept) — the experimental
// parameterization of BSP machines (reference [8]) applied to HBSP^k.
func Calibrate(cfg Config) (*Result, error) {
	tr := model.UCFTestbed()
	pure := fabric.PureModel()
	hs := make([]float64, len(cfg.Sizes))
	ts := make([]float64, len(cfg.Sizes))
	root := tr.Pid(tr.FastestLeaf())
	err := forEachPoint(len(cfg.Sizes), func(i int) error {
		d := cost.EqualDist(tr, cfg.Sizes[i])
		total, err := measure(tr, pure, gather(d, root))
		if err != nil {
			return err
		}
		hs[i] = cost.HRelation(tr, tr.Root, gatherFlows(tr, d, root))
		ts[i] = total
		return nil
	})
	if err != nil {
		return nil, err
	}
	l, g, r2, err := stats.LinearFit(hs, ts)
	if err != nil {
		return nil, err
	}
	tb := trace.NewTable("recovered machine parameters",
		"param", "true", "fitted", "rel err")
	tb.AddF("g", tr.G, g, stats.RelErr(g, tr.G))
	tb.AddF("L_{1,0}", tr.Root.SyncCost, l, stats.RelErr(l, tr.Root.SyncCost))
	tb.AddF("R^2", 1.0, r2, math.Abs(1-r2))
	return &Result{
		ID:         "calibrate",
		Title:      "Parameter fitting",
		PaperClaim: "model parameters are assumed measured; BSP-style probes recover them",
		Table:      tb,
		Series:     []Series{{Name: "fit", Points: []Point{{X: l, Y: g}}}},
	}, nil
}

// gatherFlows rebuilds the gather's flow set for h computation.
func gatherFlows(tr *model.Tree, d cost.Dist, root int) []cost.Flow {
	var flows []cost.Flow
	for pid, b := range d {
		flows = append(flows, cost.Flow{Src: pid, Dst: root, Bytes: b})
	}
	return flows
}
