package experiments

import (
	"math"
	"strings"
	"testing"

	"hbspk/internal/collective"
	"hbspk/internal/cost"
	"hbspk/internal/fabric"
	"hbspk/internal/hbsp"
	"hbspk/internal/plan"
	"hbspk/internal/stats"
)

func TestSensitivityRSRegimes(t *testing.T) {
	res, err := SensitivityRS(Quick())
	if err != nil {
		t.Fatal(err)
	}
	two := byName(t, res, "two-phase")
	one := byName(t, res, "one-phase")
	// Two-phase cost rises with r_s; one-phase stays flat-ish (root
	// bound) until r_s dominates it.
	if two.Points[0].Y >= two.Points[len(two.Points)-1].Y {
		t.Errorf("two-phase cost should rise with r_s: %v → %v",
			two.Points[0].Y, two.Points[len(two.Points)-1].Y)
	}
	// At small r_s the two-phase wins; at the last point (r_s = 8 > m−2
	// = 6) the one-phase is at least competitive per the paper's
	// exclusion advice — verify the crossover table marks it.
	if two.Points[0].Y >= one.Points[0].Y {
		t.Errorf("two-phase should win at r_s = 1")
	}
	last := len(res.Table.Rows) - 1
	if got := res.Table.Rows[last][4]; got != "one-phase" {
		t.Errorf("winner at r_s=8 is %q, want one-phase (r_s > m−2)", got)
	}
	// Crossover column must read +Inf for r_s ≥ m−2 = 6.
	if !strings.Contains(res.Table.Rows[last][3], "Inf") {
		t.Errorf("crossover at r_s=8 = %q, want +Inf", res.Table.Rows[last][3])
	}
}

func TestSensitivityLDilutesImprovement(t *testing.T) {
	res, err := SensitivityL(Quick())
	if err != nil {
		t.Fatal(err)
	}
	s := byName(t, res, "Ts/Tf")
	first, lastV := s.Points[0].Y, s.Points[len(s.Points)-1].Y
	if first <= 1.1 {
		t.Errorf("with L=0 the improvement should be clear, got %v", first)
	}
	if lastV >= first {
		t.Errorf("huge L should dilute the improvement: %v → %v", first, lastV)
	}
	if math.Abs(lastV-1) > 0.1 {
		t.Errorf("at L=2.5M the improvement should collapse toward 1, got %v", lastV)
	}
}

func TestSuiteSummaryCoversAllCollectives(t *testing.T) {
	res, err := SuiteSummary(Quick())
	if err != nil {
		t.Fatal(err)
	}
	// One row per cost-table row per machine, in table order.
	vs := plan.CostVariants()
	const machines = 2
	if len(res.Table.Rows) != machines*len(vs) {
		t.Fatalf("%d rows, want %d (%d table rows × %d machines)",
			len(res.Table.Rows), machines*len(vs), len(vs), machines)
	}
	for i, row := range res.Table.Rows {
		if want := vs[i%len(vs)].Name; row[1] != want {
			t.Errorf("row %d names %q, want %q", i, row[1], want)
		}
	}
}

func TestStragglerRebalancingWins(t *testing.T) {
	res, err := Straggler(Quick())
	if err != nil {
		t.Fatal(err)
	}
	get := func(name string) float64 { return byName(t, res, name).Points[0].Y }
	stale, equal, rebal := get("stale balanced"), get("equal"), get("rebalanced")
	if rebal >= stale {
		t.Errorf("rebalanced %v should beat stale shares %v", rebal, stale)
	}
	if rebal >= equal {
		t.Errorf("rebalanced %v should beat equal %v", rebal, equal)
	}
	// The stale policy overloads the slowed machine, so it must be
	// clearly worse than rebalancing.
	if stale/rebal < 1.1 {
		t.Errorf("stale/rebalanced = %v, want a visible gap", stale/rebal)
	}
}

func TestNewRunnersRegistered(t *testing.T) {
	for _, id := range []string{"sens-rs", "sens-l", "suite", "straggler"} {
		if _, ok := Lookup(id); !ok {
			t.Errorf("runner %q not registered", id)
		}
	}
}

// TestBSPBlindness holds the experiment's claim and its premise: BSP
// misprices the heterogeneous machine, and each HBSP^k price is what its
// program runs in on Virtual under the pure model, to 1e-9.
func TestBSPBlindness(t *testing.T) {
	res, err := BSPBlindness(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if worst := byName(t, res, "worst-bsp-err").Points[0].Y; worst < 0.05 {
		t.Errorf("BSP prediction error %v suspiciously small on a heterogeneous machine", worst)
	}
	tr, rows := blindnessRows()
	root := tr.Pid(tr.FastestLeaf())
	dEq := cost.EqualDist(tr, blindnessN)
	progs := map[string]hbsp.Program{
		"gather":         gather(dEq, root),
		"bcast-1phase":   bcastOnePhase(root, blindnessN),
		"bcast-2phase":   bcastTwoPhase(root, blindnessN),
		"bcast-binomial": bcastBinomial(root, blindnessN),
		"allgather": func(c hbsp.Ctx) error {
			_, err := collective.AllGather(c, c.Tree().Root, make([]byte, dEq[c.Pid()]))
			return err
		},
	}
	if len(progs) != len(rows) {
		t.Fatalf("%d programs for %d rows", len(progs), len(rows))
	}
	for _, row := range rows {
		prog, ok := progs[row.name]
		if !ok {
			t.Fatalf("no program for row %q", row.name)
		}
		got, err := measure(tr, fabric.PureModel(), prog)
		if err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		if e := stats.RelErr(got, row.hbsp); e > 1e-9 {
			t.Errorf("%s: run took %v, HBSP^k predicts %v (rel err %v)", row.name, got, row.hbsp, e)
		}
	}
}

func TestKScalingPenaltyGrows(t *testing.T) {
	res, err := KScaling(Quick())
	if err != nil {
		t.Fatal(err)
	}
	s := byName(t, res, "gather-hier")
	if len(s.Points) != 4 {
		t.Fatalf("%d points, want 4 (k=1..4)", len(s.Points))
	}
	for i := 1; i < len(s.Points); i++ {
		if s.Points[i].Y <= s.Points[i-1].Y {
			t.Errorf("gather cost should grow with k: k=%v %v vs k=%v %v",
				s.Points[i-1].X, s.Points[i-1].Y, s.Points[i].X, s.Points[i].Y)
		}
	}
}

func TestReplicateReportsSpread(t *testing.T) {
	r, _ := Lookup("fig3a")
	cfg := Quick()
	cfg.Sizes = cfg.Sizes[:1]
	cfg.Ps = []int{2, 10}
	res, err := Replicate(r, cfg, 5, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	// Two series, one size each: two rows.
	if len(res.Table.Rows) != 2 {
		t.Fatalf("%d rows, want 2", len(res.Table.Rows))
	}
	// The qualitative shape survives noise: mean p=2 < 1 < mean p=10.
	p2 := byName(t, res, "p=2").Points[0].Y
	p10 := byName(t, res, "p=10").Points[0].Y
	if p2 >= 1 {
		t.Errorf("p=2 mean improvement %v, want < 1 even under noise", p2)
	}
	if p10 <= 1.1 {
		t.Errorf("p=10 mean improvement %v, want clearly > 1", p10)
	}
	// Noise produces nonzero spread.
	spread := false
	for _, row := range res.Table.Rows {
		if row[3] != "0" {
			spread = true
		}
	}
	if !spread {
		t.Error("no spread across noisy replications")
	}
}

func TestReplicateRejectsOneRep(t *testing.T) {
	r, _ := Lookup("fig3a")
	if _, err := Replicate(r, Quick(), 1, 0.1); err == nil {
		t.Error("reps=1 accepted")
	}
}
