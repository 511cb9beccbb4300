package cost

import (
	"math"
	"strings"
	"testing"

	"hbspk/internal/model"
)

// twoProc builds a minimal HBSP^1 machine with one fast and one slow
// processor for hand-checkable h-relation arithmetic.
func twoProc(rSlow float64, L float64) *model.Tree {
	root := model.NewCluster("pair", []*model.Machine{
		model.NewLeaf("fast", model.WithComm(1), model.WithComp(1)),
		model.NewLeaf("slow", model.WithComm(rSlow), model.WithComp(rSlow)),
	}, model.WithSync(L))
	return model.MustNew(root, 1).Normalize()
}

func TestHRelationSingleFlow(t *testing.T) {
	tr := twoProc(3, 0)
	// slow (pid 1) sends 100 bytes to fast (pid 0): h_slow = 100 sent,
	// h_fast = 100 received; h = max(3*100, 1*100) = 300.
	h := HRelation(tr, tr.Root, []Flow{{Src: 1, Dst: 0, Bytes: 100}})
	if h != 300 {
		t.Errorf("h = %v, want 300", h)
	}
}

func TestHRelationSelfSendIgnored(t *testing.T) {
	tr := twoProc(3, 0)
	h := HRelation(tr, tr.Root, []Flow{{Src: 0, Dst: 0, Bytes: 100}})
	if h != 0 {
		t.Errorf("self-send charged: h = %v, want 0 (§5.2: a processor does not send data to itself)", h)
	}
}

func TestHRelationZeroAndNegativeBytesIgnored(t *testing.T) {
	tr := twoProc(3, 0)
	h := HRelation(tr, tr.Root, []Flow{{Src: 1, Dst: 0, Bytes: 0}, {Src: 0, Dst: 1, Bytes: -5}})
	if h != 0 {
		t.Errorf("h = %v, want 0", h)
	}
}

func TestHRelationMaxOfSentAndReceived(t *testing.T) {
	tr := twoProc(2, 0)
	// fast sends 100 to slow AND receives 40 from slow:
	// h_fast = max(100, 40) = 100 at r=1; h_slow = max(40, 100)=100 at r=2.
	flows := []Flow{{Src: 0, Dst: 1, Bytes: 100}, {Src: 1, Dst: 0, Bytes: 40}}
	if h := HRelation(tr, tr.Root, flows); h != 200 {
		t.Errorf("h = %v, want 200", h)
	}
}

func TestHRelationAggregatesClusterTraffic(t *testing.T) {
	// HBSP^2: two clusters of two; a super²-step between cluster
	// coordinators must charge the whole cluster's r, not the leaf's.
	a := model.NewCluster("A", []*model.Machine{
		model.NewLeaf("a0", model.WithComm(1)),
		model.NewLeaf("a1", model.WithComm(1.5)),
	}, model.WithComm(5), model.WithSync(10))
	b := model.NewCluster("B", []*model.Machine{
		model.NewLeaf("b0", model.WithComm(1.2)),
		model.NewLeaf("b1", model.WithComm(2)),
	}, model.WithComm(8), model.WithSync(10))
	tr := model.MustNew(model.NewCluster("wan", []*model.Machine{a, b}, model.WithSync(100)), 1).Normalize()

	// Coordinators: a0 (pid 0) is the machine-wide fastest, so it is the
	// scope coordinator and is charged as the root at r=1. b0 (pid 2) is
	// B's coordinator, charged as cluster B at r=8.
	flows := []Flow{{Src: 2, Dst: 0, Bytes: 50}}
	if h := HRelation(tr, tr.Root, flows); h != 400 {
		t.Errorf("super2 h = %v, want 8*50 = 400", h)
	}

	// Intra-cluster traffic under a super²-scope is charged at leaf r.
	flows = []Flow{{Src: 3, Dst: 2, Bytes: 50}} // b1 -> b0 inside B
	if h := HRelation(tr, tr.Root, flows); h != 100 {
		t.Errorf("intra-cluster h = %v, want 2*50 = 100", h)
	}
}

func TestStepTime(t *testing.T) {
	s := Step{Work: 5, H: 10, Sync: 3}
	if got := s.Time(2); got != 5+20+3 {
		t.Errorf("Time = %v, want 28", got)
	}
}

func TestParallelStepTakesMax(t *testing.T) {
	s := ParallelStep("p", 1, []Step{
		{Work: 5, H: 10, Sync: 3}, // 28 at g=2
		{Work: 1, H: 1, Sync: 1},  // 4
	})
	if got := s.Time(2); got != 28 {
		t.Errorf("parallel Time = %v, want 28", got)
	}
}

func TestBreakdownTotalAndString(t *testing.T) {
	b := Breakdown{G: 1}
	b.Add(Step{Label: "s1", Work: 1, H: 2, Sync: 3})
	b.Add(Step{Label: "s2", Work: 4, H: 5, Sync: 6})
	if got := b.Total(); got != 21 {
		t.Errorf("Total = %v, want 21", got)
	}
	if s := b.String(); !strings.Contains(s, "s1") || !strings.Contains(s, "total") {
		t.Errorf("String missing rows:\n%s", s)
	}
}

func TestEqualDistSumsAndSpreads(t *testing.T) {
	tr := model.UCFTestbedN(3)
	d := EqualDist(tr, 10)
	if d.Total() != 10 {
		t.Errorf("total %d, want 10", d.Total())
	}
	if d[0] != 4 || d[1] != 3 || d[2] != 3 {
		t.Errorf("d = %v, want [4 3 3]", d)
	}
}

func TestBalancedDistProportionalToShares(t *testing.T) {
	tr := model.UCFTestbed()
	n := 1000000
	d := BalancedDist(tr, n)
	if d.Total() != n {
		t.Fatalf("total %d, want %d", d.Total(), n)
	}
	fast := d[tr.Pid(tr.FastestLeaf())]
	slow := d[tr.Pid(tr.SlowestLeaf())]
	if fast <= slow {
		t.Errorf("fastest gets %d, slowest %d; want fastest > slowest", fast, slow)
	}
	wantRatio := tr.FastestLeaf().Share / tr.SlowestLeaf().Share
	gotRatio := float64(fast) / float64(slow)
	if math.Abs(gotRatio-wantRatio) > 0.05*wantRatio {
		t.Errorf("ratio %v, want ~%v", gotRatio, wantRatio)
	}
}

func TestGatherFlatMatchesPaperForm(t *testing.T) {
	// §4.2: with balanced workloads the gather cost is g·n + L_{1,0},
	// because the root's receive side r_{1,0}·(n − x_f) is within g·n
	// and every sender satisfies r_j·c_j·n < n.
	tr := model.UCFTestbed()
	n := 100000
	d := BalancedDist(tr, n)
	rootPid := tr.Pid(tr.FastestLeaf())
	got := GatherFlat(tr, rootPid, d).Total()
	paper := Gather1Paper(tr, n)
	// Exact cost is at most the paper bound and within the root's kept
	// share of it.
	if got > paper {
		t.Errorf("exact gather %v exceeds paper bound %v", got, paper)
	}
	if got < paper*0.7 {
		t.Errorf("exact gather %v implausibly below paper bound %v", got, paper)
	}
}

func TestGatherRootReceiveDominates(t *testing.T) {
	// With a slow root, the root's receive term r_s·(n − x_s) dominates.
	tr := twoProc(4, 0)
	d := Dist{600, 400} // fast holds 600, slow holds 400
	slowRoot := GatherFlat(tr, 1, d).Total()
	fastRoot := GatherFlat(tr, 0, d).Total()
	// slow root: fast sends 600, slow receives 600 → h = max(600, 4*600) = 2400
	if slowRoot != 2400 {
		t.Errorf("slow-root gather = %v, want 2400", slowRoot)
	}
	// fast root: slow sends 400 at r=4 → 1600; fast receives 400 → h=1600
	if fastRoot != 1600 {
		t.Errorf("fast-root gather = %v, want 1600", fastRoot)
	}
}

// TestGatherHierOnHBSP1EqualsFlat: on an HBSP^1 machine the
// hierarchical gather is the flat one, each piece framed with its
// PieceHeader.
func TestGatherHierOnHBSP1EqualsFlat(t *testing.T) {
	tr := model.UCFTestbed()
	d := BalancedDist(tr, 50000)
	framed := make(Dist, len(d))
	for pid, bytes := range d {
		framed[pid] = bytes + PieceHeader
	}
	hier := GatherHier(tr, d).Total()
	flat := GatherFlat(tr, tr.Pid(tr.FastestLeaf()), framed).Total()
	if math.Abs(hier-flat) > 1e-9 {
		t.Errorf("hier = %v, flat = %v; want equal on an HBSP^1 machine", hier, flat)
	}
}

func TestGatherHierHasKSteps(t *testing.T) {
	tr := model.Figure1Cluster()
	b := GatherHier(tr, BalancedDist(tr, 10000))
	if len(b.Steps) != 2 {
		t.Fatalf("HBSP^2 gather has %d step groups, want 2 (super1 + super2)", len(b.Steps))
	}
	if b.Steps[0].Level != 1 || b.Steps[1].Level != 2 {
		t.Errorf("step levels = %d,%d; want 1,2", b.Steps[0].Level, b.Steps[1].Level)
	}
}

func TestBcastOnePhaseVsTwoPhaseCrossover(t *testing.T) {
	// §4.4: "For reasonable values of r_{0,s}, the two-phase approach is
	// the better overall performer." With 10 machines and r_s ≈ 1.65,
	// two-phase must win for large n; with a tiny n below the crossover,
	// one-phase wins (it pays L only once).
	tr := model.UCFTestbed()
	big := 100000
	if !TwoPhaseWins(tr, big) {
		t.Errorf("two-phase should win at n=%d", big)
	}
	nstar := TwoPhaseCrossoverSize(tr)
	if math.IsInf(nstar, 1) {
		t.Fatalf("crossover should be finite for the testbed")
	}
	small := int(nstar * 0.5)
	if small > 0 && TwoPhaseWins(tr, small) {
		t.Errorf("one-phase should win below the crossover (n=%d < n*=%v)", small, nstar)
	}
	if !TwoPhaseWins(tr, int(nstar*2)+1) {
		t.Errorf("two-phase should win above the crossover")
	}
}

func TestCrossoverInfiniteWhenSlowestTooSlow(t *testing.T) {
	// r_{0,s} ≥ m − 2 makes the two-phase approach never win: the paper
	// notes such a machine should be excluded from the computation.
	tr := twoProc(50, 10)
	if got := TwoPhaseCrossoverSize(tr); !math.IsInf(got, 1) {
		t.Errorf("crossover = %v, want +Inf", got)
	}
}

func TestBcastTwoPhaseFlatMatchesPaperForm(t *testing.T) {
	// Equal pieces, fast root: cost should approximate
	// g·n·(1 + r_{0,s}) + 2·L_{1,0}.
	tr := model.UCFTestbed()
	n := 500000
	d := EqualDist(tr, n)
	got := BcastTwoPhaseFlat(tr, tr.Pid(tr.FastestLeaf()), d).Total()
	want := Bcast1TwoPhasePaper(tr, n)
	if math.Abs(got-want)/want > 0.12 {
		t.Errorf("two-phase exact %v vs paper form %v: drift > 12%%", got, want)
	}
}

func TestBcastHierOrdersLevelsTopDown(t *testing.T) {
	tr := model.Figure1Cluster()
	b := BcastHier(tr, 10000, false)
	if len(b.Steps) < 2 {
		t.Fatalf("expected at least 2 step groups, got %d", len(b.Steps))
	}
	if b.Steps[0].Level != 2 {
		t.Errorf("first step level = %d, want 2 (top-down)", b.Steps[0].Level)
	}
	last := b.Steps[len(b.Steps)-1]
	if last.Level != 1 {
		t.Errorf("last step level = %d, want 1", last.Level)
	}
}

// TestBcastHierExchangeSkipsTheRootAtNoCost: the hierarchical
// broadcast's exchange sends a scope's root nothing, and the h-relation
// of that phase is the one of the all-pairs exchange of the same pieces
// that sent the root its pieces back. When m divides n the root sends
// m−1 pieces of the size it would receive, so what it would receive
// never sets its h. When m does not, pieces differ by a byte: a
// coordinator holding a longer one sends it to the root too in the
// all-pairs exchange, which may set its h, so the exchange's h is at
// most the all-pairs one.
func TestBcastHierExchangeSkipsTheRootAtNoCost(t *testing.T) {
	for _, tc := range []struct {
		name string
		tr   *model.Tree
	}{
		{"figure1", model.Figure1Cluster()},
		{"grid", model.WideAreaGrid(3, 4, 15, 100, 2000)},
		{"chain", model.DeepChain(3)},
		{"flat", model.UCFTestbedN(7)},
	} {
		for lvl := 1; lvl <= tc.tr.K(); lvl++ {
			for _, scope := range tc.tr.MachinesAt(lvl) {
				if scope.IsLeaf() {
					continue
				}
				for _, n := range []int{768, 7777, 64 << 10} {
					steps := bcastScopeSteps(tc.tr, scope, n, true)
					m := len(scope.Children)
					var allPairs []Flow
					for i, src := range scope.Children {
						piece := n / m
						if i < n%m {
							piece++
						}
						for _, dst := range scope.Children {
							allPairs = append(allPairs, Flow{
								Src:   tc.tr.Pid(src.Coordinator()),
								Dst:   tc.tr.Pid(dst.Coordinator()),
								Bytes: piece,
							})
						}
					}
					got, want := steps[1].H, HRelation(tc.tr, scope, allPairs)
					if got > want || (n%m == 0 && got != want) {
						t.Errorf("%s %s n=%d: exchange h %v, all-pairs h %v", tc.name, scope.Name, n, got, want)
					}
				}
			}
		}
	}
}

func TestBcast2TwoPhaseSuper2PaperRegimes(t *testing.T) {
	// Build HBSP^2 with 3 clusters; vary the slowest cluster r around
	// m=3 to hit both branches of the paper's formula.
	build := func(rs float64) *model.Tree {
		mk := func(name string, r float64) *model.Machine {
			return model.NewCluster(name, []*model.Machine{
				model.NewLeaf(name+"-0", model.WithComm(1)),
			}, model.WithComm(r), model.WithSync(5))
		}
		root := model.NewCluster("top", []*model.Machine{
			mk("c0", 1), mk("c1", 2), mk("c2", rs),
		}, model.WithSync(50))
		return model.MustNew(root, 1).Normalize()
	}
	n := 1000
	// r_{1,s} = 2 < m = 3: cost = g·n·(r_s + 1) + 2L = 3000 + 100.
	if got, want := Bcast2TwoPhaseSuper2Paper(build(2), n), 3100.0; math.Abs(got-want) > 1e-6 {
		t.Errorf("r_s<m: got %v, want %v", got, want)
	}
	// r_{1,s} = 6 > m = 3: cost = g·6n·(1/3 + 1) + 2L = 8000 + 100.
	if got, want := Bcast2TwoPhaseSuper2Paper(build(6), n), 8100.0; math.Abs(got-want) > 1e-6 {
		t.Errorf("r_s>m: got %v, want %v", got, want)
	}
}

func TestHierarchyPenaltyShrinksWithN(t *testing.T) {
	// §3.4/§4.3: the extra synchronization/communication of the
	// hierarchy is amortized as the problem grows.
	tr := model.Figure1Cluster()
	small := HierarchyPenalty(tr, 1000)
	large := HierarchyPenalty(tr, 10000000)
	if small <= large {
		t.Errorf("penalty should shrink with n: small-n %v, large-n %v", small, large)
	}
	if large < 1 {
		t.Errorf("large-n penalty %v < 1: hierarchy cannot beat the flat bound on a gather", large)
	}
}

func TestScatterMirrorsGather(t *testing.T) {
	// Scatter and gather are wire-symmetric: same h-relation when the
	// same distribution flows in the opposite direction.
	tr := model.UCFTestbed()
	d := BalancedDist(tr, 40000)
	root := tr.Pid(tr.FastestLeaf())
	g := GatherFlat(tr, root, d).Total()
	s := ScatterFlat(tr, root, d).Total()
	if math.Abs(g-s) > 1e-9 {
		t.Errorf("gather %v != scatter %v", g, s)
	}
}

func TestReduceHierBeatsFlatOnSlowWAN(t *testing.T) {
	// Hierarchical reduction sends one combined value per cluster over
	// the WAN instead of every leaf's value: it must win on an HBSP^2
	// machine with slow upper links once per-leaf pieces are nontrivial.
	tr := model.WideAreaGrid(3, 8, 20, 10, 200)
	d := EqualDist(tr, 24*1000)
	root := tr.Pid(tr.FastestLeaf())
	flat := ReduceFlat(tr, root, d, 0.1).Total()
	hier := ReduceHier(tr, d, 0.1).Total()
	if hier >= flat {
		t.Errorf("hierarchical reduce %v should beat flat %v on a slow WAN", hier, flat)
	}
}

func TestAllGatherFlatCost(t *testing.T) {
	tr := twoProc(2, 5)
	d := Dist{100, 100}
	// Each sends 100 to the other: h_fast = 100, h_slow = 2·100 = 200;
	// T = 200 + 5.
	if got := AllGatherFlat(tr, d).Total(); got != 205 {
		t.Errorf("allgather = %v, want 205", got)
	}
}

func TestTotalExchangeFlatCost(t *testing.T) {
	tr := model.Homogeneous(4, 0)
	d := EqualDist(tr, 4000) // 1000 each; sends 250 to each of 3 peers
	// h_j = max(sent 750, recv 750) = 750 for all, r = 1.
	if got := TotalExchangeFlat(tr, d).Total(); got != 750 {
		t.Errorf("total exchange = %v, want 750", got)
	}
}

func TestScanFlatIsReducePlusScatter(t *testing.T) {
	tr := model.UCFTestbed()
	d := EqualDist(tr, 10000)
	root := tr.Pid(tr.FastestLeaf())
	scan := ScanFlat(tr, root, d, 0.01).Total()
	want := ReduceFlat(tr, root, d, 0.01).Total() + ScatterFlat(tr, root, d).Total()
	if math.Abs(scan-want) > 1e-9 {
		t.Errorf("scan = %v, want reduce+scatter = %v", scan, want)
	}
}

func TestAllReduceAddsBroadcast(t *testing.T) {
	tr := model.Figure1Cluster()
	d := EqualDist(tr, 9000)
	ar := AllReduceHier(tr, d, 0.05).Total()
	r := ReduceHier(tr, d, 0.05).Total()
	if ar <= r {
		t.Errorf("allreduce %v should cost more than reduce %v", ar, r)
	}
}

func TestFlattenPreservesLeaves(t *testing.T) {
	tr := model.Figure1Cluster()
	f := Flatten(tr)
	if f.K() != 1 {
		t.Errorf("flattened K = %d, want 1", f.K())
	}
	if f.NProcs() != tr.NProcs() {
		t.Errorf("flattened NProcs = %d, want %d", f.NProcs(), tr.NProcs())
	}
	if err := f.Validate(); err != nil {
		t.Errorf("flattened tree invalid: %v", err)
	}
}

func TestBestGatherRootFollowsCoordinatorRule(t *testing.T) {
	tr := model.UCFTestbed()
	d := BalancedDist(tr, 200000)
	pid, tm := BestGatherRoot(tr, d, nil)
	if pid != tr.Pid(tr.FastestLeaf()) {
		t.Errorf("best root = %d, want the fastest machine %d", pid, tr.Pid(tr.FastestLeaf()))
	}
	if want := GatherFlat(tr, pid, d).Total(); math.Abs(tm-want) > 1e-9 {
		t.Errorf("best time %v != gather cost %v", tm, want)
	}
}

func TestBestGatherRootMovesUnderAsymmetricRates(t *testing.T) {
	// Two clusters; B→A uploads congested 8x. The best root leaves
	// cluster A even though A has the fastest machine.
	mk := func(name string, base float64) *model.Machine {
		return model.NewCluster(name, []*model.Machine{
			model.NewLeaf(name+"-0", model.WithComm(base), model.WithComp(base)),
			model.NewLeaf(name+"-1", model.WithComm(base*1.1), model.WithComp(base*1.1)),
		}, model.WithComm(base*5), model.WithSync(1000))
	}
	tr := model.MustNew(model.NewCluster("wan",
		[]*model.Machine{mk("A", 1), mk("B", 1.3)}, model.WithSync(10000)), 1).Normalize()
	d := BalancedDist(tr, 100000)
	rt := model.NewRateTable().Set("B", "A", 8)
	scalarPid, _ := BestGatherRoot(tr, d, nil)
	ratedPid, _ := BestGatherRoot(tr, d, rt)
	if scalarPid != tr.Pid(tr.FastestLeaf()) {
		t.Fatalf("scalar best root = %d, want fastest", scalarPid)
	}
	// Under the asymmetric link the optimum moves into cluster B.
	inB := false
	for _, l := range tr.Root.Children[1].Leaves() {
		if tr.Pid(l) == ratedPid {
			inB = true
		}
	}
	if !inB {
		t.Errorf("rated best root = %d, want a cluster-B processor", ratedPid)
	}
}

func TestTable1RendersAllSymbols(t *testing.T) {
	out := RenderTable1(model.Figure1Cluster())
	for _, sym := range []string{"M_{i,j}", "m_i", "m_{i,j}", "g", "r_{i,j}", "L_{i,j}", "c_{i,j}", "h", "h_{i,j}", "T_i"} {
		if !strings.Contains(out, sym) {
			t.Errorf("Table 1 missing symbol %q", sym)
		}
	}
	if !strings.Contains(out, "m_2=1") {
		t.Errorf("Table 1 values not rendered:\n%s", out)
	}
}
