package experiments

import (
	"testing"

	"hbspk/internal/fabric"
	"hbspk/internal/model"
)

// last returns the series' final Y value (largest problem size).
func last(s Series) float64 { return s.Points[len(s.Points)-1].Y }

// byName finds a series.
func byName(t *testing.T, res *Result, name string) Series {
	t.Helper()
	for _, s := range res.Series {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("series %q missing from %s", name, res.ID)
	return Series{}
}

func TestFigure3aShape(t *testing.T) {
	res, err := Figure3a(Quick())
	if err != nil {
		t.Fatal(err)
	}
	// Paper: T_s/T_f < 1 at p=2.
	p2 := byName(t, res, "p=2")
	for _, pt := range p2.Points {
		if pt.Y >= 1 {
			t.Errorf("p=2 improvement %v at n=%v, want < 1 (§5.2 anomaly)", pt.Y, pt.X)
		}
	}
	// Paper: improvement grows with p.
	p4, p10 := byName(t, res, "p=4"), byName(t, res, "p=10")
	if last(p4) <= last(p2) {
		t.Errorf("improvement not growing: p=4 %v vs p=2 %v", last(p4), last(p2))
	}
	if last(p10) <= last(p4) {
		t.Errorf("improvement not growing: p=10 %v vs p=4 %v", last(p10), last(p4))
	}
	if last(p10) < 1.2 {
		t.Errorf("p=10 improvement %v too small to be the paper's win", last(p10))
	}
	// Paper: steady across problem sizes — the largest and smallest
	// sizes differ by < 25% at p=10.
	first := p10.Points[0].Y
	if d := last(p10)/first - 1; d > 0.25 || d < -0.25 {
		t.Errorf("p=10 improvement varies %v%% across sizes, want steady", d*100)
	}
}

func TestFigure3bShape(t *testing.T) {
	res, err := Figure3b(Quick())
	if err != nil {
		t.Fatal(err)
	}
	// Paper: benefit at p=2 only.
	if v := last(byName(t, res, "p=2")); v < 1.15 {
		t.Errorf("p=2 balanced improvement %v, want clear benefit (> 1.15)", v)
	}
	for _, name := range []string{"p=4", "p=10"} {
		v := last(byName(t, res, name))
		if v < 0.85 || v > 1.25 {
			t.Errorf("%s improvement %v, want ≈1 (virtually no benefit)", name, v)
		}
	}
}

// shares returns the leaf shares of the p-processor testbed drawn under seed.
func shares(p int, seed int64) []float64 {
	var out []float64
	for _, l := range testbedWithMeasuredShares(p, seed).Leaves() {
		out = append(out, l.Share)
	}
	return out
}

// The drawn shares rank the extremes right: 8% estimation error cannot
// outweigh the testbed's 2.2x compute spread at either end.
func TestMeasuredSharesRankTheExtremes(t *testing.T) {
	tr := testbedWithMeasuredShares(model.TestbedSize, 7)
	fast, slow := tr.FastestLeaf(), tr.SlowestLeaf()
	for _, l := range tr.Leaves() {
		if l.Share > fast.Share || l.Share < slow.Share {
			t.Errorf("%s's share %v lies outside [%v (slowest), %v (fastest)]", l.Name, l.Share, slow.Share, fast.Share)
		}
	}
}

// Replicate varies the seed: each seed draws its own shares, and the
// same seed the same ones.
func TestMeasuredSharesFollowTheSeed(t *testing.T) {
	a, b, c := shares(4, 3), shares(4, 3), shares(4, 4)
	differ := false
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("leaf %d: seed 3 drew %v, then %v", i, a[i], b[i])
		}
		differ = differ || a[i] != c[i]
	}
	if !differ {
		t.Error("seeds 3 and 4 drew the same shares")
	}
}

func TestPaperSizes(t *testing.T) {
	sizes := PaperSizes()
	if len(sizes) != 10 || sizes[0] != 100*KB || sizes[9] != 1000*KB {
		t.Errorf("sizes = %v", sizes)
	}
}

func TestFigure4aShape(t *testing.T) {
	res, err := Figure4a(Quick())
	if err != nil {
		t.Fatal(err)
	}
	// Paper: negligible improvement everywhere.
	for _, s := range res.Series {
		for _, pt := range s.Points {
			if pt.Y < 0.8 || pt.Y > 1.3 {
				t.Errorf("%s: improvement %v at n=%v, want ≈1", s.Name, pt.Y, pt.X)
			}
		}
	}
}

func TestFigure4bShape(t *testing.T) {
	res, err := Figure4b(Quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Series {
		for _, pt := range s.Points {
			if pt.Y < 0.8 || pt.Y > 1.3 {
				t.Errorf("%s: improvement %v at n=%v, want ≈1 (no benefit)", s.Name, pt.Y, pt.X)
			}
		}
	}
}

func TestBroadcastCrossoverRegimes(t *testing.T) {
	res, err := BroadcastCrossover(Quick())
	if err != nil {
		t.Fatal(err)
	}
	one := byName(t, res, "one-phase")
	two := byName(t, res, "two-phase")
	// Below the crossover (first injected point, n*/4) one-phase wins;
	// at the paper's sizes two-phase wins.
	if one.Points[0].Y >= two.Points[0].Y {
		t.Errorf("below crossover: one-phase %v should beat two-phase %v",
			one.Points[0].Y, two.Points[0].Y)
	}
	n := len(one.Points)
	if two.Points[n-1].Y >= one.Points[n-1].Y {
		t.Errorf("at 1000KB: two-phase %v should beat one-phase %v",
			two.Points[n-1].Y, one.Points[n-1].Y)
	}
}

func TestHierarchyPenaltyShrinks(t *testing.T) {
	res, err := HierarchyPenalty(Quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Series {
		first, lastV := s.Points[0].Y, last(s)
		if lastV >= first {
			t.Errorf("%s: penalty grew with n (%v → %v), want amortization", s.Name, first, lastV)
		}
		if lastV < 1 {
			t.Errorf("%s: penalty %v < 1; hierarchy cannot beat the flat gather", s.Name, lastV)
		}
	}
}

func TestAllRunnersProduceTables(t *testing.T) {
	cfg := Quick()
	for _, r := range All() {
		res, err := r.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", r.ID, err)
		}
		if res.ID != r.ID {
			t.Errorf("runner %s returned result id %s", r.ID, res.ID)
		}
		if res.Table == nil || len(res.Table.Rows) == 0 {
			t.Errorf("%s: empty table", r.ID)
		}
		if res.PaperClaim == "" {
			t.Errorf("%s: missing paper claim", r.ID)
		}
	}
}

func TestLookup(t *testing.T) {
	if _, ok := Lookup("fig3a"); !ok {
		t.Error("fig3a not found")
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("bogus id found")
	}
}

func TestFiguresDeterministic(t *testing.T) {
	a, err := Figure3a(Quick())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Figure3a(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if a.Table.CSV() != b.Table.CSV() {
		t.Error("Figure3a not deterministic")
	}
}

func TestNoisyFabricStillShowsFig3aTrend(t *testing.T) {
	// With non-dedicated-cluster noise the qualitative ordering must
	// survive: p=10 improvement above p=2's.
	cfg := Quick()
	cfg.Fabric = fabric.PVM()
	cfg.Fabric.Noise, cfg.Fabric.Seed = 0.15, 99
	cfg.Sizes = []int{500 * KB}
	res, err := Figure3a(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if last(byName(t, res, "p=10")) <= last(byName(t, res, "p=2")) {
		t.Error("noise destroyed the p trend")
	}
}
