package bytemark

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"hbspk/internal/model"
)

func TestTenKernelsLikeTheOriginal(t *testing.T) {
	if len(kernelNames) != 10 {
		t.Fatalf("suite has %d kernels, want 10 (BYTEmark's count)", len(kernelNames))
	}
	names := map[string]bool{}
	for _, name := range kernelNames {
		names[name] = true
	}
	for _, want := range []string{"numeric-sort", "string-sort", "fourier", "lu-decomposition"} {
		if !names[want] {
			t.Errorf("missing kernel %q", want)
		}
	}
}

func TestMeasureExactWithoutNoise(t *testing.T) {
	tr := model.UCFTestbed()
	ixs := Suite{NoiseAmp: 0, Seed: 1}.Measure(tr)
	// Noiseless measurement recovers exactly 1/slowdown (normalized).
	for _, ix := range ixs {
		want := 1 / ix.Machine.CompSlowdown
		if math.Abs(ix.Composite-want) > 1e-9 {
			t.Errorf("%s: index %v, want %v", ix.Machine.Name, ix.Composite, want)
		}
	}
}

func TestMeasureRankingMostlyCorrectWithNoise(t *testing.T) {
	tr := model.UCFTestbed()
	ixs := DefaultSuite(7).Measure(tr)
	ranked := Ranking(ixs)
	// With 8% noise the extremes must still rank correctly: the spread
	// of true slowdowns (1 to 2.2) dominates the error.
	if ranked[0].Machine != tr.FastestLeaf() {
		t.Errorf("fastest misranked: got %s", ranked[0].Machine.Name)
	}
	if ranked[len(ranked)-1].Machine != tr.SlowestLeaf() {
		t.Errorf("slowest misranked: got %s", ranked[len(ranked)-1].Machine.Name)
	}
}

func TestMeasureDeterministicPerSeed(t *testing.T) {
	tr := model.UCFTestbedN(4)
	a := DefaultSuite(3).Measure(tr)
	b := DefaultSuite(3).Measure(tr)
	for i := range a {
		if a[i].Composite != b[i].Composite {
			t.Errorf("machine %d: %v vs %v", i, a[i].Composite, b[i].Composite)
		}
	}
	c := DefaultSuite(4).Measure(tr)
	same := true
	for i := range a {
		if a[i].Composite != c[i].Composite {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical noisy measurements")
	}
}

func TestApplySharesFollowsIndices(t *testing.T) {
	tr := model.UCFTestbed()
	ixs := Suite{NoiseAmp: 0, Seed: 1}.Measure(tr)
	ApplyShares(tr, ixs)
	if err := tr.Validate(); err != nil {
		t.Fatalf("tree invalid after ApplyShares: %v", err)
	}
	// Noiseless: shares ∝ 1/slowdown, so fastest/slowest share ratio
	// equals slowest/fastest slowdown ratio.
	f, s := tr.FastestLeaf(), tr.SlowestLeaf()
	want := s.CompSlowdown / f.CompSlowdown
	got := f.Share / s.Share
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("share ratio %v, want %v", got, want)
	}
}

func TestTableRendersRanking(t *testing.T) {
	tr := model.UCFTestbedN(4)
	ixs := Suite{NoiseAmp: 0, Seed: 1}.Measure(tr)
	out := Table(ixs).String()
	if !strings.Contains(out, "BYTEmark ranking") || !strings.Contains(out, "sgi-o2-a") {
		t.Errorf("table missing content:\n%s", out)
	}
}

// Property: the composite index is always in (0, 1] and the best machine
// scores exactly 1, for any seed and noise level under 50%.
func TestPropertyIndexNormalization(t *testing.T) {
	tr := model.UCFTestbedN(5)
	f := func(seed int64, noiseRaw uint8) bool {
		noise := float64(noiseRaw%50) / 100
		ixs := Suite{NoiseAmp: noise, Seed: seed}.Measure(tr)
		best := 0.0
		for _, ix := range ixs {
			if ix.Composite <= 0 || ix.Composite > 1+1e-12 {
				return false
			}
			if ix.Composite > best {
				best = ix.Composite
			}
		}
		return math.Abs(best-1) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestKernelTableHasAllColumns(t *testing.T) {
	tr := model.UCFTestbedN(3)
	ixs := Suite{NoiseAmp: 0, Seed: 1}.Measure(tr)
	tb := KernelTable(ixs)
	if len(tb.Header) != 2+len(kernelNames) {
		t.Errorf("header has %d columns, want %d", len(tb.Header), 2+len(kernelNames))
	}
	if len(tb.Rows) != 3 {
		t.Errorf("%d rows, want 3", len(tb.Rows))
	}
	out := tb.String()
	for _, name := range kernelNames {
		if !strings.Contains(out, name) {
			t.Errorf("missing kernel column %q", name)
		}
	}
}
