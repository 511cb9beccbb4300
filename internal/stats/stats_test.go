package stats

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMeanStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("mean = %v, want 5", m)
	}
	if s := StdDev(xs); math.Abs(s-2.138) > 0.01 {
		t.Errorf("stddev = %v, want ≈2.138", s)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean(nil) should be NaN")
	}
	if StdDev([]float64{1}) != 0 {
		t.Error("StdDev of one point should be 0")
	}
}

func TestMinMax(t *testing.T) {
	min, max := MinMax([]float64{3, -1, 7, 2})
	if min != -1 || max != 7 {
		t.Errorf("MinMax = %v,%v", min, max)
	}
}

func TestLinearFitRecoversLine(t *testing.T) {
	// y = 25000 + 0.08 x exactly: the shape of a g/L parameterization.
	var xs, ys []float64
	for i := 0; i < 20; i++ {
		x := float64(i * 50000)
		xs = append(xs, x)
		ys = append(ys, 25000+0.08*x)
	}
	l, g, r2, err := LinearFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(l-25000) > 1e-6 || math.Abs(g-0.08) > 1e-12 || r2 < 0.999999 {
		t.Errorf("fit L=%v g=%v R²=%v", l, g, r2)
	}
}

func TestLinearFitDegenerate(t *testing.T) {
	_, _, _, err := LinearFit([]float64{1, 1, 1}, []float64{2, 3, 4})
	if !errors.Is(err, ErrDegenerate) {
		t.Errorf("err = %v, want ErrDegenerate", err)
	}
	if _, _, _, err := LinearFit([]float64{1}, []float64{2}); err == nil {
		t.Error("single point accepted")
	}
}

func TestRelErr(t *testing.T) {
	if RelErr(110, 100) != 0.1 {
		t.Errorf("RelErr(110,100) = %v", RelErr(110, 100))
	}
	if RelErr(5, 0) != 5 {
		t.Errorf("RelErr(5,0) = %v", RelErr(5, 0))
	}
}

// Property: LinearFit recovers any non-degenerate line exactly (up to
// float error) from noiseless samples.
func TestPropertyLinearFitExact(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := rng.Float64()*1000 - 500
		b := rng.Float64()*10 - 5
		var xs, ys []float64
		for i := 0; i < 10; i++ {
			x := rng.Float64() * 100
			xs = append(xs, x)
			ys = append(ys, a+b*x)
		}
		ia, ib, _, err := LinearFit(xs, ys)
		if err != nil {
			return errors.Is(err, ErrDegenerate)
		}
		return math.Abs(ia-a) < 1e-6*(1+math.Abs(a)) && math.Abs(ib-b) < 1e-6*(1+math.Abs(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
