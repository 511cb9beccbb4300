// Package stats provides the small statistics toolkit the experiment
// harness needs: summary statistics of repeated noisy runs and least
// squares fits for recovering the machine parameters g and L from probe
// measurements, the way BSP implementations are parameterized
// (reference [8] of the paper).
package stats

import (
	"errors"
	"math"
)

// Mean returns the arithmetic mean; NaN for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the sample standard deviation; 0 for fewer than two
// points.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		s += (x - m) * (x - m)
	}
	return math.Sqrt(s / float64(len(xs)-1))
}

// MinMax returns the extremes; NaNs for empty input.
func MinMax(xs []float64) (min, max float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN()
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max
}

// ErrDegenerate is returned by LinearFit when the x values carry no
// spread.
var ErrDegenerate = errors.New("stats: degenerate fit (no x variance)")

// LinearFit computes the least squares line y ≈ intercept + slope·x and
// the coefficient of determination R². Fitting superstep times against
// h-relation sizes recovers L as the intercept and g as the slope.
func LinearFit(xs, ys []float64) (intercept, slope, r2 float64, err error) {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0, 0, 0, errors.New("stats: need at least two matched points")
	}
	mx, my := Mean(xs), Mean(ys)
	sxx, sxy, syy := 0.0, 0.0, 0.0
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return 0, 0, 0, ErrDegenerate
	}
	slope = sxy / sxx
	intercept = my - slope*mx
	if syy == 0 {
		r2 = 1 // a constant fit explains a constant signal perfectly
	} else {
		r2 = sxy * sxy / (sxx * syy)
	}
	return intercept, slope, r2, nil
}

// RelErr returns |got-want| / |want|, or |got| when want is zero.
func RelErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}
