package main

import (
	"math"
	"slices"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

// percentile returns the q-quantile (0..1) of xs by linear
// interpolation between order statistics; 0 for an empty sample.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// quartileSpread is the distance between the first and third quartile
// as a share of the median, with the quartiles computed the way
// Python's statistics.quantiles(xs, n=4) computes them (the exclusive
// method) so the number matches what the PR driver checks. It needs two
// values; with fewer the spread is 0.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	med := median(xs)
	if n < 2 || med == 0 {
		return 0
	}
	s := sorted(xs)
	quart := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return math.Abs(quart(3)-quart(1)) / math.Abs(med)
}

// fitLatencyGap fits t = L + g·n through the (bytes, time) points and
// returns the intercept L and the slope g. The points are weighted by
// 1/t², so the fit minimises relative error: with sizes spanning four
// decades the unweighted stats.LinearFit would be decided by the
// largest message alone and the intercept would be noise.
func fitLatencyGap(bytes, t []float64) (L, g float64) {
	var sw, sx, sy, sxx, sxy float64
	for i := range bytes {
		w := 1 / (t[i] * t[i])
		sw += w
		sx += w * bytes[i]
		sy += w * t[i]
		sxx += w * bytes[i] * bytes[i]
		sxy += w * bytes[i] * t[i]
	}
	den := sw*sxx - sx*sx
	if den == 0 {
		return 0, 0
	}
	g = (sw*sxy - sx*sy) / den
	L = (sy - g*sx) / sw
	return L, g
}
