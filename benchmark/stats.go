package main

import (
	"math"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs by the method
// of Python's statistics.quantiles(xs, n=4) (the "exclusive" method),
// so spreads computed here match ones computed in Python from the same
// values. A single value is its own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(m)
}

// geomean returns the geometric mean of positive values; NaN when xs is
// empty or holds a non-positive value.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var logSum float64
	for _, x := range xs {
		if x <= 0 {
			return math.NaN()
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}

// minBeyond is how many samples must lie beyond a percentile before it
// is reported.
const minBeyond = 10

// percentile returns the p-th percentile (0 < p < 1, nearest rank) of
// xs, and false when fewer than minBeyond samples lie beyond it: p90
// needs at least 100 samples.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 || float64(n)*(1-p) < minBeyond-1e-9 {
		return math.NaN(), false
	}
	s := sorted(xs)
	rank := int(math.Ceil(p*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank], true
}
