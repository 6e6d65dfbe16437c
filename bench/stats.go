package main

import (
	"errors"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile: with
// fewer, the figure is a property of a handful of outliers, not of the system.
const minBeyond = 10

var errTooFewSamples = errors.New("too few samples beyond the percentile")

// percentile returns the nearest-rank q-quantile (0<q<1) of xs, which must be
// sorted ascending. It refuses when fewer than minBeyond samples lie beyond
// the chosen rank.
func percentile(sorted []float64, q float64) (float64, error) {
	n := len(sorted)
	rank := int(math.Ceil(q * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, errTooFewSamples
	}
	return sorted[rank-1], nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles mirrors Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), which is what the acceptance rule for this benchmark
// is written in. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, _, q3 := quartiles(xs)
	if m := median(xs); m != 0 {
		return (q3 - q1) / math.Abs(m)
	}
	return math.Inf(1)
}
