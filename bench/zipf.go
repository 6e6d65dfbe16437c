package main

import (
	"math"
	"math/rand"
	"sort"
)

// zipf draws ranks 0..n-1 with P(rank r) proportional to 1/(r+1)^theta.
// math/rand's Zipf needs an exponent above 1; the YCSB/UniBench skew is
// 0.99, so the distribution is tabulated and sampled by binary search.
type zipf struct {
	cdf []float64
}

func newZipf(n int, theta float64) *zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for r := 0; r < n; r++ {
		sum += 1 / math.Pow(float64(r+1), theta)
		cdf[r] = sum
	}
	for r := range cdf {
		cdf[r] /= sum
	}
	return &zipf{cdf: cdf}
}

func (z *zipf) rank(r *rand.Rand) int {
	i := sort.SearchFloat64s(z.cdf, r.Float64())
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}

// scatter maps a rank to an item so that hot ranks are not neighbouring keys:
// 7919 is prime and divides none of the keyspace sizes used here, so
// multiplication mod n is a permutation.
func scatter(rank, n int) int { return rank * 7919 % n }
