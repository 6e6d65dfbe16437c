package main

import (
	"errors"
	"math"
	"sort"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileRefusesThinTail(t *testing.T) {
	// p90 of 100 samples has exactly 10 beyond it; of 99, only 9.
	if v, err := percentile(seq(100), 0.90); err != nil || v != 90 {
		t.Fatalf("p90 of 100 = %v, %v; want 90", v, err)
	}
	if _, err := percentile(seq(99), 0.90); !errors.Is(err, errTooFewSamples) {
		t.Fatalf("p90 of 99 samples: err = %v, want errTooFewSamples", err)
	}
	if _, err := percentile(seq(999), 0.99); !errors.Is(err, errTooFewSamples) {
		t.Fatalf("p99 of 999 samples: err = %v, want errTooFewSamples", err)
	}
	if v, err := percentile(seq(1000), 0.99); err != nil || v != 990 {
		t.Fatalf("p99 of 1000 = %v, %v; want 990", v, err)
	}
	if v, err := percentile(seq(21), 0.50); err != nil || v != 11 {
		t.Fatalf("p50 of 21 = %v, %v; want 11", v, err)
	}
	if _, err := percentile(nil, 0.50); err == nil {
		t.Fatal("p50 of no samples accepted")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles(seq(10))
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles(1..10) = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6], n=4) == [1.25, 3.5, 5.75]
	q1, q2, q3 = quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6})
	if q1 != 1.25 || q2 != 3.5 || q3 != 5.75 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
	if s := spread(seq(10)); math.Abs(s-1) > 1e-12 {
		t.Fatalf("spread(1..10) = %v, want (8.25-2.75)/5.5 = 1", s)
	}
}

func TestMedianLeavesInputAlone(t *testing.T) {
	xs := []float64{5, 1, 3}
	if m := median(xs); m != 3 {
		t.Fatalf("median = %v", m)
	}
	if sort.Float64sAreSorted(xs) {
		t.Fatal("median sorted its argument")
	}
}
