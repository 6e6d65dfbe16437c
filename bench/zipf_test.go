package main

import (
	"math"
	"math/rand"
	"testing"
)

func TestZipfShape(t *testing.T) {
	const n, draws = 1000, 400000
	z := newZipf(n, zipfTheta)
	r := rand.New(rand.NewSource(1))
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		k := z.rank(r)
		if k < 0 || k >= n {
			t.Fatalf("rank %d out of range", k)
		}
		counts[k]++
	}
	h := 0.0
	for k := 1; k <= n; k++ {
		h += 1 / math.Pow(float64(k), zipfTheta)
	}
	for _, k := range []int{0, 1, 9, 99} {
		want := draws / math.Pow(float64(k+1), zipfTheta) / h
		if got := float64(counts[k]); math.Abs(got-want) > 0.1*want+30 {
			t.Errorf("rank %d drawn %v times, want about %.0f", k, got, want)
		}
	}
	head := 0
	for _, c := range counts[:n/10] {
		head += c
	}
	if share := float64(head) / draws; share < 0.6 || share > 0.75 {
		t.Errorf("hottest 10%% of ranks drew %.2f of the traffic, want about 0.68", share)
	}
}

func TestScatterIsAPermutation(t *testing.T) {
	for _, n := range []int{nCustomers, nCustomers * ordersPerCustomer, nSessions / nClients, nSessions} {
		seen := make([]bool, n)
		for r := 0; r < n; r++ {
			i := scatter(r, n)
			if seen[i] {
				t.Fatalf("scatter(_, %d) maps two ranks to %d", n, i)
			}
			seen[i] = true
		}
	}
}
