// Package fixture seeds determinism violations and clean counterparts. The
// whole package is in the analyzer's scope.
package fixture

import (
	"sort"
	"time"
)

func okSortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m { //unidblint:ignore determinism keys are sorted before use below
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func okRangeSlice(xs []int) []int {
	var out []int
	for _, x := range xs {
		out = append(out, x*2)
	}
	return out
}

// badMapToMap is order-insensitive, but the ban on map ranges is outright:
// an exception carries a suppression with its reason, as okSortedKeys does.
func badMapToMap(m map[string]int) map[string]int {
	out := map[string]int{}
	for k, v := range m { // want `range over a map in a deterministic executor path`
		out[k] = v
	}
	return out
}

func badOuterMapRange(m map[string][]int) int {
	total := 0
	for _, vs := range m { // want `range over a map in a deterministic executor path`
		local := []int{}
		for _, v := range vs {
			local = append(local, v)
		}
		total += len(local)
	}
	return total
}

func okSince(t0 time.Time) time.Duration {
	// Only time.Now is forbidden; arithmetic on supplied times is fine.
	return t0.Sub(t0)
}

func badNow() int64 {
	return time.Now().Unix() // want `time\.Now in a deterministic executor path`
}

func badMapAppend(m map[string]int) []string {
	var keys []string
	for k := range m { // want `range over a map in a deterministic executor path: iteration order is nondeterministic`
		keys = append(keys, k)
	}
	return keys
}
