package query

import (
	"runtime"
	"sort"
	"testing"
)

// stableSortInts stable-sorts an index slice with the given order.
func stableSortInts(idx []int, less func(a, b int) bool) {
	sort.SliceStable(idx, func(a, b int) bool { return less(idx[a], idx[b]) })
}

// TestAnalyzeMarksMutations checks the compile pass that gates the parallel
// executor: mutation clauses — including ones buried in subqueries — must
// set hasMutation, and filters containing subqueries must not be marked
// parallel-safe.
func TestAnalyzeMarksMutations(t *testing.T) {
	cases := []struct {
		q           string
		hasMutation bool
	}{
		{`FOR p IN products FILTER p.x > 1 RETURN p`, false},
		{`FOR p IN products INSERT {k: p._key} INTO audit`, true},
		{`FOR p IN products UPDATE p WITH {seen: true} IN products`, true},
		{`FOR p IN products REMOVE p IN products`, true},
		{`RETURN LENGTH((FOR p IN products INSERT {k: p._key} INTO audit))`, true},
	}
	for _, tc := range cases {
		pipe, err := ParseMMQL(tc.q)
		if err != nil {
			t.Fatalf("%s: %v", tc.q, err)
		}
		if !pipe.analyzed {
			t.Fatalf("%s: pipeline not analyzed at parse time", tc.q)
		}
		if pipe.hasMutation != tc.hasMutation {
			t.Fatalf("%s: hasMutation = %v, want %v", tc.q, pipe.hasMutation, tc.hasMutation)
		}
	}
}

func TestAnalyzeMarksFilterSafety(t *testing.T) {
	pipe, err := ParseMMQL(`
		FOR p IN products
		  FILTER p.price > 10
		  FILTER LENGTH((FOR s IN sales RETURN s)) > 0
		  RETURN p`)
	if err != nil {
		t.Fatal(err)
	}
	var filters []*FilterClause
	for _, cl := range pipe.Clauses {
		if f, ok := cl.(*FilterClause); ok {
			filters = append(filters, f)
		}
	}
	if len(filters) != 2 {
		t.Fatalf("found %d filters, want 2", len(filters))
	}
	if !filters[0].parallelSafe {
		t.Fatal("plain comparison filter marked unsafe")
	}
	if filters[1].parallelSafe {
		t.Fatal("subquery filter marked parallel-safe")
	}
}

// TestAnalyzeMarksTailStageSafety checks the compiled annotations that gate
// the parallel pipeline tail: SORT, COLLECT, LET, and RETURN stages are
// parallel-safe exactly when their expressions contain no subqueries.
func TestAnalyzeMarksTailStageSafety(t *testing.T) {
	pipe, err := ParseMMQL(`
		FOR s IN sales
		  LET doubled = s.qty * 2
		  COLLECT region = s.region INTO g
		  LET total = SUM(g[*].s.qty)
		  SORT total DESC, region
		  RETURN {region: region, total: total}`)
	if err != nil {
		t.Fatal(err)
	}
	for _, cl := range pipe.Clauses {
		switch c := cl.(type) {
		case *LetClause:
			if !c.parallelSafe {
				t.Fatalf("subquery-free LET %q marked unsafe", c.Var)
			}
		case *SortClause:
			if !c.parallelSafe {
				t.Fatal("subquery-free SORT marked unsafe")
			}
		case *CollectClause:
			if !c.parallelSafe {
				t.Fatal("subquery-free COLLECT marked unsafe")
			}
		case *ReturnClause:
			if !c.parallelSafe {
				t.Fatal("subquery-free RETURN marked unsafe")
			}
		}
	}

	unsafe, err := ParseMMQL(`
		FOR p IN products
		  LET rel = (FOR s IN sales FILTER s.product == p._key RETURN s)
		  COLLECT n = LENGTH((FOR s IN sales RETURN s))
		  SORT LENGTH((FOR s IN sales RETURN s))
		  RETURN (FOR s IN sales RETURN s.id)`)
	if err != nil {
		t.Fatal(err)
	}
	for _, cl := range unsafe.Clauses {
		switch c := cl.(type) {
		case *LetClause:
			if c.parallelSafe {
				t.Fatalf("subquery LET %q marked parallel-safe", c.Var)
			}
		case *SortClause:
			if c.parallelSafe {
				t.Fatal("subquery SORT key marked parallel-safe")
			}
		case *CollectClause:
			if c.parallelSafe {
				t.Fatal("subquery COLLECT key marked parallel-safe")
			}
		case *ReturnClause:
			if c.parallelSafe {
				t.Fatal("subquery RETURN marked parallel-safe")
			}
		}
	}
}

// TestMergeSortedRunsStable pins the chunked merge sort against the serial
// sort.SliceStable order on a tie-heavy input, across chunkings.
func TestMergeSortedRunsStable(t *testing.T) {
	vals := make([]int, 500)
	for i := range vals {
		vals[i] = (i * 7) % 5 // many ties, irregular pattern
	}
	less := func(a, b int) bool { return vals[a] < vals[b] }

	want := make([]int, len(vals))
	for i := range want {
		want[i] = i
	}
	// Serial reference: stable sort of indices by value.
	ref := append([]int(nil), want...)
	stableSortInts(ref, less)

	for _, chunks := range []int{1, 2, 3, 4, 7, 16} {
		runs := make([][]int, 0, chunks)
		size := (len(vals) + chunks - 1) / chunks
		for lo := 0; lo < len(vals); lo += size {
			hi := lo + size
			if hi > len(vals) {
				hi = len(vals)
			}
			run := make([]int, hi-lo)
			for i := range run {
				run[i] = lo + i
			}
			stableSortInts(run, less)
			runs = append(runs, run)
		}
		got := mergeSortedRuns(runs, less)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("chunks=%d: merge order diverges at %d: got %v want %v", chunks, i, got[i], ref[i])
			}
		}
	}
}

func TestParseMSQLAnalyzed(t *testing.T) {
	pipe, err := ParseMSQL(`SELECT a FROM t WHERE a > 1`)
	if err != nil {
		t.Fatal(err)
	}
	if !pipe.analyzed {
		t.Fatal("MSQL pipeline not analyzed at parse time")
	}
	if pipe.hasMutation {
		t.Fatal("read-only MSQL query marked as mutating")
	}
}

// TestAboveThresholdDefaultMask pins parallelThreshold under the default
// mask on any host: 1023 elements stay serial and 1024 fan out, while the
// Stress bit fans out from one. It also pins split, the one place that
// chooses between one chunk and several.
func TestAboveThresholdDefaultMask(t *testing.T) {
	def := &execCtx{}
	if def.aboveThreshold(1023) || !def.aboveThreshold(1024) {
		t.Fatalf("default mask: aboveThreshold(1023) = %v, aboveThreshold(1024) = %v, want false, true",
			def.aboveThreshold(1023), def.aboveThreshold(1024))
	}
	stress := &execCtx{opts: Options{Ablate: Stress}}
	if stress.aboveThreshold(0) || !stress.aboveThreshold(1) {
		t.Fatal("Stress mask: want parallel from one element")
	}

	// Two workers under the default mask, whatever the host.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	readOnly := &Pipeline{analyzed: true}
	ctx := func(ablate Ablate, pipe *Pipeline) *execCtx {
		return &execCtx{opts: Options{Ablate: ablate}, curPipe: pipe}
	}
	cases := []struct {
		name    string
		c       *execCtx
		n, work int
		safe    bool
		want    int // chunks
	}{
		{"below threshold", ctx(0, readOnly), 1023, 1023, true, 1},
		{"at threshold", ctx(0, readOnly), 1024, 1024, true, 2},
		{"unsafe stage", ctx(0, readOnly), 1024, 1024, false, 1},
		{"mutating pipeline", ctx(0, &Pipeline{analyzed: true, hasMutation: true}), 1024, 1024, true, 1},
		{"unanalyzed pipeline", ctx(0, &Pipeline{}), 1024, 1024, true, 1},
		{"no pipeline", ctx(0, nil), 1024, 1024, true, 1},
		{"NoParallel", ctx(NoParallel, readOnly), 1 << 20, 1 << 20, true, 1},
		{"NoParallel under Stress", ctx(NoParallel|Stress, readOnly), 100, 100, true, 1},
		{"Stress, one element of work", ctx(Stress, readOnly), 2, 1, true, 2},
		{"Stress, more items than workers", ctx(Stress, readOnly), 9, 9, true, stressWorkers},
		{"Stress, one item", ctx(Stress, readOnly), 1, 1, true, 1},
		{"empty input", ctx(Stress, readOnly), 0, 0, true, 1},
		// Vectorized: n counts column batches, work counts their rows.
		{"batches, rows at threshold", ctx(0, readOnly), 2, 1024, true, 2},
		{"one batch, rows at threshold", ctx(0, readOnly), 1, 5000, true, 1},
		{"batches, rows below threshold", ctx(0, readOnly), 3, 1023, true, 1},
	}
	for _, tc := range cases {
		counter := 0
		p := tc.c.split(tc.n, tc.work, tc.safe, &counter)
		if p.K != tc.want {
			t.Errorf("%s: split(%d, %d) = %d chunks, want %d", tc.name, tc.n, tc.work, p.K, tc.want)
		}
		wantCount := 0 // the stage counter counts fan-outs only
		if tc.want > 1 {
			wantCount = 1
		}
		if counter != wantCount {
			t.Errorf("%s: counter = %d, want %d", tc.name, counter, wantCount)
		}
		next := 0
		for ci := 0; ci < p.K; ci++ {
			lo, hi := p.Chunk(ci)
			if lo != next || hi < lo || (p.K > 1 && hi == lo) {
				t.Errorf("%s: chunk %d = [%d, %d) after %d", tc.name, ci, lo, hi, next)
			}
			next = hi
		}
		if next != tc.n {
			t.Errorf("%s: chunks end at %d, want %d", tc.name, next, tc.n)
		}
	}
}
