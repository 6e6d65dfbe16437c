package query

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/engine"
	"repro/internal/mmvalue"
)

func findCollect(t *testing.T, p *Pipeline) *CollectClause {
	t.Helper()
	for _, cl := range p.Clauses {
		if col, ok := cl.(*CollectClause); ok {
			return col
		}
	}
	t.Fatal("pipeline has no COLLECT clause")
	return nil
}

// TestAnnotateCollectAggs pins the compile-time detection: which downstream
// aggregate calls get a hidden binding name, and which specs land on the
// COLLECT clause.
func TestAnnotateCollectAggs(t *testing.T) {
	p := mustMMQL(t, `FOR s IN sales COLLECT r = s.region INTO g
		RETURN {n: LENGTH(g), total: SUM(g[*].s.qty), hi: MAX(g[*].s.qty), mean: AVG(g[*].s.qty)}`)
	col := findCollect(t, p)
	if len(col.aggSpecs) != 3 {
		t.Fatalf("aggSpecs = %+v, want LENGTH + SUM + MAX (AVG is not decomposable)", col.aggSpecs)
	}
	want := map[string][]string{
		"LENGTH": {},
		"SUM":    {"s", "qty"},
		"MAX":    {"s", "qty"},
	}
	for _, sp := range col.aggSpecs {
		path, ok := want[sp.fn]
		if !ok {
			t.Fatalf("unexpected spec %+v", sp)
		}
		if len(sp.path) != len(path) {
			t.Fatalf("%s path = %v, want %v", sp.fn, sp.path, path)
		}
		if sp.hidden == "" || sp.hidden[0] != '\x00' {
			t.Fatalf("%s hidden name %q is reachable from the parser", sp.fn, sp.hidden)
		}
	}
	// Every decomposable FuncCall carries its hidden name; AVG stays bare.
	var annotated, bare int
	for _, cl := range p.Clauses {
		for _, e := range clauseExprs(cl) {
			walkExpr(e, func(x Expr) {
				if fc, ok := x.(*FuncCall); ok {
					if fc.aggName != "" {
						annotated++
					} else if fc.Name == "AVG" {
						bare++
					}
				}
			})
		}
	}
	if annotated != 3 || bare != 1 {
		t.Fatalf("annotated=%d bare AVG=%d, want 3 and 1", annotated, bare)
	}
}

// TestAnnotateStopsAtRebinding checks that calls past a clause which rebinds
// the group variable stay unannotated (the variable no longer names the
// group), while expressions of the rebinding clause itself — which still see
// the old binding — are annotated.
func TestAnnotateStopsAtRebinding(t *testing.T) {
	p := mustMMQL(t, `FOR s IN sales COLLECT r = s.region INTO g
		LET g = SUM(g[*].s.qty)
		RETURN SUM(g[*].s.qty)`)
	col := findCollect(t, p)
	if len(col.aggSpecs) != 1 {
		t.Fatalf("aggSpecs = %+v, want exactly the LET's SUM", col.aggSpecs)
	}
	var let *LetClause
	var ret *ReturnClause
	for _, cl := range p.Clauses {
		switch t2 := cl.(type) {
		case *LetClause:
			let = t2
		case *ReturnClause:
			ret = t2
		}
	}
	if fc := let.Expr.(*FuncCall); fc.aggName == "" {
		t.Fatal("LET's SUM reads the old g and must be annotated")
	}
	if fc := ret.Expr.(*FuncCall); fc.aggName != "" {
		t.Fatal("RETURN's SUM reads the rebound g and must stay unannotated")
	}
}

// TestAggArgPath pins the recognized argument shapes.
func TestAggArgPath(t *testing.T) {
	cases := []struct {
		expr Expr
		v    string
		path []string
		ok   bool
	}{
		{&VarRef{Name: "g"}, "g", nil, true},
		{&FieldAccess{Base: &IndexAccess{Base: &VarRef{Name: "g"}, Star: true}, Name: "x"}, "g", []string{"x"}, true},
		{&FieldAccess{Base: &FieldAccess{Base: &VarRef{Name: "g"}, Name: "a"}, Name: "b"}, "g", []string{"a", "b"}, true},
		{&IndexAccess{Base: &VarRef{Name: "g"}, Index: &Literal{Value: mmvalue.Int(0)}}, "", nil, false},
		{&VarRef{Name: "p", Param: true}, "", nil, false},
		{&BinaryOp{Op: "+", L: &VarRef{Name: "g"}, R: &VarRef{Name: "g"}}, "", nil, false},
	}
	for _, tc := range cases {
		v, path, ok := aggArgPath(tc.expr)
		if ok != tc.ok || v != tc.v || len(path) != len(tc.path) {
			t.Fatalf("aggArgPath(%T) = %q %v %v, want %q %v %v", tc.expr, v, path, ok, tc.v, tc.path, tc.ok)
		}
		for i := range path {
			if path[i] != tc.path[i] {
				t.Fatalf("path %v, want %v", path, tc.path)
			}
		}
	}
}

// TestAggStateSumGuard checks the integer SUM state invalidates exactly when
// byte-identity with the serial float64 fold is no longer provable: a float
// element, an element beyond 2^53, or a prefix sum leaving the exact range —
// including one that only leaves the range after a cross-chunk merge.
func TestAggStateSumGuard(t *testing.T) {
	sp := aggSpec{fn: "SUM"}
	st := newAggStates(1)
	a := &st[0]
	a.observeOne(sp, mmvalue.Int(5))
	a.observeOne(sp, mmvalue.String("skipped"))
	a.observeOne(sp, mmvalue.Int(-2))
	if v := a.value(sp); !mmvalue.Equal(v, mmvalue.Int(3)) {
		t.Fatalf("int sum = %v, want 3", v)
	}

	b := newAggStates(1)
	b[0].observeOne(sp, mmvalue.Float(1.5))
	if v := b[0].value(sp); !v.IsNull() {
		t.Fatalf("float element must invalidate, got %v", v)
	}

	c := newAggStates(1)
	c[0].observeOne(sp, mmvalue.Int(maxExactInt+1))
	if v := c[0].value(sp); !v.IsNull() {
		t.Fatalf("oversized element must invalidate, got %v", v)
	}

	// Two chunks individually in range whose concatenated prefix leaves it.
	lo := newAggStates(2)
	lo[0].observeOne(sp, mmvalue.Int(maxExactInt))
	lo[1].observeOne(sp, mmvalue.Int(maxExactInt))
	lo[0].merge(sp, &lo[1])
	if v := lo[0].value(sp); !v.IsNull() {
		t.Fatalf("out-of-range merged prefix must invalidate, got %v", v)
	}

	// A negative swing that stays in range merges exactly.
	ok2 := newAggStates(2)
	ok2[0].observeOne(sp, mmvalue.Int(maxExactInt))
	ok2[1].observeOne(sp, mmvalue.Int(-maxExactInt))
	ok2[0].merge(sp, &ok2[1])
	if v := ok2[0].value(sp); !mmvalue.Equal(v, mmvalue.Int(0)) {
		t.Fatalf("in-range merge = %v, want 0", v)
	}

	// Invalidity is sticky across merges in both directions.
	d := newAggStates(2)
	d[0].observeOne(sp, mmvalue.Int(1))
	d[1].observeOne(sp, mmvalue.Float(2))
	d[0].merge(sp, &d[1])
	if v := d[0].value(sp); !v.IsNull() {
		t.Fatalf("merging an invalid chunk must invalidate, got %v", v)
	}
}

// TestAggStateMinMaxFirstWins checks the chunk-order merge reproduces the
// serial scan's first-wins tie behavior for MIN/MAX.
func TestAggStateMinMaxFirstWins(t *testing.T) {
	spMin := aggSpec{fn: "MIN"}
	// Int 1 and Float 1.0 compare equal but render differently; the first
	// occurrence must win after a merge, exactly as the serial scan keeps it.
	st := newAggStates(2)
	st[0].observeOne(spMin, mmvalue.Float(1))
	st[1].observeOne(spMin, mmvalue.Int(1))
	st[0].merge(spMin, &st[1])
	if v := st[0].value(spMin); v.Kind() != mmvalue.KindFloat {
		t.Fatalf("tie must keep the first (float) element, got %v kind %v", v, v.Kind())
	}

	spMax := aggSpec{fn: "MAX"}
	e := newAggStates(2)
	e[1].observeOne(spMax, mmvalue.Int(7))
	e[0].merge(spMax, &e[1])
	if v := e[0].value(spMax); !mmvalue.Equal(v, mmvalue.Int(7)) {
		t.Fatalf("merge into empty chunk = %v, want 7", v)
	}
	if v := newAggStates(1)[0].value(spMax); !v.IsNull() {
		t.Fatal("empty MAX must yield the Null marker")
	}
}

// TestNavElemsMatchesArrayNavigation cross-checks the per-member element
// extraction against whole-array dot navigation (navigateField), which is
// the byte-identity contract the SUM/MIN/MAX/LENGTH decomposition rests on.
func TestNavElemsMatchesArrayNavigation(t *testing.T) {
	members := []mmvalue.Value{
		mmvalue.MustParseJSON(`{"s":{"qty":2}}`),
		mmvalue.MustParseJSON(`{"s":{"qty":null}}`),
		mmvalue.MustParseJSON(`{"s":{}}`),
		mmvalue.MustParseJSON(`{"s":{"qty":[3,4]}}`),
		mmvalue.MustParseJSON(`{"s":[{"qty":5},{"qty":6}]}`),
		mmvalue.MustParseJSON(`{"other":1}`),
	}
	whole := navigateField(navigateField(mmvalue.ArrayOf(members), "s"), "qty")
	var split []mmvalue.Value
	for _, m := range members {
		navElems(m, []string{"s", "qty"}, func(el mmvalue.Value) { split = append(split, el) })
	}
	if !mmvalue.Equal(whole, mmvalue.ArrayOf(split)) {
		t.Fatalf("whole-array %v != concat of per-member %v", whole, mmvalue.ArrayOf(split))
	}
}

// TestAnnotateAggOnly pins which COLLECT ... INTO clauses are aggregate-only:
// every downstream read of the group variable, up to its rebinding, must be
// the argument of one of the clause's decomposed aggregates, with no
// subquery or later COLLECT ... INTO that could see the array, and no
// aggregate over the bare member objects except LENGTH.
func TestAnnotateAggOnly(t *testing.T) {
	for _, tc := range []struct {
		q    string
		msql bool
		want bool
	}{
		{`FOR o IN orders FOR line IN o.Orderlines COLLECT product = line.Product_no INTO g
			LET revenue = SUM(g[*].line.Price) SORT revenue DESC LIMIT 10
			RETURN {product: product, revenue: revenue}`, false, true},
		{`FOR s IN sales COLLECT r = s.region INTO g
			RETURN {n: LENGTH(g), c: COUNT(g), lo: MIN(g[*].s.qty), hi: MAX(g[*].s.qty)}`, false, true},
		{`FOR s IN sales COLLECT r = s.region INTO g RETURN r`, false, true},
		{`FOR s IN sales COLLECT r = s.region INTO g LET g = 1 RETURN g`, false, true},
		{`SELECT region, COUNT(*) AS n, SUM(qty) AS total FROM sales s GROUP BY region ORDER BY region`, true, true},
		{`FOR s IN sales COLLECT r = s.region INTO g RETURN g`, false, false},
		{`FOR s IN sales COLLECT r = s.region INTO g RETURN g[0].s.qty`, false, false},
		{`FOR s IN sales COLLECT r = s.region INTO g FILTER LENGTH(g[*].s) > 1 RETURN SUM(g[*].s.qty)`, false, true},
		{`FOR s IN sales COLLECT r = s.region INTO g RETURN {s: SUM(g[*].s.qty), m: AVG(g[*].s.qty)}`, false, false},
		{`FOR s IN sales COLLECT r = s.region INTO g RETURN {s: SUM(g[*].s.qty), x: (FOR y IN [1] RETURN LENGTH(g))}`, false, false},
		{`FOR s IN sales COLLECT r = s.region INTO g COLLECT n = LENGTH(g) INTO h RETURN {n: n, k: LENGTH(h)}`, false, false},
		{`FOR s IN sales COLLECT r = s.region INTO g RETURN MIN(g)`, false, false},
		{`SELECT region, AVG(qty) AS mean FROM sales s GROUP BY region`, true, false},
	} {
		var p *Pipeline
		if tc.msql {
			p = mustMSQL(t, tc.q)
		} else {
			p = mustMMQL(t, tc.q)
		}
		if got := findCollect(t, p).aggOnly; got != tc.want {
			t.Errorf("aggOnly = %v, want %v for %s", got, tc.want, tc.q)
		}
	}
}

// TestAggOnlyCollectAllocsPerRowIndependentOfSize guards the cost of an
// aggregate-only COLLECT: each input row costs the same, in count and in
// bytes, from a thousand rows to ten thousand as from ten thousand to
// nineteen thousand, and within a budget, in count and in bytes, that leaves
// no room for a member object (a field map, a field slice and an object) or
// a key slice per row.
// The per-row cost is the slope between two sizes: the query's fixed cost
// (its ten groups' states and result rows) is a tenth of the whole at a
// thousand rows, too much for a per-row quotient to show a few percent.
func TestAggOnlyCollectAllocsPerRowIndependentOfSize(t *testing.T) {
	e, err := engine.Open(engine.Options{Durability: engine.Ephemeral})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	pipe := mustMMQL(t, `FOR x IN @rows COLLECT k = x.k INTO g
		RETURN {k: k, n: LENGTH(g), s: SUM(g[*].x.v), hi: MAX(g[*].x.v)}`)
	if !findCollect(t, pipe).aggOnly {
		t.Fatal("COLLECT not aggregate-only")
	}
	// cost returns what one run over n rows allocates, in count and in bytes.
	cost := func(n int) (allocs, bytes float64) {
		rows := make([]mmvalue.Value, n)
		for i := range rows {
			rows[i] = mmvalue.Object(mmvalue.F("k", mmvalue.Int(int64(i%10))), mmvalue.F("v", mmvalue.Int(int64(i))))
		}
		opts := Options{Ablate: NoParallel, Params: map[string]mmvalue.Value{"rows": mmvalue.ArrayOf(rows)}}
		err := e.SnapshotView(func(tx *engine.Txn) error {
			run := func() {
				res, err := Execute(tx, &Sources{}, pipe, opts)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Values) != 10 {
					t.Fatalf("%d groups, want 10", len(res.Values))
				}
			}
			allocs = testing.AllocsPerRun(5, run)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			run()
			runtime.ReadMemStats(&after)
			bytes = float64(after.TotalAlloc - before.TotalAlloc)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return allocs, bytes
	}
	a1, b1 := cost(1_000)
	a2, b2 := cost(10_000)
	a3, b3 := cost(19_000)
	lowAllocs, lowBytes := (a2-a1)/9_000, (b2-b1)/9_000
	highAllocs, highBytes := (a3-a2)/9_000, (b3-b2)/9_000
	t.Logf("per input row: %.3f allocs / %.0f B from 1 000 to 10 000 rows, %.3f allocs / %.0f B from 10 000 to 19 000 (fixed ≈ %.0f allocs)",
		lowAllocs, lowBytes, highAllocs, highBytes, a1-1_000*lowAllocs)
	if math.Abs(highAllocs-lowAllocs) > lowAllocs/20 || math.Abs(highBytes-lowBytes) > lowBytes/20 {
		t.Errorf("costs %.3f allocs / %.0f B per row from 1 000 to 10 000 rows but %.3f / %.0f from 10 000 to 19 000",
			lowAllocs, lowBytes, highAllocs, highBytes)
	}
	// The FOR's binding (a 64 B env node), its output slot and a member link.
	if highAllocs > 1.05 || highBytes > 80 {
		t.Errorf("costs %.3f allocations / %.0f B per input row, want at most 1.05 / 80", highAllocs, highBytes)
	}
}
