package query

import (
	"testing"

	"repro/internal/mmvalue"
)

// TestComputeVecPlanAggShape pins the compile-time analysis on the canonical
// keyless-aggregate query: the whole pipeline (FOR + WHERE filters + keyless
// COLLECT..INTO + RETURN over decomposable aggregates) gets an aggregate
// plan, with one spec per distinct aggregate.
func TestComputeVecPlanAggShape(t *testing.T) {
	p := mustMSQL(t, `SELECT COUNT(*) AS n, SUM(v) AS s, MIN(v) AS lo, AVG(v) AS m
		FROM items WHERE v > 10 AND v % 2 == 0`)
	if p.vec == nil {
		t.Fatal("no vec plan")
	}
	if p.vec.source != "items" {
		t.Fatalf("source = %q", p.vec.source)
	}
	if len(p.vec.filters) != 1 {
		t.Fatalf("vectorized filters = %d, want 1 (the fused WHERE)", len(p.vec.filters))
	}
	if p.vec.agg == nil {
		t.Fatal("no aggregate plan for the keyless-aggregate shape")
	}
	fns := map[string][]string{}
	for _, sp := range p.vec.agg.specs {
		fns[sp.fn] = sp.path
		if sp.hidden == "" || sp.hidden[0] != '\x00' {
			t.Fatalf("%s hidden name %q is parser-reachable", sp.fn, sp.hidden)
		}
	}
	if len(fns) != 4 {
		t.Fatalf("specs = %v, want LENGTH/SUM/MIN/AVG", fns)
	}
	if len(fns["LENGTH"]) != 0 {
		t.Fatalf("COUNT(*) path = %v, want empty", fns["LENGTH"])
	}
	for _, fn := range []string{"SUM", "MIN", "AVG"} {
		path := fns[fn]
		if len(path) != 2 || path[0] != p.vec.loopVar || path[1] != "v" {
			t.Fatalf("%s path = %v, want [%s v]", fn, path, p.vec.loopVar)
		}
	}
}

// TestComputeVecPlanPrefix pins the strict-prefix rule: a non-vectorizable
// filter ends the vectorized run even when a vectorizable one follows it
// (reordering filters would change which rows reach an erroring filter).
func TestComputeVecPlanPrefix(t *testing.T) {
	p := mustMMQL(t, `FOR d IN items
		FILTER d.v > 1
		FILTER LENGTH(d.tags) > 0
		FILTER d.v < 10
		RETURN d`)
	if p.vec == nil {
		t.Fatal("no vec plan")
	}
	if len(p.vec.filters) != 1 {
		t.Fatalf("vectorized prefix = %d filters, want 1", len(p.vec.filters))
	}
	if p.vec.agg != nil {
		t.Fatal("aggregate plan on a non-aggregate pipeline")
	}
}

// TestComputeVecPlanNonAggTail: a SORT tail keeps the scan plan but not the
// aggregate plan; mutations get no plan at all; FOR over an expression gets
// none either.
func TestComputeVecPlanNonAggTail(t *testing.T) {
	p := mustMSQL(t, `SELECT v FROM items WHERE v > 3 ORDER BY v`)
	if p.vec == nil || p.vec.agg != nil {
		t.Fatalf("vec = %+v, want scan plan without aggregate plan", p.vec)
	}
	if len(p.vec.filters) != 1 {
		t.Fatalf("vectorized filters = %d", len(p.vec.filters))
	}

	if p := mustMMQL(t, `FOR d IN items INSERT d INTO other`); p.vec != nil {
		t.Fatal("vec plan on a mutating pipeline")
	}
	if p := mustMMQL(t, `FOR x IN [1,2,3] FILTER x > 1 RETURN x`); p.vec != nil {
		t.Fatal("vec plan on an expression source")
	}
}

// TestVecExprOK pins the expression vocabulary.
func TestVecExprOK(t *testing.T) {
	cases := []struct {
		q    string
		want int // vectorizable filters
	}{
		{`FOR d IN t FILTER d.a == 1 AND d.b != "x" RETURN d`, 1},
		{`FOR d IN t FILTER d.a IN [1, 2, 3] RETURN d`, 1},
		{`FOR d IN t FILTER d.name LIKE "a%" RETURN d`, 1},
		{`FOR d IN t FILTER NOT (d.a < 3) RETURN d`, 1},
		{`FOR d IN t FILTER -d.a > 2 RETURN d`, 1},
		{`FOR d IN t FILTER d.a.b.c == 1 RETURN d`, 1},      // deep dot chain
		{`FOR d IN t FILTER @p == d.a RETURN d`, 1},         // parameter
		{`FOR d IN t FILTER d RETURN d`, 0},                 // whole-doc truthiness
		{`FOR d IN t FILTER d.tags[0] == 1 RETURN d`, 0},    // IndexAccess
		{`FOR d IN t FILTER UPPER(d.a) == "X" RETURN d`, 0}, // FuncCall
		{`FOR d IN t FILTER d.a == 1 ? true : false RETURN d`, 0},
	}
	for _, tc := range cases {
		p := mustMMQL(t, tc.q)
		if p.vec == nil {
			t.Fatalf("%s: no vec plan", tc.q)
		}
		if got := len(p.vec.filters); got != tc.want {
			t.Errorf("%s: %d vectorized filters, want %d", tc.q, got, tc.want)
		}
	}
}

// TestCompileVecPreds pins run-time lowering: parameters fold to constants
// (missing ones fall back), bare columns are recorded as strict, and
// _part/_sort are never strict (the key vectors always exist).
func TestCompileVecPreds(t *testing.T) {
	p := mustMSQL(t, `SELECT COUNT(*) AS n FROM t WHERE v > @lo AND tag == "x" AND _sort >= 0`)
	if p.vec == nil || len(p.vec.filters) != 1 {
		t.Fatalf("vec plan = %+v", p.vec)
	}
	if _, _, ok := compileVecPreds(p.vec.filters, p.vec.loopVar, nil); ok {
		t.Fatal("compiled with @lo unbound; the row path owns that error")
	}
	params := map[string]mmvalue.Value{"lo": mmvalue.Int(5)}
	preds, strict, ok := compileVecPreds(p.vec.filters, p.vec.loopVar, params)
	if !ok || len(preds) != 1 {
		t.Fatalf("compile failed: %v %v", preds, ok)
	}
	if len(strict) != 2 {
		t.Fatalf("strict = %v, want the two bare columns (v, tag) and no _sort", strict)
	}
	for _, name := range strict {
		if name != "v" && name != "tag" {
			t.Fatalf("unexpected strict column %q", name)
		}
	}
}

// TestColElems pins the element stream a column value feeds an aggregate:
// nulls vanish, arrays flatten one level, deep paths navigate per element —
// matching navElems from the column step onward.
func TestColElems(t *testing.T) {
	colElemsOf := func(val mmvalue.Value, rest []string) (out []mmvalue.Value) {
		colElems(val, rest, func(el mmvalue.Value) { out = append(out, el) })
		return out
	}
	if got := colElemsOf(mmvalue.Null, nil); len(got) != 0 {
		t.Fatalf("null -> %v", got)
	}
	if got := colElemsOf(mmvalue.Int(4), nil); len(got) != 1 || got[0].AsInt() != 4 {
		t.Fatalf("scalar -> %v", got)
	}
	arr := mmvalue.Array(mmvalue.Int(1), mmvalue.Null, mmvalue.Int(2))
	if got := colElemsOf(arr, nil); len(got) != 3 {
		// The array itself contributes its elements verbatim (nulls included:
		// navigation has already happened).
		t.Fatalf("array -> %v", got)
	}
	obj := mmvalue.Object(mmvalue.F("x", mmvalue.Int(7)))
	objNoX := mmvalue.Object(mmvalue.F("y", mmvalue.Int(1)))
	nested := mmvalue.Array(obj, objNoX, obj)
	got := colElemsOf(nested, []string{"x"})
	if len(got) != 2 || got[0].AsInt() != 7 || got[1].AsInt() != 7 {
		t.Fatalf("nested path -> %v", got)
	}
}

// TestVecPlanRowPathUnchanged: a pipeline carrying a vec plan fails on an
// unknown source with the same error under the default mask and with the
// vectorized executor ablated — the intercept declines non-column sources.
// (Cross-path equivalence over real column tables lives in internal/core's
// vector_equiv_test.go.)
func TestVecPlanRowPathUnchanged(t *testing.T) {
	p := mustMSQL(t, `SELECT COUNT(*) AS n FROM missing WHERE v > 1`)
	if p.vec == nil || p.vec.agg == nil {
		t.Fatal("no plan")
	}
	var errs []string
	for _, opts := range []Options{{}, {Ablate: NoVector | NoParallel}} {
		c := &execCtx{src: &Sources{}, opts: opts}
		_, err := c.runPipeline(p, newEnv())
		if err == nil {
			t.Fatalf("Ablate %b: expected unknown-source error", opts.Ablate)
		}
		errs = append(errs, err.Error())
	}
	if errs[0] != errs[1] {
		t.Fatalf("default and row path disagree: %q vs %q", errs[0], errs[1])
	}
}
