package query

import (
	"testing"

	"repro/internal/graphstore"
	"repro/internal/mmvalue"
)

func mustMMQL(t *testing.T, q string) *Pipeline {
	t.Helper()
	pipe, err := ParseMMQL(q)
	if err != nil {
		t.Fatalf("ParseMMQL(%s): %v", q, err)
	}
	return pipe
}

func mustMSQL(t *testing.T, q string) *Pipeline {
	t.Helper()
	pipe, err := ParseMSQL(q)
	if err != nil {
		t.Fatalf("ParseMSQL(%s): %v", q, err)
	}
	return pipe
}

func TestParseForReturnShape(t *testing.T) {
	pipe := mustMMQL(t, `FOR c IN customers RETURN c.name`)
	if len(pipe.Clauses) != 2 {
		t.Fatalf("clauses = %d", len(pipe.Clauses))
	}
	fc, ok := pipe.Clauses[0].(*ForClause)
	if !ok || fc.Var != "c" || fc.Source.Kind != SourceName || fc.Source.Name != "customers" {
		t.Fatalf("for = %+v", pipe.Clauses[0])
	}
	rc, ok := pipe.Clauses[1].(*ReturnClause)
	if !ok {
		t.Fatalf("return = %T", pipe.Clauses[1])
	}
	fa, ok := rc.Expr.(*FieldAccess)
	if !ok || fa.Name != "name" {
		t.Fatalf("expr = %+v", rc.Expr)
	}
}

func TestParseTraversal(t *testing.T) {
	pipe := mustMMQL(t, `FOR v IN 2..5 INBOUND 'start' social.knows RETURN v`)
	fc := pipe.Clauses[0].(*ForClause)
	s := fc.Source
	if s.Kind != SourceTraversal || s.Min != 2 || s.Max != 5 ||
		s.Direction != graphstore.Inbound || s.Graph != "social" || s.Label != "knows" {
		t.Fatalf("source = %+v", s)
	}
	// Without label.
	pipe = mustMMQL(t, `FOR v IN 1..1 OUTBOUND x net RETURN v`)
	s = pipe.Clauses[0].(*ForClause).Source
	if s.Graph != "net" || s.Label != "" {
		t.Fatalf("source = %+v", s)
	}
}

func TestParseSourceExprVsName(t *testing.T) {
	// Expression source: member access on a variable.
	pipe := mustMMQL(t, `FOR line IN order.Orderlines RETURN line`)
	s := pipe.Clauses[0].(*ForClause).Source
	if s.Kind != SourceExpr {
		t.Fatalf("source kind = %v", s.Kind)
	}
	// Array literal source.
	pipe = mustMMQL(t, `FOR x IN [1,2,3] RETURN x`)
	if pipe.Clauses[0].(*ForClause).Source.Kind != SourceExpr {
		t.Fatal("array literal should be expr source")
	}
	// Subquery source.
	pipe = mustMMQL(t, `FOR x IN (FOR y IN t RETURN y.id) RETURN x`)
	if pipe.Clauses[0].(*ForClause).Source.Kind != SourceExpr {
		t.Fatal("subquery should be expr source")
	}
}

func TestParsePrecedence(t *testing.T) {
	pipe := mustMMQL(t, `RETURN 1 + 2 * 3 == 7 AND true`)
	rc := pipe.Clauses[0].(*ReturnClause)
	and, ok := rc.Expr.(*BinaryOp)
	if !ok || and.Op != "AND" {
		t.Fatalf("top = %+v", rc.Expr)
	}
	eq, ok := and.L.(*BinaryOp)
	if !ok || eq.Op != "==" {
		t.Fatalf("left = %+v", and.L)
	}
	plus, ok := eq.L.(*BinaryOp)
	if !ok || plus.Op != "+" {
		t.Fatalf("eq.L = %+v", eq.L)
	}
	mul, ok := plus.R.(*BinaryOp)
	if !ok || mul.Op != "*" {
		t.Fatalf("plus.R = %+v", plus.R)
	}
}

func TestParseUnaryAndNot(t *testing.T) {
	pipe := mustMMQL(t, `RETURN NOT -x < 3`)
	rc := pipe.Clauses[0].(*ReturnClause)
	not, ok := rc.Expr.(*UnaryOp)
	if !ok || not.Op != "NOT" {
		t.Fatalf("top = %+v", rc.Expr)
	}
}

func TestParseObjectArrayLiterals(t *testing.T) {
	pipe := mustMMQL(t, `RETURN {a: 1, "b c": [1, 2], nested: {x: null}}`)
	obj := pipe.Clauses[0].(*ReturnClause).Expr.(*ObjectExpr)
	if len(obj.Keys) != 3 || obj.Keys[1] != "b c" {
		t.Fatalf("keys = %v", obj.Keys)
	}
}

func TestParseStarExpansion(t *testing.T) {
	pipe := mustMMQL(t, `RETURN o.Orderlines[*].Product_no`)
	fa := pipe.Clauses[0].(*ReturnClause).Expr.(*FieldAccess)
	if fa.Name != "Product_no" {
		t.Fatalf("outer = %+v", fa)
	}
	ia, ok := fa.Base.(*IndexAccess)
	if !ok || !ia.Star {
		t.Fatalf("base = %+v", fa.Base)
	}
}

func TestParseCollectVariants(t *testing.T) {
	pipe := mustMMQL(t, `FOR s IN sales COLLECT r = s.region, c = s.country INTO g RETURN r`)
	cc := pipe.Clauses[1].(*CollectClause)
	if len(cc.Vars) != 2 || cc.Vars[0] != "r" || cc.Into != "g" {
		t.Fatalf("collect = %+v", cc)
	}
}

func TestParseDML(t *testing.T) {
	pipe := mustMMQL(t, `INSERT {a: 1} INTO coll`)
	if _, ok := pipe.Clauses[0].(*InsertClause); !ok {
		t.Fatalf("clause = %T", pipe.Clauses[0])
	}
	pipe = mustMMQL(t, `UPDATE 'k' WITH {a: 2} IN coll`)
	uc := pipe.Clauses[0].(*UpdateClause)
	if uc.Coll != "coll" {
		t.Fatalf("update = %+v", uc)
	}
	pipe = mustMMQL(t, `REMOVE doc._key IN coll`)
	if _, ok := pipe.Clauses[0].(*RemoveClause); !ok {
		t.Fatalf("clause = %T", pipe.Clauses[0])
	}
}

func TestParseMSQLShape(t *testing.T) {
	pipe := mustMSQL(t, `SELECT a.x AS col, * FROM t a JOIN u b ON a.id = b.id WHERE a.x > 1 ORDER BY col LIMIT 5 OFFSET 2`)
	// FOR t, FOR u, FILTER(on), FILTER(where), SORT, LIMIT, RETURN.
	if len(pipe.Clauses) != 7 {
		for i, c := range pipe.Clauses {
			t.Logf("clause %d: %T", i, c)
		}
		t.Fatalf("clauses = %d", len(pipe.Clauses))
	}
	if fc := pipe.Clauses[0].(*ForClause); fc.Var != "a" || fc.Source.Name != "t" {
		t.Fatalf("from = %+v", fc)
	}
}

func TestParseMSQLGroupByInsertsCollect(t *testing.T) {
	pipe := mustMSQL(t, `SELECT region, SUM(qty) AS total FROM sales s GROUP BY s.region`)
	found := false
	for _, c := range pipe.Clauses {
		if _, ok := c.(*CollectClause); ok {
			found = true
		}
	}
	if !found {
		t.Fatal("GROUP BY did not produce a Collect clause")
	}
}

func TestParseMSQLAggregateDetection(t *testing.T) {
	if !containsAggregate(&FuncCall{Name: "SUM", Args: []Expr{&VarRef{Name: "x"}}}) {
		t.Fatal("SUM not detected")
	}
	if containsAggregate(&FuncCall{Name: "LENGTH", Args: []Expr{&VarRef{Name: "x"}}}) {
		t.Fatal("LENGTH wrongly detected as aggregate")
	}
	nested := &BinaryOp{Op: "+", L: &Literal{Value: mmvalue.Int(1)},
		R: &FuncCall{Name: "MAX", Args: []Expr{&VarRef{Name: "x"}}}}
	if !containsAggregate(nested) {
		t.Fatal("nested aggregate not detected")
	}
}

func TestParseErrorsMMQL(t *testing.T) {
	bad := []string{
		``,
		`FOR`,
		`FOR x`,
		`FOR x IN`,
		`FILTER x`,
		`FOR x IN t FILTER RETURN x`,
		`FOR x IN t RETURN x RETURN x`,
		`LET = 3 RETURN 1`,
		`FOR x IN 1..a OUTBOUND y g RETURN x`,
		`RETURN {a}`,
		`RETURN [1,`,
		`RETURN (FOR x IN t RETURN x`,
	}
	for _, q := range bad {
		if _, err := ParseMMQL(q); err == nil {
			t.Errorf("ParseMMQL(%q) should fail", q)
		}
	}
}

func TestParseErrorsMSQL(t *testing.T) {
	bad := []string{
		``,
		`SELECT`,
		`SELECT a`,
		`SELECT a FROM`,
		`SELECT a FROM t WHERE`,
		`SELECT a FROM t GROUP`,
		`SELECT a FROM t ORDER`,
		`SELECT EXPAND(a, b) FROM t`,
	}
	for _, q := range bad {
		if _, err := ParseMSQL(q); err == nil {
			t.Errorf("ParseMSQL(%q) should fail", q)
		}
	}
}

func TestRowPathExtraction(t *testing.T) {
	e := &FieldAccess{Base: &FieldAccess{Base: &VarRef{Name: "c"}, Name: "a"}, Name: "b"}
	path, ok := rowPath("c", e, nil)
	if !ok || path != "a.b" {
		t.Fatalf("rowPath = %q, %v", path, ok)
	}
	// Arrow form.
	arrow := &BinaryOp{Op: "->>", L: &VarRef{Name: "c"}, R: &Literal{Value: mmvalue.String("k")}}
	path, ok = rowPath("c", arrow, nil)
	if !ok || path != "k" {
		t.Fatalf("arrow rowPath = %q, %v", path, ok)
	}
	// Bare var is not a path, and a parameter is not a variable.
	if _, ok := rowPath("c", &VarRef{Name: "c"}, nil); ok {
		t.Fatal("bare var should not be a path")
	}
	if _, ok := rowPath("c", &FieldAccess{Base: &VarRef{Name: "c", Param: true}, Name: "a"}, nil); ok {
		t.Fatal("a path below a parameter matched")
	}
	// A name the outer row does not bind is a column of the loop row; one it
	// binds — directly or as a column of an earlier source — is not.
	if path, ok := rowPath("x", e, nil); !ok || path != "c.a.b" {
		t.Fatalf("bare column rowPath = %q, %v", path, ok)
	}
	if _, ok := rowPath("x", e, newEnv().bind("c", mmvalue.Int(1))); ok {
		t.Fatal("an outer binding matched as a column")
	}
	outer := newEnv().bindSource("o", mmvalue.Object(mmvalue.F("c", mmvalue.Int(1))))
	if _, ok := rowPath("x", e, outer); ok {
		t.Fatal("a column of an earlier source matched as a column of the loop row")
	}
}

// TestLimitBound: only bounds known before the first row (literals and
// parameters) bound the FOR before a LIMIT.
func TestLimitBound(t *testing.T) {
	c := &execCtx{opts: Options{Params: map[string]mmvalue.Value{"n": mmvalue.Int(7), "neg": mmvalue.Int(-1)}}}
	lit := func(i int64) Expr { return &Literal{Value: mmvalue.Int(i)} }
	param := func(name string) Expr { return &VarRef{Name: name, Param: true} }
	for _, tc := range []struct {
		cl   LimitClause
		want int
	}{
		{LimitClause{Count: lit(20)}, 20},
		{LimitClause{Offset: lit(5), Count: param("n")}, 12},
		{LimitClause{Offset: lit(5)}, -1},            // OFFSET alone keeps everything behind it
		{LimitClause{Count: &VarRef{Name: "x"}}, -1}, // depends on a row
		{LimitClause{Count: &BinaryOp{Op: "+", L: lit(1), R: lit(2)}}, -1},
		{LimitClause{Count: param("neg")}, -1},                       // execLimit reports it
		{LimitClause{Count: param("unbound")}, -1},                   // execLimit reports it
		{LimitClause{Offset: lit(1 << 62), Count: lit(1 << 62)}, -1}, // overflow
	} {
		if got := c.limitBound(&tc.cl); got != tc.want {
			t.Errorf("limitBound(%+v) = %d, want %d", tc.cl, got, tc.want)
		}
	}
}

func TestLikeMatch(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%llo", true},
		{"hello", "h_llo", true},
		{"hello", "h_l_o", true},
		{"hello", "x%", false},
		{"hello", "", false},
		{"", "%", true},
		{"abc", "%b%", true},
		{"abc", "a%c%", true},
	}
	for _, c := range cases {
		if got := likeMatch(c.s, c.p); got != c.want {
			t.Errorf("likeMatch(%q, %q) = %v", c.s, c.p, got)
		}
	}
}
