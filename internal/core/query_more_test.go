package core_test

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/mmvalue"
)

func TestCollectWithoutInto(t *testing.T) {
	db := openDB(t)
	seedStore(t, db)
	res, err := db.Query(`
		FOR s IN sales
		  COLLECT region = s.region
		  SORT region
		  RETURN region`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := core.Strings(res); !reflect.DeepEqual(got, []string{"APAC", "EU", "US"}) {
		t.Fatalf("got %v", got)
	}
}

func TestCollectMultipleKeys(t *testing.T) {
	db := openDB(t)
	seedStore(t, db)
	res, err := db.Query(`
		FOR s IN sales
		  COLLECT region = s.region, product = s.product INTO g
		  SORT region, product
		  RETURN CONCAT(region, '/', product, '=', TO_STRING(LENGTH(g)))`, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"APAC/p2=1", "EU/p1=1", "EU/p2=1", "US/p1=1", "US/p4=1"}
	if got := core.Strings(res); !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v", got)
	}
}

func TestSortMultipleKeysMixedDirections(t *testing.T) {
	db := openDB(t)
	seedStore(t, db)
	res, err := db.Query(`
		FOR s IN sales
		  SORT s.region ASC, s.qty DESC
		  RETURN CONCAT(s.region, ':', TO_STRING(s.qty))`, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"APAC:4", "EU:2", "EU:1", "US:10", "US:5"}
	if got := core.Strings(res); !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v", got)
	}
}

func TestLimitWithParams(t *testing.T) {
	db := openDB(t)
	seedStore(t, db)
	res, err := db.Query(`FOR p IN products SORT p._key LIMIT @off, @n RETURN p._key`,
		map[string]mmvalue.Value{"off": mmvalue.Int(1), "n": mmvalue.Int(2)})
	if err != nil {
		t.Fatal(err)
	}
	if got := core.Strings(res); !reflect.DeepEqual(got, []string{"p2", "p3"}) {
		t.Fatalf("got %v", got)
	}
}

func TestTraversalFromVertexBinding(t *testing.T) {
	db := openDB(t)
	err := db.Update(func(tx engine.Tx) error {
		db.CreateGraph(tx, "g")
		db.Graphs.PutVertex(tx, "g", "a", mmvalue.MustParseJSON(`{"hub":true}`))
		db.Graphs.PutVertex(tx, "g", "b", mmvalue.MustParseJSON(`{"hub":false}`))
		db.Graphs.PutVertex(tx, "g", "c", mmvalue.MustParseJSON(`{"hub":false}`))
		db.Graphs.Connect(tx, "g", "a", "b", "", mmvalue.Null)
		db.Graphs.Connect(tx, "g", "b", "c", "", mmvalue.Null)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Start expression is a vertex document from an outer FOR: the
	// traversal uses its _key.
	res, err := db.Query(`
		FOR v IN g
		  FILTER v.hub
		  FOR w IN 1..2 OUTBOUND v g
		    RETURN w._key`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := core.Strings(res); !reflect.DeepEqual(got, []string{"b", "c"}) {
		t.Fatalf("got %v", got)
	}
}

func TestNestedSubqueryInFilter(t *testing.T) {
	db := openDB(t)
	seedStore(t, db)
	res, err := db.Query(`
		FOR p IN products
		  FILTER LENGTH((FOR s IN sales FILTER s.product == p._key RETURN 1)) >= 2
		  RETURN p._key`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := core.Strings(res); !reflect.DeepEqual(got, []string{"p1", "p2"}) {
		t.Fatalf("got %v", got)
	}
}

func TestArrayObjectFunctions(t *testing.T) {
	db := openDB(t)
	res, err := db.Query(`
		LET arr = [3, 1, 2, 1]
		LET obj = {b: 2, a: 1}
		RETURN {
			uniq: UNIQUE(arr),
			flat: FLATTEN([[1,2],[3]]),
			first: FIRST(arr),
			last: LAST(arr),
			keys: KEYS(obj),
			merged: MERGE(obj, {c: 3}),
			has: HAS(obj, 'a'),
			minv: MIN(arr),
			coalesced: COALESCE(null, null, 7)
		}`, nil)
	if err != nil {
		t.Fatal(err)
	}
	v := res.Values[0]
	if v.GetOr("uniq").Len() != 3 || v.GetOr("flat").Len() != 3 {
		t.Fatalf("uniq/flat = %v", v)
	}
	if v.GetOr("first").AsInt() != 3 || v.GetOr("last").AsInt() != 1 {
		t.Fatalf("first/last = %v", v)
	}
	if !mmvalue.Equal(v.GetOr("keys"), mmvalue.Array(mmvalue.String("a"), mmvalue.String("b"))) {
		t.Fatalf("keys = %v", v.GetOr("keys"))
	}
	if v.GetOr("merged").GetOr("c").AsInt() != 3 || !v.GetOr("has").AsBool() {
		t.Fatalf("merged/has = %v", v)
	}
	if v.GetOr("minv").AsInt() != 1 || v.GetOr("coalesced").AsInt() != 7 {
		t.Fatalf("min/coalesce = %v", v)
	}
}

func TestArithmeticEdgeCases(t *testing.T) {
	db := openDB(t)
	res, err := db.Query(`RETURN [10 / 0, 10 % 0, 7 % 3, 1 + 2.5, -(-3), 'a' + 1]`, nil)
	if err != nil {
		t.Fatal(err)
	}
	arr := res.Values[0].AsArray()
	if !arr[0].IsNull() || !arr[1].IsNull() {
		t.Fatalf("division by zero = %v, %v", arr[0], arr[1])
	}
	if arr[2].AsInt() != 1 || arr[3].AsFloat() != 3.5 || arr[4].AsInt() != 3 {
		t.Fatalf("arith = %v", arr)
	}
	if arr[5].AsString() != "a1" {
		t.Fatalf("string concat via + = %v", arr[5])
	}
}

func TestNullComparisonsTotalOrder(t *testing.T) {
	// AQL total order: null sorts before everything; comparisons are
	// well-defined rather than three-valued.
	db := openDB(t)
	res, err := db.Query(`RETURN [null < 0, null == null, 1 < 'a', [1] < [2]]`, nil)
	if err != nil {
		t.Fatal(err)
	}
	arr := res.Values[0].AsArray()
	for i, want := range []bool{true, true, true, true} {
		if arr[i].AsBool() != want {
			t.Fatalf("cmp[%d] = %v", i, arr[i])
		}
	}
}

func TestDistinctOnObjects(t *testing.T) {
	db := openDB(t)
	seedStore(t, db)
	res, err := db.Query(`
		FOR s IN sales
		  SORT s.region
		  RETURN DISTINCT {region: s.region}`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != 3 {
		t.Fatalf("distinct objects = %v", res.Values)
	}
}

func TestMSQLMultiJoinThreeSources(t *testing.T) {
	db := openDB(t)
	seedStore(t, db)
	err := db.Update(func(tx engine.Tx) error {
		db.Docs.CreateCollection(tx, "regions", catalogSchemaless())
		db.Docs.Put(tx, "regions", "EU", mmvalue.MustParseJSON(`{"tax":0.2}`))
		db.Docs.Put(tx, "regions", "US", mmvalue.MustParseJSON(`{"tax":0.1}`))
		db.Docs.Put(tx, "regions", "APAC", mmvalue.MustParseJSON(`{"tax":0.15}`))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.SQL(`
		SELECT p.name AS name, r.tax AS tax
		FROM sales s
		JOIN products p ON s.product = p._key
		JOIN regions r ON s.region = r._key
		WHERE s.qty > 4
		ORDER BY name`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != 2 {
		t.Fatalf("rows = %v", res.Values)
	}
	if res.Values[0].GetOr("name").AsString() != "Pen" || res.Values[0].GetOr("tax").AsFloat() != 0.1 {
		t.Fatalf("row 0 = %v", res.Values[0])
	}
}

func TestMSQLInAndLike(t *testing.T) {
	db := openDB(t)
	seedStore(t, db)
	res, err := db.SQL(`SELECT name FROM products p WHERE p.name LIKE '%o%' AND p._key IN ['p1','p3','p4'] ORDER BY name`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != 2 { // Toy? no 'o'... "Toy" has o; Computer has o; keys p1(Toy), p3(Computer)
		t.Fatalf("rows = %v", res.Values)
	}
}

func TestUpdateRowsViaQueryPipeline(t *testing.T) {
	// DML driven by a query: discount every product over 50.
	db := openDB(t)
	seedStore(t, db)
	_, err := db.Query(`
		FOR p IN products
		  FILTER p.price > 50
		  UPDATE p._key WITH {price: p.price - 10} IN products`, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := db.Query(`FOR p IN products FILTER p._key == 'p1' RETURN p.price`, nil)
	if res.Values[0].AsInt() != 56 {
		t.Fatalf("price = %v", res.Values[0])
	}
}

func TestStringFunctions(t *testing.T) {
	db := openDB(t)
	res, err := db.Query(`RETURN [
		SUBSTRING('multimodel', 5),
		SUBSTRING('multimodel', 0, 5),
		STARTS_WITH('unidb', 'uni'),
		LOWER('ABC'), UPPER('abc'),
		ABS(-7), ROUND(2.6),
		TO_NUMBER('42'), TO_NUMBER('2.5'), TO_NUMBER('nope')
	]`, nil)
	if err != nil {
		t.Fatal(err)
	}
	arr := res.Values[0].AsArray()
	if arr[0].AsString() != "model" || arr[1].AsString() != "multi" {
		t.Fatalf("substring = %v", arr[:2])
	}
	if !arr[2].AsBool() || arr[3].AsString() != "abc" || arr[4].AsString() != "ABC" {
		t.Fatalf("string fns = %v", arr)
	}
	if arr[5].AsInt() != 7 || arr[6].AsInt() != 3 {
		t.Fatalf("abs/round = %v", arr[5:7])
	}
	if arr[7].AsInt() != 42 || arr[8].AsFloat() != 2.5 || !arr[9].IsNull() {
		t.Fatalf("to_number = %v", arr[7:])
	}
}

func TestTraversalAnyDirection(t *testing.T) {
	db := openDB(t)
	err := db.Update(func(tx engine.Tx) error {
		db.CreateGraph(tx, "u")
		for _, v := range []string{"x", "y", "z"} {
			db.Graphs.PutVertex(tx, "u", v, mmvalue.Object())
		}
		db.Graphs.Connect(tx, "u", "x", "y", "", mmvalue.Null)
		db.Graphs.Connect(tx, "u", "z", "x", "", mmvalue.Null)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`FOR v IN 1..1 ANY 'x' u SORT v._key RETURN v._key`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := core.Strings(res); !reflect.DeepEqual(got, []string{"y", "z"}) {
		t.Fatalf("ANY = %v", got)
	}
	res, err = db.Query(`FOR v IN 1..1 INBOUND 'x' u RETURN v._key`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := core.Strings(res); !reflect.DeepEqual(got, []string{"z"}) {
		t.Fatalf("INBOUND = %v", got)
	}
}
