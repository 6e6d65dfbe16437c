package core_test

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/mmvalue"
)

func TestShortestPathFunction(t *testing.T) {
	db := openDB(t)
	err := db.Update(func(tx engine.Tx) error {
		if err := db.CreateGraph(tx, "g"); err != nil {
			return err
		}
		for _, v := range []string{"a", "b", "c"} {
			db.Graphs.PutVertex(tx, "g", v, mmvalue.Object())
		}
		db.Graphs.Connect(tx, "g", "a", "b", "", mmvalue.Null)
		db.Graphs.Connect(tx, "g", "b", "c", "", mmvalue.Null)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`RETURN SHORTEST_PATH('g', 'a', 'c')`, nil)
	if err != nil {
		t.Fatal(err)
	}
	path := res.Values[0]
	if path.Len() != 3 {
		t.Fatalf("path = %v", path)
	}
	// Unreachable: empty array, not an error (AQL-style).
	res, err = db.Query(`RETURN SHORTEST_PATH('g', 'c', 'a')`, nil)
	if err != nil || res.Values[0].Len() != 0 {
		t.Fatalf("unreachable = %v, %v", res.Values, err)
	}
}

func TestFTSearchFunctionInQuery(t *testing.T) {
	db := openDB(t)
	err := db.Update(func(tx engine.Tx) error {
		if err := db.Docs.CreateCollection(tx, "posts", catalogSchemaless()); err != nil {
			return err
		}
		db.Docs.Put(tx, "posts", "p1", mmvalue.MustParseJSON(`{"body":"multi model databases are new"}`))
		db.Docs.Put(tx, "posts", "p2", mmvalue.MustParseJSON(`{"body":"cooking with gas"}`))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateFullText("posts"); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`
		FOR key IN FTSEARCH('posts', 'multi databases')
		  LET doc = DOCUMENT('posts', key)
		  RETURN doc.body`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != 1 || res.Values[0].AsString() != "multi model databases are new" {
		t.Fatalf("ftsearch = %v", res.Values)
	}
	// No index: clear error.
	if _, err := db.Query(`RETURN FTSEARCH('nothere', 'x')`, nil); err != nil {
		t.Fatalf("FTSEARCH on unindexed collection should return empty, got %v", err)
	}
}

// TestGINMaintenanceSemantics: the GIN is written inside the transaction
// that writes its documents, so the writer reads its own writes through it,
// an abort rolls both back, and a delete removes the document's items.
func TestGINMaintenanceSemantics(t *testing.T) {
	db := openDB(t)
	if err := db.Update(func(tx engine.Tx) error {
		return db.Docs.CreateCollection(tx, "c", catalogSchemaless())
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateGIN("c", 0); err != nil {
		t.Fatal(err)
	}
	ginQuery := func(tx engine.Tx, tag string) []string {
		t.Helper()
		res, err := db.QueryTx(tx, `FOR d IN c FILTER d @> {tag: @tag} RETURN d._key`,
			map[string]mmvalue.Value{"tag": mmvalue.String(tag)})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Stats.IndexUsed) != 1 || res.Stats.IndexUsed[0] != "doc:c GIN (@>)" {
			t.Fatalf("@> did not use the GIN: %+v", res.Stats)
		}
		return core.Strings(res)
	}
	// Read-your-writes: the writing transaction sees its document through
	// the GIN before it commits.
	if err := db.Update(func(tx engine.Tx) error {
		if err := db.Docs.Put(tx, "c", "a", mmvalue.MustParseJSON(`{"tag":"x"}`)); err != nil {
			return err
		}
		if got := ginQuery(tx, "x"); !reflect.DeepEqual(got, []string{"a"}) {
			t.Fatalf("own write through the GIN = %v, want [a]", got)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Aborted writes leave no item behind.
	tx, err := db.BeginTx()
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Docs.Put(tx, "c", "b", mmvalue.MustParseJSON(`{"tag":"y"}`)); err != nil {
		t.Fatal(err)
	}
	if got := ginQuery(tx, "y"); !reflect.DeepEqual(got, []string{"b"}) {
		t.Fatalf("own write before abort = %v, want [b]", got)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	// Deletes remove the document's items.
	if err := db.Update(func(tx engine.Tx) error {
		_, err := db.Docs.Delete(tx, "c", "a")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.View(func(tx engine.Tx) error {
		for _, tag := range []string{"x", "y"} {
			if got := ginQuery(tx, tag); len(got) != 0 {
				t.Fatalf("@> {tag: %s} after abort and delete = %v", tag, got)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n := db.KeyspaceLen("idx:doc:c:gin"); n != 0 {
		t.Fatalf("GIN keyspace holds %d entries after abort and delete", n)
	}
}

func TestMultiHopCrossModelTransaction(t *testing.T) {
	// One transaction mutating five models, committed, then queried across
	// all of them in one statement.
	db := openDB(t)
	err := db.Update(func(tx engine.Tx) error {
		if err := db.Docs.CreateCollection(tx, "orders", catalogSchemaless()); err != nil {
			return err
		}
		if err := db.CreateGraph(tx, "social"); err != nil {
			return err
		}
		db.Graphs.PutVertex(tx, "social", "u1", mmvalue.Object())
		db.Graphs.PutVertex(tx, "social", "u2", mmvalue.Object())
		db.Graphs.Connect(tx, "social", "u1", "u2", "knows", mmvalue.Null)
		db.KV.Set(tx, "cart", "u2", mmvalue.String("o1"))
		db.Docs.Put(tx, "orders", "o1", mmvalue.MustParseJSON(`{"total": 99}`))
		db.RDF.Insert(tx, "kg", tripleOf("<u2>", "<likes>", "<o1>"))
		return db.XML.LoadJSON(tx, "receipt-o1", mmvalue.MustParseJSON(`{"total": 99}`))
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`
		FOR friend IN 1..1 OUTBOUND 'u1' social.knows
		  LET order = DOCUMENT('orders', KV('cart', friend._key))
		  LET rdf = TRIPLES('kg', CONCAT('<', friend._key, '>'), '<likes>', null)
		  LET xml = XPATH(CONCAT('receipt-', KV('cart', friend._key)), '/root/total')
		  RETURN {total: order.total, liked: LENGTH(rdf), receipt: xml[0]}`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != 1 {
		t.Fatalf("res = %v", res.Values)
	}
	row := res.Values[0]
	if row.GetOr("total").AsInt() != 99 || row.GetOr("liked").AsInt() != 1 || row.GetOr("receipt").AsInt() != 99 {
		t.Fatalf("row = %v", row)
	}
}

func TestQueryOperatorsHasKeyFamily(t *testing.T) {
	db := openDB(t)
	db.Update(func(tx engine.Tx) error {
		db.Docs.CreateCollection(tx, "c", catalogSchemaless())
		db.Docs.Put(tx, "c", "a", mmvalue.MustParseJSON(`{"x":1,"y":2}`))
		db.Docs.Put(tx, "c", "b", mmvalue.MustParseJSON(`{"y":2,"z":3}`))
		return nil
	})
	res, err := db.Query(`FOR d IN c FILTER d ? 'x' RETURN d._key`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := core.Strings(res); !reflect.DeepEqual(got, []string{"a"}) {
		t.Fatalf("? = %v", got)
	}
	res, err = db.Query(`FOR d IN c FILTER d ?| ['x','z'] SORT d._key RETURN d._key`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := core.Strings(res); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("?| = %v", got)
	}
	res, err = db.Query(`FOR d IN c FILTER d ?& ['y','z'] RETURN d._key`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := core.Strings(res); !reflect.DeepEqual(got, []string{"b"}) {
		t.Fatalf("?& = %v", got)
	}
}

func TestSubqueryCorrelated(t *testing.T) {
	db := openDB(t)
	seedStore(t, db)
	res, err := db.Query(`
		FOR p IN products
		  LET sold = (FOR s IN sales FILTER s.product == p._key RETURN s.qty)
		  FILTER LENGTH(sold) > 0
		  SORT p._key
		  RETURN {product: p._key, total: SUM(sold)}`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != 3 {
		t.Fatalf("res = %v", res.Values)
	}
	if res.Values[0].GetOr("product").AsString() != "p1" || res.Values[0].GetOr("total").AsInt() != 7 {
		t.Fatalf("p1 = %v", res.Values[0])
	}
}

func TestColTableAsQuerySource(t *testing.T) {
	// The wide-column model (Cassandra/DynamoDB row of the matrix) joins
	// the unified language like every other model.
	db := openDB(t)
	err := db.Update(func(tx engine.Tx) error {
		if err := db.CreateColTable(tx, "events"); err != nil {
			return err
		}
		for i, kind := range []string{"click", "view", "click"} {
			if err := db.Cols.PutItem(tx, "events",
				mmvalue.String("u1"), mmvalue.Int(int64(i)),
				mmvalue.Object(mmvalue.F("kind", mmvalue.String(kind)))); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`
		FOR e IN events
		  FILTER e.kind == 'click'
		  SORT e._sort
		  RETURN e._sort`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != 2 || res.Values[0].AsInt() != 0 || res.Values[1].AsInt() != 2 {
		t.Fatalf("coltable query = %v", res.Values)
	}
	// And through MSQL with aggregation.
	sql, err := db.SQL(`SELECT kind, COUNT(*) AS n FROM events e GROUP BY e.kind ORDER BY kind`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sql.Values) != 2 || sql.Values[0].GetOr("n").AsInt() != 2 {
		t.Fatalf("coltable sql = %v", sql.Values)
	}
}
