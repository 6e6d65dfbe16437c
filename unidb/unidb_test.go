package unidb_test

import (
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"repro/unidb"
)

func open(t *testing.T) *unidb.Database {
	t.Helper()
	db, err := unidb.Open(unidb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func TestQuickstartFlow(t *testing.T) {
	db := open(t)
	err := db.Update(func(tx *unidb.Txn) error {
		if err := tx.CreateCollection("products"); err != nil {
			return err
		}
		if _, err := tx.InsertDocument("products", `{"_key":"p1","name":"Toy","price":66}`); err != nil {
			return err
		}
		_, err := tx.InsertDocument("products", `{"_key":"p2","name":"Book","price":40}`)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`FOR p IN products FILTER p.price > 50 RETURN p.name`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := unidb.Strings(res); !reflect.DeepEqual(got, []string{"Toy"}) {
		t.Fatalf("got %v", got)
	}
}

func TestCrossModelTransactionAtomicity(t *testing.T) {
	db := open(t)
	db.Update(func(tx *unidb.Txn) error {
		tx.CreateCollection("orders")
		tx.CreateGraph("social")
		return tx.CreateTable("customers", unidb.TableSchema{
			Columns: []unidb.Column{
				{Name: "id", Type: unidb.TInt, NotNull: true},
				{Name: "credit", Type: unidb.TInt},
			},
			PrimaryKey: []string{"id"},
		})
	})
	// Abort spans all models.
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	tx.InsertRow("customers", unidb.MustParseJSON(`{"id":1,"credit":100}`))
	tx.PutDocument("orders", "o1", unidb.MustParseJSON(`{"total":5}`))
	tx.KVSet("cart", "1", unidb.MustParseJSON(`"o1"`))
	tx.PutVertex("social", "c1", unidb.MustParseJSON(`{}`))
	tx.Abort()
	db.View(func(tx *unidb.Txn) error {
		if _, ok, _ := tx.GetRow("customers", unidb.MustParseJSON(`1`)); ok {
			t.Fatal("row survived abort")
		}
		if _, ok, _ := tx.GetDocument("orders", "o1"); ok {
			t.Fatal("doc survived abort")
		}
		if _, ok, _ := tx.KVGet("cart", "1"); ok {
			t.Fatal("kv survived abort")
		}
		return nil
	})
}

func TestGraphAPI(t *testing.T) {
	db := open(t)
	err := db.Update(func(tx *unidb.Txn) error {
		tx.CreateGraph("g")
		tx.PutVertex("g", "a", unidb.MustParseJSON(`{"name":"A"}`))
		tx.PutVertex("g", "b", unidb.MustParseJSON(`{"name":"B"}`))
		tx.PutVertex("g", "c", unidb.MustParseJSON(`{"name":"C"}`))
		tx.Connect("g", "a", "b", "x")
		_, err := tx.Connect("g", "b", "c", "x")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	db.View(func(tx *unidb.Txn) error {
		ns, err := tx.Neighbors("g", "a", unidb.Outbound, "x")
		if err != nil || !reflect.DeepEqual(ns, []string{"b"}) {
			t.Fatalf("neighbors = %v, %v", ns, err)
		}
		path, err := tx.ShortestPath("g", "a", "c")
		if err != nil || !reflect.DeepEqual(path, []string{"a", "b", "c"}) {
			t.Fatalf("path = %v, %v", path, err)
		}
		return nil
	})
}

func TestXMLAndRDFAPI(t *testing.T) {
	db := open(t)
	err := db.Update(func(tx *unidb.Txn) error {
		if err := tx.LoadXML("prod", []byte(`<product no="1"><name>Toy</name></product>`)); err != nil {
			return err
		}
		return tx.InsertTriple("kg", unidb.Triple{S: "<p1>", P: "<is>", O: "<toy>"})
	})
	if err != nil {
		t.Fatal(err)
	}
	db.View(func(tx *unidb.Txn) error {
		vals, err := tx.XPath("prod", "/product/name")
		if err != nil || len(vals) != 1 || vals[0].AsString() != "Toy" {
			t.Fatalf("xpath = %v, %v", vals, err)
		}
		triples, err := tx.MatchTriples("kg", "", "<is>", "")
		if err != nil || len(triples) != 1 || triples[0].S != "<p1>" {
			t.Fatalf("triples = %v, %v", triples, err)
		}
		return nil
	})
}

func TestDurableReopen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	db, err := unidb.Open(unidb.Options{Dir: dir, Durability: unidb.Buffered})
	if err != nil {
		t.Fatal(err)
	}
	err = db.Update(func(tx *unidb.Txn) error {
		tx.CreateCollection("c")
		_, err := tx.InsertDocument("c", `{"_key":"k","v":1}`)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db.Update(func(tx *unidb.Txn) error {
		_, err := tx.InsertDocument("c", `{"_key":"k2","v":2}`)
		return err
	})
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := unidb.Open(unidb.Options{Dir: dir, Durability: unidb.Buffered})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	res, err := db2.Query(`FOR d IN c SORT d._key RETURN d.v`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != 2 || res.Values[0].AsInt() != 1 || res.Values[1].AsInt() != 2 {
		t.Fatalf("recovered = %v", res.Values)
	}
}

func TestReplicaConsistency(t *testing.T) {
	db := open(t)
	rep := db.NewReplica(1) // lag one transaction
	db.Update(func(tx *unidb.Txn) error { return tx.KVSet("b", "k", unidb.MustParseJSON(`1`)) })
	db.Update(func(tx *unidb.Txn) error { return tx.KVSet("b", "k", unidb.MustParseJSON(`2`)) })
	// STRONG read sees 2; EVENTUAL replica (lag 1) still sees 1.
	db.View(func(tx *unidb.Txn) error {
		v, _, _ := tx.KVGet("b", "k")
		if v.AsInt() != 2 {
			t.Fatalf("primary = %v", v)
		}
		return nil
	})
	if v, ok := rep.KVGet("b", "k"); !ok || v.AsInt() != 1 {
		t.Fatalf("replica = %v, %v (want stale 1)", v, ok)
	}
	if rep.Lag() != 1 {
		t.Fatalf("lag = %d", rep.Lag())
	}
	rep.CatchUp()
	if v, _ := rep.KVGet("b", "k"); v.AsInt() != 2 {
		t.Fatalf("replica after catch-up = %v", v)
	}
}

func TestGINAndFullText(t *testing.T) {
	db := open(t)
	db.Update(func(tx *unidb.Txn) error {
		tx.CreateCollection("docs")
		tx.PutDocument("docs", "a", unidb.MustParseJSON(`{"title":"graph databases rock","tags":["db"]}`))
		tx.PutDocument("docs", "b", unidb.MustParseJSON(`{"title":"cooking pasta","tags":["food"]}`))
		return nil
	})
	if err := db.CreateGIN("docs", unidb.GINPathOps); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateFullText("docs"); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`FOR d IN docs FILTER d @> {tags: ['db']} RETURN d._key`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := unidb.Strings(res); !reflect.DeepEqual(got, []string{"a"}) {
		t.Fatalf("gin query = %v", got)
	}
	if res.Stats.IndexScans != 1 {
		t.Fatalf("GIN not used: %+v", res.Stats)
	}
	if got := db.FullTextSearch("docs", "graph databases"); !reflect.DeepEqual(got, []string{"a"}) {
		t.Fatalf("fts = %v", got)
	}
	// The indexes are written with the documents.
	db.Update(func(tx *unidb.Txn) error {
		return tx.PutDocument("docs", "c", unidb.MustParseJSON(`{"title":"graph theory"}`))
	})
	if got := db.FullTextSearch("docs", "graph"); len(got) != 2 {
		t.Fatalf("fts after insert = %v", got)
	}
}

func TestSQLFacade(t *testing.T) {
	db := open(t)
	db.Update(func(tx *unidb.Txn) error {
		tx.CreateTable("t", unidb.TableSchema{
			Columns:    []unidb.Column{{Name: "id", Type: unidb.TInt, NotNull: true}, {Name: "v", Type: unidb.TString}},
			PrimaryKey: []string{"id"},
		})
		return tx.InsertRow("t", unidb.MustParseJSON(`{"id":1,"v":"x"}`))
	})
	res, err := db.SQL(`SELECT v FROM t WHERE id = 1`, nil)
	if err != nil || len(res.Values) != 1 {
		t.Fatalf("sql = %v, %v", res, err)
	}
}

// TestIntPrimaryKeysPast2To53 inserts rows whose INT primary keys share a
// float64 image: each is its own row, read back by its own key.
func TestIntPrimaryKeysPast2To53(t *testing.T) {
	db := open(t)
	ids := []int64{1 << 53, 1<<53 + 1, 1<<53 + 2, -1<<53 - 1, -1 << 53, -1 << 63, 1<<63 - 1}
	err := db.Update(func(tx *unidb.Txn) error {
		if err := tx.CreateTable("t", unidb.TableSchema{
			Columns:    []unidb.Column{{Name: "id", Type: unidb.TInt, NotNull: true}, {Name: "v", Type: unidb.TString}},
			PrimaryKey: []string{"id"},
		}); err != nil {
			return err
		}
		for _, id := range ids {
			row := unidb.MustParseJSON(fmt.Sprintf(`{"id":%d,"v":"row %d"}`, id, id))
			if err := tx.InsertRow("t", row); err != nil {
				return fmt.Errorf("insert %d: %w", id, err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	err = db.View(func(tx *unidb.Txn) error {
		for _, id := range ids {
			row, ok, err := tx.GetRow("t", unidb.Int(id))
			if err != nil || !ok {
				return fmt.Errorf("GetRow(%d) = %v, %v", id, ok, err)
			}
			if v, _ := row.Get("v"); v.AsString() != fmt.Sprintf("row %d", id) {
				return fmt.Errorf("GetRow(%d) = %v", id, row)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWideColumnAPI(t *testing.T) {
	db := open(t)
	err := db.Update(func(tx *unidb.Txn) error {
		if err := tx.CreateColTable("metrics"); err != nil {
			return err
		}
		for i := 0; i < 3; i++ {
			if err := tx.PutItem("metrics",
				unidb.MustParseJSON(`"host1"`), unidb.MustParseJSON(fmt.Sprint(i*10)),
				unidb.MustParseJSON(fmt.Sprintf(`{"cpu":%d}`, 50+i))); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	db.View(func(tx *unidb.Txn) error {
		item, ok, err := tx.GetItem("metrics", unidb.MustParseJSON(`"host1"`), unidb.MustParseJSON(`10`))
		if err != nil || !ok || item.GetOr("cpu").AsInt() != 51 {
			t.Fatalf("GetItem = %v, %v, %v", item, ok, err)
		}
		items, err := tx.QueryPartition("metrics", unidb.MustParseJSON(`"host1"`))
		if err != nil || len(items) != 3 {
			t.Fatalf("QueryPartition = %v, %v", items, err)
		}
		if items[2].GetOr("_sort").AsInt() != 20 {
			t.Fatalf("sort order = %v", items)
		}
		return nil
	})
	// Wide-column items flow through the unified query language too.
	res, err := db.Query(`FOR m IN metrics FILTER m.cpu >= 51 RETURN m.cpu`, nil)
	if err != nil || len(res.Values) != 2 {
		t.Fatalf("query = %v, %v", res, err)
	}
}

func TestPreparedStatement(t *testing.T) {
	db := open(t)
	err := db.Update(func(tx *unidb.Txn) error {
		if err := tx.CreateCollection("products"); err != nil {
			return err
		}
		if _, err := tx.InsertDocument("products", `{"_key":"p1","name":"Toy","price":66}`); err != nil {
			return err
		}
		_, err := tx.InsertDocument("products", `{"_key":"p2","name":"Book","price":40}`)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	stmt, err := db.Prepare(`FOR p IN products FILTER p.price > @min SORT p.name RETURN p.name`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := stmt.Exec(map[string]unidb.Value{"min": unidb.Int(50)})
	if err != nil {
		t.Fatal(err)
	}
	if got := unidb.Strings(res); !reflect.DeepEqual(got, []string{"Toy"}) {
		t.Fatalf("min=50: got %v", got)
	}
	res, err = stmt.Exec(map[string]unidb.Value{"min": unidb.Int(10)})
	if err != nil {
		t.Fatal(err)
	}
	if got := unidb.Strings(res); !reflect.DeepEqual(got, []string{"Book", "Toy"}) {
		t.Fatalf("min=10: got %v", got)
	}
	// Repeated Query calls hit the plan cache.
	if _, err := db.Query(`FOR p IN products RETURN p._key`, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(`FOR p IN products RETURN p._key`, nil); err != nil {
		t.Fatal(err)
	}
	if st := db.PlanCacheStats(); st.Hits == 0 {
		t.Fatalf("no plan cache hits: %+v", st)
	}
}
