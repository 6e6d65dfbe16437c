package docstore

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/binenc"
	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/inverted"
	"repro/internal/keyenc"
	"repro/internal/mmvalue"
)

func setup(t *testing.T) (*engine.Engine, *Store) {
	t.Helper()
	e, err := engine.Open(engine.Options{Durability: engine.Ephemeral})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	s := New(e, catalog.New(e))
	if err := e.Update(func(tx *engine.Txn) error {
		return s.CreateCollection(tx, "orders", catalog.Schemaless)
	}); err != nil {
		t.Fatal(err)
	}
	return e, s
}

var orderDoc = mmvalue.MustParseJSON(`{"Order_no":"0c6df508","Orderlines":[
	{"Product_no":"2724f","Product_Name":"Toy","Price":66},
	{"Product_no":"3424g","Product_Name":"Book","Price":40}]}`)

func TestInsertGet(t *testing.T) {
	e, s := setup(t)
	var key string
	e.Update(func(tx *engine.Txn) error {
		var err error
		key, err = s.Insert(tx, "orders", orderDoc)
		return err
	})
	if key == "" {
		t.Fatal("no key generated")
	}
	e.View(func(tx *engine.Txn) error {
		doc, ok, err := s.Get(tx, "orders", key)
		if err != nil || !ok {
			t.Fatalf("Get = %v, %v", ok, err)
		}
		if doc.GetOr("Order_no").AsString() != "0c6df508" {
			t.Fatalf("doc = %v", doc)
		}
		if doc.GetOr(KeyField).AsString() != key {
			t.Fatal("stored doc missing _key")
		}
		return nil
	})
}

func TestInsertExplicitKeyAndDuplicate(t *testing.T) {
	e, s := setup(t)
	doc := orderDoc.Set(KeyField, mmvalue.String("o1"))
	e.Update(func(tx *engine.Txn) error {
		k, err := s.Insert(tx, "orders", doc)
		if k != "o1" {
			t.Fatalf("key = %s", k)
		}
		return err
	})
	err := e.Update(func(tx *engine.Txn) error {
		_, err := s.Insert(tx, "orders", doc)
		return err
	})
	if !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("duplicate insert = %v", err)
	}
}

func TestInsertIntoMissingCollection(t *testing.T) {
	e, s := setup(t)
	err := e.Update(func(tx *engine.Txn) error {
		_, err := s.Insert(tx, "nope", orderDoc)
		return err
	})
	if !errors.Is(err, ErrNoCollection) {
		t.Fatalf("missing collection = %v", err)
	}
}

func TestInsertNonObject(t *testing.T) {
	e, s := setup(t)
	err := e.Update(func(tx *engine.Txn) error {
		_, err := s.Insert(tx, "orders", mmvalue.Int(5))
		return err
	})
	if err == nil {
		t.Fatal("scalar insert should fail")
	}
}

func TestPutUpdateDelete(t *testing.T) {
	e, s := setup(t)
	e.Update(func(tx *engine.Txn) error {
		return s.Put(tx, "orders", "o1", orderDoc)
	})
	e.Update(func(tx *engine.Txn) error {
		return s.Update(tx, "orders", "o1", mmvalue.MustParseJSON(`{"status":"shipped"}`))
	})
	e.View(func(tx *engine.Txn) error {
		doc, _, _ := s.Get(tx, "orders", "o1")
		if doc.GetOr("status").AsString() != "shipped" {
			t.Fatalf("update lost: %v", doc)
		}
		if doc.GetOr("Order_no").AsString() != "0c6df508" {
			t.Fatal("update clobbered other fields")
		}
		return nil
	})
	err := e.Update(func(tx *engine.Txn) error {
		return s.Update(tx, "orders", "missing", mmvalue.Object())
	})
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("update missing = %v", err)
	}
	e.Update(func(tx *engine.Txn) error {
		existed, err := s.Delete(tx, "orders", "o1")
		if !existed || err != nil {
			t.Fatalf("Delete = %v, %v", existed, err)
		}
		return nil
	})
	if s.Count("orders") != 0 {
		t.Fatalf("Count = %d", s.Count("orders"))
	}
}

func TestScanOrder(t *testing.T) {
	e, s := setup(t)
	e.Update(func(tx *engine.Txn) error {
		for _, k := range []string{"c", "a", "b"} {
			if err := s.Put(tx, "orders", k, mmvalue.Object()); err != nil {
				return err
			}
		}
		return nil
	})
	var keys []string
	e.View(func(tx *engine.Txn) error {
		return s.Scan(tx, "orders", func(k string, d mmvalue.Value) bool {
			keys = append(keys, k)
			return true
		})
	})
	if !reflect.DeepEqual(keys, []string{"a", "b", "c"}) {
		t.Fatalf("scan order = %v", keys)
	}
}

// TestScanKeys checks the keys Scan hands on: the document's own _key when
// the primary key is exactly that string, the decoded primary key when the
// key needs escaping or the stored _key disagrees with it, and an error
// when the primary key does not decode.
func TestScanKeys(t *testing.T) {
	e, s := setup(t)
	if err := e.Update(func(tx *engine.Txn) error {
		for _, k := range []string{"plain", "nul\x00byte"} {
			if err := s.Put(tx, "orders", k, mmvalue.Object()); err != nil {
				return err
			}
		}
		// A record whose _key is not its primary key: Scan reports the key.
		return tx.Put(Keyspace("orders"), keyenc.AppendString(nil, "stored"),
			binenc.Encode(mmvalue.Object(mmvalue.F(KeyField, mmvalue.String("other")))))
	}); err != nil {
		t.Fatal(err)
	}
	var keys []string
	if err := e.View(func(tx *engine.Txn) error {
		return s.Scan(tx, "orders", func(k string, d mmvalue.Value) bool {
			keys = append(keys, k)
			return true
		})
	}); err != nil {
		t.Fatal(err)
	}
	if want := []string{"nul\x00byte", "plain", "stored"}; !reflect.DeepEqual(keys, want) {
		t.Fatalf("scan keys = %q, want %q", keys, want)
	}
	if err := e.Update(func(tx *engine.Txn) error {
		return tx.Put(Keyspace("orders"), []byte{0xff}, binenc.Encode(mmvalue.Object()))
	}); err != nil {
		t.Fatal(err)
	}
	err := e.View(func(tx *engine.Txn) error {
		return s.Scan(tx, "orders", func(string, mmvalue.Value) bool { return true })
	})
	if err == nil {
		t.Fatal("Scan over a corrupt primary key succeeded")
	}
}

func TestSchemaEnforcement(t *testing.T) {
	e, s := setup(t)
	schema := catalog.Schema{
		Mode: catalog.SchemaFull,
		Fields: []catalog.FieldDef{
			{Name: "name", Type: mmvalue.KindString, Required: true},
		},
	}
	e.Update(func(tx *engine.Txn) error {
		return s.CreateCollection(tx, "people", schema)
	})
	err := e.Update(func(tx *engine.Txn) error {
		_, err := s.Insert(tx, "people", mmvalue.MustParseJSON(`{"nope":1}`))
		return err
	})
	if err == nil {
		t.Fatal("schema-full collection accepted invalid doc")
	}
	err = e.Update(func(tx *engine.Txn) error {
		_, err := s.Insert(tx, "people", mmvalue.MustParseJSON(`{"name":"Mary"}`))
		return err
	})
	if err != nil {
		t.Fatalf("valid doc rejected: %v", err)
	}
}

func seedIndexed(t *testing.T, e *engine.Engine, s *Store) {
	t.Helper()
	err := e.Update(func(tx *engine.Txn) error {
		s.CreateCollection(tx, "customers", catalog.Schemaless)
		for i, c := range []struct {
			name   string
			credit int64
		}{{"Mary", 5000}, {"John", 3000}, {"Anne", 2000}} {
			doc := mmvalue.Object(
				mmvalue.F(KeyField, mmvalue.String(fmt.Sprintf("c%d", i+1))),
				mmvalue.F("name", mmvalue.String(c.name)),
				mmvalue.F("credit_limit", mmvalue.Int(c.credit)),
			)
			if _, err := s.Insert(tx, "customers", doc); err != nil {
				return err
			}
		}
		return s.CreateIndex(tx, "customers", IndexDef{Name: "by_credit", Path: "credit_limit"})
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSecondaryIndexLookups(t *testing.T) {
	e, s := setup(t)
	seedIndexed(t, e, s)
	e.View(func(tx *engine.Txn) error {
		keys, err := s.LookupEq(tx, "customers", "by_credit", mmvalue.Int(3000))
		if err != nil || !reflect.DeepEqual(keys, []string{"c2"}) {
			t.Fatalf("LookupEq = %v, %v", keys, err)
		}
		// Range: credit > 3000 (exclusive low, unbounded high).
		keys, err = s.LookupRange(tx, "customers", "by_credit",
			Bound{Value: mmvalue.Int(3000)}, Bound{Unbounded: true})
		if err != nil || !reflect.DeepEqual(keys, []string{"c1"}) {
			t.Fatalf("LookupRange(>3000) = %v, %v", keys, err)
		}
		// Range: credit >= 3000.
		keys, _ = s.LookupRange(tx, "customers", "by_credit",
			Bound{Value: mmvalue.Int(3000), Inclusive: true}, Bound{Unbounded: true})
		if !reflect.DeepEqual(keys, []string{"c2", "c1"}) {
			t.Fatalf("LookupRange(>=3000) = %v", keys)
		}
		// Range: 2000 <= credit <= 3000.
		keys, _ = s.LookupRange(tx, "customers", "by_credit",
			Bound{Value: mmvalue.Int(2000), Inclusive: true},
			Bound{Value: mmvalue.Int(3000), Inclusive: true})
		if !reflect.DeepEqual(keys, []string{"c3", "c2"}) {
			t.Fatalf("LookupRange(between) = %v", keys)
		}
		return nil
	})
}

func TestIndexMaintainedOnUpdateAndDelete(t *testing.T) {
	e, s := setup(t)
	seedIndexed(t, e, s)
	e.Update(func(tx *engine.Txn) error {
		return s.Update(tx, "customers", "c3", mmvalue.MustParseJSON(`{"credit_limit":9000}`))
	})
	e.View(func(tx *engine.Txn) error {
		keys, _ := s.LookupEq(tx, "customers", "by_credit", mmvalue.Int(2000))
		if len(keys) != 0 {
			t.Fatalf("stale index entry: %v", keys)
		}
		keys, _ = s.LookupEq(tx, "customers", "by_credit", mmvalue.Int(9000))
		if !reflect.DeepEqual(keys, []string{"c3"}) {
			t.Fatalf("new index entry missing: %v", keys)
		}
		return nil
	})
	e.Update(func(tx *engine.Txn) error {
		_, err := s.Delete(tx, "customers", "c1")
		return err
	})
	e.View(func(tx *engine.Txn) error {
		keys, _ := s.LookupEq(tx, "customers", "by_credit", mmvalue.Int(5000))
		if len(keys) != 0 {
			t.Fatalf("index entry survived delete: %v", keys)
		}
		return nil
	})
}

func TestIndexRollbackOnAbort(t *testing.T) {
	e, s := setup(t)
	seedIndexed(t, e, s)
	tx, _ := e.Begin()
	s.Put(tx, "customers", "c9", mmvalue.MustParseJSON(`{"credit_limit":7777}`))
	tx.Abort()
	e.View(func(tx *engine.Txn) error {
		keys, _ := s.LookupEq(tx, "customers", "by_credit", mmvalue.Int(7777))
		if len(keys) != 0 {
			t.Fatalf("index entry survived abort: %v", keys)
		}
		return nil
	})
}

func TestMultiValuedIndexPath(t *testing.T) {
	e, s := setup(t)
	e.Update(func(tx *engine.Txn) error {
		s.Put(tx, "orders", "o1", orderDoc)
		return s.CreateIndex(tx, "orders", IndexDef{Name: "by_product", Path: "Orderlines[*].Product_no"})
	})
	e.View(func(tx *engine.Txn) error {
		for _, p := range []string{"2724f", "3424g"} {
			keys, err := s.LookupEq(tx, "orders", "by_product", mmvalue.String(p))
			if err != nil || !reflect.DeepEqual(keys, []string{"o1"}) {
				t.Fatalf("LookupEq(%s) = %v, %v", p, keys, err)
			}
		}
		return nil
	})
}

func TestUniqueIndex(t *testing.T) {
	e, s := setup(t)
	e.Update(func(tx *engine.Txn) error {
		s.CreateCollection(tx, "users", catalog.Schemaless)
		return s.CreateIndex(tx, "users", IndexDef{Name: "by_email", Path: "email", Unique: true})
	})
	e.Update(func(tx *engine.Txn) error {
		_, err := s.Insert(tx, "users", mmvalue.MustParseJSON(`{"email":"a@x"}`))
		return err
	})
	err := e.Update(func(tx *engine.Txn) error {
		_, err := s.Insert(tx, "users", mmvalue.MustParseJSON(`{"email":"a@x"}`))
		return err
	})
	if !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("unique violation = %v", err)
	}
	// Upsert of the same document does not self-conflict.
	err = e.Update(func(tx *engine.Txn) error {
		keys, err := s.LookupEq(tx, "users", "by_email", mmvalue.String("a@x"))
		if err != nil || len(keys) != 1 {
			return fmt.Errorf("lookup: %v %v", keys, err)
		}
		return s.Put(tx, "users", keys[0], mmvalue.MustParseJSON(`{"email":"a@x","n":1}`))
	})
	if err != nil {
		t.Fatalf("self upsert = %v", err)
	}
}

func TestSparseIndex(t *testing.T) {
	e, s := setup(t)
	e.Update(func(tx *engine.Txn) error {
		s.CreateCollection(tx, "mixed", catalog.Schemaless)
		s.Put(tx, "mixed", "with", mmvalue.MustParseJSON(`{"tag":"x"}`))
		s.Put(tx, "mixed", "without", mmvalue.MustParseJSON(`{"other":1}`))
		return s.CreateIndex(tx, "mixed", IndexDef{Name: "sparse_tag", Path: "tag", Sparse: true})
	})
	e.View(func(tx *engine.Txn) error {
		keys, _ := s.LookupEq(tx, "mixed", "sparse_tag", mmvalue.Null)
		if len(keys) != 0 {
			t.Fatalf("sparse index has null entries: %v", keys)
		}
		return nil
	})
	// Non-sparse indexes record null for missing paths.
	e.Update(func(tx *engine.Txn) error {
		return s.CreateIndex(tx, "mixed", IndexDef{Name: "dense_tag", Path: "tag"})
	})
	e.View(func(tx *engine.Txn) error {
		keys, _ := s.LookupEq(tx, "mixed", "dense_tag", mmvalue.Null)
		if !reflect.DeepEqual(keys, []string{"without"}) {
			t.Fatalf("dense index null entries = %v", keys)
		}
		return nil
	})
}

func TestCreateIndexBackfillsAndDrop(t *testing.T) {
	e, s := setup(t)
	e.Update(func(tx *engine.Txn) error {
		for i := 0; i < 10; i++ {
			s.Put(tx, "orders", fmt.Sprintf("o%d", i), mmvalue.Object(mmvalue.F("n", mmvalue.Int(int64(i)))))
		}
		return nil
	})
	e.Update(func(tx *engine.Txn) error {
		return s.CreateIndex(tx, "orders", IndexDef{Name: "by_n", Path: "n"})
	})
	e.View(func(tx *engine.Txn) error {
		keys, _ := s.LookupEq(tx, "orders", "by_n", mmvalue.Int(7))
		if !reflect.DeepEqual(keys, []string{"o7"}) {
			t.Fatalf("backfill missing: %v", keys)
		}
		return nil
	})
	// Duplicate index name.
	err := e.Update(func(tx *engine.Txn) error {
		return s.CreateIndex(tx, "orders", IndexDef{Name: "by_n", Path: "n"})
	})
	if err == nil {
		t.Fatal("duplicate index name accepted")
	}
	e.Update(func(tx *engine.Txn) error { return s.DropIndex(tx, "orders", "by_n") })
	e.View(func(tx *engine.Txn) error {
		defs, _ := s.Indexes(tx, "orders")
		if len(defs) != 0 {
			t.Fatalf("indexes after drop = %v", defs)
		}
		return nil
	})
}

func TestDropCollection(t *testing.T) {
	e, s := setup(t)
	e.Update(func(tx *engine.Txn) error {
		s.Put(tx, "orders", "o1", orderDoc)
		return s.CreateIndex(tx, "orders", IndexDef{Name: "i", Path: "Order_no"})
	})
	e.Update(func(tx *engine.Txn) error { return s.DropCollection(tx, "orders") })
	e.View(func(tx *engine.Txn) error {
		colls, _ := s.Collections(tx)
		if len(colls) != 0 {
			t.Fatalf("collections = %v", colls)
		}
		return nil
	})
	if s.Count("orders") != 0 {
		t.Fatal("data survived drop")
	}
}

func TestCollectionsList(t *testing.T) {
	e, s := setup(t)
	e.Update(func(tx *engine.Txn) error {
		return s.CreateCollection(tx, "another", catalog.Schemaless)
	})
	e.View(func(tx *engine.Txn) error {
		colls, _ := s.Collections(tx)
		if !reflect.DeepEqual(colls, []string{"another", "orders"}) {
			t.Fatalf("Collections = %v", colls)
		}
		return nil
	})
}

// TestGINAndFullTextIndexKinds: a GIN and a full-text index are secondary
// indexes whose entries are the document's GIN items and distinct tokens;
// LookupAll intersects their keys, SearchText reads the full-text index,
// and the kinds round-trip through the catalog.
func TestGINAndFullTextIndexKinds(t *testing.T) {
	e, s := setup(t)
	err := e.Update(func(tx *engine.Txn) error {
		for key, doc := range map[string]string{
			"a": `{"tags":["db","graph"],"body":"Graph databases"}`,
			"b": `{"tags":["db"],"body":"relational DATABASES, graph-free"}`,
			"c": `{"tags":["food"],"body":"cooking"}`,
		} {
			if err := s.Put(tx, "orders", key, mmvalue.MustParseJSON(doc)); err != nil {
				return err
			}
		}
		if err := s.CreateIndex(tx, "orders", IndexDef{Name: "gin", Kind: GINIndex, Mode: inverted.PathOpsMode}); err != nil {
			return err
		}
		return s.CreateIndex(tx, "orders", IndexDef{Name: "ft", Kind: FullTextIndex})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, def := range []IndexDef{{Name: "u", Kind: GINIndex, Unique: true}, {Name: "x", Kind: "hash"}} {
		if err := e.Update(func(tx *engine.Txn) error { return s.CreateIndex(tx, "orders", def) }); err == nil {
			t.Fatalf("CreateIndex(%+v) succeeded", def)
		}
	}
	e.View(func(tx *engine.Txn) error {
		defs, err := s.Indexes(tx, "orders")
		if err != nil || len(defs) != 2 || defs[0].Kind != GINIndex || defs[0].Mode != inverted.PathOpsMode || defs[1].Kind != FullTextIndex {
			t.Fatalf("Indexes = %+v, %v", defs, err)
		}
		pattern := mmvalue.MustParseJSON(`{"tags":["db","graph"]}`)
		if got, err := s.LookupAll(tx, "orders", "gin", inverted.Items(inverted.PathOpsMode, pattern)); err != nil || !reflect.DeepEqual(got, []string{"a"}) {
			t.Fatalf("GIN lookup = %v, %v", got, err)
		}
		for terms, want := range map[string][]string{
			"graph databases": {"a", "b"},
			"GRAPH free":      {"b"},
			"cooking graph":   nil,
			" ,":              nil,
		} {
			if got, err := s.SearchText(tx, "orders", terms); err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("SearchText(%q) = %v, %v; want %v", terms, got, err, want)
			}
		}
		if got, err := s.SearchText(tx, "nothere", "graph"); err != nil || got != nil {
			t.Fatalf("SearchText on an unknown collection = %v, %v", got, err)
		}
		return nil
	})
}
