package colstore

import (
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/mmvalue"
)

func setup(t *testing.T) (*engine.Engine, *Store) {
	t.Helper()
	e, err := engine.Open(engine.Options{Durability: engine.Ephemeral})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e, New(e)
}

func str(s string) mmvalue.Value { return mmvalue.String(s) }

// seedUsers loads the paper's Cassandra example: the users table with
// sparse attributes.
func seedUsers(t *testing.T, e *engine.Engine, s *Store) {
	t.Helper()
	err := e.Update(func(tx *engine.Txn) error {
		if err := s.PutItem(tx, "users", str("Irena"), mmvalue.Int(0),
			mmvalue.MustParseJSON(`{"age":37,"country":"CZ"}`)); err != nil {
			return err
		}
		// A sparse row: different attribute set in the same table.
		return s.PutItem(tx, "users", str("Jiaheng"), mmvalue.Int(0),
			mmvalue.MustParseJSON(`{"city":"Helsinki"}`))
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPutGetItemJSONRoundTrip(t *testing.T) {
	e, s := setup(t)
	seedUsers(t, e, s)
	e.View(func(tx *engine.Txn) error {
		// The paper's SELECT JSON output: {"id":"Irena","age":37,"country":"CZ"}.
		item, ok, err := s.GetItem(tx, "users", str("Irena"), mmvalue.Int(0))
		if err != nil || !ok {
			t.Fatalf("GetItem = %v, %v", ok, err)
		}
		if item.GetOr("age").AsInt() != 37 || item.GetOr("country").AsString() != "CZ" {
			t.Fatalf("item = %v", item)
		}
		// Sparse: the other row has different columns.
		item, _, _ = s.GetItem(tx, "users", str("Jiaheng"), mmvalue.Int(0))
		if _, hasAge := item.Get("age"); hasAge {
			t.Fatalf("sparse row grew a phantom column: %v", item)
		}
		// Missing item.
		if _, ok, _ := s.GetItem(tx, "users", str("Nobody"), mmvalue.Int(0)); ok {
			t.Fatal("phantom item")
		}
		return nil
	})
}

func TestSingleColumnAccess(t *testing.T) {
	e, s := setup(t)
	seedUsers(t, e, s)
	e.View(func(tx *engine.Txn) error {
		v, ok, err := s.GetAttr(tx, "users", str("Irena"), mmvalue.Int(0), "age")
		if err != nil || !ok || v.AsInt() != 37 {
			t.Fatalf("GetAttr = %v, %v, %v", v, ok, err)
		}
		if _, ok, _ := s.GetAttr(tx, "users", str("Irena"), mmvalue.Int(0), "nope"); ok {
			t.Fatal("phantom attr")
		}
		return nil
	})
	// Attribute-level update and delete.
	e.Update(func(tx *engine.Txn) error {
		s.PutItem(tx, "users", str("Irena"), mmvalue.Int(0),
			mmvalue.MustParseJSON(`{"age":38}`))
		return s.DeleteAttr(tx, "users", str("Irena"), mmvalue.Int(0), "country")
	})
	e.View(func(tx *engine.Txn) error {
		item, _, _ := s.GetItem(tx, "users", str("Irena"), mmvalue.Int(0))
		if item.GetOr("age").AsInt() != 38 {
			t.Fatalf("update lost: %v", item)
		}
		if _, has := item.Get("country"); has {
			t.Fatalf("deleted attr survived: %v", item)
		}
		return nil
	})
}

func TestPartitionQuerySortOrder(t *testing.T) {
	// DynamoDB-style: partition = customer, sort = order timestamp.
	e, s := setup(t)
	err := e.Update(func(tx *engine.Txn) error {
		for _, ts := range []int64{30, 10, 20} {
			if err := s.PutItem(tx, "events", str("c1"), mmvalue.Int(ts),
				mmvalue.Object(mmvalue.F("at", mmvalue.Int(ts)))); err != nil {
				return err
			}
		}
		return s.PutItem(tx, "events", str("c2"), mmvalue.Int(5),
			mmvalue.Object(mmvalue.F("at", mmvalue.Int(5))))
	})
	if err != nil {
		t.Fatal(err)
	}
	e.View(func(tx *engine.Txn) error {
		items, err := s.QueryPartition(tx, "events", str("c1"))
		if err != nil || len(items) != 3 {
			t.Fatalf("partition = %v, %v", items, err)
		}
		var order []int64
		for _, it := range items {
			order = append(order, it.Sort.AsInt())
		}
		if !reflect.DeepEqual(order, []int64{10, 20, 30}) {
			t.Fatalf("sort order = %v", order)
		}
		// Sort-key range: 10 <= sort < 30.
		ranged, _ := s.QuerySortRange(tx, "events", str("c1"),
			mmvalue.Int(10), mmvalue.Int(30), false, false)
		if len(ranged) != 2 {
			t.Fatalf("range = %v", ranged)
		}
		return nil
	})
}

func TestDeleteItem(t *testing.T) {
	e, s := setup(t)
	seedUsers(t, e, s)
	e.Update(func(tx *engine.Txn) error {
		existed, err := s.DeleteItem(tx, "users", str("Irena"), mmvalue.Int(0))
		if !existed || err != nil {
			t.Fatalf("DeleteItem = %v, %v", existed, err)
		}
		existed, _ = s.DeleteItem(tx, "users", str("Irena"), mmvalue.Int(0))
		if existed {
			t.Fatal("double delete reported true")
		}
		return nil
	})
	if s.Len("users") != 1 { // Jiaheng's single city attribute remains
		t.Fatalf("Len = %d", s.Len("users"))
	}
}

func TestScanJSON(t *testing.T) {
	e, s := setup(t)
	seedUsers(t, e, s)
	var docs []mmvalue.Value
	e.View(func(tx *engine.Txn) error {
		return s.ScanJSON(tx, "users", func(doc mmvalue.Value) bool {
			docs = append(docs, doc)
			return true
		})
	})
	if len(docs) != 2 {
		t.Fatalf("docs = %v", docs)
	}
	if docs[0].GetOr("_part").AsString() != "Irena" || docs[0].GetOr("age").AsInt() != 37 {
		t.Fatalf("doc 0 = %v", docs[0])
	}
	if docs[1].GetOr("city").AsString() != "Helsinki" {
		t.Fatalf("doc 1 = %v", docs[1])
	}
}

// TestScanJSONKeyColumnsWin stores attributes named like the key columns
// and on both sides of them in name order: the scanned item carries the
// key's `_part` and `_sort`, every other attribute, and nothing twice.
func TestScanJSONKeyColumnsWin(t *testing.T) {
	e, s := setup(t)
	attrs := mmvalue.MustParseJSON(`{"A":1,"_part":"stored","_q":2,"_sort":"stored","a":3}`)
	if err := e.Update(func(tx *engine.Txn) error {
		return s.PutItem(tx, "t", str("p"), mmvalue.Int(7), attrs)
	}); err != nil {
		t.Fatal(err)
	}
	var got mmvalue.Value
	e.View(func(tx *engine.Txn) error {
		return s.ScanJSON(tx, "t", func(doc mmvalue.Value) bool { got = doc; return true })
	})
	want := mmvalue.MustParseJSON(`{"A":1,"_part":"p","_q":2,"_sort":7,"a":3}`)
	if !mmvalue.Equal(got, want) || got.Len() != want.Len() {
		t.Fatalf("ScanJSON = %v, want %v", got, want)
	}
}

func TestPutItemValidation(t *testing.T) {
	e, s := setup(t)
	err := e.Update(func(tx *engine.Txn) error {
		return s.PutItem(tx, "t", str("p"), mmvalue.Int(0), mmvalue.Int(5))
	})
	if err == nil {
		t.Fatal("non-object attrs accepted")
	}
}
