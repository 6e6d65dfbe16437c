package sinew

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/mmvalue"
)

func sample() *Relation {
	r := New()
	r.Insert(mmvalue.MustParseJSON(`{"name":"Mary","city":"Prague","orders":[{"price":66},{"price":40}]}`))
	r.Insert(mmvalue.MustParseJSON(`{"name":"John","city":"Helsinki","vip":true}`))
	r.Insert(mmvalue.MustParseJSON(`{"name":"Anne","orders":[{"price":12}]}`))
	return r
}

func TestSchemaDiscovery(t *testing.T) {
	r := sample()
	cols := r.Columns()
	names := make([]string, len(cols))
	for i, c := range cols {
		names[i] = c.Name
	}
	want := []string{"city", "name", "orders.price", "vip"}
	// Order is first-seen; check as set plus counts.
	if len(names) != len(want) {
		t.Fatalf("columns = %v", names)
	}
	byName := map[string]ColumnInfo{}
	for _, c := range cols {
		byName[c.Name] = c
	}
	if byName["name"].Count != 3 || byName["city"].Count != 2 || byName["vip"].Count != 1 {
		t.Fatalf("counts = %+v", byName)
	}
	if byName["orders.price"].Kinds[mmvalue.KindInt] != 3 {
		t.Fatalf("orders.price kinds = %v", byName["orders.price"].Kinds)
	}
}

func TestVirtualValueLookup(t *testing.T) {
	r := sample()
	if got := r.Value(0, "name"); got.AsString() != "Mary" {
		t.Fatalf("Value(0,name) = %v", got)
	}
	// Multi-valued path returns an array.
	got := r.Value(0, "orders.price")
	if got.Kind() != mmvalue.KindArray || got.Len() != 2 {
		t.Fatalf("Value(0,orders.price) = %v", got)
	}
	// Missing column on a row is null.
	if got := r.Value(1, "orders.price"); !got.IsNull() {
		t.Fatalf("missing = %v", got)
	}
	// Single-valued nested path.
	if got := r.Value(2, "orders.price"); got.AsInt() != 12 {
		t.Fatalf("Value(2) = %v", got)
	}
}

func TestSelectProject(t *testing.T) {
	r := sample()
	ids := r.Select("city", Eq(mmvalue.String("Prague")))
	if !reflect.DeepEqual(ids, []int{0}) {
		t.Fatalf("Select = %v", ids)
	}
	// Eq over multi-valued column matches any element.
	ids = r.Select("orders.price", Eq(mmvalue.Int(40)))
	if !reflect.DeepEqual(ids, []int{0}) {
		t.Fatalf("Select multi = %v", ids)
	}
	rows := r.Project(ids, []string{"name", "city"})
	if len(rows) != 1 || rows[0]["name"].AsString() != "Mary" {
		t.Fatalf("Project = %v", rows)
	}
}

func TestMaterializeEquivalenceAndSync(t *testing.T) {
	r := sample()
	before := r.Select("name", Eq(mmvalue.String("John")))
	if err := r.Materialize("name"); err != nil {
		t.Fatal(err)
	}
	after := r.Select("name", Eq(mmvalue.String("John")))
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("materialization changed results: %v vs %v", before, after)
	}
	// Inserts after materialization keep the column in sync.
	r.Insert(mmvalue.MustParseJSON(`{"name":"Zoe"}`))
	ids := r.Select("name", Eq(mmvalue.String("Zoe")))
	if !reflect.DeepEqual(ids, []int{3}) {
		t.Fatalf("post-insert select = %v", ids)
	}
	// Idempotent.
	if err := r.Materialize("name"); err != nil {
		t.Fatal(err)
	}
	// Unknown column errors.
	if err := r.Materialize("nope"); err == nil {
		t.Fatal("materializing unknown column should fail")
	}
	// Dematerialize keeps answers identical.
	r.Dematerialize("name")
	if got := r.Select("name", Eq(mmvalue.String("Zoe"))); !reflect.DeepEqual(got, []int{3}) {
		t.Fatalf("after dematerialize = %v", got)
	}
}

func TestHotColumnsAndAutoMaterialize(t *testing.T) {
	r := sample()
	hot := r.HotColumns(2)
	if hot[0] != "name" {
		t.Fatalf("hottest = %v", hot)
	}
	promoted := r.AutoMaterialize(2)
	if len(promoted) != 2 || promoted[0] != "name" {
		t.Fatalf("promoted = %v", promoted)
	}
	cols := r.Columns()
	n := 0
	for _, c := range cols {
		if c.Materialized {
			n++
		}
	}
	if n != 2 {
		t.Fatalf("materialized count = %d", n)
	}
}

func TestGtPredicate(t *testing.T) {
	r := New()
	r.Insert(mmvalue.MustParseJSON(`{"v":5}`))
	r.Insert(mmvalue.MustParseJSON(`{"v":15}`))
	ids := r.Select("v", Gt(mmvalue.Int(10)))
	if !reflect.DeepEqual(ids, []int{1}) {
		t.Fatalf("Gt = %v", ids)
	}
}

func TestRowAccess(t *testing.T) {
	r := sample()
	if _, ok := r.Row(99); ok {
		t.Fatal("out of range row")
	}
	doc, ok := r.Row(1)
	if !ok || doc.GetOr("name").AsString() != "John" {
		t.Fatalf("Row(1) = %v", doc)
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d", r.Len())
	}
}

// e6Relation is E6's flex table: 20 000 rows of one shape plus a nested
// extra object.
func e6Relation() *Relation {
	rel := New()
	r := rand.New(rand.NewSource(6))
	for i := 0; i < 20000; i++ {
		rel.Insert(mmvalue.MustParseJSON(fmt.Sprintf(
			`{"user":"u%d","score":%d,"extra":{"a":%d,"b":"x%d"}}`,
			r.Intn(500), r.Intn(100), i, i%7)))
	}
	return rel
}

// e10Relation is E10's universal relation: 20 000 documents of three
// heterogeneous shapes.
func e10Relation() *Relation {
	rel := New()
	r := rand.New(rand.NewSource(10))
	shapes := []string{
		`{"kind":"click","page":"p%d","ms":%d}`,
		`{"kind":"buy","sku":"s%d","price":%d}`,
		`{"kind":"view","page":"p%d","dwell":{"ms":%d}}`,
	}
	for i := 0; i < 20000; i++ {
		rel.Insert(mmvalue.MustParseJSON(fmt.Sprintf(shapes[i%3], r.Intn(100), r.Intn(1000))))
	}
	return rel
}

// benchSelect times one Select and checks every call returns want rows.
func benchSelect(b *testing.B, rel *Relation, col string, pred Predicate, want int) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := len(rel.Select(col, pred)); got != want {
			b.Fatalf("selected %d rows, want %d", got, want)
		}
	}
}

// E6 (slides 43, 79): promoting a virtual column to a real one speeds up a
// predicate on it.
func BenchmarkE6FlexTable(b *testing.B) {
	pred := Gt(mmvalue.Int(90))
	want := len(e6Relation().Select("score", pred))
	b.Run("VirtualColumn", func(b *testing.B) {
		benchSelect(b, e6Relation(), "score", pred, want)
	})
	b.Run("MaterializedColumn", func(b *testing.B) {
		rel := e6Relation()
		if err := rel.Materialize("score"); err != nil {
			b.Fatal(err)
		}
		benchSelect(b, rel, "score", pred, want)
	})
}

// E10 (slide 36): the column materializer promotes the hottest columns of
// schemaless data.
func BenchmarkE10Sinew(b *testing.B) {
	pred := Eq(mmvalue.String("buy"))
	want := len(e10Relation().Select("kind", pred))
	b.Run("VirtualSelect", func(b *testing.B) {
		benchSelect(b, e10Relation(), "kind", pred, want)
	})
	b.Run("AfterAutoMaterialize", func(b *testing.B) {
		rel := e10Relation()
		rel.AutoMaterialize(3)
		benchSelect(b, rel, "kind", pred, want)
	})
}
