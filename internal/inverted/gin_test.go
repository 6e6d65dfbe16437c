package inverted

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/mmvalue"
)

// The paper's own example: {"foo": {"bar": "baz"}} produces three items in
// jsonb_ops (foo, bar, baz separately) and one hashed item in
// jsonb_path_ops.
func TestPaperFooBarBazExample(t *testing.T) {
	doc := mmvalue.MustParseJSON(`{"foo": {"bar": "baz"}}`)
	ops := NewGIN(OpsMode)
	ops.Add("d1", doc)
	if ops.Items() != 3 {
		t.Errorf("jsonb_ops items = %d, want 3 (foo, bar, baz)", ops.Items())
	}
	pathOps := NewGIN(PathOpsMode)
	pathOps.Add("d1", doc)
	if pathOps.Items() != 1 {
		t.Errorf("jsonb_path_ops items = %d, want 1 (hash of foo.bar=baz)", pathOps.Items())
	}
}

func TestContainmentCandidatesBothModes(t *testing.T) {
	docs := map[string]string{
		"a": `{"Order_no":"0c6df508","Orderlines":[{"Product_no":"2724f","Price":66},{"Product_no":"3424g","Price":40}]}`,
		"b": `{"Order_no":"0c6df511","Orderlines":[{"Product_no":"2454f","Price":34}]}`,
		"c": `{"Order_no":"xxx","note":"no orderlines"}`,
	}
	for _, mode := range []Mode{OpsMode, PathOpsMode} {
		g := NewGIN(mode)
		for id, j := range docs {
			g.Add(id, mmvalue.MustParseJSON(j))
		}
		pattern := mmvalue.MustParseJSON(`{"Orderlines":[{"Product_no":"2724f"}]}`)
		cands := g.CandidatesContains(pattern)
		// GIN is lossy: candidates must be a superset of true matches and
		// must include "a".
		found := false
		for _, id := range cands {
			if id == "a" {
				found = true
			}
			if id == "c" {
				t.Errorf("%v: doc c can never be a candidate (no shared items)", mode)
			}
		}
		if !found {
			t.Errorf("%v: true match a missing from candidates %v", mode, cands)
		}
		// Recheck semantics: filtering candidates with Contains gives the
		// exact answer.
		var exact []string
		for _, id := range cands {
			if mmvalue.Contains(mmvalue.MustParseJSON(docs[id]), pattern) {
				exact = append(exact, id)
			}
		}
		if !reflect.DeepEqual(exact, []string{"a"}) {
			t.Errorf("%v: recheck = %v, want [a]", mode, exact)
		}
	}
}

func TestEmptyPatternMatchesAll(t *testing.T) {
	g := NewGIN(OpsMode)
	g.Add("x", mmvalue.MustParseJSON(`{"a":1}`))
	g.Add("y", mmvalue.MustParseJSON(`{"b":2}`))
	got := g.CandidatesContains(mmvalue.MustParseJSON(`{}`))
	if !reflect.DeepEqual(got, []string{"x", "y"}) {
		t.Fatalf("empty pattern candidates = %v", got)
	}
}

func TestHasKeyOnlyInOpsMode(t *testing.T) {
	doc := mmvalue.MustParseJSON(`{"name":"Mary","credit":5000}`)
	ops := NewGIN(OpsMode)
	ops.Add("d", doc)
	ids, supported := ops.CandidatesHasKey("name")
	if !supported || len(ids) != 1 || ids[0] != "d" {
		t.Fatalf("ops HasKey = %v, %v", ids, supported)
	}
	if ids, supported := ops.CandidatesHasKey("missing"); !supported || len(ids) != 0 {
		t.Fatalf("ops HasKey(missing) = %v, %v", ids, supported)
	}
	pathOps := NewGIN(PathOpsMode)
	pathOps.Add("d", doc)
	if _, supported := pathOps.CandidatesHasKey("name"); supported {
		t.Fatal("jsonb_path_ops must not support the ? operator (paper)")
	}
}

func TestHasAnyAllKeys(t *testing.T) {
	g := NewGIN(OpsMode)
	g.Add("1", mmvalue.MustParseJSON(`{"a":1,"b":2}`))
	g.Add("2", mmvalue.MustParseJSON(`{"b":2,"c":3}`))
	any, _ := g.CandidatesHasAnyKey([]string{"a", "c"})
	if !reflect.DeepEqual(any, []string{"1", "2"}) {
		t.Fatalf("?| = %v", any)
	}
	all, _ := g.CandidatesHasAllKeys([]string{"b", "c"})
	if !reflect.DeepEqual(all, []string{"2"}) {
		t.Fatalf("?& = %v", all)
	}
}

func TestRemoveAndReAdd(t *testing.T) {
	g := NewGIN(OpsMode)
	g.Add("d", mmvalue.MustParseJSON(`{"a":1}`))
	g.Remove("d")
	if g.Items() != 0 {
		t.Fatalf("items after remove = %d", g.Items())
	}
	if got := g.CandidatesContains(mmvalue.MustParseJSON(`{"a":1}`)); len(got) != 0 {
		t.Fatalf("candidates after remove = %v", got)
	}
	// Re-adding with different content replaces postings.
	g.Add("d", mmvalue.MustParseJSON(`{"b":2}`))
	g.Add("d", mmvalue.MustParseJSON(`{"c":3}`))
	if got := g.CandidatesContains(mmvalue.MustParseJSON(`{"b":2}`)); len(got) != 0 {
		t.Fatalf("stale postings survived re-add: %v", got)
	}
	if got := g.CandidatesContains(mmvalue.MustParseJSON(`{"c":3}`)); len(got) != 1 {
		t.Fatalf("new postings missing: %v", got)
	}
}

func TestPathOpsSmallerThanOps(t *testing.T) {
	// The headline E3 size claim: path_ops indexes fewer items.
	ops, pathOps := NewGIN(OpsMode), NewGIN(PathOpsMode)
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		doc := mmvalue.Object(
			mmvalue.F("id", mmvalue.Int(int64(i))),
			mmvalue.F("name", mmvalue.String(fmt.Sprintf("user%d", r.Intn(50)))),
			mmvalue.F("tags", mmvalue.Array(
				mmvalue.String(fmt.Sprintf("t%d", r.Intn(10))),
				mmvalue.String(fmt.Sprintf("t%d", r.Intn(10))))),
			mmvalue.F("addr", mmvalue.Object(
				mmvalue.F("city", mmvalue.String(fmt.Sprintf("c%d", r.Intn(20)))))),
		)
		id := fmt.Sprintf("d%d", i)
		ops.Add(id, doc)
		pathOps.Add(id, doc)
	}
	if pathOps.Items() >= ops.Items() {
		t.Fatalf("path_ops items (%d) should be fewer than ops items (%d)",
			pathOps.Items(), ops.Items())
	}
}

func TestNumericCanonicalization(t *testing.T) {
	g := NewGIN(PathOpsMode)
	g.Add("d", mmvalue.MustParseJSON(`{"price":66}`))
	cands := g.CandidatesContains(mmvalue.Object(mmvalue.F("price", mmvalue.Float(66.0))))
	if len(cands) != 1 {
		t.Fatalf("66 vs 66.0 should share an item, candidates = %v", cands)
	}
}

// Property: GIN candidates are always a superset of the true containment
// matches, in both modes.
func TestPropertyCandidatesSuperset(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		docs := map[string]mmvalue.Value{}
		for i := 0; i < 20; i++ {
			docs[fmt.Sprintf("d%d", i)] = randDoc(r)
		}
		// Pattern: a random sub-object of a random doc, or a random doc.
		pattern := randDoc(r)
		for _, mode := range []Mode{OpsMode, PathOpsMode} {
			g := NewGIN(mode)
			for id, d := range docs {
				g.Add(id, d)
			}
			cands := map[string]struct{}{}
			for _, id := range g.CandidatesContains(pattern) {
				cands[id] = struct{}{}
			}
			for id, d := range docs {
				if mmvalue.Contains(d, pattern) {
					if _, ok := cands[id]; !ok {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func randDoc(r *rand.Rand) mmvalue.Value {
	nf := 1 + r.Intn(3)
	fields := make([]mmvalue.Field, 0, nf)
	for i := 0; i < nf; i++ {
		name := string(rune('a' + r.Intn(5)))
		var v mmvalue.Value
		switch r.Intn(4) {
		case 0:
			v = mmvalue.Int(int64(r.Intn(5)))
		case 1:
			v = mmvalue.String(string(rune('x' + r.Intn(3))))
		case 2:
			v = mmvalue.Array(mmvalue.Int(int64(r.Intn(3))))
		default:
			v = mmvalue.Object(mmvalue.F("n", mmvalue.Int(int64(r.Intn(3)))))
		}
		fields = append(fields, mmvalue.F(name, v))
	}
	return mmvalue.ObjectOf(fields)
}

// E3 (slide 82): containment d @> pattern over 3 000 documents, answered by
// a full scan, or by each GIN mode's candidates plus the recheck the query
// layer applies.
func BenchmarkE3GIN(b *testing.B) {
	const n = 3000
	r := rand.New(rand.NewSource(3))
	ids := make([]string, n)
	docs := make(map[string]mmvalue.Value, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("d%d", i)
		docs[ids[i]] = mmvalue.MustParseJSON(fmt.Sprintf(
			`{"_key":"%s","user":"u%d","tags":["t%d","t%d"],"addr":{"city":"c%d"}}`,
			ids[i], r.Intn(200), r.Intn(30), r.Intn(30), r.Intn(50)))
	}
	pattern := mmvalue.MustParseJSON(`{"tags":["t7"],"addr":{"city":"c3"}}`)
	want := 0
	for _, id := range ids {
		if mmvalue.Contains(docs[id], pattern) {
			want++
		}
	}
	b.Run("NoIndex", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			got := 0
			for _, id := range ids {
				if mmvalue.Contains(docs[id], pattern) {
					got++
				}
			}
			if got != want {
				b.Fatalf("matched %d, want %d", got, want)
			}
		}
	})
	for _, mode := range []Mode{OpsMode, PathOpsMode} {
		b.Run(mode.String(), func(b *testing.B) {
			g := NewGIN(mode)
			for _, id := range ids {
				g.Add(id, docs[id])
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got := 0
				for _, id := range g.CandidatesContains(pattern) {
					if mmvalue.Contains(docs[id], pattern) {
						got++
					}
				}
				if got != want {
					b.Fatalf("matched %d, want %d", got, want)
				}
			}
			b.ReportMetric(float64(g.Items()), "index-items")
		})
	}
}
