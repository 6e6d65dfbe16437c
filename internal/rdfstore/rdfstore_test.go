package rdfstore

import (
	"fmt"
	"reflect"
	"sort"
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

func seed(t *testing.T, e *engine.Engine, s *Store) {
	t.Helper()
	triples := []Triple{
		{"<mary>", "<knows>", "<john>"},
		{"<anne>", "<knows>", "<mary>"},
		{"<mary>", "<name>", `"Mary"`},
		{"<john>", "<name>", `"John"`},
		{"<anne>", "<name>", `"Anne"`},
		{"<mary>", "<credit>", `"5000"`},
		{"<john>", "<credit>", `"3000"`},
	}
	if err := e.Update(func(tx *engine.Txn) error {
		for _, tr := range triples {
			if err := s.Insert(tx, "g", tr); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestInsertAndCount(t *testing.T) {
	e, s := setup(t)
	seed(t, e, s)
	if s.Count("g") != 7 {
		t.Fatalf("Count = %d", s.Count("g"))
	}
	if s.Terms("g") != 11 { // 3 subjects + 3 predicates + 5 distinct objects... counted below
		// subjects: mary, anne, john; predicates: knows, name, credit;
		// objects: john, mary, "Mary","John","Anne","5000","3000" — john/mary shared.
		// distinct terms = mary, john, anne, knows, name, credit, "Mary","John","Anne","5000","3000" = 11
		t.Fatalf("Terms = %d", s.Terms("g"))
	}
	// Idempotent insert.
	e.Update(func(tx *engine.Txn) error {
		return s.Insert(tx, "g", Triple{"<mary>", "<knows>", "<john>"})
	})
	if s.Count("g") != 7 {
		t.Fatalf("Count after duplicate = %d", s.Count("g"))
	}
}

func TestMatchPatternsAllShapes(t *testing.T) {
	e, s := setup(t)
	seed(t, e, s)
	e.View(func(tx *engine.Txn) error {
		// S bound (direct primary).
		got, err := s.Match(tx, "g", Pattern{S: "<mary>"})
		if err != nil || len(got) != 3 {
			t.Fatalf("S-bound = %v, %v", got, err)
		}
		// S+P bound.
		got, _ = s.Match(tx, "g", Pattern{S: "<mary>", P: "<knows>"})
		if len(got) != 1 || got[0].O != "<john>" {
			t.Fatalf("SP-bound = %v", got)
		}
		// Exact triple.
		got, _ = s.Match(tx, "g", Pattern{S: "<mary>", P: "<knows>", O: "<john>"})
		if len(got) != 1 {
			t.Fatalf("SPO-bound = %v", got)
		}
		// O bound (reverse primary).
		got, _ = s.Match(tx, "g", Pattern{O: "<mary>"})
		if len(got) != 1 || got[0].S != "<anne>" {
			t.Fatalf("O-bound = %v", got)
		}
		// P bound (POS).
		got, _ = s.Match(tx, "g", Pattern{P: "<name>"})
		if len(got) != 3 {
			t.Fatalf("P-bound = %v", got)
		}
		// O+P bound.
		got, _ = s.Match(tx, "g", Pattern{P: "<knows>", O: "<john>"})
		if len(got) != 1 || got[0].S != "<mary>" {
			t.Fatalf("PO-bound = %v", got)
		}
		// S+O bound, P free (scan with post-filter).
		got, _ = s.Match(tx, "g", Pattern{S: "<mary>", O: "<john>"})
		if len(got) != 1 || got[0].P != "<knows>" {
			t.Fatalf("SO-bound = %v", got)
		}
		// Full scan.
		got, _ = s.Match(tx, "g", Pattern{})
		if len(got) != 7 {
			t.Fatalf("full scan = %d", len(got))
		}
		// Unknown term: no matches, no error.
		got, err = s.Match(tx, "g", Pattern{S: "<ghost>"})
		if err != nil || len(got) != 0 {
			t.Fatalf("unknown term = %v, %v", got, err)
		}
		return nil
	})
}

func TestDelete(t *testing.T) {
	e, s := setup(t)
	seed(t, e, s)
	e.Update(func(tx *engine.Txn) error {
		ok, err := s.Delete(tx, "g", Triple{"<mary>", "<knows>", "<john>"})
		if !ok || err != nil {
			t.Fatalf("Delete = %v, %v", ok, err)
		}
		ok, _ = s.Delete(tx, "g", Triple{"<mary>", "<knows>", "<john>"})
		if ok {
			t.Fatal("double delete reported true")
		}
		ok, _ = s.Delete(tx, "g", Triple{"<nobody>", "<knows>", "<john>"})
		if ok {
			t.Fatal("deleting unknown triple reported true")
		}
		return nil
	})
	if s.Count("g") != 6 {
		t.Fatalf("Count after delete = %d", s.Count("g"))
	}
	// All permutations agree.
	e.View(func(tx *engine.Txn) error {
		if got, _ := s.Match(tx, "g", Pattern{O: "<john>"}); len(got) != 0 {
			t.Fatalf("OPS permutation stale: %v", got)
		}
		if got, _ := s.Match(tx, "g", Pattern{P: "<knows>"}); len(got) != 1 {
			t.Fatalf("POS permutation stale: %v", got)
		}
		return nil
	})
}

// TestBGPFriendQuery runs the SPARQL-style query of the paper's running
// example: names of people known by someone with credit 5000.
func TestBGPFriendQuery(t *testing.T) {
	e, s := setup(t)
	seed(t, e, s)
	e.View(func(tx *engine.Txn) error {
		bindings, err := s.MatchBGP(tx, "g", []BGPPattern{
			{S: "?x", P: "<credit>", O: `"5000"`},
			{S: "?x", P: "<knows>", O: "?y"},
			{S: "?y", P: "<name>", O: "?name"},
		})
		if err != nil || len(bindings) != 1 {
			t.Fatalf("BGP = %v, %v", bindings, err)
		}
		if bindings[0]["?name"] != `"John"` || bindings[0]["?x"] != "<mary>" {
			t.Fatalf("binding = %v", bindings[0])
		}
		return nil
	})
}

func TestBGPSharedVariableConsistency(t *testing.T) {
	e, s := setup(t)
	seed(t, e, s)
	e.View(func(tx *engine.Txn) error {
		// ?x knows ?x — nobody knows themselves.
		bindings, _ := s.MatchBGP(tx, "g", []BGPPattern{
			{S: "?x", P: "<knows>", O: "?x"},
		})
		if len(bindings) != 0 {
			t.Fatalf("self-knows = %v", bindings)
		}
		// All (?s, name, ?n) pairs.
		bindings, _ = s.MatchBGP(tx, "g", []BGPPattern{
			{S: "?s", P: "<name>", O: "?n"},
		})
		if len(bindings) != 3 {
			t.Fatalf("names = %v", bindings)
		}
		var names []string
		for _, b := range bindings {
			names = append(names, b["?n"])
		}
		sort.Strings(names)
		if !reflect.DeepEqual(names, []string{`"Anne"`, `"John"`, `"Mary"`}) {
			t.Fatalf("names = %v", names)
		}
		return nil
	})
}

func TestBGPEmptyResultShortCircuits(t *testing.T) {
	e, s := setup(t)
	seed(t, e, s)
	e.View(func(tx *engine.Txn) error {
		bindings, err := s.MatchBGP(tx, "g", []BGPPattern{
			{S: "?x", P: "<nothere>", O: "?y"},
			{S: "?y", P: "<name>", O: "?n"},
		})
		if err != nil || len(bindings) != 0 {
			t.Fatalf("BGP = %v, %v", bindings, err)
		}
		return nil
	})
}

func TestIndexFor(t *testing.T) {
	cases := map[string]Pattern{
		"spo (direct primary)":  {S: "<a>"},
		"ops (reverse primary)": {O: "<b>"},
		"pos":                   {P: "<p>"},
		"spo full scan":         {},
	}
	for want, pat := range cases {
		if got := IndexFor(pat); got != want {
			t.Errorf("IndexFor(%+v) = %s, want %s", pat, got, want)
		}
	}
}

func TestFromValue(t *testing.T) {
	e, s := setup(t)
	doc := mmvalue.MustParseJSON(`{"name":"Mary","orders":[{"price":66}]}`)
	e.Update(func(tx *engine.Txn) error { return s.FromValue(tx, "g", "<cust1>", doc) })
	e.View(func(tx *engine.Txn) error {
		got, _ := s.Match(tx, "g", Pattern{S: "<cust1>"})
		if len(got) != 2 {
			t.Fatalf("FromValue triples = %v", got)
		}
		got, _ = s.Match(tx, "g", Pattern{S: "<cust1>", P: "orders[0].price"})
		if len(got) != 1 || got[0].O != "66" {
			t.Fatalf("price triple = %v", got)
		}
		return nil
	})
}

// TestFromValueStringTerms checks that string leaves keep their
// strconv.Quote terms, so distinct strings stay distinct objects: two
// strings that differ only in an invalid UTF-8 byte render to one JSON
// text, but must not collapse into one term.
func TestFromValueStringTerms(t *testing.T) {
	e, s := setup(t)
	doc := mmvalue.Object(mmvalue.F("a", mmvalue.String("\xa9")), mmvalue.F("b", mmvalue.String("\xa0")),
		mmvalue.F("c", mmvalue.String("x\ay")))
	if err := e.Update(func(tx *engine.Txn) error { return s.FromValue(tx, "g", "<s>", doc) }); err != nil {
		t.Fatal(err)
	}
	e.View(func(tx *engine.Txn) error {
		got, err := s.Match(tx, "g", Pattern{S: "<s>"})
		if err != nil {
			t.Fatal(err)
		}
		var objs []string
		for _, tr := range got {
			objs = append(objs, tr.O)
		}
		sort.Strings(objs)
		if want := []string{`"\xa0"`, `"\xa9"`, `"x\ay"`}; !reflect.DeepEqual(objs, want) {
			t.Fatalf("object terms = %q, want %q", objs, want)
		}
		return nil
	})
}

func TestGraphIsolation(t *testing.T) {
	e, s := setup(t)
	e.Update(func(tx *engine.Txn) error {
		s.Insert(tx, "g1", Triple{"<a>", "<p>", "<b>"})
		return s.Insert(tx, "g2", Triple{"<c>", "<p>", "<d>"})
	})
	e.View(func(tx *engine.Txn) error {
		got, _ := s.Match(tx, "g1", Pattern{P: "<p>"})
		if len(got) != 1 || got[0].S != "<a>" {
			t.Fatalf("g1 = %v", got)
		}
		return nil
	})
}

func TestLargeGraphPrefixScanEfficiency(t *testing.T) {
	// Not a benchmark, just a correctness check at moderate scale.
	e, s := setup(t)
	err := e.Update(func(tx *engine.Txn) error {
		for i := 0; i < 500; i++ {
			if err := s.Insert(tx, "big", Triple{
				S: fmt.Sprintf("<s%d>", i%50),
				P: fmt.Sprintf("<p%d>", i%5),
				O: fmt.Sprintf("<o%d>", i),
			}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	e.View(func(tx *engine.Txn) error {
		got, _ := s.Match(tx, "big", Pattern{S: "<s7>"})
		if len(got) != 10 {
			t.Fatalf("S-bound count = %d", len(got))
		}
		got, _ = s.Match(tx, "big", Pattern{P: "<p3>"})
		if len(got) != 100 {
			t.Fatalf("P-bound count = %d", len(got))
		}
		return nil
	})
}
