package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"repro/internal/mmvalue"
	"repro/unidb"
)

func TestSeedDeterminesInputs(t *testing.T) {
	a, b, other := generate(devSeed), generate(devSeed), generate(heldOutSeed)
	if a.digest() != b.digest() {
		t.Fatal("one seed gave two datasets")
	}
	if a.digest() == other.digest() {
		t.Fatal("two seeds gave one dataset")
	}
	for _, cycle := range [][]opClass{cyclePointMix, cycleXModelNav, cycleScan, cycleWriter, cycleNewOrder} {
		for client := 0; client < nClients; client++ {
			da := streamDigest(newStream(cycle, a, client), 5000)
			if db := streamDigest(newStream(cycle, b, client), 5000); da != db {
				t.Fatalf("cycle %v client %d: one seed gave two op streams", cycle[0], client)
			}
			if len(cycle) > 1 || cycle[0] >= nQueryClasses {
				if do := streamDigest(newStream(cycle, other, client), 5000); da == do && cycle[0] != clsQ2 {
					t.Fatalf("cycle %v client %d: two seeds gave one op stream", cycle[0], client)
				}
			}
		}
	}
	pa, pb, po := makeParams(a), makeParams(b), makeParams(other)
	if !reflect.DeepEqual(pa, pb) {
		t.Fatal("one seed gave two sets of query bindings")
	}
	if reflect.DeepEqual(pa[clsQ1], po[clsQ1]) {
		t.Fatal("two seeds gave one set of q1 bindings")
	}
}

func TestRoundRobinSharesAreExact(t *testing.T) {
	m := generate(devSeed)
	for name, tc := range map[string]struct {
		cycle []opClass
		want  map[opClass]int // per 1800 operations
	}{
		"point_mix":    {cyclePointMix, map[opClass]int{clsKVGet: 810, clsDocGet: 810, clsKVPut: 90, clsDocPut: 90}},
		"xmodel_nav":   {cycleXModelNav, map[opClass]int{clsQ1: 400, clsQ1SQL: 400, clsQ5: 400, clsTrav3: 400, clsCartPut: 200}},
		"scan":         {cycleScan, map[opClass]int{clsQ2: 360, clsQ3: 360, clsQ4: 360, clsColAgg: 360, clsSPath: 360}},
		"neworder_txn": {cycleNewOrder, map[opClass]int{clsNewOrder: 1440, clsOrderStatus: 360}},
	} {
		s := newStream(tc.cycle, m, 0)
		got := map[opClass]int{}
		for i := 0; i < 1800; i++ {
			o := s.next()
			got[o.class]++
			if o.class == clsKVGet && o.key%nClients != 0 {
				t.Fatalf("%s: client 0 was given key %d, which client %d owns", name, o.key, o.key%nClients)
			}
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: class counts %v, want %v", name, got, tc.want)
		}
	}
}

// TestOracleAgreesWithEngine loads the dataset into an in-memory database and
// checks the golden answers of every query class against what unidb returns.
func TestOracleAgreesWithEngine(t *testing.T) {
	m := generate(devSeed)
	db, err := unidb.Open(unidb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := m.load(db); err != nil {
		t.Fatal(err)
	}
	if checked, wrong := m.verifyLoaded(db); wrong != 0 {
		t.Fatalf("verifyLoaded: %d of %d checks failed", wrong, checked)
	}
	ps := makeParams(m)
	or := newOracle(m, ps)
	for class := opClass(0); class < nQueryClasses; class++ {
		run := db.Query
		if class.isSQL() {
			run = db.SQL
		}
		for i := 0; i < 3; i++ {
			res, err := run(queryText[class], ps[class][i].vals)
			if err != nil {
				t.Fatalf("%v binding %d: %v", class, i, err)
			}
			if !or.check(ps, class, i, res.Values) {
				t.Errorf("%v binding %d: oracle rejects the engine's %d-row answer", class, i, len(res.Values))
			}
			if len(res.Values) > 0 && or.check(ps, class, i, res.Values[1:]) {
				t.Errorf("%v binding %d: oracle accepts an answer with a row missing", class, i)
			}
			// The request body is the same query as JSON.
			var req struct {
				Query  string                   `json:"query"`
				Params map[string]mmvalue.Value `json:"params"`
			}
			if err := json.Unmarshal(ps[class][i].body, &req); err != nil || req.Query != queryText[class] || len(req.Params) != len(ps[class][i].vals) {
				t.Fatalf("%v binding %d: bad request body %s (%v)", class, i, ps[class][i].body, err)
			}
		}
	}
}

// TestBenchmarkJSONMatchesCode keeps ../BENCHMARK.json in step with the
// tables in this package.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkJSON
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if want := specJSON(); !reflect.DeepEqual(got, want) {
		t.Fatalf("BENCHMARK.json differs from the tables in metrics.go and workloads.go; regenerate it with `go run . -spec`")
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Fatalf("%d per-layer and %d end-to-end metrics exceed the contract", len(perLayer), len(endToEnd))
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if seen[m.Name] || len(m.Name) > 64 {
			t.Errorf("metric name %q is repeated or too long", m.Name)
		}
		seen[m.Name] = true
	}
}
