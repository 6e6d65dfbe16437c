package core_test

import (
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/docstore"
	"repro/internal/engine"
	"repro/internal/mmvalue"
	"repro/internal/query"
)

var (
	serialOpts = query.Options{ParallelThreshold: -1}
	// MaxParallel > 1 forces the parallel executor even on a single-CPU
	// host; threshold 1 makes any non-empty scan eligible.
	parallelOpts = query.Options{ParallelThreshold: 1, MaxParallel: 4}
)

// mustJSON renders a result's values as one JSON document so runs can be
// compared byte-for-byte, ordering included.
func mustJSON(t *testing.T, vals []mmvalue.Value) string {
	t.Helper()
	b, err := json.Marshal(vals)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// assertSerialParallelEqual runs a query serially on the locked path and in
// parallel on a snapshot and requires byte-identical JSON output.
func assertSerialParallelEqual(t *testing.T, db *core.DB, dialect, q string, params map[string]mmvalue.Value, wantParallel bool) {
	t.Helper()
	ser := runLockedQuery(t, db, dialect, q, params, serialOpts)
	par := runCorpusQuery(t, db, dialect, q, params, parallelOpts)
	if ser.Stats.ParallelScans != 0 {
		t.Fatalf("serial run used the parallel executor: %+v", ser.Stats)
	}
	if wantParallel && par.Stats.ParallelScans == 0 {
		t.Fatalf("parallel run fell back to serial for %q", q)
	}
	sj, pj := mustJSON(t, ser.Values), mustJSON(t, par.Values)
	if sj != pj {
		t.Fatalf("serial/parallel results differ for %q\nserial:   %s\nparallel: %s", q, sj, pj)
	}
}

// TestParallelEquivalenceCorpus runs the representative query corpus twice —
// once with the parallel executor disabled, once forced on — and requires
// byte-identical JSON output, which pins down SORT/LIMIT/COLLECT ordering as
// well as row content.
func TestParallelEquivalenceCorpus(t *testing.T) {
	db := openDB(t)
	seedStore(t, db)

	cases := []struct {
		dialect      string
		q            string
		params       map[string]mmvalue.Value
		wantParallel bool
	}{
		{"mmql", `FOR p IN products FILTER p.price > 10 RETURN p`, nil, true},
		{"mmql", `FOR p IN products FILTER p.price > 10 SORT p.price DESC RETURN p.name`, nil, true},
		{"mmql", `FOR p IN products FILTER p.stock > 0 FILTER p.price < 50 RETURN p._key`, nil, true},
		{"mmql", `FOR p IN products SORT p._key LIMIT 1, 2 RETURN p._key`, nil, true},
		{"mmql", `FOR s IN sales COLLECT region = s.region INTO g SORT region RETURN {region: region, n: LENGTH(g)}`, nil, true},
		{"mmql", `FOR s IN sales FILTER s.qty >= @min COLLECT product = s.product SORT product RETURN product`,
			map[string]mmvalue.Value{"min": mmvalue.Int(2)}, true},
		{"mmql", `FOR p IN products FOR s IN sales FILTER s.product == p._key SORT s.id RETURN CONCAT(p.name, ':', TO_STRING(s.qty))`, nil, true},
		// Subquery filters are excluded from the parallel path by design;
		// the query must still work (serial fallback) and match.
		{"mmql", `FOR p IN products FILTER LENGTH((FOR s IN sales FILTER s.product == p._key RETURN s)) > 0 SORT p._key RETURN p._key`, nil, false},
		{"msql", `SELECT product FROM sales WHERE qty > 1 ORDER BY id`, nil, true},
		{"msql", `SELECT region FROM sales WHERE region <> 'EU' ORDER BY id DESC`, nil, true},
		// Keyed COLLECT ... INTO with the full aggregate set folded over the
		// group variable; the parallel path pre-materializes INTO members
		// per chunk and must concatenate them in chunk order.
		{"mmql", `FOR s IN sales COLLECT region = s.region INTO g SORT region
			RETURN {region: region, n: LENGTH(g), total: SUM(g[*].s.qty),
			        hi: MAX(g[*].s.qty), lo: MIN(g[*].s.qty), mean: AVG(g[*].s.qty)}`, nil, true},
		// Multi-key COLLECT: group order is first-seen order of the composite
		// key, which must survive the chunked merge.
		{"mmql", `FOR s IN sales COLLECT region = s.region, product = s.product
			RETURN {region: region, product: product}`, nil, true},
		// COLLECT without INTO: loose grouping binds the first member's row.
		{"mmql", `FOR s IN sales COLLECT product = s.product RETURN product`, nil, true},
		// Keyless COLLECT (MSQL aggregates without GROUP BY) — a single
		// group spanning every chunk.
		{"msql", `SELECT COUNT(*) AS n, SUM(qty) AS total, AVG(qty) AS mean FROM sales`, nil, true},
		// GROUP BY + HAVING-less aggregates through the MSQL rewrite.
		{"msql", `SELECT region, COUNT(*) AS n, SUM(qty) AS total FROM sales GROUP BY region ORDER BY region`, nil, true},
		// Multi-key SORT with DESC and heavy ties: region repeats (first-key
		// ties) and the stable order of tied rows must match the serial
		// sort.SliceStable pass exactly.
		{"mmql", `FOR s IN sales SORT s.region, s.qty DESC RETURN s.id`, nil, true},
		// Single boolean sort key — nearly everything ties, so this pins the
		// chunked merge sort's left-run-wins stability rule.
		{"mmql", `FOR p IN products SORT p.stock > 0 RETURN p._key`, nil, true},
		// LET projection between COLLECT and RETURN.
		{"mmql", `FOR s IN sales COLLECT region = s.region INTO g
			LET total = SUM(g[*].s.qty) SORT total DESC, region RETURN {region: region, total: total}`, nil, true},
	}
	for _, tc := range cases {
		assertSerialParallelEqual(t, db, tc.dialect, tc.q, tc.params, tc.wantParallel)
	}
}

// TestDecomposedAggEquivalence targets the decomposed partial-state path for
// COLLECT aggregates (see query/decompose.go): integer columns take the
// per-chunk SUM/MIN/MAX/LENGTH shortcut, while float columns, mixed columns,
// and sums whose prefixes leave the float64-exact range must invalidate the
// state and fall back to the serial fold — byte-identical either way.
func TestDecomposedAggEquivalence(t *testing.T) {
	db := openDB(t)
	err := db.Update(func(tx engine.Tx) error {
		if err := db.Docs.CreateCollection(tx, "nums", catalogSchemaless()); err != nil {
			return err
		}
		for i := 0; i < 600; i++ {
			// big sits near 2^53 so grouped sums overflow the exact range;
			// f is fractional; mixed alternates int and float.
			doc := fmt.Sprintf(`{"_key":"n%03d","tag":"t%d","v":%d,"big":%d,"f":%g,"mixed":%s}`,
				i, i%7, i-300, int64(1)<<52+int64(i), 0.5+float64(i), mixedNum(i))
			if _, err := db.Docs.Insert(tx, "nums", mmvalue.MustParseJSON(doc)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	cases := []string{
		// Pure integer columns: the decomposed fast path serves all four.
		`FOR e IN nums COLLECT tag = e.tag INTO g SORT tag
		   RETURN {tag: tag, n: LENGTH(g), s: SUM(g[*].e.v), lo: MIN(g[*].e.v), hi: MAX(g[*].e.v)}`,
		// Float column: SUM state invalidates, MIN/MAX still decompose.
		`FOR e IN nums COLLECT tag = e.tag INTO g SORT tag
		   RETURN {tag: tag, s: SUM(g[*].e.f), lo: MIN(g[*].e.f)}`,
		// Near-2^53 values: per-group prefixes leave the exact range.
		`FOR e IN nums COLLECT tag = e.tag INTO g SORT tag
		   RETURN {tag: tag, s: SUM(g[*].e.big)}`,
		// Mixed int/float column invalidates SUM mid-chunk.
		`FOR e IN nums COLLECT tag = e.tag INTO g SORT tag
		   RETURN {tag: tag, s: SUM(g[*].e.mixed), hi: MAX(g[*].e.mixed)}`,
		// Constant key: one group spanning every chunk.
		`FOR e IN nums COLLECT one = 1 INTO g RETURN {n: LENGTH(g), s: SUM(g[*].e.v)}`,
	}
	for _, q := range cases {
		assertSerialParallelEqual(t, db, "mmql", q, nil, true)
	}

	// The integer query must actually report decomposed aggregate specs.
	res, err := db.QueryOpts(cases[0], nil, parallelOpts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.DecomposedAggs != 4 || res.Stats.ParallelCollects == 0 {
		t.Fatalf("stats = %+v, want 4 decomposed aggs on the parallel COLLECT", res.Stats)
	}
}

// mixedNum renders an alternating int/float literal column.
func mixedNum(i int) string {
	if i%2 == 0 {
		return fmt.Sprintf("%d", i)
	}
	return fmt.Sprintf("%g", float64(i)+0.25)
}

// TestParallelEquivalenceE1 checks the paper's E1 recommendation query —
// the multi-model join across tabular, graph, key/value, and JSON data — in
// both dialects.
func TestParallelEquivalenceE1(t *testing.T) {
	db := openDB(t)
	seedPaperExample(t, db)
	assertSerialParallelEqual(t, db, "mmql", recommendationMMQL, nil, true)
	assertSerialParallelEqual(t, db, "msql", recommendationMSQL, nil, true)
}

// TestParallelEquivalenceLargeScan crosses the default threshold with a
// realistic document count and checks equivalence plus chunk-order merging
// (no SORT clause: output must follow source order exactly).
func TestParallelEquivalenceLargeScan(t *testing.T) {
	db := openDB(t)
	seedEvents(t, db, 5000)

	q := `FOR e IN events FILTER e.v % 7 == 3 FILTER e.tag != 't5' RETURN e._key`
	ser := runLockedQuery(t, db, "mmql", q, nil, serialOpts)
	// Default threshold (1024) with forced workers: n=5000 qualifies.
	par, err := db.QueryOpts(q, nil, query.Options{MaxParallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if par.Stats.ParallelScans == 0 {
		t.Fatal("large scan did not take the parallel path")
	}
	sj, pj := mustJSON(t, ser.Values), mustJSON(t, par.Values)
	if sj != pj {
		t.Fatalf("serial/parallel results differ on large scan (lens %d vs %d)", len(ser.Values), len(par.Values))
	}
}

// seedEvents loads n synthetic event documents with a low-cardinality tag
// (13 values, so COLLECT groups span every chunk) and a dense integer v.
func seedEvents(t testing.TB, db *core.DB, n int) {
	t.Helper()
	err := db.Update(func(tx engine.Tx) error {
		if err := db.Docs.CreateCollection(tx, "events", catalogSchemaless()); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			doc := fmt.Sprintf(`{"_key":"e%05d","v":%d,"tag":"t%d"}`, i, i, i%13)
			if _, err := db.Docs.Insert(tx, "events", mmvalue.MustParseJSON(doc)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestParallelEquivalenceLargeAggSort crosses the default threshold on the
// pipeline tail: COLLECT with INTO aggregates and a tie-heavy two-key SORT
// over 5000 documents, byte-compared against the serial executor.
func TestParallelEquivalenceLargeAggSort(t *testing.T) {
	db := openDB(t)
	seedEvents(t, db, 5000)

	for _, q := range []string{
		`FOR e IN events COLLECT tag = e.tag INTO g SORT tag
		   RETURN {tag: tag, n: LENGTH(g), total: SUM(g[*].e.v), hi: MAX(g[*].e.v)}`,
		// tag repeats 13 ways and v % 10 ties within each tag run — the
		// stable order of tied rows is the whole test.
		`FOR e IN events SORT e.tag, e.v % 10 DESC, e.v RETURN e._key`,
		`FOR e IN events SORT e.tag DESC RETURN e.v`,
	} {
		ser := runLockedQuery(t, db, "mmql", q, nil, serialOpts)
		par := runCorpusQuery(t, db, "mmql", q, nil, query.Options{MaxParallel: 4})
		if par.Stats.ParallelCollects == 0 && par.Stats.ParallelSorts == 0 {
			t.Fatalf("%q: no parallel tail stage engaged: %+v", q, par.Stats)
		}
		sj, pj := mustJSON(t, ser.Values), mustJSON(t, par.Values)
		if sj != pj {
			t.Fatalf("serial/parallel results differ for %q (lens %d vs %d)", q, len(ser.Values), len(par.Values))
		}
	}
}

// TestParallelTailStats pins which stages of a group-by + sort + aggregate
// pipeline actually ran on the worker pool.
func TestParallelTailStats(t *testing.T) {
	db := openDB(t)
	seedStore(t, db)
	q := `FOR s IN sales
	        COLLECT region = s.region INTO g
	        LET total = SUM(g[*].s.qty)
	        SORT total DESC, region
	        RETURN {region: region, total: total, n: LENGTH(g)}`
	res, err := db.QueryOpts(q, nil, parallelOpts)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.ParallelScans == 0 {
		t.Fatalf("scan stayed serial: %+v", st)
	}
	if st.ParallelCollects == 0 {
		t.Fatalf("COLLECT stayed serial: %+v", st)
	}
	if st.ParallelSorts == 0 {
		t.Fatalf("SORT stayed serial: %+v", st)
	}
	if st.ParallelEvals == 0 {
		t.Fatalf("LET/RETURN projection stayed serial: %+v", st)
	}
	ser := runLockedQuery(t, db, "mmql", q, nil, serialOpts)
	if zero := (query.Stats{}); ser.Stats.ParallelCollects != zero.ParallelCollects ||
		ser.Stats.ParallelSorts != 0 || ser.Stats.ParallelEvals != 0 || ser.Stats.ParallelIndexFetches != 0 {
		t.Fatalf("serial run used parallel tail stages: %+v", ser.Stats)
	}
	if mustJSON(t, ser.Values) != mustJSON(t, res.Values) {
		t.Fatalf("serial/parallel results differ:\n%s\n%s", mustJSON(t, ser.Values), mustJSON(t, res.Values))
	}
}

// TestParallelIndexRangeEquivalence covers the parallel materialization of a
// secondary-index range scan: the B+tree produces the candidate key list
// serially under the transaction's locks, then document fetches partition
// across the pool, concatenating in key order.
func TestParallelIndexRangeEquivalence(t *testing.T) {
	db := openDB(t)
	seedEvents(t, db, 3000)
	err := db.Update(func(tx engine.Tx) error {
		return db.Docs.CreateIndex(tx, "events", docstore.IndexDef{Name: "by_v", Path: "v"})
	})
	if err != nil {
		t.Fatal(err)
	}

	q := `FOR e IN events FILTER e.v >= 100 FILTER e.v < 2500 RETURN e._key`
	ser := runLockedQuery(t, db, "mmql", q, nil, serialOpts)
	if ser.Stats.IndexScans == 0 {
		t.Fatalf("range query did not use the index: %+v", ser.Stats)
	}
	par := runCorpusQuery(t, db, "mmql", q, nil, parallelOpts)
	if par.Stats.IndexScans == 0 || par.Stats.ParallelIndexFetches == 0 {
		t.Fatalf("parallel run did not materialize the index range on the pool: %+v", par.Stats)
	}
	if mustJSON(t, ser.Values) != mustJSON(t, par.Values) {
		t.Fatalf("serial/parallel index-range results differ (lens %d vs %d)", len(ser.Values), len(par.Values))
	}
}
