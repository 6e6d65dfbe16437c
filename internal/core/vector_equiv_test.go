package core_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/mmvalue"
	"repro/internal/query"
)

// seedMetrics loads a wide-column table with the column shapes the
// vectorized executor special-cases: dense signed ints (v), dense
// non-negative ints (pos — the bitslice SUM/AVG fast path), sparse strings
// (tag, even rows only), explicit nulls (nullable), near-2^53 ints (big —
// trips the exact-SUM guard), alternating int/float (mixed), floats (f),
// and an array column on a few rows.
func seedMetrics(t testing.TB, db *core.DB, n int) {
	t.Helper()
	err := db.Update(func(tx engine.Tx) error {
		if err := db.CreateColTable(tx, "metrics"); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			part := mmvalue.String(fmt.Sprintf("p%d", i%3))
			attrs := []mmvalue.Field{
				mmvalue.F("v", mmvalue.Int(int64(i*7-1000))),
				mmvalue.F("pos", mmvalue.Int(int64(i%50))),
				mmvalue.F("big", mmvalue.Int(int64(1)<<52+int64(i))),
			}
			if i%2 == 0 {
				tag := "a"
				if i%4 == 0 {
					tag = "b"
				}
				attrs = append(attrs, mmvalue.F("tag", mmvalue.String(tag)))
			}
			if i%5 == 0 {
				attrs = append(attrs, mmvalue.F("nullable", mmvalue.Null))
			} else {
				attrs = append(attrs, mmvalue.F("nullable", mmvalue.Int(int64(i))))
			}
			if i%2 == 0 {
				attrs = append(attrs, mmvalue.F("mixed", mmvalue.Int(int64(i))))
			} else {
				attrs = append(attrs, mmvalue.F("mixed", mmvalue.Float(float64(i)+0.25)))
			}
			if i%4 == 0 {
				attrs = append(attrs, mmvalue.F("f", mmvalue.Float(float64(i)*0.5)))
			}
			if i%100 == 7 {
				attrs = append(attrs, mmvalue.F("arr", mmvalue.Array(mmvalue.Int(1), mmvalue.Int(2))))
			}
			if err := db.Cols.PutItem(tx, "metrics", part, mmvalue.Int(int64(i)), mmvalue.ObjectOf(attrs)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// assertRowVecEqual runs a query on the locked serial row path and, on a
// snapshot, under the default mask and the stress mask (7-row batches), and
// requires byte-identical JSON output. wantVec additionally requires that
// the vectorized runs actually processed column batches (rather than
// silently falling back).
func assertRowVecEqual(t *testing.T, db *core.DB, dialect, q string, params map[string]mmvalue.Value, wantVec bool) *query.Result {
	t.Helper()
	row := runLockedQuery(t, db, dialect, q, params, serialOpts)
	if row.Stats.VectorizedBatches != 0 {
		t.Fatalf("row run processed column batches: %+v", row.Stats)
	}
	rj := mustJSON(t, row.Values)
	var vec *query.Result
	for _, opts := range []query.Options{{}, stressOpts} {
		vec = runCorpusQuery(t, db, dialect, q, params, opts)
		if wantVec && vec.Stats.VectorizedBatches == 0 {
			t.Fatalf("Ablate %b: vectorized run fell back to the row path for %q: %+v", opts.Ablate, q, vec.Stats)
		}
		if !wantVec && vec.Stats.VectorizedBatches != 0 {
			t.Fatalf("Ablate %b: expected row-path fallback for %q: %+v", opts.Ablate, q, vec.Stats)
		}
		if vj := mustJSON(t, vec.Values); rj != vj {
			t.Fatalf("Ablate %b: row/vectorized results differ for %q\nrow: %s\nvec: %s", opts.Ablate, q, rj, vj)
		}
	}
	return vec
}

// TestVectorizedEquivalenceCorpus is the tentpole invariant: every query
// shape the vectorized executor handles — and every shape it must decline —
// produces byte-identical output to the row path, with the stress mask's
// 7-row batches slicing the table into dozens of ragged batches.
func TestVectorizedEquivalenceCorpus(t *testing.T) {
	db := openDB(t)
	seedMetrics(t, db, 900)
	for _, tc := range vectorCorpus {
		assertRowVecEqual(t, db, tc.dialect, tc.q, tc.params, tc.wantVec)
	}
}

// vectorCorpus holds the query shapes over seedMetrics's table; wantVec says
// the vectorized executor must serve it rather than decline.
var vectorCorpus = []struct {
	dialect string
	q       string
	params  map[string]mmvalue.Value
	wantVec bool
}{
	// Pure COUNT: answered from selection popcounts over an all-keys
	// projection (no value bytes decoded at all).
	{"msql", `SELECT COUNT(*) AS n FROM metrics`, nil, true},
	// Full aggregate set over a signed column: negatives keep the
	// bitslice SUM shortcut off, forcing the per-row aggState path.
	{"msql", `SELECT COUNT(*) AS n, SUM(v) AS s, MIN(v) AS lo, MAX(v) AS hi, AVG(v) AS m
			FROM metrics WHERE v > 10`, nil, true},
	// Non-negative column: bitslice popcount SUM/AVG and zone MIN/MAX.
	{"msql", `SELECT SUM(pos) AS s, AVG(pos) AS m FROM metrics`, nil, true},
	{"msql", `SELECT MIN(pos) AS lo, MAX(pos) AS hi FROM metrics`, nil, true},
	// Near-2^53 sums leave the float64-exact range: the merged state
	// invalidates and the finish refolds serially, matching the row
	// path's foldNumeric exactly.
	{"msql", `SELECT SUM(big) AS s FROM metrics`, nil, true},
	// Mixed int/float column: SUM refolds, AVG recomputes, MIN/MAX
	// compare across kinds.
	{"msql", `SELECT SUM(mixed) AS s, AVG(mixed) AS m, MIN(mixed) AS lo FROM metrics`, nil, true},
	// Null-heavy column: nulls are skipped by the fold, not counted.
	{"msql", `SELECT COUNT(*) AS n, SUM(nullable) AS s, AVG(nullable) AS m FROM metrics`, nil, true},
	// Sparse column: absent rows contribute nothing.
	{"msql", `SELECT SUM(f) AS s, MAX(f) AS hi FROM metrics WHERE v > 0`, nil, true},
	// Selective equality via the per-batch bitslice.
	{"msql", `SELECT COUNT(*) AS n FROM metrics WHERE v == 47`, nil, true},
	// Empty selection: every batch prunes on zone stats alone.
	{"msql", `SELECT COUNT(*) AS n, MAX(v) AS hi FROM metrics WHERE v > 1000000`, nil, true},
	// Parameterized predicate.
	{"msql", `SELECT COUNT(*) AS n FROM metrics WHERE v > @lo`,
		map[string]mmvalue.Value{"lo": mmvalue.Int(500)}, true},
	// Document-producing scans (MMQL): reconstructed docs must be
	// byte-identical to ScanJSON order and shape.
	{"mmql", `FOR d IN metrics FILTER d.v > 100 RETURN d`, nil, true},
	{"mmql", `FOR d IN metrics FILTER d.tag == 'a' RETURN d._sort`, nil, true},
	{"mmql", `FOR d IN metrics FILTER d._part == 'p1' AND d.v % 3 == 1 RETURN d._sort`, nil, true},
	{"mmql", `FOR d IN metrics FILTER d.v IN [47, 54, -1000] OR d.tag LIKE 'b%' RETURN d._sort`, nil, true},
	{"mmql", `FOR d IN metrics FILTER NOT (d.v < 2000) RETURN d._sort`, nil, true},
	{"mmql", `FOR d IN metrics FILTER -d.v > 500 RETURN d._sort`, nil, true},
	// Comparison against an absent-column path: Null semantics per row.
	{"mmql", `FOR d IN metrics FILTER d.f > 10 RETURN d._sort`, nil, true},
	{"mmql", `FOR d IN metrics FILTER d.missing == null RETURN d._sort`, nil, true},
	// Mid-pipeline fallback: the second filter is not vectorizable, so
	// it runs as a residual row filter over reconstructed documents.
	{"mmql", `FOR d IN metrics FILTER d.v > 10 FILTER LENGTH(d.tag) > 0 RETURN d._sort`, nil, true},
	// Vectorized scan feeding a row-path tail (SORT + LIMIT).
	{"msql", `SELECT v FROM metrics WHERE v > 3000 ORDER BY v DESC LIMIT 5`, nil, true},
	// GROUP BY is not the keyless-aggregate shape: scan vectorizes,
	// grouping stays on the row path.
	{"msql", `SELECT pos, COUNT(*) AS n FROM metrics WHERE v > 0 GROUP BY pos ORDER BY pos`, nil, true},
	// A LIMIT bounding the scan: the row path stops at the third survivor,
	// where a batch read would materialize the whole table.
	{"mmql", `FOR d IN metrics FILTER d.v > 100 LIMIT 3 RETURN d._sort`, nil, false},
	// No vectorizable filter: batches would only rebuild every row, so the
	// scan stays on the row path.
	{"mmql", `FOR d IN metrics RETURN d`, nil, false},
	{"msql", `SELECT * FROM metrics`, nil, false},
	{"mmql", `FOR d IN metrics FILTER LENGTH(d.tag) > 0 RETURN d._sort`, nil, false},
	// Non-column source: the executor must decline (documents).
	{"mmql", `FOR x IN [1, 2, 3] FILTER x > 1 RETURN x`, nil, false},
}

// TestVectorizedDeclinesSparseTable: on a wide table whose items each carry
// a few of many attributes, rebuilding a row from its batch would walk every
// column, so a filtered scan declines to the row path at the first sparse
// batch. Each item here has three attributes of its own, so even the stress
// mask's 7-row batches hold more than four cells per value or row. An
// aggregate reads only the columns it names, so it still runs on batches.
func TestVectorizedDeclinesSparseTable(t *testing.T) {
	db := openDB(t)
	err := db.Update(func(tx engine.Tx) error {
		if err := db.CreateColTable(tx, "sparse"); err != nil {
			return err
		}
		for i := 0; i < 400; i++ {
			attrs := mmvalue.Object(
				mmvalue.F("v", mmvalue.Int(int64(i))),
				mmvalue.F(fmt.Sprintf("a%03d", i), mmvalue.Int(int64(i%7))),
				mmvalue.F(fmt.Sprintf("b%03d", i), mmvalue.String("x")),
				mmvalue.F(fmt.Sprintf("c%03d", i), mmvalue.Null))
			if err := db.Cols.PutItem(tx, "sparse", mmvalue.String("p"), mmvalue.Int(int64(i)), attrs); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	assertRowVecEqual(t, db, "mmql", `FOR d IN sparse FILTER d.v > 10 RETURN d`, nil, false)
	assertRowVecEqual(t, db, "mmql", `FOR d IN sparse FILTER d.v % 3 == 0 RETURN d._sort`, nil, false)
	assertRowVecEqual(t, db, "msql", `SELECT COUNT(*) AS n, SUM(v) AS s FROM sparse WHERE v > 10`, nil, true)
}

// TestVectorizedStats pins the counters: batch counts follow the batch
// size, zone pruning reports skipped batches, and popcount/zone-answered
// aggregates count as vectorized.
func TestVectorizedStats(t *testing.T) {
	db := openDB(t)
	seedMetrics(t, db, 900)

	res, err := db.SQLOpts(`SELECT COUNT(*) AS n FROM metrics`, nil, stressOpts)
	if err != nil {
		t.Fatal(err)
	}
	// 900 rows at batch size 7 → ceil(900/7) = 129 batches.
	if res.Stats.VectorizedBatches != 129 {
		t.Fatalf("VectorizedBatches = %d, want 129", res.Stats.VectorizedBatches)
	}
	if res.Stats.VectorizedAggs == 0 {
		t.Fatalf("COUNT(*) not answered from popcounts: %+v", res.Stats)
	}
	if res.Stats.RowsRead != 900 || res.Stats.FullScans != 1 {
		t.Fatalf("scan accounting: %+v", res.Stats)
	}

	// An impossible predicate prunes every batch from zone stats alone.
	res, err = db.SQLOpts(`SELECT COUNT(*) AS n FROM metrics WHERE v > 1000000`, nil, stressOpts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.BatchesSkippedByBitmap != 129 {
		t.Fatalf("BatchesSkippedByBitmap = %d, want 129: %+v", res.Stats.BatchesSkippedByBitmap, res.Stats)
	}
	if res.Values[0].GetOr("n").AsInt() != 0 {
		t.Fatalf("count = %v", res.Values[0])
	}

	// The bitslice SUM fast path on the non-negative column.
	res, err = db.SQLOpts(`SELECT SUM(pos) AS s FROM metrics`, nil, stressOpts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.VectorizedAggs == 0 {
		t.Fatalf("SUM(pos) not served by the bitslice: %+v", res.Stats)
	}
}

// TestVectorizedStrictColumnFallback: a bare-column reference (MSQL WHERE
// over a sparse attribute) makes the row path error on rows lacking the
// attribute. The vectorized executor must fall back — and then fail with
// the identical error — never silently treat absent as Null.
func TestVectorizedStrictColumnFallback(t *testing.T) {
	db := openDB(t)
	seedMetrics(t, db, 60)

	q := `SELECT COUNT(*) AS n FROM metrics WHERE tag == 'a'`
	_, rowErr := db.SQLOpts(q, nil, serialOpts)
	_, vecErr := db.SQLOpts(q, nil, stressOpts)
	if rowErr == nil || vecErr == nil {
		t.Fatalf("sparse bare column must error on both paths: row=%v vec=%v", rowErr, vecErr)
	}
	if rowErr.Error() != vecErr.Error() {
		t.Fatalf("paths disagree on the error:\nrow: %v\nvec: %v", rowErr, vecErr)
	}

	// Dense bare column: both paths succeed and agree.
	assertRowVecEqual(t, db, "msql", `SELECT COUNT(*) AS n FROM metrics WHERE v > 0`, nil, true)
}

// TestVectorizedParallelEquivalence forces the worker pool under the
// vectorized executor: batches are processed per chunk and merged in batch
// order, byte-identical to both serial paths.
func TestVectorizedParallelEquivalence(t *testing.T) {
	db := openDB(t)
	seedMetrics(t, db, 3000)

	for _, q := range []string{
		`SELECT COUNT(*) AS n, SUM(pos) AS s, MIN(v) AS lo, AVG(mixed) AS m FROM metrics WHERE v > -500`,
		`SELECT v FROM metrics WHERE v % 7 == 3`,
	} {
		row := runLockedQuery(t, db, "msql", q, nil, serialOpts)
		vec := runCorpusQuery(t, db, "msql", q, nil, stressOpts)
		if vec.Stats.VectorizedBatches == 0 || vec.Stats.ParallelScans == 0 {
			t.Fatalf("%q: expected parallel vectorized execution: %+v", q, vec.Stats)
		}
		if mustJSON(t, row.Values) != mustJSON(t, vec.Values) {
			t.Fatalf("row/parallel-vectorized results differ for %q", q)
		}
	}
}

// TestVectorizedUnderConcurrentWriter runs vectorized snapshot queries
// while a writer churns the same table — the race detector watches the
// batch reader, the per-batch bitslice builds, and the worker-pool merge.
// After the writer quiesces, row and vectorized paths must agree again.
func TestVectorizedUnderConcurrentWriter(t *testing.T) {
	db := openDB(t)
	seedMetrics(t, db, 600)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// Overwrite a bounded key range so the table stays small while
			// every query races a fresh committed version.
			err := db.Update(func(tx engine.Tx) error {
				part := mmvalue.String(fmt.Sprintf("p%d", i%3))
				return db.Cols.PutItem(tx, "metrics", part, mmvalue.Int(int64(600+i%200)),
					mmvalue.Object(
						mmvalue.F("v", mmvalue.Int(int64(i))),
						mmvalue.F("pos", mmvalue.Int(int64(i%50)))))
			})
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 40; i++ {
		res, err := db.SQLOpts(`SELECT COUNT(*) AS n, SUM(pos) AS s FROM metrics WHERE v > -100`, nil, stressOpts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.VectorizedBatches == 0 {
			t.Fatalf("fell back mid-churn: %+v", res.Stats)
		}
		if n := res.Values[0].GetOr("n"); n.Kind() != mmvalue.KindInt {
			t.Fatalf("count = %v", res.Values[0])
		}
	}
	close(stop)
	wg.Wait()

	assertRowVecEqual(t, db, "msql",
		`SELECT COUNT(*) AS n, SUM(pos) AS s, MIN(v) AS lo, AVG(v) AS m FROM metrics WHERE v > -100`, nil, true)
	assertRowVecEqual(t, db, "mmql", `FOR d IN metrics FILTER d.v > 0 RETURN d`, nil, true)
}

// TestVectorizedInsideWriteTxn runs column aggregates and sorted scans
// through SQLTx and query.Execute inside a write transaction that has staged
// PutItem and DeleteItem calls: the batch reader must see the transaction's
// own writes exactly as the row path does, on one engine and on four shards.
func TestVectorizedInsideWriteTxn(t *testing.T) {
	queries := []string{
		`SELECT COUNT(*) AS n, SUM(v) AS s, MIN(v) AS lo, MAX(v) AS hi, AVG(v) AS m FROM metrics WHERE v > -500`,
		`SELECT SUM(pos) AS s, MAX(pos) AS hi FROM metrics`,
		`SELECT v FROM metrics WHERE v > 1000 ORDER BY v DESC LIMIT 5`,
		`SELECT _sort, v FROM metrics WHERE pos < 3 ORDER BY v LIMIT 4`,
	}
	for _, shards := range []int{1, 4} {
		db, err := core.Open(core.Options{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		seedMetrics(t, db, 300)
		err = db.Update(func(tx engine.Tx) error {
			for i := 0; i < 40; i++ {
				if ok, err := db.Cols.DeleteItem(tx, "metrics", mmvalue.String(fmt.Sprintf("p%d", i*5%3)), mmvalue.Int(int64(i*5))); err != nil || !ok {
					return fmt.Errorf("delete item %d: %v, %v", i*5, ok, err)
				}
				part := mmvalue.String(fmt.Sprintf("p%d", i%3))
				attrs := mmvalue.Object(mmvalue.F("v", mmvalue.Int(int64(5000+i))), mmvalue.F("pos", mmvalue.Int(int64(60+i))))
				if err := db.Cols.PutItem(tx, "metrics", part, mmvalue.Int(int64(1000+i)), attrs); err != nil {
					return err
				}
			}
			for _, q := range queries {
				def, err := db.SQLTx(tx, q, nil)
				if err != nil {
					return err
				}
				pipe, err := query.ParseMSQL(q)
				if err != nil {
					return err
				}
				row, err := query.Execute(tx, db.Sources(), pipe, query.Options{Ablate: query.NoVector})
				if err != nil {
					return err
				}
				if def.Stats.VectorizedBatches == 0 || row.Stats.VectorizedBatches != 0 {
					t.Errorf("shards=%d %q: vectorized batches %d (default) and %d (NoVector)",
						shards, q, def.Stats.VectorizedBatches, row.Stats.VectorizedBatches)
				}
				if dj, rj := mustJSON(t, def.Values), mustJSON(t, row.Values); dj != rj {
					t.Errorf("shards=%d %q inside a write txn\ndefault:  %s\nNoVector: %s", shards, q, dj, rj)
				}
			}
			// The staged writes are what both paths saw.
			res, err := db.SQLTx(tx, `SELECT COUNT(*) AS n, MAX(v) AS hi FROM metrics`, nil)
			if err != nil {
				return err
			}
			if got := mustJSON(t, res.Values); got != `[{"hi":5039,"n":300}]` {
				t.Errorf("shards=%d: staged writes not visible: %s", shards, got)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
