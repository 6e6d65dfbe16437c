package core_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/mmvalue"
	"repro/internal/query"
	"repro/internal/relstore"
)

// The range-read rules of the executor — LIMIT stopping the source scan of
// the FOR before it, and a primary-key range becoming a bounded scan of the
// table keyspace — are access paths, not semantics: on the paper-example and
// cross-model fixtures their results must be byte-identical to the full-scan
// answer, and they must read fewer rows.

// TestFilterLimitEarlyStopEquivalence checks every query with its LIMIT
// against the same query without it, cut to the window by the test.
func TestFilterLimitEarlyStopEquivalence(t *testing.T) {
	db := openDB(t)
	seedPaperExample(t, db)
	seedStore(t, db)
	seedMetrics(t, db, 40)

	cases := []struct {
		dialect, body, limit, tail string
		params                     map[string]mmvalue.Value
		offset, count              int
	}{
		{"mmql", `FOR c IN customers FILTER c.credit_limit > 2500`, `LIMIT 1`, `RETURN c.name`, nil, 0, 1},
		{"mmql", `FOR c IN customers FILTER c.credit_limit > @min`, `LIMIT @n`, `RETURN c`,
			map[string]mmvalue.Value{"min": mmvalue.Int(1000), "n": mmvalue.Int(2)}, 0, 2},
		{"mmql", `FOR s IN sales FILTER s.qty > 1 FILTER s.region != 'APAC'`, `LIMIT 1, 2`, `RETURN s.id`, nil, 1, 2},
		{"mmql", `FOR s IN sales`, `LIMIT 2, 100`, `RETURN s.id`, nil, 2, 100},
		{"mmql", `FOR p IN products FILTER p.stock > 0`, `LIMIT 2`, `RETURN p._key`, nil, 0, 2},
		{"mmql", `FOR p IN products FILTER p.price > 100`, `LIMIT 3`, `RETURN p._key`, nil, 0, 3},
		{"mmql", `FOR v IN social`, `LIMIT 1, 1`, `RETURN v.customer_id`, nil, 1, 1},
		{"mmql", `FOR kv IN cart FILTER kv.value != 'none'`, `LIMIT 1`, `RETURN kv._key`, nil, 0, 1},
		{"mmql", `FOR m IN metrics FILTER m.pos >= 3`, `LIMIT 2, 5`, `RETURN m`, nil, 2, 5},
		// The bound is global over the outer rows of a nested FOR.
		{"mmql", `FOR p IN products FOR s IN sales FILTER s.product == p._key`, `LIMIT 1, 3`,
			`RETURN CONCAT(p.name, ':', TO_STRING(s.id))`, nil, 1, 3},
		// An index serves the filter; the bound cuts the candidate list.
		{"mmql", `FOR s IN sales FILTER s.id >= 2`, `LIMIT 2`, `RETURN s.id`, nil, 0, 2},
		{"msql", `SELECT id FROM sales WHERE qty > 1`, `LIMIT 2 OFFSET 1`, ``, nil, 1, 2},
		{"msql", `SELECT name FROM customers c WHERE credit_limit > @min`, `LIMIT @n`, ``,
			map[string]mmvalue.Value{"min": mmvalue.Int(2500), "n": mmvalue.Int(1)}, 0, 1},
	}
	for _, tc := range cases {
		full := runLockedQuery(t, db, tc.dialect, tc.body+" "+tc.tail, tc.params, query.Options{})
		want := full.Values
		want = want[min(tc.offset, len(want)):]
		want = want[:min(tc.count, len(want))]
		q := tc.body + " " + tc.limit + " " + tc.tail
		for _, opts := range []query.Options{{}, serialOpts, parallelOpts, {DisableIndexes: true}} {
			for _, got := range []*query.Result{
				runLockedQuery(t, db, tc.dialect, q, tc.params, opts),
				runCorpusQuery(t, db, tc.dialect, q, tc.params, opts),
			} {
				if g, w := mustJSON(t, got.Values), mustJSON(t, want); g != w {
					t.Errorf("%s (%+v, snapshot=%d)\n got %s\nwant %s", q, opts, got.Stats.SnapshotReads, g, w)
				}
				if got.Stats.RowsRead > full.Stats.RowsRead {
					t.Errorf("%s: the bounded run read %d rows, the unbounded one %d", q, got.Stats.RowsRead, full.Stats.RowsRead)
				}
			}
		}
	}

	// The point of the rule: rows behind the last survivor are never read.
	res := runCorpusQuery(t, db, "mmql", `FOR m IN metrics FILTER m.pos >= 0 LIMIT 3 RETURN m.v`, nil, query.Options{})
	if res.Stats.RowsRead != 3 || res.Stats.FullScans != 1 {
		t.Errorf("FILTER+LIMIT 3 over 40 rows: RowsRead = %d, FullScans = %d; want 3 and 1", res.Stats.RowsRead, res.Stats.FullScans)
	}
	// A bound that depends on a row is not known before the scan.
	res = runCorpusQuery(t, db, "mmql", `FOR s IN sales LIMIT s.id RETURN s.id`, nil, query.Options{})
	if got := mustJSON(t, res.Values); got != `[1]` || res.Stats.RowsRead != 5 {
		t.Errorf("row-dependent LIMIT: %s after %d rows; want [1] after 5", got, res.Stats.RowsRead)
	}
}

// TestPrimaryKeyRangeEquivalence checks the PK-range access path against the
// DisableIndexes full scan, bound shapes and residual filters included.
func TestPrimaryKeyRangeEquivalence(t *testing.T) {
	db := openDB(t)
	seedPaperExample(t, db)
	seedStore(t, db)

	p := func(kv ...any) map[string]mmvalue.Value {
		m := map[string]mmvalue.Value{}
		for i := 0; i < len(kv); i += 2 {
			m[kv[i].(string)] = kv[i+1].(mmvalue.Value)
		}
		return m
	}
	cases := []struct {
		dialect, q string
		params     map[string]mmvalue.Value
		rowsRead   int
	}{
		{"mmql", `FOR s IN sales FILTER s.id >= @lo AND s.id < @hi RETURN s`, p("lo", mmvalue.Int(2), "hi", mmvalue.Int(4)), 2},
		{"mmql", `FOR s IN sales FILTER s.id > 2 FILTER s.id <= 4 RETURN s.id`, nil, 3},
		{"mmql", `FOR s IN sales FILTER s.id >= 4 RETURN s.id`, nil, 2},
		{"mmql", `FOR s IN sales FILTER 3 > s.id RETURN s.id`, nil, 2},
		{"mmql", `FOR s IN sales FILTER s.id >= 9 RETURN s.id`, nil, 0},
		{"mmql", `FOR s IN sales FILTER s.id >= 4 AND s.id < 2 RETURN s.id`, nil, 0},
		// Int keys under float bounds: 2.0 equals the key 2, 2.5 falls between keys.
		{"mmql", `FOR s IN sales FILTER s.id >= @lo AND s.id <= @hi RETURN s.id`, p("lo", mmvalue.Float(2.0), "hi", mmvalue.Float(3.5)), 3},
		{"mmql", `FOR s IN sales FILTER s.id > 2.5 RETURN s.id`, nil, 3},
		// A bound of another kind orders by kind, as the filter does.
		{"mmql", `FOR s IN sales FILTER s.id < 'x' RETURN s.id`, nil, 5},
		// Residual filters are rechecked on the rows of the range.
		{"mmql", `FOR s IN sales FILTER s.qty > 1 AND s.id >= 2 AND s.id < 5 AND s.region == 'US' RETURN s`, nil, 3},
		// MSQL's bare columns name the loop row's columns.
		{"msql", `SELECT id, qty FROM sales WHERE qty > 1 AND id >= @lo AND id < @hi`, p("lo", mmvalue.Int(2), "hi", mmvalue.Int(5)), 3},
		{"msql", `SELECT name FROM customers c WHERE credit_limit > 2500 AND id >= 2`, nil, 2},
		// An inner FOR ranged by the outer row.
		{"mmql", `FOR c IN customers FOR s IN sales FILTER s.id > c.id AND s.id <= c.id + 1 RETURN [c.id, s.id]`, nil, 3 + 2 + 2 + 2},
	}
	for _, tc := range cases {
		want := runLockedQuery(t, db, tc.dialect, tc.q, tc.params, query.Options{DisableIndexes: true})
		got := runCorpusQuery(t, db, tc.dialect, tc.q, tc.params, query.Options{})
		if g, w := mustJSON(t, got.Values), mustJSON(t, want.Values); g != w {
			t.Errorf("%s\n got %s\nwant %s", tc.q, g, w)
		}
		if got.Stats.RowsRead != tc.rowsRead || got.Stats.RowsRead > want.Stats.RowsRead {
			t.Errorf("%s: RowsRead = %d, want %d (full scan: %d)", tc.q, got.Stats.RowsRead, tc.rowsRead, want.Stats.RowsRead)
		}
		used := strings.Join(got.Stats.IndexUsed, "; ")
		if !strings.Contains(used, "primary key (range)") {
			t.Errorf("%s: IndexUsed = %q, want a primary key range", tc.q, used)
		}
	}

	// A name the outer row binds is that binding, not a column of the table.
	res := runCorpusQuery(t, db, "mmql", `FOR id IN [2, 3] FOR s IN sales FILTER id >= 3 RETURN s.id`, nil, query.Options{})
	if got := mustJSON(t, res.Values); got != `[1,2,3,4,5]` || res.Stats.IndexScans != 0 {
		t.Errorf("outer binding shadowing a column: %s with %d index scans", got, res.Stats.IndexScans)
	}
}

// TestRelIndexChoiceIsDeterministic bounds two indexed columns at once: the
// ranged column must be the first one the predicates name, on every run.
func TestRelIndexChoiceIsDeterministic(t *testing.T) {
	db := openDB(t)
	err := db.Update(func(tx engine.Tx) error {
		if err := db.Rels.CreateTable(tx, "t", relstore.TableSchema{
			Columns: []relstore.Column{
				{Name: "a", Type: relstore.TInt, NotNull: true},
				{Name: "b", Type: relstore.TInt},
				{Name: "c", Type: relstore.TInt},
			},
			PrimaryKey: []string{"a", "b"},
		}); err != nil {
			return err
		}
		for i := int64(0); i < 20; i++ {
			if err := db.Rels.Insert(tx, "t", mmvalue.Object(
				mmvalue.F("a", mmvalue.Int(i)), mmvalue.F("b", mmvalue.Int(i%5)), mmvalue.F("c", mmvalue.Int(i%3)))); err != nil {
				return err
			}
		}
		if err := db.Rels.CreateIndex(tx, "t", "by_b", "b"); err != nil {
			return err
		}
		return db.Rels.CreateIndex(tx, "t", "by_c", "c")
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ q, idx string }{
		{`FOR r IN t FILTER r.c >= 1 AND r.b >= 4 SORT r.a RETURN r.a`, "by_c"},
		{`FOR r IN t FILTER r.b >= 4 AND r.c >= 1 SORT r.a RETURN r.a`, "by_b"},
	} {
		want := runCorpusQuery(t, db, "mmql", tc.q, nil, query.Options{DisableIndexes: true})
		for run := 0; run < 20; run++ {
			got := runCorpusQuery(t, db, "mmql", tc.q, nil, query.Options{})
			if used := fmt.Sprint(got.Stats.IndexUsed); used != fmt.Sprintf("[rel:t idx %s (range)]", tc.idx) {
				t.Fatalf("%s: run %d used %s, want %s", tc.q, run, used, tc.idx)
			}
			if g, w := mustJSON(t, got.Values), mustJSON(t, want.Values); g != w {
				t.Fatalf("%s\n got %s\nwant %s", tc.q, g, w)
			}
		}
	}
}

// TestNegativeLimitIsAQueryError: a negative LIMIT bound — reachable from
// /query through a bound parameter — used to panic slicing the row set.
func TestNegativeLimitIsAQueryError(t *testing.T) {
	db := openDB(t)
	seedStore(t, db)
	neg := map[string]mmvalue.Value{"n": mmvalue.Int(-1)}
	for _, tc := range []struct{ dialect, q string }{
		{"mmql", `FOR x IN [1,2,3] LIMIT @n RETURN x`},
		{"mmql", `FOR x IN [1,2,3] LIMIT @n, 2 RETURN x`},
		{"mmql", `FOR s IN sales FILTER s.qty > 0 LIMIT 1, @n RETURN s.id`},
		{"msql", `SELECT id FROM sales LIMIT @n`},
		{"msql", `SELECT id FROM sales LIMIT 2 OFFSET @n`},
	} {
		var err error
		if tc.dialect == "msql" {
			_, err = db.SQLOpts(tc.q, neg, query.Options{})
		} else {
			_, err = db.QueryOpts(tc.q, neg, query.Options{})
		}
		if err == nil || !strings.Contains(err.Error(), "LIMIT") {
			t.Errorf("%s with @n = -1: err = %v, want a LIMIT error", tc.q, err)
		}
	}
}
