package core_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/mmvalue"
	"repro/internal/query"
)

// seedAggFixture loads documents whose groups exercise every fallback of an
// aggregate-only COLLECT: tag t0..t4 groups 180 documents; v is a small
// int, f a float on every third document (SUM invalidates), big sits near
// 2^52 so grouped sums pass 2^53, and opt is absent from every t4 document
// (MIN/MAX over t4 finish empty). items nests two order lines per document.
func seedAggFixture(t *testing.T, db *core.DB) {
	t.Helper()
	err := db.Update(func(tx engine.Tx) error {
		if err := db.Docs.CreateCollection(tx, "agg", catalogSchemaless()); err != nil {
			return err
		}
		for i := 0; i < 180; i++ {
			f := fmt.Sprint(i)
			if i%3 == 0 {
				f = fmt.Sprintf("%g", float64(i)+0.5)
			}
			opt := ""
			if i%5 != 4 {
				opt = fmt.Sprintf(`,"opt":%d`, (i*7)%23)
			}
			doc := fmt.Sprintf(`{"_key":"a%03d","tag":"t%d","v":%d,"f":%s,"big":%d%s,
				"items":[{"k":"k%d","p":%d},{"k":"k%d","p":%d}]}`,
				i, i%5, i-90, f, int64(1)<<52+int64(i), opt, i%7, i%11, (i+3)%7, 2*i)
			if _, err := db.Docs.Insert(tx, "agg", mmvalue.MustParseJSON(doc)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAggOnlyCollectEquivalence is the differential test of aggregate-only
// COLLECT ... INTO (late materialization): each eligible query must return
// byte-identical results to its twin, which reads the group array outside
// an aggregate and so builds every member object, on the serial row path,
// under the default mask and under Stress, on one engine and on four
// shards, in MMQL and through MSQL's GROUP BY. The cases cover the groups
// that build their member objects after all (a float SUM, a SUM past 2^53,
// a MIN/MAX with nothing to compare) and the shapes that stay ineligible.
func TestAggOnlyCollectEquivalence(t *testing.T) {
	cases := []struct {
		dialect, q, twin string // twin "" for an ineligible shape: compared across runs only
	}{
		{"mmql", `FOR e IN agg COLLECT tag = e.tag INTO g SORT tag
			RETURN {tag: tag, n: LENGTH(g), s: SUM(g[*].e.v), lo: MIN(g[*].e.v), hi: MAX(g[*].e.v)}`,
			`FOR e IN agg COLLECT tag = e.tag INTO g LET materialized = g SORT tag
			RETURN {tag: tag, n: LENGTH(g), s: SUM(g[*].e.v), lo: MIN(g[*].e.v), hi: MAX(g[*].e.v)}`},
		// A float element invalidates SUM: every group falls back.
		{"mmql", `FOR e IN agg COLLECT tag = e.tag INTO g SORT tag RETURN {tag: tag, s: SUM(g[*].e.f), hi: MAX(g[*].e.f)}`,
			`FOR e IN agg COLLECT tag = e.tag INTO g LET materialized = g SORT tag RETURN {tag: tag, s: SUM(g[*].e.f), hi: MAX(g[*].e.f)}`},
		// Prefix sums past 2^53 invalidate SUM.
		{"mmql", `FOR e IN agg COLLECT tag = e.tag INTO g SORT tag RETURN {tag: tag, s: SUM(g[*].e.big), n: COUNT(g)}`,
			`FOR e IN agg COLLECT tag = e.tag INTO g LET materialized = g SORT tag RETURN {tag: tag, s: SUM(g[*].e.big), n: COUNT(g)}`},
		// opt is null for the whole of t4: its MIN and MAX finish empty.
		{"mmql", `FOR e IN agg COLLECT tag = e.tag INTO g SORT tag RETURN {tag: tag, lo: MIN(g[*].e.opt), hi: MAX(g[*].e.opt), s: SUM(g[*].e.opt)}`,
			`FOR e IN agg COLLECT tag = e.tag INTO g LET materialized = g SORT tag RETURN {tag: tag, lo: MIN(g[*].e.opt), hi: MAX(g[*].e.opt), s: SUM(g[*].e.opt)}`},
		// LENGTH(g) alone, and a key that is never read downstream.
		{"mmql", `FOR e IN agg COLLECT tag = e.tag INTO g SORT tag RETURN [tag, LENGTH(g)]`,
			`FOR e IN agg COLLECT tag = e.tag INTO g LET materialized = g SORT tag RETURN [tag, LENGTH(g)]`},
		{"mmql", `FOR e IN agg COLLECT tag = e.tag INTO g SORT tag RETURN tag`,
			`FOR e IN agg COLLECT tag = e.tag INTO g LET materialized = g SORT tag RETURN tag`},
		// Paths whose first step names a document field, not a variable,
		// and a path that ends at the whole document.
		{"mmql", `FOR e IN agg COLLECT tag = e.tag INTO g SORT tag RETURN {tag: tag, bare: SUM(g[*].v), n: LENGTH(g[*].tag), doc: MAX(g[*].e)}`,
			`FOR e IN agg COLLECT tag = e.tag INTO g LET materialized = g SORT tag RETURN {tag: tag, bare: SUM(g[*].v), n: LENGTH(g[*].tag), doc: MAX(g[*].e)}`},
		// The nested-FOR, LET, SORT, LIMIT shape of UniBench's top products.
		{"mmql", `FOR e IN agg FOR x IN e.items COLLECT k = x.k INTO g LET r = SUM(g[*].x.p) SORT r DESC, k LIMIT 4 RETURN {k: k, r: r}`,
			`FOR e IN agg FOR x IN e.items COLLECT k = x.k INTO g LET materialized = g LET r = SUM(g[*].x.p) SORT r DESC, k LIMIT 4 RETURN {k: k, r: r}`},
		// One group spanning every chunk.
		{"mmql", `FOR e IN agg COLLECT one = 1 INTO g RETURN {n: LENGTH(g), s: SUM(g[*].e.v), b: SUM(g[*].e.big)}`,
			`FOR e IN agg COLLECT one = 1 INTO g LET materialized = g RETURN {n: LENGTH(g), s: SUM(g[*].e.v), b: SUM(g[*].e.big)}`},
		// MSQL GROUP BY: HAVING 1 = 1 OR AVG(...) reads the group rows
		// outside a decomposed aggregate, which makes the twin ineligible.
		{"msql", `SELECT tag, COUNT(*) AS n, SUM(v) AS s, MIN(v) AS lo FROM agg GROUP BY tag ORDER BY tag`,
			`SELECT tag, COUNT(*) AS n, SUM(v) AS s, MIN(v) AS lo FROM agg GROUP BY tag HAVING 1 = 1 OR AVG(v) > 0 ORDER BY tag`},
		{"msql", `SELECT tag, SUM(f) AS s, MAX(opt) AS hi, SUM(big) AS b FROM agg GROUP BY tag ORDER BY tag`,
			`SELECT tag, SUM(f) AS s, MAX(opt) AS hi, SUM(big) AS b FROM agg GROUP BY tag HAVING 1 = 1 OR AVG(v) > 0 ORDER BY tag`},
		{"msql", `SELECT COUNT(*) AS n, SUM(big) AS s, MAX(f) AS hi FROM agg`,
			`SELECT COUNT(*) AS n, SUM(big) AS s, MAX(f) AS hi FROM agg HAVING 1 = 1 OR AVG(v) > 0`},
		// Ineligible: g returned or navigated outside an aggregate, read by
		// a subquery, captured by a later COLLECT ... INTO, folded whole.
		{"mmql", `FOR e IN agg COLLECT tag = e.tag INTO g SORT tag RETURN {tag: tag, vs: g[*].e.v}`, ""},
		{"mmql", `FOR e IN agg COLLECT tag = e.tag INTO g SORT tag RETURN {tag: tag, first: g[0].e._key, s: SUM(g[*].e.v)}`, ""},
		{"mmql", `FOR e IN agg COLLECT tag = e.tag INTO g SORT tag RETURN {tag: tag, s: SUM(g[*].e.v), xs: (FOR m IN g[*] FILTER m.e.v > 80 RETURN m.e._key)}`, ""},
		{"mmql", `FOR e IN agg COLLECT tag = e.tag INTO g COLLECT n = LENGTH(g) INTO h SORT n RETURN {n: n, k: LENGTH(h), s: SUM(h[*].g[*].e.v)}`, ""},
		{"mmql", `FOR e IN agg COLLECT tag = e.tag INTO g SORT tag RETURN {tag: tag, m: MIN(g), n: LENGTH(g)}`, ""},
	}
	opts := []struct {
		name string
		opts query.Options
	}{{"serial", serialOpts}, {"default", query.Options{}}, {"stress", stressOpts}}
	want := map[string]string{}
	for _, shards := range []int{1, 4} {
		db, err := core.Open(core.Options{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		seedAggFixture(t, db)
		for _, tc := range cases {
			ref, ok := want[tc.q]
			if !ok {
				ref = tc.q
				if tc.twin != "" {
					ref = tc.twin
				}
				ref = mustJSON(t, runCorpusQuery(t, db, tc.dialect, ref, nil, serialOpts).Values)
				want[tc.q] = ref
			}
			for _, o := range opts {
				if got := mustJSON(t, runCorpusQuery(t, db, tc.dialect, tc.q, nil, o.opts).Values); got != ref {
					t.Errorf("shards=%d %s: %s\ngot:  %s\nwant: %s", shards, o.name, tc.q, got, ref)
				}
			}
		}
	}
}
