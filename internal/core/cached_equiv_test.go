package core_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/docstore"
	"repro/internal/engine"
	"repro/internal/inverted"
	"repro/internal/mmvalue"
	"repro/internal/query"
)

// The cached-plan ≡ fresh-parse equivalence corpus: a statement served from
// the compiled-plan cache (a warm ad-hoc run, or a prepared statement) must
// produce byte-identical JSON to a freshly parsed plan run on the locked
// serial path. Pipelines are shared by every execution of one text, so any
// state an execution left on the plan would show up as a warm run diverging
// from the cold one. Every cached run uses the stress mask.

func assertCachedPlanEqual(t *testing.T, db *core.DB, dialect, q string, params map[string]mmvalue.Value) {
	t.Helper()
	base := mustJSON(t, runLockedQuery(t, db, dialect, q, params, serialOpts).Values)
	run := func() string { return mustJSON(t, runCorpusQuery(t, db, dialect, q, params, stressOpts).Values) }
	if cold := run(); cold != base {
		t.Fatalf("cold run differs from fresh parse for %q\n  cold: %s\n fresh: %s", q, cold, base)
	}
	hits := db.PlanCacheStats().Hits
	if warm := run(); warm != base {
		t.Fatalf("warm run differs from fresh parse for %q\n  warm: %s\n fresh: %s", q, warm, base)
	}
	if db.PlanCacheStats().Hits == hits {
		t.Fatalf("warm run of %q was not served from the plan cache", q)
	}
	prepare := db.Prepare
	if dialect == "msql" {
		prepare = db.PrepareSQL
	}
	stmt, err := prepare(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	for i := 0; i < 2; i++ {
		res, err := stmt.ExecOpts(params, stressOpts)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if got := mustJSON(t, res.Values); got != base {
			t.Fatalf("prepared exec %d differs from fresh parse for %q\nprepared: %s\n   fresh: %s", i, q, got, base)
		}
	}
}

func TestCachedEquivalenceCorpus(t *testing.T) {
	db := openDB(t)
	seedStore(t, db)

	cases := []struct {
		dialect string
		q       string
		params  map[string]mmvalue.Value
	}{
		{"mmql", `FOR p IN products FILTER p.price > 10 RETURN p`, nil},
		{"mmql", `FOR p IN products FILTER p.price > 10 SORT p.price DESC RETURN p.name`, nil},
		{"mmql", `FOR p IN products SORT p._key LIMIT 1, 2 RETURN p._key`, nil},
		{"mmql", `FOR s IN sales COLLECT region = s.region INTO g SORT region
			RETURN {region: region, n: LENGTH(g), total: SUM(g[*].s.qty)}`, nil},
		{"mmql", `FOR s IN sales FILTER s.qty >= @min COLLECT product = s.product SORT product RETURN product`,
			map[string]mmvalue.Value{"min": mmvalue.Int(2)}},
		{"mmql", `FOR s IN sales FILTER s.qty >= @min COLLECT product = s.product SORT product RETURN product`,
			map[string]mmvalue.Value{"min": mmvalue.Int(1)}},
		{"mmql", `FOR p IN products FOR s IN sales FILTER s.product == p._key SORT s.id RETURN CONCAT(p.name, ':', TO_STRING(s.qty))`, nil},
		{"mmql", `FOR p IN products FILTER LENGTH((FOR s IN sales FILTER s.product == p._key RETURN s)) > 0 SORT p._key RETURN p._key`, nil},
		{"msql", `SELECT product FROM sales WHERE qty > 1 ORDER BY id`, nil},
		{"msql", `SELECT region, COUNT(*) AS n, SUM(qty) AS total FROM sales GROUP BY region ORDER BY region`, nil},
		{"msql", `SELECT COUNT(*) AS n, SUM(qty) AS total, AVG(qty) AS mean FROM sales`, nil},
	}
	for _, tc := range cases {
		assertCachedPlanEqual(t, db, tc.dialect, tc.q, tc.params)
	}

	// A plan cached before an index existed must not outlive its creation:
	// the prepared `@>` statement scans at first, and after CreateGIN (DDL,
	// which advances the plan epoch) recompiles and reads the GIN, with the
	// same answer.
	const contains = `FOR p IN products FILTER p @> {tags: ["fun"]} SORT p._key RETURN p.name`
	stmt, err := db.Prepare(contains)
	if err != nil {
		t.Fatal(err)
	}
	scan, err := stmt.Exec(nil)
	if err != nil {
		t.Fatal(err)
	}
	epoch := db.PlanCacheStats().Epoch
	if err := db.CreateGIN("products", inverted.PathOpsMode); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateFullText("products"); err != nil {
		t.Fatal(err)
	}
	if db.PlanCacheStats().Epoch == epoch {
		t.Fatal("index creation did not advance the plan epoch")
	}
	viaGIN, err := stmt.Exec(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(fmt.Sprint(viaGIN.Stats.IndexUsed), "GIN") {
		t.Fatalf("prepared @> after CreateGIN did not read the GIN (stats %+v)", viaGIN.Stats)
	}
	if a, b := mustJSON(t, scan.Values), mustJSON(t, viaGIN.Values); a != b {
		t.Fatalf("@> before and after CreateGIN differ\n scan: %s\n  GIN: %s", a, b)
	}
	for _, q := range []string{
		contains,
		`FOR k IN FTSEARCH("products", "book") RETURN DOCUMENT("products", k).price`,
	} {
		assertCachedPlanEqual(t, db, "mmql", q, nil)
	}
}

func TestCachedQueriesUnderConcurrentDML(t *testing.T) {
	// Race-checked: readers share one prepared statement, and run the same
	// text ad hoc, while a writer commits DML through the query layer and
	// every few rounds creates or drops an index on the collection read —
	// DDL that advances the plan epoch, so the readers recompile their
	// cached plans mid-run, with and without an index to choose. Every
	// result must still be internally consistent: the sum over a COLLECT
	// equals the count over the same rows, and the row count matches some
	// committed window state.
	db := openDB(t)
	seedStore(t, db)
	if err := db.Update(func(tx engine.Tx) error {
		if err := db.Docs.CreateCollection(tx, "events", catalogSchemaless()); err != nil {
			return err
		}
		return db.Docs.Put(tx, "events", "e0", mmvalue.MustParseJSON(`{"qty":1}`))
	}); err != nil {
		t.Fatal(err)
	}
	const q = `FOR e IN events FILTER e.qty >= @min COLLECT g = 1 INTO grp
		RETURN {total: SUM(grp[*].e.qty), n: LENGTH(grp)}`
	stmt, err := db.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	epoch := db.PlanCacheStats().Epoch

	stop := make(chan struct{})
	firstDDL := make(chan struct{}) // readers start once the epoch has moved
	var wg sync.WaitGroup
	var writerErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() {
			select {
			case <-firstDDL:
			default:
				close(firstDDL) // the writer failed before its first DDL
			}
		}()
		// Same bounded-window churn as the snapshot corpus: insert one ahead,
		// remove one a window behind, so every committed state holds between
		// 1 and 52 documents of qty 1.
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_, err := db.Query(fmt.Sprintf(`INSERT {_key: "e%d", qty: 1} INTO events`, 100+i), nil)
			if err == nil && i >= 50 {
				_, err = db.Query(fmt.Sprintf(`REMOVE "e%d" IN events`, 100+i-50), nil)
			}
			if err == nil && i%10 == 0 {
				err = db.Update(func(tx engine.Tx) error {
					if i%20 == 0 {
						return db.Docs.CreateIndex(tx, "events", docstore.IndexDef{Name: "by_qty", Path: "qty"})
					}
					return db.Docs.DropIndex(tx, "events", "by_qty")
				})
			}
			if err != nil {
				writerErr = err
				return
			}
			if i == 0 {
				close(firstDDL)
			}
		}
	}()
	<-firstDDL

	const readers = 4
	params := map[string]mmvalue.Value{"min": mmvalue.Int(1)}
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for pass := 0; pass < 25; pass++ {
				var res *query.Result
				var err error
				if (r+pass)%2 == 0 {
					res, err = stmt.Exec(params)
				} else {
					res, err = db.Query(q, params)
				}
				if err != nil {
					errs <- err
					return
				}
				obj := res.Values[0]
				totalV, _ := obj.Get("total")
				nV, _ := obj.Get("n")
				total, n := totalV.AsInt(), nV.AsInt()
				if total != n {
					errs <- fmt.Errorf("reader %d pass %d: sum %d != count %d within one result", r, pass, total, n)
					return
				}
				if n < 1 || n > 52 {
					errs <- fmt.Errorf("reader %d pass %d: saw %d events, outside any committed state", r, pass, n)
					return
				}
			}
			errs <- nil
		}(r)
	}
	for r := 0; r < readers; r++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	close(stop)
	wg.Wait()
	if writerErr != nil {
		t.Fatal(writerErr)
	}
	st := db.PlanCacheStats()
	if st.Hits == 0 {
		t.Fatalf("readers never hit the plan cache (stats %+v)", st)
	}
	if st.Epoch == epoch {
		t.Fatalf("writer's index DDL never advanced the plan epoch (stats %+v)", st)
	}
}
