package core_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/inverted"
	"repro/internal/mmvalue"
)

// The cached ≡ uncached equivalence corpus: every read-only query must
// produce byte-identical JSON whether it executes the pipeline or is served
// from the result cache. Every run uses the stress mask (parallel from one
// element on four workers) precisely because the cache key excludes every
// ablation bit but NoIndexes — the executor's byte-identity guarantee is
// what makes that exclusion sound, so this corpus pins both claims at once.

func assertCachedUncachedEqual(t *testing.T, cached, uncached *core.DB, dialect, q string, params map[string]mmvalue.Value) {
	t.Helper()
	run := func(db *core.DB) string {
		return mustJSON(t, runCorpusQuery(t, db, dialect, q, params, stressOpts).Values)
	}
	base := mustJSON(t, runLockedQuery(t, uncached, dialect, q, params, serialOpts).Values)
	if snap := run(uncached); snap != base {
		t.Fatalf("snapshot differs from locked for %q\nsnapshot: %s\n  locked: %s", q, snap, base)
	}
	cold := run(cached) // executes and populates the cache
	warm := run(cached) // served from the cache when cacheable
	if cold != base {
		t.Fatalf("cache-on (cold) differs from cache-off for %q\n cached: %s\nuncached: %s", q, cold, base)
	}
	if warm != base {
		t.Fatalf("cache-on (warm) differs from cache-off for %q\n cached: %s\nuncached: %s", q, warm, base)
	}
}

func TestCachedEquivalenceCorpus(t *testing.T) {
	cached := openCachedDB(t, 1<<20, 0)
	uncached := openDB(t)
	seedStore(t, cached)
	seedStore(t, uncached)

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
		{"mmql", `FOR p IN products FOR s IN sales FILTER s.product == p._key SORT s.id RETURN CONCAT(p.name, ':', TO_STRING(s.qty))`, nil},
		{"mmql", `FOR p IN products FILTER LENGTH((FOR s IN sales FILTER s.product == p._key RETURN s)) > 0 SORT p._key RETURN p._key`, nil},
		{"msql", `SELECT product FROM sales WHERE qty > 1 ORDER BY id`, nil},
		{"msql", `SELECT region, COUNT(*) AS n, SUM(qty) AS total FROM sales GROUP BY region ORDER BY region`, nil},
		{"msql", `SELECT COUNT(*) AS n, SUM(qty) AS total, AVG(qty) AS mean FROM sales`, nil},
	}
	for _, tc := range cases {
		assertCachedUncachedEqual(t, cached, uncached, tc.dialect, tc.q, tc.params)
	}
	// `@>` through a GIN and FTSEARCH through a full-text index read index
	// keyspaces written with their collection, so the cache serves them too.
	for _, db := range []*core.DB{cached, uncached} {
		if err := db.CreateGIN("products", inverted.PathOpsMode); err != nil {
			t.Fatal(err)
		}
		if err := db.CreateFullText("products"); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range []string{
		`FOR p IN products FILTER p @> {tags: ["fun"]} SORT p._key RETURN p.name`,
		`FOR k IN FTSEARCH("products", "book") RETURN DOCUMENT("products", k).price`,
	} {
		hits := cached.ResultCacheStats().Hits
		assertCachedUncachedEqual(t, cached, uncached, "mmql", q, nil)
		if cached.ResultCacheStats().Hits == hits {
			t.Fatalf("%q was not served from the cache", q)
		}
	}
	st := cached.ResultCacheStats()
	if st.Hits == 0 {
		t.Fatalf("corpus never hit the cache (stats %+v)", st)
	}
	if st.StaleServes != 0 {
		t.Fatalf("no writer ran, yet StaleServes=%d (stats %+v)", st.StaleServes, st)
	}
	if st := uncached.ResultCacheStats(); st != (core.ResultCacheStats{}) {
		t.Fatalf("cache ran while disabled: %+v", st)
	}
}

func TestCachedQueriesUnderConcurrentDML(t *testing.T) {
	// Race-checked: readers run a cached aggregate while a writer commits DML
	// through the query layer. Every served result — fresh hit, foreground
	// recompute, or stale serve within the bound — was materialized from one
	// versioned snapshot, so it must be internally consistent: the sum over a
	// COLLECT equals the count over the same rows, and the row count matches
	// some committed window state. The short staleness bound makes the run
	// exercise hits, misses, stale serves, and background refreshes at once.
	db := openCachedDB(t, 1<<20, 50*time.Millisecond)
	seedStore(t, db)
	if err := db.Update(func(tx engine.Tx) error {
		if err := db.Docs.CreateCollection(tx, "events", catalogSchemaless()); err != nil {
			return err
		}
		return db.Docs.Put(tx, "events", "e0", mmvalue.MustParseJSON(`{"qty":1}`))
	}); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var writerErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
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
			if err != nil {
				writerErr = err
				return
			}
		}
	}()

	const readers = 4
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pass := 0; pass < 25; pass++ {
				res, err := db.Query(`FOR e IN events COLLECT g = 1 INTO grp
					RETURN {total: SUM(grp[*].e.qty), n: LENGTH(grp)}`, nil)
				if err != nil {
					errs <- err
					return
				}
				obj := res.Values[0]
				totalV, _ := obj.Get("total")
				nV, _ := obj.Get("n")
				total, n := totalV.AsInt(), nV.AsInt()
				if total != n {
					errs <- fmt.Errorf("pass %d: sum %d != count %d within one served result", pass, total, n)
					return
				}
				if n < 1 || n > 52 {
					errs <- fmt.Errorf("pass %d: saw %d events, outside any committed state", pass, n)
					return
				}
			}
			errs <- nil
		}()
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
	st := db.ResultCacheStats()
	if st.Misses == 0 {
		t.Fatalf("readers never executed the pipeline (stats %+v)", st)
	}
}
