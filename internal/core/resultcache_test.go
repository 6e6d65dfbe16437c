package core_test

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/docstore"
	"repro/internal/engine"
	"repro/internal/mmvalue"
	"repro/internal/query"
)

// The result-cache invalidation corpus: DML to a read-set keyspace
// invalidates, DML to an unrelated keyspace preserves, DDL invalidates via
// the shared epoch, bound params key separately, stale entries are served
// only within the configured bound, and prepared statements revalidate
// through the same version-vector check as ad-hoc queries.

func openCachedDB(t testing.TB, cacheBytes int, maxStale time.Duration) *core.DB {
	t.Helper()
	db, err := core.Open(core.Options{ResultCacheBytes: cacheBytes, MaxResultStaleness: maxStale})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

const cachedProductsQuery = `
	FOR p IN products
	  FILTER p.price > 10
	  SORT p.price DESC
	  RETURN p.name`

func mustQuery(t *testing.T, db *core.DB, q string, params map[string]mmvalue.Value) *query.Result {
	t.Helper()
	res, err := db.Query(q, params)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestResultCacheHitAndInvalidation(t *testing.T) {
	db := openCachedDB(t, 1<<20, 0)
	seedStore(t, db)

	first := mustQuery(t, db, cachedProductsQuery, nil)
	second := mustQuery(t, db, cachedProductsQuery, nil)
	if got, want := mustJSON(t, second.Values), mustJSON(t, first.Values); got != want {
		t.Fatalf("cached result differs:\n got %s\nwant %s", got, want)
	}
	st := db.ResultCacheStats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats after repeat = %+v, want Hits=1 Misses=1", st)
	}
	if st.Bytes <= 0 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want one entry with positive bytes", st)
	}

	// DML to an unrelated keyspace (sales table) preserves the entry.
	if err := db.Update(func(tx engine.Tx) error {
		return db.Rels.Insert(tx, "sales", mmvalue.Object(
			mmvalue.F("id", mmvalue.Int(99)),
			mmvalue.F("product", mmvalue.String("p1")),
			mmvalue.F("qty", mmvalue.Int(1)),
			mmvalue.F("region", mmvalue.String("EU")),
		))
	}); err != nil {
		t.Fatal(err)
	}
	mustQuery(t, db, cachedProductsQuery, nil)
	if st := db.ResultCacheStats(); st.Hits != 2 {
		t.Fatalf("stats after unrelated DML = %+v, want Hits=2", st)
	}

	// DML to a read-set keyspace (products) invalidates: fresh execution
	// sees the new row.
	if err := db.Update(func(tx engine.Tx) error {
		_, err := db.Docs.Insert(tx, "products",
			mmvalue.MustParseJSON(`{"_key":"p5","name":"Lamp","price":70}`))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	third := mustQuery(t, db, cachedProductsQuery, nil)
	if got := mustJSON(t, third.Values); got == mustJSON(t, first.Values) {
		t.Fatalf("result unchanged after read-set DML: %s", got)
	}
	if got, want := third.Values[0].AsString(), "Lamp"; got != want {
		t.Fatalf("first row = %q, want %q", got, want)
	}
	st = db.ResultCacheStats()
	if st.Misses != 2 || st.Invalidations == 0 {
		t.Fatalf("stats after read-set DML = %+v, want Misses=2 and an invalidation", st)
	}
}

func TestResultCacheDDLInvalidatesViaEpoch(t *testing.T) {
	db := openCachedDB(t, 1<<20, 0)
	seedStore(t, db)

	before := mustQuery(t, db, cachedProductsQuery, nil)
	mustQuery(t, db, cachedProductsQuery, nil)
	if st := db.ResultCacheStats(); st.Hits != 1 {
		t.Fatalf("warmup stats = %+v, want Hits=1", st)
	}

	// CREATE INDEX touches only the catalog and the index keyspace — data
	// versions of doc:products are unchanged — so only the epoch can
	// invalidate the entry.
	if err := db.Update(func(tx engine.Tx) error {
		return db.Docs.CreateIndex(tx, "products", docstore.IndexDef{Name: "by_price", Path: "price"})
	}); err != nil {
		t.Fatal(err)
	}
	after := mustQuery(t, db, cachedProductsQuery, nil)
	st := db.ResultCacheStats()
	if st.Misses != 2 || st.Invalidations != 1 {
		t.Fatalf("stats after CREATE INDEX = %+v, want Misses=2 Invalidations=1", st)
	}
	if got, want := mustJSON(t, after.Values), mustJSON(t, before.Values); got != want {
		t.Fatalf("index DDL changed result values:\n got %s\nwant %s", got, want)
	}

	// DROP INDEX invalidates again.
	if err := db.Update(func(tx engine.Tx) error {
		return db.Docs.DropIndex(tx, "products", "by_price")
	}); err != nil {
		t.Fatal(err)
	}
	mustQuery(t, db, cachedProductsQuery, nil)
	if st := db.ResultCacheStats(); st.Misses != 3 {
		t.Fatalf("stats after DROP INDEX = %+v, want Misses=3", st)
	}

	// Dropping the collection makes the query error — and must not serve
	// the old entry instead.
	if err := db.Update(func(tx engine.Tx) error {
		return db.Docs.DropCollection(tx, "products")
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(cachedProductsQuery, nil); err == nil {
		t.Fatal("query after DROP COLLECTION served a cached result instead of erroring")
	}
}

func TestResultCacheParamsKeySeparately(t *testing.T) {
	db := openCachedDB(t, 1<<20, 0)
	seedStore(t, db)
	q := `FOR p IN products FILTER p.price > @min SORT p.name RETURN p.name`

	lo := mustQuery(t, db, q, map[string]mmvalue.Value{"min": mmvalue.Int(10)})
	hi := mustQuery(t, db, q, map[string]mmvalue.Value{"min": mmvalue.Int(50)})
	if mustJSON(t, lo.Values) == mustJSON(t, hi.Values) {
		t.Fatal("different params returned identical results — key collision")
	}
	st := db.ResultCacheStats()
	if st.Misses != 2 || st.Hits != 0 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want two distinct entries, no hits", st)
	}

	again := mustQuery(t, db, q, map[string]mmvalue.Value{"min": mmvalue.Int(10)})
	if got, want := mustJSON(t, again.Values), mustJSON(t, lo.Values); got != want {
		t.Fatalf("repeat with same params differs:\n got %s\nwant %s", got, want)
	}
	if st := db.ResultCacheStats(); st.Hits != 1 {
		t.Fatalf("stats after repeat = %+v, want Hits=1", st)
	}
}

func TestResultCacheStaleServeWithinBound(t *testing.T) {
	db := openCachedDB(t, 1<<20, time.Minute)
	seedStore(t, db)

	fresh := mustQuery(t, db, cachedProductsQuery, nil)

	// Invalidate by writing to products; the entry stays within the
	// staleness bound, so the next lookup serves the OLD value and kicks a
	// background refresh.
	if err := db.Update(func(tx engine.Tx) error {
		_, err := db.Docs.Insert(tx, "products",
			mmvalue.MustParseJSON(`{"_key":"p6","name":"Desk","price":80}`))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	stale := mustQuery(t, db, cachedProductsQuery, nil)
	if got, want := mustJSON(t, stale.Values), mustJSON(t, fresh.Values); got != want {
		t.Fatalf("stale serve returned new data:\n got %s\nwant %s", got, want)
	}
	if st := db.ResultCacheStats(); st.StaleServes != 1 {
		t.Fatalf("stats = %+v, want StaleServes=1", st)
	}

	// The background refresh lands shortly; after it the entry is fresh and
	// includes the new row.
	deadline := time.Now().Add(5 * time.Second)
	for db.ResultCacheStats().BackgroundRefreshes == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("background refresh never completed: %+v", db.ResultCacheStats())
		}
		time.Sleep(time.Millisecond)
	}
	refreshed := mustQuery(t, db, cachedProductsQuery, nil)
	if got, want := refreshed.Values[0].AsString(), "Desk"; got != want {
		t.Fatalf("post-refresh first row = %q, want %q", got, want)
	}
	st := db.ResultCacheStats()
	if st.StaleServes != 1 || st.Misses != 1 {
		t.Fatalf("post-refresh stats = %+v, want no extra recompute (Misses=1, StaleServes=1)", st)
	}
}

func TestResultCacheZeroStalenessRecomputesInForeground(t *testing.T) {
	db := openCachedDB(t, 1<<20, 0)
	seedStore(t, db)
	mustQuery(t, db, cachedProductsQuery, nil)
	if err := db.Update(func(tx engine.Tx) error {
		_, err := db.Docs.Insert(tx, "products",
			mmvalue.MustParseJSON(`{"_key":"p7","name":"Chair","price":99}`))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	res := mustQuery(t, db, cachedProductsQuery, nil)
	if got, want := res.Values[0].AsString(), "Chair"; got != want {
		t.Fatalf("first row = %q, want %q — stale serve with MaxResultStaleness=0", got, want)
	}
	st := db.ResultCacheStats()
	if st.StaleServes != 0 || st.Misses != 2 {
		t.Fatalf("stats = %+v, want StaleServes=0 Misses=2", st)
	}
}

func TestResultCacheByteBudgetEvicts(t *testing.T) {
	// A budget this small holds roughly one entry of this result set; the
	// per-entry cap is budget/8, so results must stay tiny to be stored at
	// all — use single-row returns.
	db := openCachedDB(t, 4096, 0)
	seedStore(t, db)

	queries := []string{
		`FOR p IN products FILTER p._key == "p1" RETURN p.name`,
		`FOR p IN products FILTER p._key == "p2" RETURN p.name`,
		`FOR p IN products FILTER p._key == "p3" RETURN p.name`,
		`FOR p IN products FILTER p._key == "p4" RETURN p.name`,
	}
	for _, q := range queries {
		mustQuery(t, db, q, nil)
	}
	st := db.ResultCacheStats()
	if st.Bytes > st.Capacity {
		t.Fatalf("cache over budget: %+v", st)
	}
	if st.Entries == 0 {
		t.Fatalf("nothing cached under byte budget: %+v", st)
	}

	// An entry above the per-entry cap (capacity/8) is never stored.
	small, err := core.Open(core.Options{ResultCacheBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer small.Close()
	seedStore(t, small)
	if _, err := small.Query(cachedProductsQuery, nil); err != nil {
		t.Fatal(err)
	}
	if st := small.ResultCacheStats(); st.Entries != 0 {
		t.Fatalf("oversized entry was stored: %+v", st)
	}
}

func TestResultCacheDisableIndexesKeysSeparately(t *testing.T) {
	db := openCachedDB(t, 1<<20, 0)
	seedStore(t, db)
	if _, err := db.QueryOpts(cachedProductsQuery, nil, query.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.QueryOpts(cachedProductsQuery, nil, queryOptsNoIndex()); err != nil {
		t.Fatal(err)
	}
	if st := db.ResultCacheStats(); st.Hits != 0 || st.Misses != 2 {
		t.Fatalf("NoIndexes shared a cache entry: %+v", st)
	}
}

func TestPreparedStatementRevalidatesVersions(t *testing.T) {
	db := openCachedDB(t, 1<<20, 0)
	seedStore(t, db)

	stmt, err := db.Prepare(cachedProductsQuery)
	if err != nil {
		t.Fatal(err)
	}
	first, err := stmt.Exec(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Warm repeat is a cache hit and byte-identical.
	repeat, err := stmt.Exec(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mustJSON(t, repeat.Values), mustJSON(t, first.Values); got != want {
		t.Fatalf("statement repeat differs:\n got %s\nwant %s", got, want)
	}
	if st := db.ResultCacheStats(); st.Hits != 1 {
		t.Fatalf("stats = %+v, want Hits=1 (statements share the result cache)", st)
	}

	// A committed write to the read-set must be visible on the very next
	// Exec — the DDL epoch is unchanged, so only the data version vector
	// can catch this.
	if err := db.Update(func(tx engine.Tx) error {
		_, err := db.Docs.Insert(tx, "products",
			mmvalue.MustParseJSON(`{"_key":"p8","name":"Rug","price":90}`))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	next, err := stmt.Exec(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := next.Values[0].AsString(), "Rug"; got != want {
		t.Fatalf("statement served stale data after DML: first row = %q, want %q", got, want)
	}

	// Ad-hoc Query and prepared Exec share one entry: the ad-hoc repeat of
	// the same text is now a hit on the statement's refreshed entry.
	mustQuery(t, db, cachedProductsQuery, nil)
	if st := db.ResultCacheStats(); st.Hits != 2 {
		t.Fatalf("stats = %+v, want Hits=2 (entry shared between Query and Stmt)", st)
	}
}

func TestQueryTxBypassesResultCache(t *testing.T) {
	db := openCachedDB(t, 1<<20, 0)
	seedStore(t, db)
	// Warm the cache.
	mustQuery(t, db, cachedProductsQuery, nil)

	// Inside a transaction with a staged (uncommitted) write, QueryTx must
	// see the staged row and must not disturb the committed-state entry.
	err := db.Update(func(tx engine.Tx) error {
		if _, err := db.Docs.Insert(tx, "products",
			mmvalue.MustParseJSON(`{"_key":"p9","name":"Vase","price":75}`)); err != nil {
			return err
		}
		res, err := db.QueryTx(tx, cachedProductsQuery, nil)
		if err != nil {
			return err
		}
		if got, want := res.Values[0].AsString(), "Vase"; got != want {
			t.Fatalf("QueryTx missed its own staged write: first row = %q, want %q", got, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := db.ResultCacheStats(); st.Hits != 0 || st.Misses != 1 {
		t.Fatalf("QueryTx touched the result cache: %+v", st)
	}
}

func TestResultCacheCrossModelReadSet(t *testing.T) {
	db := openCachedDB(t, 1<<20, 0)
	seedStore(t, db)
	if err := db.Update(func(tx engine.Tx) error {
		return db.KV.Set(tx, "carts", "u1", mmvalue.String("p1"))
	}); err != nil {
		t.Fatal(err)
	}
	q := `FOR p IN products FILTER p._key == KV("carts", "u1") RETURN p.name`
	first := mustQuery(t, db, q, nil)
	mustQuery(t, db, q, nil)
	if st := db.ResultCacheStats(); st.Hits != 1 {
		t.Fatalf("stats = %+v, want Hits=1", st)
	}
	// Writing the KV bucket — a function-derived read-set member, not a FOR
	// source — invalidates the entry.
	if err := db.Update(func(tx engine.Tx) error {
		return db.KV.Set(tx, "carts", "u1", mmvalue.String("p2"))
	}); err != nil {
		t.Fatal(err)
	}
	second := mustQuery(t, db, q, nil)
	if mustJSON(t, second.Values) == mustJSON(t, first.Values) {
		t.Fatal("KV write to read-set bucket did not invalidate the cached result")
	}
}
