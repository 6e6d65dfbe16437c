package core_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/docstore"
	"repro/internal/engine"
	"repro/internal/mmvalue"
)

func TestPlanCacheHitAfterMiss(t *testing.T) {
	db := openDB(t)
	seedStore(t, db)
	before := db.PlanCacheStats()

	q := `FOR p IN products FILTER p.price > 10 RETURN p._key`
	if _, err := db.Query(q, nil); err != nil {
		t.Fatal(err)
	}
	mid := db.PlanCacheStats()
	if mid.Misses != before.Misses+1 {
		t.Fatalf("first run: misses %d -> %d, want +1", before.Misses, mid.Misses)
	}

	if _, err := db.Query(q, nil); err != nil {
		t.Fatal(err)
	}
	after := db.PlanCacheStats()
	if after.Hits != mid.Hits+1 {
		t.Fatalf("second run: hits %d -> %d, want +1", mid.Hits, after.Hits)
	}
	if after.Misses != mid.Misses {
		t.Fatalf("second run re-parsed: misses %d -> %d", mid.Misses, after.Misses)
	}
}

func TestPlanCacheDialectsDoNotCollide(t *testing.T) {
	db := openDB(t)
	seedStore(t, db)
	// Same text is a valid query in both dialects; each dialect must get
	// its own cache entry.
	q := `SELECT id FROM sales WHERE qty > 1`
	if _, err := db.SQL(q, nil); err != nil {
		t.Fatal(err)
	}
	st := db.PlanCacheStats()
	if _, err := db.SQL(q, nil); err != nil {
		t.Fatal(err)
	}
	if got := db.PlanCacheStats(); got.Hits != st.Hits+1 {
		t.Fatalf("same-dialect rerun: hits %d -> %d, want +1", st.Hits, got.Hits)
	}
}

// TestPlanCacheInvalidatedByDDL covers the stale-access-path bug class: a
// plan compiled before CREATE INDEX / DROP COLLECTION must not be served
// from the cache afterwards.
func TestPlanCacheInvalidatedByDDL(t *testing.T) {
	db := openDB(t)
	seedStore(t, db)

	q := `FOR p IN products FILTER p.price > 10 RETURN p._key`
	if _, err := db.Query(q, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(q, nil); err != nil {
		t.Fatal(err)
	}
	st := db.PlanCacheStats()

	// CREATE INDEX is DDL: it writes to the catalog keyspace, so the WAL
	// subscriber must bump the epoch.
	err := db.Update(func(tx engine.Tx) error {
		return db.Docs.CreateIndex(tx, "products", docstore.IndexDef{Name: "by_price", Path: "price"})
	})
	if err != nil {
		t.Fatal(err)
	}
	afterDDL := db.PlanCacheStats()
	if afterDDL.Epoch == st.Epoch {
		t.Fatalf("epoch unchanged after CREATE INDEX (%d)", st.Epoch)
	}

	// The next run of the same text must re-parse (miss), then cache again.
	if _, err := db.Query(q, nil); err != nil {
		t.Fatal(err)
	}
	m1 := db.PlanCacheStats()
	if m1.Misses != afterDDL.Misses+1 {
		t.Fatalf("post-DDL run served stale plan: misses %d -> %d, want +1",
			afterDDL.Misses, m1.Misses)
	}
	if _, err := db.Query(q, nil); err != nil {
		t.Fatal(err)
	}
	if m2 := db.PlanCacheStats(); m2.Hits != m1.Hits+1 {
		t.Fatalf("re-cached plan not served: hits %d -> %d, want +1", m1.Hits, m2.Hits)
	}

	// DROP INDEX and DROP COLLECTION are DDL too.
	for _, ddl := range []func(tx engine.Tx) error{
		func(tx engine.Tx) error { return db.Docs.DropIndex(tx, "products", "by_price") },
		func(tx engine.Tx) error { return db.Docs.DropCollection(tx, "products") },
	} {
		pre := db.PlanCacheStats()
		if err := db.Update(ddl); err != nil {
			t.Fatal(err)
		}
		if post := db.PlanCacheStats(); post.Epoch == pre.Epoch {
			t.Fatalf("epoch unchanged after DDL (%d)", pre.Epoch)
		}
	}
	if _, err := db.Query(q, nil); err == nil {
		t.Fatal("query over a dropped collection returned rows instead of an error")
	}
}

// TestPlanCacheNotInvalidatedByDML: plain inserts/updates are not DDL and
// must leave cached plans valid.
func TestPlanCacheNotInvalidatedByDML(t *testing.T) {
	db := openDB(t)
	seedStore(t, db)

	q := `FOR p IN products RETURN p._key`
	if _, err := db.Query(q, nil); err != nil {
		t.Fatal(err)
	}
	st := db.PlanCacheStats()

	err := db.Update(func(tx engine.Tx) error {
		_, err := db.Docs.Insert(tx, "products",
			mmvalue.MustParseJSON(`{"_key":"p9","name":"Lamp","price":12}`))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if post := db.PlanCacheStats(); post.Epoch != st.Epoch {
		t.Fatalf("DML bumped epoch %d -> %d", st.Epoch, post.Epoch)
	}
	if _, err := db.Query(q, nil); err != nil {
		t.Fatal(err)
	}
	if post := db.PlanCacheStats(); post.Hits != st.Hits+1 {
		t.Fatalf("cached plan not reused after DML: hits %d -> %d", st.Hits, post.Hits)
	}
}

func TestPrepareExecAndRebind(t *testing.T) {
	db := openDB(t)
	seedStore(t, db)

	stmt, err := db.Prepare(`FOR p IN products FILTER p.price > @min SORT p._key RETURN p._key`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := stmt.Exec(map[string]mmvalue.Value{"min": mmvalue.Int(30)})
	if err != nil {
		t.Fatal(err)
	}
	if got := core.Strings(res); fmt.Sprint(got) != "[p1 p2 p3]" {
		t.Fatalf("min=30: got %v", got)
	}
	// Re-execute with different params: same compiled plan, new bindings.
	res, err = stmt.Exec(map[string]mmvalue.Value{"min": mmvalue.Int(39)})
	if err != nil {
		t.Fatal(err)
	}
	if got := core.Strings(res); fmt.Sprint(got) != "[p1 p2]" {
		t.Fatalf("min=39: got %v", got)
	}
}

func TestPrepareSurfacesParseErrors(t *testing.T) {
	db := openDB(t)
	if _, err := db.Prepare(`FOR p IN RETURN`); err == nil {
		t.Fatal("Prepare accepted a malformed query")
	}
}

func TestPrepareSurvivesDDL(t *testing.T) {
	db := openDB(t)
	seedStore(t, db)

	stmt, err := db.Prepare(`FOR p IN products FILTER p.price > 10 SORT p._key RETURN p._key`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stmt.Exec(nil); err != nil {
		t.Fatal(err)
	}
	err = db.Update(func(tx engine.Tx) error {
		return db.Docs.CreateIndex(tx, "products", docstore.IndexDef{Name: "by_price", Path: "price"})
	})
	if err != nil {
		t.Fatal(err)
	}
	// The statement recompiles transparently under the new epoch and still
	// returns correct rows (now via the index access path).
	res, err := stmt.Exec(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := core.Strings(res); fmt.Sprint(got) != "[p1 p2 p3]" {
		t.Fatalf("post-DDL exec: got %v", got)
	}
}

// TestPrepareExecSeesCommittedWrite: a committed write leaves the DDL epoch
// alone, so the statement keeps its plan, and its next Exec runs on a fresh
// snapshot that holds the write, as an ad-hoc Query of the same text does.
func TestPrepareExecSeesCommittedWrite(t *testing.T) {
	db := openDB(t)
	seedStore(t, db)
	const q = `FOR p IN products FILTER p.price > 10 SORT p.price DESC RETURN p.name`
	stmt, err := db.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stmt.Exec(nil); err != nil {
		t.Fatal(err)
	}
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
		t.Fatalf("Exec after a committed write: first row = %q, want %q", got, want)
	}
	adhoc, err := db.Query(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mustJSON(t, adhoc.Values), mustJSON(t, next.Values); got != want {
		t.Fatalf("Query and Exec of one text differ:\n Query %s\n  Exec %s", got, want)
	}
}

// TestConcurrentQueriesRaceFree hammers one Database from many goroutines:
// mixed dialects, shared cached plans, a prepared statement, and concurrent
// DDL-free writes. Run under -race.
func TestConcurrentQueriesRaceFree(t *testing.T) {
	db := openDB(t)
	seedStore(t, db)

	stmt, err := db.Prepare(`FOR p IN products FILTER p.price > @min RETURN p._key`)
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				switch w % 3 {
				case 0:
					if _, err := db.Query(`FOR p IN products FILTER p.price > 10 RETURN p.name`, nil); err != nil {
						errs[w] = err
						return
					}
				case 1:
					if _, err := db.SQL(`SELECT id FROM sales WHERE qty > 1`, nil); err != nil {
						errs[w] = err
						return
					}
				case 2:
					if _, err := stmt.Exec(map[string]mmvalue.Value{"min": mmvalue.Int(int64(i % 50))}); err != nil {
						errs[w] = err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	if st := db.PlanCacheStats(); st.Hits == 0 {
		t.Fatal("expected cache hits from repeated concurrent queries")
	}
}
