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

// The serial ≡ snapshot equivalence corpus: every read-only query must
// produce byte-identical JSON whether it runs under S-lock reads (the 2PL
// path) or on a lock-free MVCC snapshot, and the SnapshotReads stat must
// report which path actually ran.

func assertLockedSnapshotEqual(t *testing.T, db *core.DB, dialect, q string, params map[string]mmvalue.Value) {
	t.Helper()
	run := func(opts query.Options) *query.Result {
		var res *query.Result
		var err error
		if dialect == "msql" {
			res, err = db.SQLOpts(q, params, opts)
		} else {
			res, err = db.QueryOpts(q, params, opts)
		}
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		return res
	}
	locked := run(query.Options{})
	snap := run(query.Options{SnapshotReads: true})
	if locked.Stats.SnapshotReads != 0 {
		t.Fatalf("locked run reported SnapshotReads=%d for %q", locked.Stats.SnapshotReads, q)
	}
	if snap.Stats.SnapshotReads != 1 {
		t.Fatalf("snapshot run fell back to the locked path for %q (stats %+v)", q, snap.Stats)
	}
	lj, sj := mustJSON(t, locked.Values), mustJSON(t, snap.Values)
	if lj != sj {
		t.Fatalf("locked/snapshot results differ for %q\nlocked:   %s\nsnapshot: %s", q, lj, sj)
	}
}

func TestSnapshotEquivalenceCorpus(t *testing.T) {
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
		{"mmql", `FOR p IN products FOR s IN sales FILTER s.product == p._key SORT s.id RETURN CONCAT(p.name, ':', TO_STRING(s.qty))`, nil},
		// Read-only subqueries stay snapshot-eligible: hasMutation descends
		// into them before ReadOnly says yes.
		{"mmql", `FOR p IN products FILTER LENGTH((FOR s IN sales FILTER s.product == p._key RETURN s)) > 0 SORT p._key RETURN p._key`, nil},
		{"msql", `SELECT product FROM sales WHERE qty > 1 ORDER BY id`, nil},
		{"msql", `SELECT region, COUNT(*) AS n, SUM(qty) AS total FROM sales GROUP BY region ORDER BY region`, nil},
		{"msql", `SELECT COUNT(*) AS n, SUM(qty) AS total, AVG(qty) AS mean FROM sales`, nil},
	}
	for _, tc := range cases {
		assertLockedSnapshotEqual(t, db, tc.dialect, tc.q, tc.params)
	}
}

func TestSnapshotReadsMutationFallsBackToLockedPath(t *testing.T) {
	// A pipeline containing DML is never routed to a snapshot, even with
	// SnapshotReads set: the write must land and the stat must stay 0.
	db := openDB(t)
	seedStore(t, db)
	res, err := db.QueryOpts(`INSERT {_key: "p9", name: "Lamp", price: 12, stock: 1} INTO products`,
		nil, query.Options{SnapshotReads: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SnapshotReads != 0 {
		t.Fatalf("mutating query reported SnapshotReads=%d", res.Stats.SnapshotReads)
	}
	check, err := db.Query(`FOR p IN products FILTER p._key == "p9" RETURN p.name`, nil)
	if err != nil || len(check.Values) != 1 {
		t.Fatalf("inserted row not visible: %v, %v", check.Values, err)
	}
}

func TestSnapshotReadsDatabaseOption(t *testing.T) {
	// The database-wide option routes read-only queries to snapshots
	// without per-call opts.
	db, err := core.Open(core.Options{SnapshotReads: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	seedStore(t, db)
	res, err := db.Query(`FOR p IN products SORT p._key RETURN p._key`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SnapshotReads != 1 {
		t.Fatalf("database-wide SnapshotReads did not engage (stats %+v)", res.Stats)
	}
	if got := db.EngineSnapshotReads(); got == 0 {
		t.Fatal("engine SnapshotReads counter did not advance")
	}
}

func TestSnapshotQueriesUnderConcurrentDML(t *testing.T) {
	// Race-checked: snapshot readers run the corpus while a writer commits
	// DML through the query layer. Each read must be internally consistent —
	// the sum over a COLLECT equals the sum over the raw rows from the same
	// snapshot — which locked reads guarantee via S locks and snapshot reads
	// must guarantee via immutability.
	db := openDB(t)
	seedStore(t, db)
	if _, err := db.Query(`INSERT {_key: "e0", qty: 1} INTO events`, nil); err == nil {
		t.Fatal("expected insert into missing collection to fail")
	}
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
		// Insert a fresh document each round and remove one a window behind,
		// keeping the collection bounded so reader scans stay O(window) while
		// still churning the tree on every commit.
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
				res, err := db.QueryOpts(`FOR e IN events COLLECT g = 1 INTO grp
					RETURN {total: SUM(grp[*].e.qty), n: LENGTH(grp)}`,
					nil, query.Options{SnapshotReads: true})
				if err != nil {
					errs <- err
					return
				}
				if res.Stats.SnapshotReads != 1 {
					errs <- fmt.Errorf("pass %d fell back to the locked path", pass)
					return
				}
				// Every committed state has between 1 (the seed doc) and
				// window+2 documents, each with qty 1; a snapshot overlapping
				// the writer must still see exactly such a state.
				obj := res.Values[0]
				totalV, _ := obj.Get("total")
				nV, _ := obj.Get("n")
				total, n := totalV.AsInt(), nV.AsInt()
				if total != n {
					errs <- fmt.Errorf("pass %d: sum %d != count %d within one snapshot", pass, total, n)
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
}
