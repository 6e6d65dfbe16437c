package core_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/inverted"
	"repro/internal/mmvalue"
	"repro/internal/query"
)

// The locked ≡ snapshot equivalence corpus: every read-only query must
// produce byte-identical JSON whether it runs under S-lock reads (the 2PL
// path, reached explicitly through db.View) or on the lock-free MVCC
// snapshot the default entry points choose, and the SnapshotReads stat must
// report which path actually ran.

func assertLockedSnapshotEqual(t *testing.T, db *core.DB, dialect, q string, params map[string]mmvalue.Value) {
	t.Helper()
	locked := runLockedQuery(t, db, dialect, q, params, query.Options{})
	snap := runCorpusQuery(t, db, dialect, q, params, query.Options{})
	if snap.Stats.SnapshotReads != 1 {
		t.Fatalf("default run took the locked path for %q (stats %+v)", q, snap.Stats)
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
	// A pipeline containing DML is never routed to a snapshot: the write
	// must land and the stat must stay 0.
	db := openDB(t)
	seedStore(t, db)
	res, err := db.Query(`INSERT {_key: "p9", name: "Lamp", price: 12, stock: 1} INTO products`, nil)
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

// TestSnapshotReadsByDefault pins the routing rule of the auto-transaction
// entry points: read-only statements run on a snapshot in every dialect and
// through prepared statements, and a statement run inside a caller's
// transaction keeps that transaction. (DML runs locked: see
// TestSnapshotReadsMutationFallsBackToLockedPath.)
func TestSnapshotReadsByDefault(t *testing.T) {
	db := openDB(t)
	seedStore(t, db)
	before := db.EngineSnapshotReads()

	stmt, err := db.Prepare(`FOR p IN products FILTER p.price > @min SORT p._key RETURN p._key`)
	if err != nil {
		t.Fatal(err)
	}
	reads := map[string]func() (*query.Result, error){
		"Query": func() (*query.Result, error) { return db.Query(`FOR p IN products SORT p._key RETURN p._key`, nil) },
		"SQL":   func() (*query.Result, error) { return db.SQL(`SELECT id FROM sales ORDER BY id`, nil) },
		"Exec": func() (*query.Result, error) {
			return stmt.Exec(map[string]mmvalue.Value{"min": mmvalue.Int(10)})
		},
	}
	for name, run := range reads {
		res, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Stats.SnapshotReads != 1 {
			t.Fatalf("read-only %s ran locked (stats %+v)", name, res.Stats)
		}
	}
	if got := db.EngineSnapshotReads() - before; got < uint64(len(reads)) {
		t.Fatalf("engine counted %d snapshot transactions for %d read-only statements", got, len(reads))
	}

	if err := db.View(func(tx engine.Tx) error {
		res, err := db.QueryTx(tx, `FOR p IN products RETURN p._key`, nil)
		if err != nil {
			return err
		}
		if res.Stats.SnapshotReads != 0 {
			return fmt.Errorf("QueryTx inside View reported SnapshotReads=%d", res.Stats.SnapshotReads)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotQueryIgnoresGINAheadOfSnapshot: the GIN is maintained from
// the commit log, so it reflects the latest commit, not a snapshot's cut.
// A snapshot query must answer `@>` from the snapshot itself, or a document
// that matches in the snapshot but stopped matching later goes missing.
func TestSnapshotQueryIgnoresGINAheadOfSnapshot(t *testing.T) {
	db := openDB(t)
	if err := db.Update(func(tx engine.Tx) error {
		if err := db.Docs.CreateCollection(tx, "c", catalogSchemaless()); err != nil {
			return err
		}
		for _, kv := range [][2]string{{"a", `{"tag":"x"}`}, {"b", `{"tag":"y"}`}} {
			if err := db.Docs.Put(tx, "c", kv[0], mmvalue.MustParseJSON(kv[1])); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateGIN("c", inverted.OpsMode); err != nil {
		t.Fatal(err)
	}
	const q = `FOR d IN c FILTER d @> @p RETURN d._key`
	params := map[string]mmvalue.Value{"p": mmvalue.MustParseJSON(`{"tag":"x"}`)}

	err := db.SnapshotView(func(snap engine.Tx) error {
		// Committed after the snapshot was cut: "a" stops matching.
		if err := db.Update(func(tx engine.Tx) error {
			return db.Docs.Put(tx, "c", "a", mmvalue.MustParseJSON(`{"tag":"z"}`))
		}); err != nil {
			return err
		}
		res, err := db.QueryTx(snap, q, params)
		if err != nil {
			return err
		}
		if got := mustJSON(t, res.Values); got != `["a"]` {
			return fmt.Errorf("snapshot @> query = %s, want [\"a\"] (the snapshot's state)", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// While a GIN exists, the default path keeps `@>` on the locked path,
	// where the view serves it and agrees with the committed state; without
	// one, the statement runs on a snapshot like any other read.
	params["p"] = mmvalue.MustParseJSON(`{"tag":"z"}`)
	for _, want := range []struct {
		gin  bool
		snap int
	}{{true, 0}, {false, 1}} {
		if !want.gin {
			db.DropGIN("c")
		}
		res, err := db.Query(q, params)
		if err != nil {
			t.Fatal(err)
		}
		if got := mustJSON(t, res.Values); got != `["a"]` || res.Stats.SnapshotReads != want.snap {
			t.Fatalf("@> with GIN=%v: %s (stats %+v), want [\"a\"] with SnapshotReads=%d", want.gin, got, res.Stats, want.snap)
		}
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
				res, err := db.Query(`FOR e IN events COLLECT g = 1 INTO grp
					RETURN {total: SUM(grp[*].e.qty), n: LENGTH(grp)}`, nil)
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
