package core_test

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/docstore"
	"repro/internal/engine"
	"repro/internal/mmvalue"
	"repro/internal/query"
)

// The sharded ≡ unsharded equivalence corpus: every query must produce
// byte-identical JSON whether the database runs on one engine or on a
// 4-shard fleet with scatter-gather scans and cross-shard 2PC commits.
// Shard routing, run merging, and the consistent-cut snapshot path are all
// under test here — a single misordered merge or torn cut shows up as a
// JSON diff.

func openShardedDB(t testing.TB) *core.DB {
	t.Helper()
	db, err := core.Open(core.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func TestShardedEquivalenceCorpus(t *testing.T) {
	single := openDB(t)
	seedStore(t, single)
	sharded := openShardedDB(t)
	seedStore(t, sharded)
	if got := sharded.ShardStats().Shards; got != 4 {
		t.Fatalf("sharded DB reports %d shards", got)
	}

	cases := []struct {
		dialect string
		q       string
		params  map[string]mmvalue.Value
	}{
		{"mmql", `FOR p IN products FILTER p.price > 10 SORT p._key RETURN p`, nil},
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
		want := mustJSON(t, runLockedQuery(t, single, tc.dialect, tc.q, tc.params, query.Options{}).Values)
		for _, run := range []struct {
			name string
			res  *query.Result
		}{
			{"single/snapshot", runCorpusQuery(t, single, tc.dialect, tc.q, tc.params, query.Options{})},
			{"sharded/locked", runLockedQuery(t, sharded, tc.dialect, tc.q, tc.params, query.Options{})},
			{"sharded/snapshot", runCorpusQuery(t, sharded, tc.dialect, tc.q, tc.params, query.Options{})},
		} {
			if got := mustJSON(t, run.res.Values); got != want {
				t.Fatalf("%s result differs for %q\nsingle/locked: %s\n%s: %s", run.name, tc.q, want, run.name, got)
			}
		}
	}
	if sharded.ShardStats().ShardFanouts == 0 {
		t.Fatal("corpus never fanned a scan across shards")
	}
}

// TestShardedPaperExample runs the paper's cross-model recommendation query
// (relational ⋈ graph ⋈ key/value ⋈ document) on a 4-shard fleet: the
// published answer must come back unchanged.
func TestShardedPaperExample(t *testing.T) {
	db := openShardedDB(t)
	seedPaperExample(t, db)
	res, err := db.Query(recommendationMMQL, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := core.Strings(res)
	sort.Strings(got)
	if !reflect.DeepEqual(got, []string{"2724f", "3424g"}) {
		t.Fatalf("sharded recommendation answer = %v, want [2724f 3424g]", got)
	}
}

// TestShardedEquivalenceUnderConcurrentWriter is the race-checked variant:
// snapshot readers run aggregate queries while a writer streams cross-shard
// transactions, each inserting a pair of sales rows whose qty values sum to
// 10. The seed total is 22, so every consistent cut's total is ≡ 2 (mod
// 10); a cut that tears a cross-shard pair exposes exactly one row of it
// and lands on ≡ 7 — detectable from a single snapshot.
func TestShardedEquivalenceUnderConcurrentWriter(t *testing.T) {
	db := openShardedDB(t)
	seedStore(t, db)

	const writerTxns = 300
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < writerTxns; i++ {
			id := 100 + 2*i
			err := db.Update(func(tx engine.Tx) error {
				for j := 0; j < 2; j++ {
					if err := db.Rels.Insert(tx, "sales", mmvalue.Object(
						mmvalue.F("id", mmvalue.Int(int64(id+j))),
						mmvalue.F("product", mmvalue.String("p1")),
						mmvalue.F("qty", mmvalue.Int(5)),
						mmvalue.F("region", mmvalue.String("EU")),
					)); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()
	check := func() {
		res, err := db.Query(`
			FOR s IN sales COLLECT all = 1 INTO g RETURN SUM(g[*].s.qty)`, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Values) != 1 {
			t.Fatalf("aggregate returned %d values", len(res.Values))
		}
		if total := res.Values[0].AsInt(); total%10 != 2 {
			t.Fatalf("snapshot total %d is not ≡ 2 (mod 10): a cross-shard insert pair was torn", total)
		}
	}
	running := true
	for running {
		select {
		case <-done:
			running = false
		default:
			check()
		}
	}
	wg.Wait()
	check() // final state: all writer pairs landed intact
}

// TestShardedDurableRoundTrip reopens a sharded database directory and
// checks catalog, documents, and relational rows all survive recovery —
// including rows written by cross-shard transactions.
func TestShardedDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	open := func() *core.DB {
		db, err := core.Open(core.Options{Dir: dir, Durability: engine.Buffered, Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	db := open()
	seedStore(t, db)
	db.Close()

	db2 := open()
	defer db2.Close()
	res, err := db2.SQL(`SELECT region, SUM(qty) AS total FROM sales GROUP BY region ORDER BY region`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != 3 {
		t.Fatalf("recovered GROUP BY returned %d regions, want 3", len(res.Values))
	}
	check, err := db2.Query(`FOR p IN products SORT p._key RETURN p._key`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(check.Values) != 4 {
		t.Fatalf("recovered products = %d, want 4", len(check.Values))
	}
}

// TestServerFacingMethodsSharded guards the storage surface the HTTP server
// and operators use: every DB method that reports on or manages storage must
// work on a sharded database, in memory and on disk, not only on one engine.
func TestServerFacingMethodsSharded(t *testing.T) {
	for _, tc := range []struct {
		name string
		dir  bool
	}{{"InMemory", false}, {"Dir", true}} {
		t.Run(tc.name, func(t *testing.T) {
			opts := core.Options{Shards: 2}
			if tc.dir {
				opts.Dir = t.TempDir()
				opts.Durability = engine.Buffered
			}
			db, err := core.Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			const n = 20
			if err := db.Update(func(tx engine.Tx) error {
				if err := db.Docs.CreateCollection(tx, "c", catalogSchemaless()); err != nil {
					return err
				}
				for i := 0; i < n; i++ {
					if _, err := db.Docs.Insert(tx, "c", mmvalue.Object(
						mmvalue.F("_key", mmvalue.String(fmt.Sprintf("k%02d", i))))); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if ks := db.Keyspaces(); !slices.Contains(ks, docstore.Keyspace("c")) {
				t.Fatalf("Keyspaces() = %v, want it to list %s", ks, docstore.Keyspace("c"))
			}
			if got := db.KeyspaceLen(docstore.Keyspace("c")); got != n {
				t.Fatalf("KeyspaceLen = %d, want %d", got, n)
			}
			if st := db.WALStats(); tc.dir && st.Appends+st.BatchedAppends == 0 {
				t.Fatalf("WALStats on a durable database counted no appends: %+v", st)
			}
			if st := db.ShardStats(); st.Shards != 2 {
				t.Fatalf("ShardStats().Shards = %d, want 2", st.Shards)
			}
			before := db.EngineSnapshotReads()
			if err := db.SnapshotView(func(engine.Tx) error { return nil }); err != nil {
				t.Fatal(err)
			}
			if db.EngineSnapshotReads() == before {
				t.Fatal("EngineSnapshotReads did not count a snapshot view")
			}
			// An in-memory database has nothing to checkpoint and says so;
			// a durable one checkpoints every shard.
			if err := db.Checkpoint(); (err == nil) != tc.dir {
				t.Fatalf("Checkpoint() = %v (durable=%v)", err, tc.dir)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
