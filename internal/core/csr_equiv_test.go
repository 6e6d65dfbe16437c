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

// The CSR ≡ probe equivalence corpus: every graph-touching query must
// produce byte-identical JSON whether traversals run over the CSR adjacency
// snapshot (the default on a snapshot transaction) or per-edge B+tree
// probes (NoCSR, and always on the locked path), and the CSRTraversals
// stat must report which path actually ran.

// seedGraphDB builds the corpus graph "net":
//
//	a -x-> b -x-> c -y-> d          (chain with a label switch)
//	a -y-> c                        (shortcut)
//	b -x-> d, b -y-> b              (fan + self-loop)
//	c -x-> a                        (cycle back)
//	a -x-> b is doubled by a2b2     (parallel edge, different label)
//	iso                             (disconnected vertex)
func seedGraphDB(t testing.TB, db *core.DB) {
	t.Helper()
	err := db.Update(func(tx engine.Tx) error {
		if err := db.CreateGraph(tx, "net"); err != nil {
			return err
		}
		for _, v := range []string{"a", "b", "c", "d", "iso"} {
			if err := db.Graphs.PutVertex(tx, "net", v,
				mmvalue.Object(mmvalue.F("n", mmvalue.String(v)))); err != nil {
				return err
			}
		}
		edges := [][3]string{
			{"a", "b", "x"}, {"b", "c", "x"}, {"c", "d", "y"},
			{"a", "c", "y"}, {"b", "d", "x"}, {"b", "b", "y"},
			{"c", "a", "x"}, {"a", "b", "z"},
		}
		for _, ed := range edges {
			if _, err := db.Graphs.Connect(tx, "net", ed[0], ed[1], ed[2], mmvalue.Null); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// assertCSRProbeEqual runs one query three ways — CSR on a snapshot (the
// default path), probes on a snapshot (NoCSR), and probes on the locked
// path — and demands byte-identical values plus honest stats.
func assertCSRProbeEqual(t *testing.T, db *core.DB, dialect, q string) {
	t.Helper()
	// The image is built once a few snapshot transactions have read the
	// same graph state; until then the default path probes.
	var csrRun *query.Result
	for i := 0; i < 5 && (csrRun == nil || csrRun.Stats.CSRTraversals == 0); i++ {
		csrRun = runCorpusQuery(t, db, dialect, q, nil, query.Options{})
	}
	probeSnap := runCorpusQuery(t, db, dialect, q, nil, query.Options{Ablate: query.NoCSR})
	probeLocked := runLockedQuery(t, db, dialect, q, nil, query.Options{})
	if csrRun.Stats.CSRTraversals == 0 {
		t.Fatalf("snapshot run did not use the CSR path for %q (stats %+v)", q, csrRun.Stats)
	}
	if probeSnap.Stats.CSRTraversals != 0 || probeLocked.Stats.CSRTraversals != 0 {
		t.Fatalf("probe runs reported CSR traversals for %q", q)
	}
	cj := mustJSON(t, csrRun.Values)
	pj := mustJSON(t, probeSnap.Values)
	lj := mustJSON(t, probeLocked.Values)
	if cj != pj || cj != lj {
		t.Fatalf("CSR/probe results differ for %q\ncsr:          %s\nprobe(snap):  %s\nprobe(locked): %s", q, cj, pj, lj)
	}
}

func TestCSREquivalenceCorpus(t *testing.T) {
	db := openDB(t)
	seedGraphDB(t, db)

	cases := []struct {
		dialect string
		q       string
	}{
		// Traversal clauses: every direction, label filters, depth ranges
		// including 0..n, a missing start, and the cycle.
		{"mmql", `FOR v IN 1..1 OUTBOUND 'a' net RETURN v._key`},
		{"mmql", `FOR v IN 1..2 OUTBOUND 'a' net RETURN v._key`},
		{"mmql", `FOR v IN 0..3 OUTBOUND 'a' net RETURN v._key`},
		{"mmql", `FOR v IN 2..3 OUTBOUND 'a' net RETURN v._key`},
		{"mmql", `FOR v IN 0..0 OUTBOUND 'a' net RETURN v._key`},
		{"mmql", `FOR v IN 1..2 INBOUND 'd' net RETURN v._key`},
		{"mmql", `FOR v IN 0..2 INBOUND 'c' net RETURN v._key`},
		{"mmql", `FOR v IN 1..2 ANY 'b' net RETURN v._key`},
		{"mmql", `FOR v IN 1..3 ANY 'iso' net RETURN v._key`},
		{"mmql", `FOR v IN 0..1 ANY 'iso' net RETURN v._key`},
		{"mmql", `FOR v IN 1..2 OUTBOUND 'a' net.x RETURN v._key`},
		{"mmql", `FOR v IN 1..3 OUTBOUND 'a' net.y RETURN v._key`},
		{"mmql", `FOR v IN 1..2 ANY 'b' net.y RETURN v._key`},
		{"mmql", `FOR v IN 1..2 OUTBOUND 'a' net.nolabel RETURN v._key`},
		{"mmql", `FOR v IN 0..2 OUTBOUND 'ghost' net RETURN v._key`},
		{"mmql", `FOR v IN 1..4 OUTBOUND 'a' net FILTER v.n != 'c' RETURN v.n`},
		// Graph navigation functions, incl. the self-loop vertex under BOTH.
		{"mmql", `RETURN OUT('net', 'x', 'a')[*]._key`},
		{"mmql", `RETURN IN('net', null, 'd')[*]._key`},
		{"mmql", `RETURN BOTH('net', null, 'b')[*]._key`},
		{"mmql", `RETURN BOTH('net', 'y', 'b')[*]._key`},
		// SHORTEST_PATH: reachable, cyclic, disconnected goal, missing
		// endpoints, start == goal.
		{"mmql", `RETURN SHORTEST_PATH('net', 'a', 'd')`},
		{"mmql", `RETURN SHORTEST_PATH('net', 'c', 'b')`},
		{"mmql", `RETURN SHORTEST_PATH('net', 'a', 'iso')`},
		{"mmql", `RETURN SHORTEST_PATH('net', 'ghost', 'd')`},
		{"mmql", `RETURN SHORTEST_PATH('net', 'a', 'a')`},
		{"mmql", `RETURN SHORTEST_PATH('net', 'ghost', 'ghost')`},
		// The second dialect: MSQL reaches the same executor through FROM
		// over the graph plus navigation functions in SELECT items.
		{"msql", `SELECT v._key AS k, OUT('net', 'x', v._key)[*]._key AS hop FROM net v ORDER BY v._key`},
		{"msql", `SELECT SHORTEST_PATH('net', v._key, 'd') AS p FROM net v ORDER BY v._key`},
		{"msql", `SELECT BOTH('net', null, v._key)[*]._key AS around FROM net v WHERE v._key = 'b'`},
	}
	for _, tc := range cases {
		assertCSRProbeEqual(t, db, tc.dialect, tc.q)
	}
}

// TestCSRZeroRebuildsOnUnchangedGraph pins the cache's design invariant:
// repeated snapshot traversals of an unchanged graph build the CSR exactly
// once — the first few probe, then one build, then everything reuses.
// TestCSRCountedFromParallelStages runs a graph function in a projection
// that splits into chunks: every row's OUT() counts one CSR traversal,
// counted without a data race between chunks (run under -race).
func TestCSRCountedFromParallelStages(t *testing.T) {
	db := openDB(t)
	seedGraphDB(t, db)
	q := `SELECT v._key AS k, OUT('net', 'x', v._key)[*]._key AS hop FROM net v ORDER BY v._key`
	want := len(runCorpusQuery(t, db, "msql", q, nil, serialOpts).Values)
	var res *query.Result
	for i := 0; i < 5 && (res == nil || res.Stats.CSRTraversals == 0); i++ {
		res = runCorpusQuery(t, db, "msql", q, nil, stressOpts)
	}
	if res.Stats.ParallelEvals == 0 || res.Stats.CSRTraversals != want {
		t.Fatalf("stats = %+v, want a parallel projection counting %d CSR traversals", res.Stats, want)
	}
}

func TestCSRZeroRebuildsOnUnchangedGraph(t *testing.T) {
	db := openDB(t)
	seedGraphDB(t, db)
	const runs = 25
	csrRuns := 0
	for i := 0; i < runs; i++ {
		res, err := db.Query(`FOR v IN 1..2 OUTBOUND 'a' net RETURN v._key`, nil)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 && res.Stats.CSRTraversals != 0 {
			t.Fatal("the first read of a graph state built its CSR; it should probe")
		}
		if res.Stats.CSRTraversals > 0 {
			csrRuns++
		}
	}
	st := db.CSRStats()
	if st.Builds != 1 || st.Rebuilds != 0 {
		t.Fatalf("CSR cache stats = %+v, want exactly 1 build and 0 rebuilds over %d runs", st, runs)
	}
	if st.Reuses != csrRuns-1 || csrRuns < runs-5 {
		t.Fatalf("CSR cache stats = %+v after %d CSR runs of %d: every run after the build must reuse", st, csrRuns, runs)
	}

	// A graph mutation rebuilds once, then reuse resumes.
	err := db.Update(func(tx engine.Tx) error {
		_, err := db.Graphs.Connect(tx, "net", "d", "a", "x", mmvalue.Null)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := db.Query(`FOR v IN 1..2 OUTBOUND 'd' net RETURN v._key`, nil); err != nil {
			t.Fatal(err)
		}
	}
	st = db.CSRStats()
	if st.Rebuilds != 1 {
		t.Fatalf("CSR cache stats after mutation = %+v, want exactly 1 rebuild", st)
	}
}

// TestCSRBuildsUnderInterleavedWriter: a graph written between every
// traversal never stays put long enough to earn a build, so snapshot
// traversals probe instead of paying a full rebuild per query — and still
// see every committed edge.
func TestCSRBuildsUnderInterleavedWriter(t *testing.T) {
	db := openDB(t)
	seedGraphDB(t, db)
	for i := 0; i < 50; i++ {
		v := fmt.Sprintf("i%02d", i)
		if err := db.Update(func(tx engine.Tx) error {
			if err := db.Graphs.PutVertex(tx, "net", v, mmvalue.Object()); err != nil {
				return err
			}
			_, err := db.Graphs.Connect(tx, "net", "iso", v, "x", mmvalue.Null)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		if err := db.SnapshotView(func(tx engine.Tx) error {
			res, err := db.QueryTx(tx, `FOR v IN 1..1 OUTBOUND 'iso' net RETURN v._key`, nil)
			if err != nil {
				return err
			}
			if len(res.Values) != i+1 {
				return fmt.Errorf("traversal %d saw %d edges, want %d", i, len(res.Values), i+1)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if st := db.CSRStats(); st.Builds+st.Rebuilds > 1 {
		t.Fatalf("CSR cache stats = %+v: a graph written between traversals was rebuilt per query", st)
	}
}

// TestCSRTraversalUnderLiveEdgeWriter race-checks the CSR path against a
// concurrent committer: snapshot traversals run (probing, building, reusing,
// and rebuilding CSR images) while a writer keeps adding edges. Every read must
// be internally consistent — the result of one traversal equals the NoCSR
// result on the same snapshot is already pinned above; here the property is
// no data race and no error under churn.
func TestCSRTraversalUnderLiveEdgeWriter(t *testing.T) {
	db := openDB(t)
	seedGraphDB(t, db)

	// The writer commits a bounded number of edges (unbounded churn would
	// make every reader query rebuild an ever-growing CSR — quadratic); the
	// readers overlap it, exercising build/reuse/rebuild under -race.
	errs := make(chan error, 8)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 150; i++ {
			v := fmt.Sprintf("w%03d", i)
			err := db.Update(func(tx engine.Tx) error {
				if err := db.Graphs.PutVertex(tx, "net", v, mmvalue.Object()); err != nil {
					return err
				}
				_, err := db.Graphs.Connect(tx, "net", "a", v, "x", mmvalue.Null)
				return err
			})
			if err != nil {
				errs <- err
				return
			}
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				if _, err := db.Query(`FOR v IN 1..2 OUTBOUND 'a' net RETURN v._key`, nil); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestCSRShardedTraversal runs the corpus's core cases on a 4-shard router:
// the CSR builds from scatter-gather merged scans, validates against summed
// per-shard version vectors, and must stay byte-identical to probes.
func TestCSRShardedTraversal(t *testing.T) {
	db, err := core.Open(core.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	seedGraphDB(t, db)

	for _, q := range []string{
		`FOR v IN 1..2 OUTBOUND 'a' net RETURN v._key`,
		`FOR v IN 0..3 ANY 'b' net RETURN v._key`,
		`RETURN SHORTEST_PATH('net', 'a', 'd')`,
	} {
		assertCSRProbeEqual(t, db, "mmql", q)
	}

	// Zero rebuilds holds under sharding too: the summed version vector is
	// as stable as the per-engine one.
	before := db.CSRStats()
	for i := 0; i < 10; i++ {
		if _, err := db.Query(`FOR v IN 1..2 OUTBOUND 'a' net RETURN v._key`, nil); err != nil {
			t.Fatal(err)
		}
	}
	after := db.CSRStats()
	if after.Rebuilds != before.Rebuilds {
		t.Fatalf("sharded CSR cache rebuilt on unchanged graph: before %+v after %+v", before, after)
	}
	// A sharded write invalidates like an unsharded one.
	err = db.Update(func(tx engine.Tx) error {
		if err := db.Graphs.PutVertex(tx, "net", "s1", mmvalue.Object()); err != nil {
			return err
		}
		_, err := db.Graphs.Connect(tx, "net", "d", "s1", "x", mmvalue.Null)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`FOR v IN 1..1 OUTBOUND 'd' net RETURN v._key`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if mustJSON(t, res.Values) != `["s1"]` {
		t.Fatalf("sharded CSR missed the new edge: %s", mustJSON(t, res.Values))
	}
}
