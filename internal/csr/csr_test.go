package csr_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/csr"
	"repro/internal/engine"
	"repro/internal/graphstore"
	"repro/internal/mmvalue"
)

func setup(t *testing.T) (*engine.Engine, *graphstore.Store) {
	t.Helper()
	e, err := engine.Open(engine.Options{Durability: engine.Ephemeral})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = e.Close() })
	return e, graphstore.New(e)
}

func mustUpdate(t *testing.T, e *engine.Engine, fn func(tx *engine.Txn) error) {
	t.Helper()
	if err := e.Update(fn); err != nil {
		t.Fatal(err)
	}
}

func spec(g string) csr.Spec {
	return csr.Spec{
		Vertex: graphstore.VertexKeyspace(g),
		Edge:   graphstore.EdgeKeyspace(g),
		Out:    graphstore.OutKeyspace(g),
		In:     graphstore.InKeyspace(g),
	}
}

// seedSocial builds a small social graph:
//
//	alice -follows-> bob -follows-> carol -follows-> dave
//	alice -follows-> carol
//	bob   -likes--> dave
//	eve (isolated), dave -follows-> dave (self-loop)
func seedSocial(t *testing.T, e *engine.Engine, s *graphstore.Store) {
	t.Helper()
	mustUpdate(t, e, func(tx *engine.Txn) error {
		for _, v := range []string{"alice", "bob", "carol", "dave", "eve"} {
			if err := s.PutVertex(tx, "soc", v, docKV("name", v)); err != nil {
				return err
			}
		}
		edges := [][3]string{
			{"alice", "bob", "follows"},
			{"bob", "carol", "follows"},
			{"carol", "dave", "follows"},
			{"alice", "carol", "follows"},
			{"bob", "dave", "likes"},
			{"dave", "dave", "follows"},
		}
		for _, ed := range edges {
			if _, err := s.Connect(tx, "soc", ed[0], ed[1], ed[2], docKV()); err != nil {
				return err
			}
		}
		return nil
	})
}

func buildSoc(t *testing.T, e *engine.Engine) *csr.Graph {
	t.Helper()
	var g *csr.Graph
	if err := e.SnapshotView(func(tx *engine.Txn) error {
		var err error
		g, err = csr.Build(tx, spec("soc"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuildCounts(t *testing.T) {
	e, s := setup(t)
	seedSocial(t, e, s)
	g := buildSoc(t, e)
	if g.VertexCount() != 5 {
		t.Fatalf("VertexCount = %d, want 5", g.VertexCount())
	}
	if g.EdgeCount() != 6 {
		t.Fatalf("EdgeCount = %d, want 6", g.EdgeCount())
	}
	if g.Bytes() <= 0 {
		t.Fatalf("Bytes = %d, want > 0", g.Bytes())
	}
}

// TestMatchesProbePath drives the CSR and probe paths through the same
// corpus of (start, depth range, direction, label) traversals and demands
// byte-identical results — the invariant the query router relies on.
func TestMatchesProbePath(t *testing.T) {
	e, s := setup(t)
	seedSocial(t, e, s)
	g := buildSoc(t, e)

	dirs := []struct {
		cd csr.Dir
		gd graphstore.Direction
	}{{csr.Out, graphstore.Outbound}, {csr.In, graphstore.Inbound}, {csr.Any, graphstore.Any}}
	starts := []string{"alice", "bob", "carol", "dave", "eve", "nosuch"}
	ranges := [][2]int{{0, 0}, {0, 1}, {0, 3}, {1, 1}, {1, 2}, {1, 3}, {2, 3}, {3, 5}}
	labels := []string{"", "follows", "likes", "nolabel"}

	for _, d := range dirs {
		for _, start := range starts {
			for _, r := range ranges {
				for _, label := range labels {
					for _, workers := range []int{1, 4} {
						want, werr := s.Traverse(engineView(t, e), "soc", start, r[0], r[1], d.gd, label)
						got, gerr := g.Traverse(start, r[0], r[1], d.cd, label, workers)
						if (werr == nil) != (gerr == nil) {
							t.Fatalf("%s %d..%d %v %q: err mismatch probe=%v csr=%v", start, r[0], r[1], d.gd, label, werr, gerr)
						}
						if !sameKeys(want, got) {
							t.Fatalf("%s %d..%d %v %q workers=%d: probe=%v csr=%v", start, r[0], r[1], d.gd, label, workers, want, got)
						}
					}
				}
			}
		}
	}
}

func TestShortestPathMatchesProbe(t *testing.T) {
	e, s := setup(t)
	seedSocial(t, e, s)
	g := buildSoc(t, e)

	cases := [][2]string{
		{"alice", "dave"}, {"alice", "carol"}, {"dave", "alice"},
		{"alice", "eve"}, {"eve", "alice"}, {"alice", "alice"},
		{"nosuch", "alice"}, {"alice", "nosuch"}, {"nosuch", "nosuch"},
	}
	dirs := []struct {
		cd csr.Dir
		gd graphstore.Direction
	}{{csr.Out, graphstore.Outbound}, {csr.In, graphstore.Inbound}, {csr.Any, graphstore.Any}}
	for _, d := range dirs {
		for _, c := range cases {
			want, werr := s.ShortestPath(engineView(t, e), "soc", c[0], c[1], d.gd, "")
			got, gerr := g.ShortestPath(c[0], c[1], d.cd, "")
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("%v %v: err mismatch probe=%v csr=%v", c, d.gd, werr, gerr)
			}
			if werr != nil && !errors.Is(gerr, csr.ErrNoSuchPath) {
				t.Fatalf("%v %v: csr err = %v, want ErrNoSuchPath", c, d.gd, gerr)
			}
			if !reflect.DeepEqual(want, got) && !(len(want) == 0 && len(got) == 0) {
				t.Fatalf("%v %v: probe=%v csr=%v", c, d.gd, want, got)
			}
		}
	}
}

func TestNeighborKeysSelfLoopOnce(t *testing.T) {
	e, s := setup(t)
	seedSocial(t, e, s)
	g := buildSoc(t, e)
	got := g.NeighborKeys("dave", csr.Any, "")
	count := 0
	for _, k := range got {
		if k == "dave" {
			count++
		}
	}
	// dave has one self-loop and one inbound edge from carol and one from
	// bob: the loop must be reported exactly once.
	if count != 1 {
		t.Fatalf("self-loop reported %d times in %v, want 1", count, got)
	}
}

func TestNeighborKeysMatchesProbe(t *testing.T) {
	e, s := setup(t)
	seedSocial(t, e, s)
	g := buildSoc(t, e)
	dirs := []struct {
		cd csr.Dir
		gd graphstore.Direction
	}{{csr.Out, graphstore.Outbound}, {csr.In, graphstore.Inbound}, {csr.Any, graphstore.Any}}
	for _, d := range dirs {
		for _, v := range []string{"alice", "bob", "carol", "dave", "eve", "nosuch"} {
			for _, label := range []string{"", "follows", "likes"} {
				ns, err := s.Neighbors(engineView(t, e), "soc", v, d.gd, label)
				if err != nil {
					t.Fatal(err)
				}
				want := make([]string, 0, len(ns))
				for _, n := range ns {
					want = append(want, n.VertexKey)
				}
				got := g.NeighborKeys(v, d.cd, label)
				if !sameKeys(want, got) {
					t.Fatalf("%s %v %q: probe=%v csr=%v", v, d.gd, label, want, got)
				}
			}
		}
	}
}

func TestBadDepthRange(t *testing.T) {
	e, s := setup(t)
	seedSocial(t, e, s)
	g := buildSoc(t, e)
	if _, err := g.Traverse("alice", -1, 2, csr.Out, "", 1); err == nil {
		t.Fatal("negative min accepted")
	}
	if _, err := g.Traverse("alice", 3, 1, csr.Out, "", 1); err == nil {
		t.Fatal("max < min accepted")
	}
}

// TestParallelExpansionDeterministic runs a wide fan-out graph with enough
// frontier to trip the parallel path and checks the order is identical to
// the serial walk, repeatedly.
func TestParallelExpansionDeterministic(t *testing.T) {
	e, s := setup(t)
	mustUpdate(t, e, func(tx *engine.Txn) error {
		if err := s.PutVertex(tx, "fan", "root", docKV()); err != nil {
			return err
		}
		for i := 0; i < 600; i++ {
			mid := fmt.Sprintf("m%04d", i)
			if err := s.PutVertex(tx, "fan", mid, docKV()); err != nil {
				return err
			}
			if _, err := s.Connect(tx, "fan", "root", mid, "", docKV()); err != nil {
				return err
			}
			leaf := fmt.Sprintf("l%04d", i)
			if err := s.PutVertex(tx, "fan", leaf, docKV()); err != nil {
				return err
			}
			if _, err := s.Connect(tx, "fan", mid, leaf, "", docKV()); err != nil {
				return err
			}
		}
		return nil
	})
	var g *csr.Graph
	if err := e.SnapshotView(func(tx *engine.Txn) error {
		var err error
		g, err = csr.Build(tx, spec("fan"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	serial, err := g.Traverse("root", 1, 2, csr.Out, "", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != 1200 {
		t.Fatalf("serial reached %d vertices, want 1200", len(serial))
	}
	for i := 0; i < 5; i++ {
		par, err := g.Traverse("root", 1, 2, csr.Out, "", 8)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, par) {
			t.Fatalf("parallel order diverged from serial on run %d", i)
		}
	}
}

// cacheGet asks c for the named graph from one fresh snapshot transaction.
func cacheGet(t *testing.T, e *engine.Engine, c *csr.Cache, name string) (*csr.Graph, bool) {
	t.Helper()
	var g *csr.Graph
	var ok bool
	if err := e.SnapshotView(func(tx *engine.Txn) error {
		var err error
		g, ok, err = c.Get(tx, name, spec(name))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return g, ok
}

// cacheWarm asks c for the named graph from fresh snapshot transactions
// until one is served, and returns the graph and how many it took.
func cacheWarm(t *testing.T, e *engine.Engine, c *csr.Cache, name string) (*csr.Graph, int) {
	t.Helper()
	for n := 1; n <= 10; n++ {
		if g, ok := cacheGet(t, e, c, name); ok {
			return g, n
		}
	}
	t.Fatal("ten snapshot transactions on an unchanged graph never built its CSR")
	return nil, 0
}

// TestCacheBuildsAfterRepeatedSightings pins the build rule: a graph state
// is built only after several distinct snapshot transactions have read it,
// one transaction asking many times counts once, and a write restarts the
// count.
func TestCacheBuildsAfterRepeatedSightings(t *testing.T) {
	e, s := setup(t)
	seedSocial(t, e, s)
	c := csr.NewCache()

	if err := e.SnapshotView(func(tx *engine.Txn) error {
		for i := 0; i < 10; i++ {
			if _, ok, err := c.Get(tx, "soc", spec("soc")); err != nil || ok {
				return fmt.Errorf("lookup %d in one transaction: ok=%v err=%v", i, ok, err)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, n := cacheWarm(t, e, c, "soc"); n < 2 {
		t.Fatalf("built after %d transactions; one transaction's lookups counted more than once", n)
	}

	// A write between every read: no state is read twice, so none is built.
	before := c.Stats()
	for i := 0; i < 20; i++ {
		mustUpdate(t, e, func(tx *engine.Txn) error {
			_, err := s.Connect(tx, "soc", "eve", "alice", fmt.Sprintf("l%d", i), docKV())
			return err
		})
		if _, ok := cacheGet(t, e, c, "soc"); ok {
			t.Fatalf("read %d: a state seen by one transaction was built", i)
		}
	}
	if after := c.Stats(); after.Builds+after.Rebuilds != before.Builds+before.Rebuilds {
		t.Fatalf("interleaved writes caused builds: before %+v after %+v", before, after)
	}
}

func TestCacheReuseAndRebuild(t *testing.T) {
	e, s := setup(t)
	seedSocial(t, e, s)
	c := csr.NewCache()

	get := func() *csr.Graph {
		t.Helper()
		g, ok := cacheGet(t, e, c, "soc")
		if !ok {
			t.Fatal("snapshot tx did not hit the CSR cache")
		}
		return g
	}

	g1, _ := cacheWarm(t, e, c, "soc")
	for i := 0; i < 9; i++ {
		if get() != g1 {
			t.Fatal("unchanged graph was rebuilt")
		}
	}
	st := c.Stats()
	if st.Builds != 1 || st.Rebuilds != 0 || st.Reuses != 9 {
		t.Fatalf("stats = %+v, want 1 build / 0 rebuilds / 9 reuses", st)
	}

	// A write to the graph invalidates; a rebuild sees the new edge.
	mustUpdate(t, e, func(tx *engine.Txn) error {
		_, err := s.Connect(tx, "soc", "eve", "alice", "follows", docKV())
		return err
	})
	g2, _ := cacheWarm(t, e, c, "soc")
	if g2 == g1 {
		t.Fatal("stale CSR served after commit")
	}
	if got := g2.NeighborKeys("eve", csr.Out, ""); len(got) != 1 || got[0] != "alice" {
		t.Fatalf("rebuilt CSR missing new edge: %v", got)
	}
	st = c.Stats()
	if st.Rebuilds != 1 {
		t.Fatalf("stats = %+v, want 1 rebuild", st)
	}

	// Writes to unrelated keyspaces must not invalidate.
	mustUpdate(t, e, func(tx *engine.Txn) error {
		return tx.Put("unrelated", []byte("k"), []byte("v"))
	})
	if get() != g2 {
		t.Fatal("unrelated write invalidated the CSR cache")
	}
}

// TestCacheDropRecreateEpoch pins the drop-epoch disambiguation: dropping
// and re-seeding a graph resets per-keyspace version counters, so the
// version vector alone can collide with the cached one; the epoch must
// force a rebuild.
func TestCacheDropRecreateEpoch(t *testing.T) {
	e, s := setup(t)
	c := csr.NewCache()

	seed := func(far string) {
		mustUpdate(t, e, func(tx *engine.Txn) error {
			for _, v := range []string{"a", far} {
				if err := s.PutVertex(tx, "g2", v, docKV()); err != nil {
					return err
				}
			}
			_, err := s.Connect(tx, "g2", "a", far, "", docKV())
			return err
		})
	}
	seed("b")
	g1, _ := cacheWarm(t, e, c, "g2")
	mustUpdate(t, e, func(tx *engine.Txn) error {
		for _, ks := range []string{spec("g2").Vertex, spec("g2").Edge, spec("g2").Out, spec("g2").In} {
			if err := tx.DropKeyspace(ks); err != nil {
				return err
			}
		}
		return nil
	})
	seed("z")
	g2, _ := cacheWarm(t, e, c, "g2")
	if g2 == g1 {
		t.Fatal("drop+recreate served the stale CSR")
	}
	if got := g2.NeighborKeys("a", csr.Out, ""); len(got) != 1 || got[0] != "z" {
		t.Fatalf("rebuilt CSR has wrong adjacency: %v", got)
	}
}

func TestCacheLockedTxFallsBack(t *testing.T) {
	e, s := setup(t)
	seedSocial(t, e, s)
	c := csr.NewCache()
	mustUpdate(t, e, func(tx *engine.Txn) error {
		g, ok, err := c.Get(tx, "soc", spec("soc"))
		if err != nil {
			return err
		}
		if ok || g != nil {
			t.Fatal("locked transaction served from CSR cache")
		}
		return nil
	})
}

// engineView returns a read-only snapshot Tx for probe-path comparisons.
// The test keeps it open for the duration of the calling test.
func engineView(t *testing.T, e *engine.Engine) engine.Tx {
	t.Helper()
	tx, err := e.BeginSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = tx.Abort() })
	return tx
}

func sameKeys(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// docKV builds a flat string-field object document from key/value pairs.
func docKV(kv ...string) mmvalue.Value {
	fields := make([]mmvalue.Field, 0, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		fields = append(fields, mmvalue.F(kv[i], mmvalue.String(kv[i+1])))
	}
	return mmvalue.Object(fields...)
}
