package lint

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// loadRepoProgram loads the module's engine-side packages and builds the
// whole-program summary view the default runner would see.
func loadRepoProgram(t *testing.T, paths ...string) *Program {
	t.Helper()
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*Package
	for _, p := range paths {
		pkg, err := l.Load(p)
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, pkg)
	}
	return BuildProgram(l.Fset, pkgs, DefaultLockClasses(), "snap")
}

// TestDefaultSnapshotRootsResolve pins the snapshotpure configuration to the
// real engine: every declared root must resolve to a declared function, so a
// rename can never silently turn the analyzer into a no-op.
func TestDefaultSnapshotRootsResolve(t *testing.T) {
	prog := loadRepoProgram(t, "repro/internal/engine")
	for _, ref := range DefaultSnapshotRoots() {
		if prog.FuncNamed(ref) == nil {
			t.Errorf("snapshotpure root %s.%s does not resolve to any declared function", ref.Pkg, ref.Name)
		}
	}
}

// TestRepoLockEdges pins the summary engine to the real code: the documented
// nesting facts (checkpoint holds commitMu while cutting the WAL; commit
// publication holds commitMu across the tree apply under engine.mu) must
// show up as interprocedural edges, so an analyzer that finds nothing is
// demonstrably looking at a real graph rather than an empty one.
func TestRepoLockEdges(t *testing.T) {
	prog := loadRepoProgram(t, "repro/internal/engine", "repro/internal/wal")
	edges := collectLockEdges(prog)
	if len(edges) == 0 {
		t.Fatal("no lock-nesting edges found in engine+wal: summary extraction is broken")
	}
	want := [][2]string{
		{"engine.commitMu", "engine.mu"},     // Txn.Commit applies under e.mu with commitMu held
		{"engine.commitMu", "wal.log.mu"},    // checkpoint cut / commit append under commitMu
		{"engine.cpMu", "engine.commitMu"},   // Checkpoint serializes the cut
		{"engine.commitMu", "wal.commit.mu"}, // group-commit enqueue during publication
	}
	have := map[[2]string]bool{}
	for _, e := range edges {
		have[[2]string{e.from, e.to}] = true
	}
	for _, w := range want {
		if !have[w] {
			t.Errorf("expected lock-nesting edge %s -> %s not found; edges: %v", w[0], w[1], edgeList(edges))
		}
	}
	// And the declared order must admit every edge between ranked classes.
	order := DefaultLockOrder()
	for _, e := range edges {
		fi, ti := classIndex(order, e.from), classIndex(order, e.to)
		if fi >= 0 && ti >= 0 && fi >= ti {
			t.Errorf("edge %s -> %s contradicts DefaultLockOrder", e.from, e.to)
		}
	}
}

// TestRepoShardLockEdges pins the sharding layer's place in the lock order:
// the router's cut barrier is held (shared) across phase two of a
// cross-shard commit, which drives each participant's CommitPrepared through
// the engine's commit path, and held exclusively while a snapshot cut reads every
// shard. Those nestings must surface as interprocedural edges, and every
// ranked edge the shard package introduces must go strictly downward in
// DefaultLockOrder — i.e. shard.cutMu stays outermost.
func TestRepoShardLockEdges(t *testing.T) {
	prog := loadRepoProgram(t, "repro/internal/shard", "repro/internal/engine", "repro/internal/wal")
	edges := collectLockEdges(prog)
	want := [][2]string{
		{"shard.cutMu", "engine.commitMu"},   // CommitPrepared publishes under commitMu
		{"shard.cutMu", "engine.mu"},         // prepared batch applies to the tree
		{"shard.cutMu", "wal.log.mu"},        // decision/commit markers hit the shard WALs
		{"shard.cutMu", "engine.lockmgr.mu"}, // router releases 2PL locks after apply
	}
	have := map[[2]string]bool{}
	for _, e := range edges {
		have[[2]string{e.from, e.to}] = true
	}
	for _, w := range want {
		if !have[w] {
			t.Errorf("expected lock-nesting edge %s -> %s not found; edges: %v", w[0], w[1], edgeList(edges))
		}
	}
	order := DefaultLockOrder()
	for _, e := range edges {
		fi, ti := classIndex(order, e.from), classIndex(order, e.to)
		if fi >= 0 && ti >= 0 && fi >= ti {
			t.Errorf("edge %s -> %s contradicts DefaultLockOrder", e.from, e.to)
		}
	}
}

// TestSnapshotPureTraversesRealEngine is the negative control for the guard
// pruning: engine.mu IS legitimately acquired on the snapshot path (the O(1)
// root-pointer cut in BeginSnapshot), so forbidding it must produce
// diagnostics. If this fails, the BFS is pruning everything and the clean
// run of the real configuration proves nothing.
func TestSnapshotPureTraversesRealEngine(t *testing.T) {
	prog := loadRepoProgram(t, "repro/internal/engine")
	var got []Diagnostic
	pass := &Pass{
		Fset:     prog.Fset,
		Prog:     prog,
		analyzer: "snapshotpure",
		sink:     func(d Diagnostic) { got = append(got, d) },
	}
	SnapshotPure{
		Roots:     DefaultSnapshotRoots(),
		Forbidden: []string{"engine.mu"},
	}.RunProgram(prog, pass)
	if len(got) == 0 {
		t.Fatal("forbidding engine.mu on the snapshot path reported nothing: BFS or guard pruning is broken")
	}
}

// TestRepoConfigResolves keeps the repository configuration in step with the
// code, so deleting a file or a mutex cannot leave dead configuration that
// silently checks nothing. Every ScopeRef of every default analyzer must
// name a package directory and files that exist, and every LockClasses row
// must resolve to at least one acquisition site in the code.
func TestRepoConfigResolves(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	scopeRefs := reflect.TypeOf([]ScopeRef(nil))
	for _, a := range DefaultAnalyzers() {
		v := reflect.Indirect(reflect.ValueOf(a))
		if v.Kind() != reflect.Struct {
			continue
		}
		for i := 0; i < v.NumField(); i++ {
			if v.Field(i).Type() != scopeRefs {
				continue
			}
			for _, ref := range v.Field(i).Interface().([]ScopeRef) {
				dir, err := l.dirFor(ref.Pkg)
				if err != nil {
					t.Errorf("%s scope: package %s: %v", a.Name(), ref.Pkg, err)
					continue
				}
				if st, err := os.Stat(dir); err != nil || !st.IsDir() {
					t.Errorf("%s scope: package %s has no directory %s", a.Name(), ref.Pkg, dir)
					continue
				}
				for _, f := range ref.Files {
					if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
						t.Errorf("%s scope: %s names %s, which does not exist", a.Name(), ref.Pkg, f)
					}
				}
			}
		}
	}

	var paths []string
	seen := map[string]bool{}
	for _, ref := range DefaultLockClasses().Refs {
		if !seen[ref.Pkg] {
			seen[ref.Pkg] = true
			paths = append(paths, ref.Pkg)
		}
	}
	prog := loadRepoProgram(t, paths...)
	sites := map[string]int{}
	for _, fi := range prog.funcList {
		for _, a := range fi.Acquires {
			sites[a.class]++
		}
	}
	for _, ref := range DefaultLockClasses().Refs {
		if sites[ref.Class] == 0 {
			t.Errorf("LockClasses row %s.%s.%s (%s) resolves to no acquisition site", ref.Pkg, ref.Type, ref.Field, ref.Class)
		}
	}
}

func edgeList(edges []lockEdge) []string {
	var out []string
	for _, e := range edges {
		out = append(out, e.from+"->"+e.to)
	}
	return out
}

// TestRepoCSRCacheLockLeaf pins the CSR cache mutex's place in the lock
// order: it is a pure leaf. Cache.Get acquires it for map operations only
// and releases it before Build scans any keyspace, so no nesting edge may
// ever leave csr.cache.mu — a Build (or any engine call) under the mutex
// would serialize every graph's cache hit behind one graph's cold build and
// drag engine-side lock classes under a read-side leaf.
func TestRepoCSRCacheLockLeaf(t *testing.T) {
	// TestRepoConfigResolves checks that the class resolves to acquisition
	// sites, so this test cannot pass vacuously.
	prog := loadRepoProgram(t, "repro/internal/csr", "repro/internal/engine", "repro/internal/wal")
	edges := collectLockEdges(prog)
	for _, e := range edges {
		if e.from == "csr.cache.mu" {
			t.Errorf("csr.cache.mu is held across an acquisition of %s in %s: the CSR cache mutex must stay a leaf", e.to, e.fn)
		}
	}
	// And every ranked edge the csr package introduces must respect the
	// canonical order.
	order := DefaultLockOrder()
	if classIndex(order, "csr.cache.mu") < 0 {
		t.Fatal("csr.cache.mu is not ranked in DefaultLockOrder")
	}
	for _, e := range edges {
		fi, ti := classIndex(order, e.from), classIndex(order, e.to)
		if fi >= 0 && ti >= 0 && fi >= ti {
			t.Errorf("edge %s -> %s contradicts DefaultLockOrder", e.from, e.to)
		}
	}
}
