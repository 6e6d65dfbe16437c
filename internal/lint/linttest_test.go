package lint

import (
	"go/token"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// runFixture type-checks testdata/<name> as a synthetic package, runs the
// analyzer through the full Runner (so suppression comments are exercised
// too), and compares diagnostics against `// want "regex"` annotations: each
// diagnostic must match a want on its line, and every want must fire.
func runFixture(t *testing.T, a Analyzer, name string) {
	t.Helper()
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join("testdata", name)
	pkg, err := l.LoadDir("fixture/"+name, dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, se := range pkg.SoftErrors {
		t.Errorf("fixture type error: %v", se)
	}
	wants := collectWants(t, l.Fset, pkg)
	runner := &Runner{Analyzers: []Analyzer{a}}
	diags := runner.RunPackage(l, pkg)

	matched := map[*want]bool{}
	for _, d := range diags {
		w := findWant(wants, d.Pos.Filename, d.Pos.Line)
		if w == nil {
			t.Errorf("unexpected diagnostic: %s", d)
			continue
		}
		if !w.re.MatchString(d.Message) {
			t.Errorf("diagnostic %q does not match want %q at %s:%d", d.Message, w.re, d.Pos.Filename, d.Pos.Line)
		}
		matched[w] = true
	}
	for _, w := range wants {
		if !matched[w] {
			t.Errorf("missing diagnostic: want %q at %s:%d", w.re, w.file, w.line)
		}
	}
}

// runRunnerFixture is the multi-package variant: it loads each named
// testdata subdirectory (in dependency order) as fixture/<name>, runs the
// fully configured Runner over the set — per-package analyzers, program
// analyzers, suppression — and matches `// want` annotations across all of
// them.
func runRunnerFixture(t *testing.T, runner *Runner, names ...string) {
	t.Helper()
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*Package
	var wants []*want
	for _, name := range names {
		dir := filepath.Join("testdata", filepath.FromSlash(name))
		pkg, err := l.LoadDir("fixture/"+name, dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, se := range pkg.SoftErrors {
			t.Errorf("fixture type error: %v", se)
		}
		pkgs = append(pkgs, pkg)
		wants = append(wants, collectWants(t, l.Fset, pkg)...)
	}
	diags := runner.RunPackages(l, pkgs)

	matched := map[*want]bool{}
	for _, d := range diags {
		w := findWant(wants, d.Pos.Filename, d.Pos.Line)
		if w == nil {
			t.Errorf("unexpected diagnostic: %s", d)
			continue
		}
		if !w.re.MatchString(d.Message) {
			t.Errorf("diagnostic %q does not match want %q at %s:%d", d.Message, w.re, d.Pos.Filename, d.Pos.Line)
		}
		matched[w] = true
	}
	for _, w := range wants {
		if !matched[w] {
			t.Errorf("missing diagnostic: want %q at %s:%d", w.re, w.file, w.line)
		}
	}
}

type want struct {
	file string
	line int
	re   *regexp.Regexp
}

var wantRx = regexp.MustCompile("// want `([^`]+)`")

func collectWants(t *testing.T, fset *token.FileSet, pkg *Package) []*want {
	t.Helper()
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRx.FindStringSubmatch(c.Text)
				if m == nil {
					if strings.Contains(c.Text, "// want") {
						t.Fatalf("malformed want comment (use // want `regex`): %s", c.Text)
					}
					continue
				}
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("bad want regexp %q: %v", m[1], err)
				}
				pos := fset.Position(c.Pos())
				wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
			}
		}
	}
	return wants
}

func findWant(wants []*want, file string, line int) *want {
	for _, w := range wants {
		if w.file == file && w.line == line {
			return w
		}
	}
	return nil
}

func TestLockCheckFixtures(t *testing.T) {
	runFixture(t, LockCheck{}, "lockcheck")
}

func TestErrDropFixtures(t *testing.T) {
	runFixture(t, ErrDrop{}, "errdrop")
}

func TestExhaustiveFixtures(t *testing.T) {
	runFixture(t, Exhaustive{
		Interfaces: []TypeRef{{Pkg: "fixture/exhaustive", Name: "Node"}},
		Enums:      []TypeRef{{Pkg: "fixture/exhaustive", Name: "Color"}},
	}, "exhaustive")
}

func TestDeterminismFixtures(t *testing.T) {
	runFixture(t, Determinism{
		Scope: []ScopeRef{{Pkg: "fixture/determinism"}},
	}, "determinism")
}

// TestCacheKeyFixtures runs the determinism analyzer over cache-key shapes:
// a key or validity decision must not read the clock, a random source or a
// map's iteration order.
func TestCacheKeyFixtures(t *testing.T) {
	runFixture(t, Determinism{
		Scope: []ScopeRef{{Pkg: "fixture/cachekey"}},
	}, "cachekey")
}

// TestParallelMergeFixtures runs the determinism analyzer over chunk-merge
// shapes: partial results merge in recorded order, never by a map range.
func TestParallelMergeFixtures(t *testing.T) {
	runFixture(t, Determinism{
		Scope: []ScopeRef{{Pkg: "fixture/parallelmerge"}},
	}, "parallelmerge")
}

func TestSyncBarrierFixtures(t *testing.T) {
	runFixture(t, SyncBarrier{
		Scope:    []ScopeRef{{Pkg: "fixture/syncbarrier", Files: []string{"fixture.go"}}},
		Barriers: []string{"durableBarrier"},
		Acks:     []string{"finishWindow"},
	}, "syncbarrier")
}

func TestCowSafeFixtures(t *testing.T) {
	runFixture(t, CowSafe{
		NodeType:    "node",
		SharedField: "shared",
		MintFuncs:   []string{"mutable"},
		WriterFuncs: []string{"insert"},
	}, "cowsafe")
}

// TestSuppressPathSegments is the regression test for the fragment-matching
// fix: suppression fragments must match complete, slash-bounded path
// segments, so "core" suppresses internal/core but can no longer swallow
// diagnostics from colstore or docstore.
func TestSuppressPathSegments(t *testing.T) {
	cases := []struct {
		path, frag string
		want       bool
	}{
		{"internal/core/core.go", "core", true},
		{"internal/colstore/colstore.go", "core", false},
		{"internal/docstore/docstore.go", "core", false},
		{"/root/repo/examples/basic/main.go", "/examples/", true},
		{"/root/repo/examples/basic/main.go", "examples/basic", true},
		{"/root/repo/examples/basic/main.go", "basic/examples", false},
		{"internal/core/core.go", "core.go", true},
		{"internal/core/core.go", "ore", false},
		{"internal/core/core.go", "", false},
	}
	for _, c := range cases {
		if got := pathHasSegments(c.path, c.frag); got != c.want {
			t.Errorf("pathHasSegments(%q, %q) = %v, want %v", c.path, c.frag, got, c.want)
		}
	}

	r := &Runner{SuppressPaths: map[string][]string{"*": {"core"}}}
	ignored := map[ignoreKey]bool{}
	hit := Diagnostic{Pos: token.Position{Filename: "/repo/internal/core/db.go", Line: 3}, Analyzer: "errdrop"}
	miss := Diagnostic{Pos: token.Position{Filename: "/repo/internal/colstore/col.go", Line: 3}, Analyzer: "errdrop"}
	if !r.suppressed(hit, ignored) {
		t.Error("fragment core should suppress internal/core diagnostics")
	}
	if r.suppressed(miss, ignored) {
		t.Error("fragment core must not suppress internal/colstore diagnostics")
	}
}

func TestLockOrderFixtures(t *testing.T) {
	runRunnerFixture(t, &Runner{
		ProgramAnalyzers: []ProgramAnalyzer{LockOrder{
			Order: []string{"fix.A", "fix.B", "fix.D", "fix.E"},
		}},
		LockClasses: LockClasses{Refs: []LockClassRef{
			{Pkg: "fixture/lockorder", Type: "A", Field: "mu", Class: "fix.A"},
			{Pkg: "fixture/lockorder", Type: "B", Field: "mu", Class: "fix.B"},
			{Pkg: "fixture/lockorder", Type: "D", Field: "mu", Class: "fix.D"},
			{Pkg: "fixture/lockorder", Type: "E", Field: "mu", Class: "fix.E"},
		}},
	}, "lockorder")
}

func TestSnapshotPureFixtures(t *testing.T) {
	runRunnerFixture(t, &Runner{
		ProgramAnalyzers: []ProgramAnalyzer{SnapshotPure{
			Roots: []FuncRef{
				{Pkg: "fixture/snapshotpure", Name: "Txn.Get"},
				{Pkg: "fixture/snapshotpure", Name: "Txn.Commit"},
				{Pkg: "fixture/snapshotpure", Name: "Txn.Abort"},
				{Pkg: "fixture/snapshotpure", Name: "Txn.finish"},
			},
			Forbidden: []string{"fix.commitMu", "fix.lockmgr.mu"},
			ForbiddenRecv: []TypeRef{
				{Pkg: "fixture/snapshotpure", Name: "lockMgr"},
			},
		}},
		LockClasses: LockClasses{Refs: []LockClassRef{
			{Pkg: "fixture/snapshotpure", Type: "Engine", Field: "mu", Class: "fix.mu"},
			{Pkg: "fixture/snapshotpure", Type: "Engine", Field: "commitMu", Class: "fix.commitMu"},
			{Pkg: "fixture/snapshotpure", Type: "lockMgr", Field: "mu", Class: "fix.lockmgr.mu"},
		}},
		GuardField: "snap",
	}, "snapshotpure")
}

func TestDeterminismTaintFixtures(t *testing.T) {
	runRunnerFixture(t, &Runner{
		Analyzers: []Analyzer{Determinism{
			Scope: []ScopeRef{{Pkg: "fixture/determtaint", Files: []string{"exec.go"}}},
		}},
	}, "determtaint")
}

func TestErrDropTaintFixtures(t *testing.T) {
	runRunnerFixture(t, &Runner{
		Analyzers: []Analyzer{ErrDrop{
			Packages: []string{"fixture/errdroptaint"},
		}},
	}, "errdroptaint/helper", "errdroptaint")
}

func TestTxnEndFixtures(t *testing.T) {
	runFixture(t, TxnEnd{
		BeginNames: []string{"Begin"},
		EndNames:   []string{"Commit", "Abort"},
	}, "txnend")
}
