package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// Analyzer is one invariant checker.
type Analyzer interface {
	// Name is the short identifier used in diagnostics and suppression
	// comments ("lockcheck", "errdrop", ...).
	Name() string
	// Doc is a one-line description of the enforced invariant.
	Doc() string
	// Run inspects one package and reports findings through the pass.
	Run(pass *Pass)
}

// ProgramAnalyzer is an invariant checker that needs the whole program: the
// call graph and per-function summaries over every loaded package, rather
// than one package at a time.
type ProgramAnalyzer interface {
	Name() string
	Doc() string
	// RunProgram inspects the whole program and reports findings through
	// the pass (whose Pkg field is nil — diagnostics may land anywhere).
	RunProgram(prog *Program, pass *Pass)
}

// Pass hands one package to one analyzer.
type Pass struct {
	Pkg  *Package
	Fset *token.FileSet
	// Prog is the whole-program view (call graph + summaries) when the
	// runner built one; per-package analyzers may consult it for
	// interprocedural facts. Nil in bare single-analyzer harnesses.
	Prog     *Program
	analyzer string
	sink     func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.sink(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.analyzer,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one reported violation.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Runner applies a set of analyzers over loaded packages with suppression.
type Runner struct {
	Analyzers []Analyzer
	// ProgramAnalyzers run once over the whole loaded program (all packages
	// of a Run call together) instead of per package.
	ProgramAnalyzers []ProgramAnalyzer
	// LockClasses names the mutexes the interprocedural summaries track.
	LockClasses LockClasses
	// GuardField is the struct field whose nil-ness separates the snapshot
	// read path from the locked path ("snap"); "" disables guard tracking.
	GuardField string
	// SuppressPaths maps analyzer name (or "*" for all) to slash-separated
	// path fragments; a diagnostic whose file path contains the fragment as
	// a run of complete, slash-bounded segments is dropped. This is the
	// per-path suppression layer: e.g. generated code or a package that
	// intentionally trades an invariant away.
	SuppressPaths map[string][]string
}

// Run loads each import path and applies every analyzer, returning the
// surviving diagnostics sorted by position.
func (r *Runner) Run(l *Loader, paths []string) ([]Diagnostic, error) {
	var pkgs []*Package
	for _, path := range paths {
		pkg, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return r.RunPackages(l, pkgs), nil
}

// RunPackages applies every analyzer to the given already-loaded packages:
// per-package analyzers to each in turn, program analyzers once over the
// whole set, all sharing one interprocedural Program.
func (r *Runner) RunPackages(l *Loader, pkgs []*Package) []Diagnostic {
	prog := BuildProgram(l.Fset, pkgs, r.LockClasses, r.GuardField)
	var diags []Diagnostic
	for _, pkg := range pkgs {
		diags = append(diags, r.runPackage(l, pkg, prog)...)
	}
	if len(r.ProgramAnalyzers) > 0 {
		var files []*ast.File
		for _, pkg := range pkgs {
			files = append(files, pkg.Files...)
		}
		ignores := collectIgnores(l.Fset, files)
		for _, pa := range r.ProgramAnalyzers {
			pass := &Pass{
				Fset:     l.Fset,
				Prog:     prog,
				analyzer: pa.Name(),
				sink: func(d Diagnostic) {
					if !r.suppressed(d, ignores) {
						diags = append(diags, d)
					}
				},
			}
			pa.RunProgram(prog, pass)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// RunPackage applies every per-package analyzer to one already-loaded
// package, building a single-package program for interprocedural facts.
func (r *Runner) RunPackage(l *Loader, pkg *Package) []Diagnostic {
	prog := BuildProgram(l.Fset, []*Package{pkg}, r.LockClasses, r.GuardField)
	return r.runPackage(l, pkg, prog)
}

func (r *Runner) runPackage(l *Loader, pkg *Package, prog *Program) []Diagnostic {
	ignores := collectIgnores(l.Fset, pkg.Files)
	var diags []Diagnostic
	for _, a := range r.Analyzers {
		pass := &Pass{
			Pkg:      pkg,
			Fset:     l.Fset,
			Prog:     prog,
			analyzer: a.Name(),
			sink: func(d Diagnostic) {
				if !r.suppressed(d, ignores) {
					diags = append(diags, d)
				}
			},
		}
		a.Run(pass)
	}
	return diags
}

// ignoreKey identifies one line-level suppression.
type ignoreKey struct {
	file     string
	line     int
	analyzer string // "" means all analyzers
}

// collectIgnores scans comments for line-level suppressions. Two syntaxes:
//
//	//unidblint:ignore <analyzer> [reason]   (our own)
//	//nolint:errcheck                        (pre-existing idiom → errdrop)
//
// A suppression applies to diagnostics on its own line and the line below
// (so it can sit above the offending statement).
func collectIgnores(fset *token.FileSet, files []*ast.File) map[ignoreKey]bool {
	ignores := map[ignoreKey]bool{}
	add := func(pos token.Position, analyzer string) {
		ignores[ignoreKey{pos.Filename, pos.Line, analyzer}] = true
		ignores[ignoreKey{pos.Filename, pos.Line + 1, analyzer}] = true
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if rest, ok := strings.CutPrefix(text, "unidblint:ignore"); ok {
					fields := strings.Fields(rest)
					name := ""
					if len(fields) > 0 {
						name = fields[0]
					}
					add(fset.Position(c.Pos()), name)
				}
				if strings.HasPrefix(text, "nolint:errcheck") {
					add(fset.Position(c.Pos()), "errdrop")
				}
			}
		}
	}
	return ignores
}

func (r *Runner) suppressed(d Diagnostic, ignores map[ignoreKey]bool) bool {
	if ignores[ignoreKey{d.Pos.Filename, d.Pos.Line, d.Analyzer}] ||
		ignores[ignoreKey{d.Pos.Filename, d.Pos.Line, ""}] {
		return true
	}
	slashed := filepath.ToSlash(d.Pos.Filename)
	for _, key := range []string{d.Analyzer, "*"} {
		for _, frag := range r.SuppressPaths[key] {
			if pathHasSegments(slashed, frag) {
				return true
			}
		}
	}
	return false
}

// pathHasSegments reports whether the slash-separated path contains the
// fragment as a run of complete path segments: fragment "core" matches
// "internal/core/core.go" but not "internal/colstore/colstore.go", and
// "examples/basic" matches only those two adjacent segments. A plain
// substring match would conflate "core" with every path merely containing
// those letters. The final segment (the file name) participates like any
// other, so a fragment can also pin a specific file.
func pathHasSegments(path, fragment string) bool {
	want := splitSegments(fragment)
	if len(want) == 0 {
		return false
	}
	have := splitSegments(path)
	for i := 0; i+len(want) <= len(have); i++ {
		match := true
		for j, seg := range want {
			if have[i+j] != seg {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}

func splitSegments(p string) []string {
	var out []string
	for _, seg := range strings.Split(p, "/") {
		if seg != "" {
			out = append(out, seg)
		}
	}
	return out
}

// ScopeRef selects files of a package for a scoped analyzer: the named
// basenames, or the whole package when Files is empty.
type ScopeRef struct {
	Pkg   string
	Files []string
}

// inScope reports whether the named file of package pkgPath falls in scope.
func inScope(scope []ScopeRef, pkgPath, filename string) bool {
	base := filepath.Base(filename)
	for _, ref := range scope {
		if ref.Pkg == pkgPath && (len(ref.Files) == 0 || slices.Contains(ref.Files, base)) {
			return true
		}
	}
	return false
}
