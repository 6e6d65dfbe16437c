package lint

import (
	"go/ast"
	"go/types"
	"strconv"
)

// Determinism guards every path whose output must be a pure function of
// its input: the query executor and the fan-out runner (a parallel run is
// byte-identical to the serial one), the CSR package (its parallel frontier
// expansion, and the cache validity token that must map one graph state to
// one entry), and the vectorization plan compiled into plan-cached
// pipelines. In the configured scope it forbids:
//
//	time.Now(...)                  — a wall-clock read, directly or through
//	                                 a call to a function outside the scope
//	                                 that reads it (one level deep, from the
//	                                 program summaries)
//	import "math/rand" / rand/v2   — random state
//	for ... := range m (m a map)   — Go randomizes map iteration order;
//	                                 iterate a slice or sorted keys
//
// An order-insensitive map range (a sum, a map-to-map copy, keys collected
// and then sorted) carries //unidblint:ignore determinism with its reason.
type Determinism struct {
	Scope []ScopeRef
}

// Name implements Analyzer.
func (Determinism) Name() string { return "determinism" }

// Doc implements Analyzer.
func (Determinism) Doc() string {
	return "no time.Now, math/rand, or map range in deterministic executor and cache-key paths"
}

// Run implements Analyzer.
func (dt Determinism) Run(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		if !inScope(dt.Scope, pass.Pkg.Path, pass.Fset.Position(file.Pos()).Filename) {
			continue
		}
		for _, imp := range file.Imports {
			if p, err := strconv.Unquote(imp.Path.Value); err == nil &&
				(p == "math/rand" || p == "math/rand/v2") {
				pass.Reportf(imp.Pos(), "import of %s in a deterministic executor path", p)
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch t := n.(type) {
			case *ast.SelectorExpr:
				if obj, ok := pass.Pkg.Info.Uses[t.Sel].(*types.Func); ok {
					if obj.Pkg() != nil && obj.Pkg().Path() == "time" && obj.Name() == "Now" {
						pass.Reportf(t.Pos(), "time.Now in a deterministic executor path")
					}
				}
			case *ast.CallExpr:
				dt.checkTaintedCall(pass, t)
			case *ast.RangeStmt:
				if tv, ok := pass.Pkg.Info.Types[t.X]; ok {
					if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
						pass.Reportf(t.Pos(),
							"range over a map in a deterministic executor path: iteration order is nondeterministic; iterate a slice or sorted keys")
					}
				}
			}
			return true
		})
	}
}

// checkTaintedCall consults the interprocedural summaries one level deep: a
// call from a scoped file into a function outside the scope that itself
// reads time.Now makes the caller nondeterministic just as surely as a
// direct read. In-scope callees are skipped — their own body is already
// flagged directly.
func (dt Determinism) checkTaintedCall(pass *Pass, call *ast.CallExpr) {
	if pass.Prog == nil {
		return
	}
	fn := resolvedCallee(pass.Pkg, call)
	if fn == nil {
		return
	}
	fi := pass.Prog.Funcs[fn]
	if fi == nil || !fi.CallsTimeNow || inScope(dt.Scope, fi.Pkg.Path, pass.Fset.Position(fi.Decl.Pos()).Filename) {
		return
	}
	pass.Reportf(call.Pos(), "call to %s reads the wall clock (time.Now at %s) in a deterministic executor path",
		fi.Name(), pass.Prog.shortPos(fi.TimeNowPos))
}

// resolvedCallee statically resolves a call expression to the declared
// function it invokes, or nil (interface calls, func values, builtins).
func resolvedCallee(pkg *Package, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = pkg.Info.Uses[fun]
	case *ast.SelectorExpr:
		obj = pkg.Info.Uses[fun.Sel]
	}
	fn, _ := obj.(*types.Func)
	return fn
}
