package lint

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"strconv"
)

// CacheKey guards the determinism of cache validity keys. The CSR cache's
// token must be a pure function of the snapshot cut it describes (drop
// epoch plus the graph keyspaces' version vector), and anything compiled
// into a plan-cached pipeline a pure function of the query text, or one
// graph state or one query stops mapping to one entry — a silent hit-rate
// bug that no correctness test catches, because every cached value is
// still valid. In the configured scope it forbids:
//
//	range over a map     — Go randomizes iteration order, so any map range
//	                       in a key path risks order-dependent output;
//	                       collect-then-sort exceptions must carry
//	                       //unidblint:ignore cachekey with a reason
//	time.Now(...)        — a clock read makes the key or validity decision
//	                       time-dependent; callers pass time.Time in so the
//	                       decision point stays testable and pure
//	import "math/rand"   — random state has no business near a cache key
//
// Unlike determinism's narrower map-range-into-append check, map ranges are
// banned outright here (as in parallel-merge): key construction is ordered
// by definition.
type CacheKey struct {
	// Scope lists (package path, file basenames) to enforce in; an empty
	// file list enforces the whole package.
	Scope []ScopeRef
}

// Name implements Analyzer.
func (CacheKey) Name() string { return "cachekey" }

// Doc implements Analyzer.
func (CacheKey) Doc() string {
	return "cache-key paths must be pure: no map ranges, time.Now, or math/rand"
}

// Run implements Analyzer.
func (ck CacheKey) Run(pass *Pass) {
	var files []string
	found := false
	for _, ref := range ck.Scope {
		if ref.Pkg == pass.Pkg.Path {
			found, files = true, ref.Files
			break
		}
	}
	if !found {
		return
	}
	inScope := func(f *ast.File) bool {
		if len(files) == 0 {
			return true
		}
		base := filepath.Base(pass.Fset.Position(f.Pos()).Filename)
		for _, want := range files {
			if base == want {
				return true
			}
		}
		return false
	}
	for _, file := range pass.Pkg.Files {
		if !inScope(file) {
			continue
		}
		for _, imp := range file.Imports {
			if p, err := strconv.Unquote(imp.Path.Value); err == nil &&
				(p == "math/rand" || p == "math/rand/v2") {
				pass.Reportf(imp.Pos(), "import of %s in a cache-key path", p)
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch t := n.(type) {
			case *ast.SelectorExpr:
				if obj, ok := pass.Pkg.Info.Uses[t.Sel].(*types.Func); ok {
					if obj.Pkg() != nil && obj.Pkg().Path() == "time" && obj.Name() == "Now" {
						pass.Reportf(t.Pos(), "time.Now in a cache-key path: pass the instant in from the caller")
					}
				}
			case *ast.RangeStmt:
				tv, ok := pass.Pkg.Info.Types[t.X]
				if !ok {
					return true
				}
				if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
					return true
				}
				pass.Reportf(t.Pos(),
					"range over a map in a cache-key path: iteration order is nondeterministic; collect and sort the keys")
			}
			return true
		})
	}
}
