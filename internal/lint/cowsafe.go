package lint

import (
	"go/ast"
	"go/types"
)

// CowSafe guards the copy-on-write discipline of the versioned B+tree: a
// node reachable from more than one tree version (marked by its shared
// flag) must never be mutated in place — every writer path has to obtain a
// privately-owned node from the path-copy gate before touching it, or a
// snapshot taken yesterday starts seeing today's writes.
//
// The check is a provenance analysis per function. A write to a field of a
// node-typed value (assignment, op-assignment, ++/--, or copy into a node
// field's slice) is allowed only when
//
//   - the enclosing function is one of WriterFuncs — the low-level tree
//     mutators whose documented contract is "n must be mutable", enforced at
//     their call sites by this same analyzer (below), or
//   - the node being written is locally proven mutable: the written
//     expression's owner is a plain identifier assigned (directly or via
//     aliases) from a MintFuncs call (the copy-on-write gate), from a
//     &node{...} composite literal, or from new(node).
//
// Every node-typed argument of a WriterFuncs call must itself be proven
// mutable: a locally proven identifier as above, a &node{...} literal, or,
// inside a WriterFuncs function, a node parameter of that function (whose
// own callers were checked the same way). A field such as t.root is not
// tracked: bind the minted node to a local before passing it.
//
// Writes through anything other than a plain identifier (n.children[i].keys
// = ... reaches a child that mutable(n) did NOT make private) are always
// flagged outside WriterFuncs. Separately — and even inside WriterFuncs —
// the shared flag is monotonic: any Store on it with an argument other than
// the literal true is flagged, since un-sharing a node would re-expose it
// to in-place mutation while snapshots still reference it.
//
// Like every analyzer here this is a guard rail, not a proof: a slice
// header copied out of a node (ks := n.keys; ks[0] = …) escapes it. The
// fixture and the btree package itself keep node internals behind the
// helpers this analyzer watches.
type CowSafe struct {
	// Packages lists enforced package paths; empty enforces every package
	// (used by fixtures).
	Packages []string
	// NodeType is the name of the COW node type within the enforced
	// package; empty means "node".
	NodeType string
	// SharedField is the name of the monotonic shared flag field; empty
	// means "shared".
	SharedField string
	// MintFuncs are functions whose results are freshly-mutable nodes;
	// empty means {"mutable"}.
	MintFuncs []string
	// WriterFuncs are functions whose node parameters are mutable by
	// documented contract (their callers pass minted nodes).
	WriterFuncs []string
}

// Name implements Analyzer.
func (CowSafe) Name() string { return "cowsafe" }

// Doc implements Analyzer.
func (CowSafe) Doc() string {
	return "shared COW tree nodes must never be mutated in place; writers go through the path-copy gate"
}

// Run implements Analyzer.
func (cs CowSafe) Run(pass *Pass) {
	if len(cs.Packages) > 0 {
		found := false
		for _, p := range cs.Packages {
			if p == pass.Pkg.Path {
				found = true
				break
			}
		}
		if !found {
			return
		}
	}
	nodeType := cs.NodeType
	if nodeType == "" {
		nodeType = "node"
	}
	sharedField := cs.SharedField
	if sharedField == "" {
		sharedField = "shared"
	}
	mints := cs.MintFuncs
	if len(mints) == 0 {
		mints = []string{"mutable"}
	}
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			cs.checkFunc(pass, fn, nodeType, sharedField, mints)
		}
	}
}

// checkFunc applies both rules to one function body.
func (cs CowSafe) checkFunc(pass *Pass, fn *ast.FuncDecl, nodeType, sharedField string, mints []string) {
	exempt := inList(fn.Name.Name, cs.WriterFuncs) || inList(fn.Name.Name, mints)
	proven := cs.provenMutable(pass, fn, nodeType, mints)

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.CallExpr:
			// Monotonic shared flag: <node>.shared.Store(x) with x != true.
			if recv, isStore := sharedStoreCall(pass, st, nodeType, sharedField); isStore {
				if id, ok := st.Args[0].(*ast.Ident); !ok || id.Name != "true" {
					pass.Reportf(st.Pos(),
						"%s.%s.Store with a non-true argument: the shared flag is monotonic — un-sharing would re-expose the node to in-place mutation under live snapshots", recv, sharedField)
				}
				return true
			}
			if inList(calleeName(st), cs.WriterFuncs) {
				cs.checkWriterCall(pass, fn, st, proven, nodeType)
				return true
			}
			// copy(n.field, ...) mutates the node's backing array in place.
			if !exempt {
				if id, ok := st.Fun.(*ast.Ident); ok && id.Name == "copy" && len(st.Args) == 2 {
					cs.checkWrite(pass, st.Args[0], proven, nodeType, fn.Name.Name)
				}
			}
		case *ast.AssignStmt:
			if exempt {
				return true
			}
			for _, lhs := range st.Lhs {
				cs.checkWrite(pass, lhs, proven, nodeType, fn.Name.Name)
			}
		case *ast.IncDecStmt:
			if exempt {
				return true
			}
			cs.checkWrite(pass, st.X, proven, nodeType, fn.Name.Name)
		}
		return true
	})
}

// checkWrite flags lhs when it stores into a node field whose owner is not
// locally proven mutable.
func (cs CowSafe) checkWrite(pass *Pass, lhs ast.Expr, proven map[types.Object]bool, nodeType, fnName string) {
	owner, field, isNodeWrite := nodeFieldWrite(pass, lhs, nodeType)
	if !isNodeWrite {
		return
	}
	if id, ok := owner.(*ast.Ident); ok {
		if obj := pass.Pkg.Info.ObjectOf(id); obj != nil && proven[obj] {
			return
		}
		pass.Reportf(lhs.Pos(),
			"in-place write to %s.%s in %s: %s is not proven mutable here — obtain it from the copy-on-write gate first", id.Name, field, fnName, id.Name)
		return
	}
	pass.Reportf(lhs.Pos(),
		"in-place write to field %s of a non-local node expression in %s: bind the node via the copy-on-write gate before mutating it", field, fnName)
}

// checkWriterCall flags each node-typed argument of a WriterFuncs call
// that is not known to be mutable: it must be a locally proven identifier,
// a &node{...} literal, or — inside a WriterFuncs function — one of that
// function's own node parameters, which its callers were checked to mint.
func (cs CowSafe) checkWriterCall(pass *Pass, fn *ast.FuncDecl, call *ast.CallExpr, proven map[types.Object]bool, nodeType string) {
	callee := calleeName(call)
	inWriter := inList(fn.Name.Name, cs.WriterFuncs)
	for _, arg := range call.Args {
		if tv, ok := pass.Pkg.Info.Types[arg]; !ok || !isNodeType(tv.Type, nodeType, pass.Pkg.Path) {
			continue
		}
		switch a := ast.Unparen(arg).(type) {
		case *ast.Ident:
			if obj := pass.Pkg.Info.ObjectOf(a); obj != nil && (proven[obj] || inWriter && isParam(pass, fn, obj)) {
				continue
			}
			pass.Reportf(arg.Pos(),
				"%s(%s) in %s: %s is not proven mutable here — %s writes into it; obtain it from the copy-on-write gate first", callee, a.Name, fn.Name.Name, a.Name, callee)
			continue
		case *ast.UnaryExpr:
			if _, ok := a.X.(*ast.CompositeLit); ok {
				continue
			}
		}
		pass.Reportf(arg.Pos(), "%s called on a non-local node expression in %s: bind the node via the copy-on-write gate first", callee, fn.Name.Name)
	}
}

// isParam reports whether obj is one of fn's parameters.
func isParam(pass *Pass, fn *ast.FuncDecl, obj types.Object) bool {
	for _, field := range fn.Type.Params.List {
		for _, name := range field.Names {
			if pass.Pkg.Info.ObjectOf(name) == obj {
				return true
			}
		}
	}
	return false
}

// provenMutable computes the set of identifiers proven to reference a
// privately-owned node: assigned from a mint call, a &node{...} literal, or
// new(node), with alias propagation to a fixpoint.
func (cs CowSafe) provenMutable(pass *Pass, fn *ast.FuncDecl, nodeType string, mints []string) map[types.Object]bool {
	proven := map[types.Object]bool{}
	type alias struct{ dst, src types.Object }
	var aliases []alias
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			obj := pass.Pkg.Info.ObjectOf(id)
			if obj == nil {
				continue
			}
			switch rhs := as.Rhs[i].(type) {
			case *ast.CallExpr:
				if calleeName(rhs) != "" && inList(calleeName(rhs), mints) {
					proven[obj] = true
				} else if id, ok := rhs.Fun.(*ast.Ident); ok && id.Name == "new" && len(rhs.Args) == 1 {
					if t, ok := pass.Pkg.Info.Types[rhs.Args[0]]; ok && isNodeType(t.Type, nodeType, pass.Pkg.Path) {
						proven[obj] = true
					}
				}
			case *ast.UnaryExpr:
				if lit, ok := rhs.X.(*ast.CompositeLit); ok {
					if t, ok := pass.Pkg.Info.Types[lit]; ok && isNodeType(t.Type, nodeType, pass.Pkg.Path) {
						proven[obj] = true
					}
				}
			case *ast.Ident:
				if src := pass.Pkg.Info.ObjectOf(rhs); src != nil {
					aliases = append(aliases, alias{obj, src})
				}
			}
		}
		return true
	})
	for changed := true; changed; {
		changed = false
		for _, a := range aliases {
			if proven[a.src] && !proven[a.dst] {
				proven[a.dst] = true
				changed = true
			}
		}
	}
	return proven
}

// nodeFieldWrite walks an assignable expression inward and reports whether
// it ultimately stores into a field of a node value, returning the owner
// expression (the node the field belongs to) and the field name.
func nodeFieldWrite(pass *Pass, lhs ast.Expr, nodeType string) (ast.Expr, string, bool) {
	for {
		switch e := lhs.(type) {
		case *ast.ParenExpr:
			lhs = e.X
		case *ast.IndexExpr:
			lhs = e.X
		case *ast.StarExpr:
			lhs = e.X
		case *ast.SelectorExpr:
			if tv, ok := pass.Pkg.Info.Types[e.X]; ok && isNodeType(tv.Type, nodeType, pass.Pkg.Path) {
				return e.X, e.Sel.Name, true
			}
			lhs = e.X
		default:
			return nil, "", false
		}
	}
}

// sharedStoreCall matches <node expr>.<sharedField>.Store(x), returning a
// printable receiver description.
func sharedStoreCall(pass *Pass, call *ast.CallExpr, nodeType, sharedField string) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Store" || len(call.Args) != 1 {
		return "", false
	}
	inner, ok := sel.X.(*ast.SelectorExpr)
	if !ok || inner.Sel.Name != sharedField {
		return "", false
	}
	tv, ok := pass.Pkg.Info.Types[inner.X]
	if !ok || !isNodeType(tv.Type, nodeType, pass.Pkg.Path) {
		return "", false
	}
	if id, ok := inner.X.(*ast.Ident); ok {
		return id.Name, true
	}
	return "node", true
}

// isNodeType reports whether t (after pointer deref) is the named COW node
// type declared in the enforced package.
func isNodeType(t types.Type, nodeType, pkgPath string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == nodeType && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// calleeName returns the bare name of a call's callee (f() or recv.f()).
func calleeName(call *ast.CallExpr) string {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		return f.Sel.Name
	}
	return ""
}

func inList(name string, list []string) bool {
	for _, n := range list {
		if n == name {
			return true
		}
	}
	return false
}
