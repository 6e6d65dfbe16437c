package lint

import (
	"go/ast"
	"go/token"
)

// pathWalker is the one path-sensitive statement walker of the suite. It
// carries an abstract state S along every control-flow path of a function
// body, and its clients decide what the state means: the may-hold resource
// set of lockcheck and txnend (flow.go), the lock set and snapshot guard of
// the interprocedural summaries (callgraph.go), and syncbarrier's
// must-have-barrier flag. The walker owns the control flow — which
// statements run in order, which branch, where paths end and how they
// join — and the clients own the facts, through the hooks below.
//
// Approximations shared by every client:
//   - A branch point clones the state per branch and joins the branches
//     that fall through; a path that ends (return, break/continue/goto,
//     panic, os.Exit, log.Fatal) drops out of the join.
//   - A loop body may run zero times: its end state joins the entry state.
//   - A switch without default may match no case; a select always runs
//     one; case expressions are evaluated in order on the way in.
//   - Function literals are the clients' business (node, deferCall and
//     goCall see them unwalked).
type pathWalker[S pathState[S]] struct {
	// node applies one simple statement or expression subtree to the
	// state: an assignment, an expression statement, an if or switch
	// condition, a return result, a loop's range expression.
	node func(n ast.Node, st S)
	// refine, if set, narrows the then and else states of an if by its
	// condition (txnend's failed Begin, the summaries' snap == nil).
	refine func(cond ast.Expr, then, els S)
	// deferCall and goCall handle the call of a defer or go statement.
	deferCall, goCall func(call *ast.CallExpr, st S)
	// exit, if set, sees the state at every return (after its results)
	// and at the end of a body that falls off it.
	exit func(st S, pos token.Pos)
}

// pathState is a walker state: clone copies it for one branch; join makes
// the receiver, the state on entry to a branch point, the merge of the
// branches that fall through (at least one, in source order).
type pathState[S any] interface {
	clone() S
	join(live []S)
}

// walkBody walks a function body and calls exit if it falls off the end.
func (w *pathWalker[S]) walkBody(body *ast.BlockStmt, st S) {
	if !w.walkStmts(body.List, st) && w.exit != nil {
		w.exit(st, body.End())
	}
}

// walkStmts walks a statement list, reporting whether every path through
// it ended.
func (w *pathWalker[S]) walkStmts(stmts []ast.Stmt, st S) bool {
	for _, s := range stmts {
		if w.walkStmt(s, st) {
			return true
		}
	}
	return false
}

func (w *pathWalker[S]) walkStmt(s ast.Stmt, st S) bool {
	switch t := s.(type) {
	case nil:
		return false
	case *ast.BlockStmt:
		return w.walkStmts(t.List, st)
	case *ast.LabeledStmt:
		return w.walkStmt(t.Stmt, st)
	case *ast.ReturnStmt:
		for _, res := range t.Results {
			w.node(res, st)
		}
		if w.exit != nil {
			w.exit(st, t.Pos())
		}
		return true
	case *ast.BranchStmt:
		return true
	case *ast.DeferStmt:
		w.deferCall(t.Call, st)
	case *ast.GoStmt:
		w.goCall(t.Call, st)
	case *ast.IfStmt:
		w.walkStmt(t.Init, st)
		w.node(t.Cond, st)
		then, els := st.clone(), st.clone()
		if w.refine != nil {
			w.refine(t.Cond, then, els)
		}
		var live []S
		if !w.walkStmts(t.Body.List, then) {
			live = append(live, then)
		}
		if !w.walkStmt(t.Else, els) {
			live = append(live, els)
		}
		return join(st, live)
	case *ast.ForStmt:
		w.walkStmt(t.Init, st)
		if t.Cond != nil {
			w.node(t.Cond, st)
		}
		body := st.clone()
		w.walkStmts(t.Body.List, body)
		w.walkStmt(t.Post, body)
		return join(st, []S{body, st.clone()})
	case *ast.RangeStmt:
		w.node(t.X, st)
		body := st.clone()
		w.walkStmts(t.Body.List, body)
		return join(st, []S{body, st.clone()})
	case *ast.SwitchStmt:
		w.walkStmt(t.Init, st)
		if t.Tag != nil {
			w.node(t.Tag, st)
		}
		return w.walkCases(t.Body, st, !hasDefault(t.Body))
	case *ast.TypeSwitchStmt:
		w.walkStmt(t.Init, st)
		w.walkStmt(t.Assign, st)
		return w.walkCases(t.Body, st, !hasDefault(t.Body))
	case *ast.SelectStmt:
		return w.walkCases(t.Body, st, false)
	case *ast.ExprStmt:
		if isTerminalCall(t.X) {
			return true
		}
		w.node(t, st)
	default:
		// AssignStmt, DeclStmt, IncDecStmt, SendStmt, EmptyStmt...
		w.node(s, st)
	}
	return false
}

// walkCases walks each case clause from a clone of the entry state and
// joins the clauses that fall through; mayMatchNone adds the entry state
// itself (a switch without default). A select with no clause never falls
// through.
func (w *pathWalker[S]) walkCases(body *ast.BlockStmt, st S, mayMatchNone bool) bool {
	var live []S
	for _, cl := range body.List {
		var stmts []ast.Stmt
		switch c := cl.(type) {
		case *ast.CaseClause:
			for _, e := range c.List {
				w.node(e, st)
			}
			stmts = c.Body
		case *ast.CommClause:
			w.walkStmt(c.Comm, st)
			stmts = c.Body
		}
		cs := st.clone()
		if !w.walkStmts(stmts, cs) {
			live = append(live, cs)
		}
	}
	if mayMatchNone {
		live = append(live, st.clone())
	}
	return join(st, live)
}

// join merges the live branch states into st, reporting whether no branch
// fell through.
func join[S pathState[S]](st S, live []S) bool {
	if len(live) == 0 {
		return true
	}
	st.join(live)
	return false
}

func hasDefault(body *ast.BlockStmt) bool {
	for _, cl := range body.List {
		if c, ok := cl.(*ast.CaseClause); ok && c.List == nil {
			return true
		}
	}
	return false
}

// isTerminalCall reports whether an expression statement never returns:
// panic(...), os.Exit(...), log.Fatal*(...), (*testing.T).Fatal*.
func isTerminalCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		name := fun.Sel.Name
		return name == "Exit" || name == "Fatal" || name == "Fatalf" || name == "Fatalln" ||
			name == "Panic" || name == "Panicf" || name == "Panicln"
	}
	return false
}
