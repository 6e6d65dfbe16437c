package lint

import (
	"go/ast"
	"regexp"
	"slices"
	"sort"
)

// SyncBarrier guards the group-commit WAL rule: a commit may only be
// acknowledged after its bytes are durable. In code terms, every call to an
// acknowledgement function (one that releases waiting committers, e.g.
// finishWindow) — and every close() of a waiter channel — must be dominated
// on ALL paths by a call to a durability-barrier function (e.g.
// durableBarrier, which fsyncs or surfaces the error). The analyzer runs a
// must-have-barrier path walk over each scoped function:
//
//   - a barrier call sets the state on the current path;
//   - branch merges take the conjunction (a barrier only on one arm does not
//     survive the merge), loop bodies may run zero times, and switch/select
//     cases merge the same way;
//   - function literals, `go` statements, and deferred calls are analyzed
//     with a fresh (false) state — a goroutine or deferred acknowledgement
//     carries no ordering guarantee relative to the barrier;
//   - an acknowledgement reached while the state is false is reported.
//
// Acknowledging an ERROR is fine — the barrier function returns the fsync
// error and the acknowledgement hands it to waiters — the rule is purely
// that the barrier ran first, so no committer observes success (or failure)
// before the durability point. Functions named in Acks are themselves exempt
// (they are the acknowledgement primitive).
type SyncBarrier struct {
	// Scope lists (package path, file basenames) to enforce; every function
	// declared in a listed file is checked.
	Scope []ScopeRef
	// Barriers are function/method names whose call establishes durability.
	Barriers []string
	// Acks are function/method names whose call acknowledges waiters.
	Acks []string
	// AckChanPattern matches the rendered argument of close() calls that
	// release waiters (default `(?i)\bdone\b`, catching close(req.done)).
	AckChanPattern string
}

// Name implements Analyzer.
func (SyncBarrier) Name() string { return "syncbarrier" }

// Doc implements Analyzer.
func (SyncBarrier) Doc() string {
	return "commit acknowledgements must be dominated by the durability barrier on every path"
}

// Run implements Analyzer.
func (sb SyncBarrier) Run(pass *Pass) {
	pat := sb.AckChanPattern
	if pat == "" {
		pat = `(?i)\bdone\b`
	}
	chk := &sbCheck{
		pass:      pass,
		barriers:  sb.Barriers,
		acks:      sb.Acks,
		ackChanRx: regexp.MustCompile(pat),
	}
	chk.paths = pathWalker[*sbState]{node: chk.scanNode, deferCall: chk.scanFresh, goCall: chk.scanFresh}
	for _, file := range pass.Pkg.Files {
		if !inScope(sb.Scope, pass.Pkg.Path, pass.Fset.Position(file.Pos()).Filename) {
			continue
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if ok && fn.Body != nil && !slices.Contains(sb.Acks, fn.Name.Name) {
				chk.paths.walkBody(fn.Body, &sbState{})
			}
		}
	}
}

type sbCheck struct {
	pass      *Pass
	barriers  []string
	acks      []string
	ackChanRx *regexp.Regexp
	paths     pathWalker[*sbState]
}

// sbState is the must-have-barrier flag of one path.
type sbState struct{ barrier bool }

func (s *sbState) clone() *sbState { return &sbState{barrier: s.barrier} }

// join is the conjunction: a barrier on only one branch does not survive.
func (s *sbState) join(live []*sbState) {
	s.barrier = true
	for _, b := range live {
		s.barrier = s.barrier && b.barrier
	}
}

type sbClass int

const (
	sbNone sbClass = iota
	sbBarrier
	sbAck
)

// classify buckets one call as barrier, acknowledgement, or neither.
func (c *sbCheck) classify(call *ast.CallExpr) sbClass {
	var name string
	switch f := call.Fun.(type) {
	case *ast.Ident:
		name = f.Name
	case *ast.SelectorExpr:
		name = f.Sel.Name
	}
	switch {
	case name == "close" && len(call.Args) == 1:
		if c.ackChanRx.MatchString(exprText(c.pass.Fset, call.Args[0])) {
			return sbAck
		}
	case slices.Contains(c.barriers, name):
		return sbBarrier
	case slices.Contains(c.acks, name):
		return sbAck
	}
	return sbNone
}

// scanNode processes the calls of one simple statement or expression subtree
// in source order, updating the must-have-barrier state and reporting
// acknowledgements that precede the barrier. Function literals are analyzed
// as independent bodies with a fresh state.
func (c *sbCheck) scanNode(n ast.Node, st *sbState) {
	var calls []*ast.CallExpr
	ast.Inspect(n, func(x ast.Node) bool {
		switch t := x.(type) {
		case *ast.FuncLit:
			c.paths.walkStmts(t.Body.List, &sbState{})
			return false
		case *ast.CallExpr:
			calls = append(calls, t)
		}
		return true
	})
	sort.Slice(calls, func(i, j int) bool { return calls[i].Pos() < calls[j].Pos() })
	for _, call := range calls {
		switch c.classify(call) {
		case sbBarrier:
			st.barrier = true
		case sbAck:
			if !st.barrier {
				c.pass.Reportf(call.Pos(),
					"commit acknowledged before the durability barrier: %s reachable with no preceding %v call on this path",
					exprText(c.pass.Fset, call.Fun), c.barriers)
			}
		}
	}
}

// scanFresh analyzes a go or deferred call, whose execution order is
// decoupled from the surrounding path (a deferred acknowledgement may run
// on panic paths that never reached the barrier): no barrier from the
// enclosing path carries in, and none established inside carries out.
func (c *sbCheck) scanFresh(call *ast.CallExpr, _ *sbState) {
	c.scanNode(call, &sbState{})
}
