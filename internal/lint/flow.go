package lint

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"maps"
)

// The flow analysis, shared by lockcheck (mutexes) and txnend
// (transactions), runs the path walker (walk.go) over one function body.
// It tracks "resources" identified by string keys through acquire/release
// events and reports any resource that may still be held at an exit point
// (return or falling off the end of the function).
//
// Approximations, chosen to favor real engine bugs over noise:
//   - A deferred release satisfies the resource immediately (defers run at
//     every later exit).
//   - Branch join is a may-hold union: a resource held on any surviving
//     branch is held after the join.
//   - Function literals are analyzed as independent functions; a release
//     inside a *deferred* literal counts as a deferred release.

type flowKind int

const (
	flowAcquire flowKind = iota
	flowRelease
)

type flowEvent struct {
	key  string
	kind flowKind
	pos  token.Pos
}

// flowLeak is one resource that may escape an exit point unreleased.
type flowLeak struct {
	Key        string
	AcquirePos token.Pos
	ExitPos    token.Pos
}

// eventsFunc extracts the acquire/release events of a single simple
// statement or expression subtree. Implementations must not descend into
// *ast.FuncLit (the walker handles deferred literals itself).
type eventsFunc func(n ast.Node) []flowEvent

// branchFunc lets a discipline refine state on the two arms of an if: it is
// called with the condition and negated=false for the then-branch,
// negated=true for the else-branch, returning events applied to that arm
// only. txnend uses it to model `if err != nil { ... }` after a Begin: on
// the error arm the transaction was never created, so it owes no Commit.
type branchFunc func(cond ast.Expr, negated bool) []flowEvent

// heldSet is a may-hold set: each held key maps to where it was acquired.
type heldSet map[string]token.Pos

type flowState struct{ held heldSet }

func (s *flowState) clone() *flowState { return &flowState{held: maps.Clone(s.held)} }

func (s *flowState) join(live []*flowState) {
	s.held = heldSet{}
	for _, b := range live {
		maps.Copy(s.held, b.held)
	}
}

func (s *flowState) apply(evs []flowEvent) {
	for _, ev := range evs {
		if ev.kind == flowAcquire {
			s.held[ev.key] = ev.pos
		} else {
			delete(s.held, ev.key)
		}
	}
}

// runFlow analyzes one function body and returns possible leaks, deduped by
// acquire position (the first exit that leaks wins). branch may be nil.
func runFlow(body *ast.BlockStmt, events eventsFunc, branch branchFunc) []flowLeak {
	var leaks []flowLeak
	seen := map[token.Pos]bool{}
	w := &pathWalker[*flowState]{
		node:      func(n ast.Node, st *flowState) { st.apply(events(n)) },
		deferCall: func(call *ast.CallExpr, st *flowState) { st.apply(deferredReleases(call, events)) },
		// Arguments are evaluated now; the body runs later.
		goCall: func(call *ast.CallExpr, st *flowState) {
			for _, arg := range call.Args {
				st.apply(events(arg))
			}
		},
		exit: func(st *flowState, exit token.Pos) {
			for key, acq := range st.held {
				if !seen[acq] {
					seen[acq] = true
					leaks = append(leaks, flowLeak{Key: key, AcquirePos: acq, ExitPos: exit})
				}
			}
		},
	}
	if branch != nil {
		w.refine = func(cond ast.Expr, then, els *flowState) {
			then.apply(branch(cond, false))
			els.apply(branch(cond, true))
		}
	}
	w.walkBody(body, &flowState{held: heldSet{}})
	return leaks
}

// deferredReleases returns the releases inside a deferred call (direct
// method call or function literal body), which satisfy their resources at
// once; acquires inside a deferred body are ignored.
func deferredReleases(call *ast.CallExpr, events eventsFunc) []flowEvent {
	var out []flowEvent
	scan := func(n ast.Node) {
		for _, ev := range events(n) {
			if ev.kind == flowRelease {
				out = append(out, ev)
			}
		}
	}
	lit, ok := call.Fun.(*ast.FuncLit)
	if !ok {
		scan(call)
		return out
	}
	// defer func() { ...; mu.Unlock() }(): scan the literal body's calls
	// (the events func skips nested literals).
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		if c, isCall := n.(*ast.CallExpr); isCall {
			scan(c)
			return false
		}
		return true
	})
	return out
}

// exprText renders an expression as compact source text — the walker's
// resource key for "same lock" (t.e.mu, lm.mu, ...).
func exprText(fset *token.FileSet, e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, e); err != nil {
		return ""
	}
	return buf.String()
}
