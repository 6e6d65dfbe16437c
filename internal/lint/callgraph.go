package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"sort"
	"strings"
)

// This file is the whole-program half of the lint suite: where lockcheck and
// txnend walk one function body at a time, the Program here ties every
// loaded package together into a call graph with per-function summaries
// (collected by the shared path walker, walk.go), so analyzers can
// ask interprocedural questions — "which mutexes may this call acquire,
// transitively?", "can a snapshot read path ever reach the lock manager?" —
// that no per-function walker can answer. The graph is built once per Runner
// invocation and shared by every analyzer through Pass.Prog.
//
// Resolution is static and conservative: direct calls and method calls on
// concrete receivers resolve through go/types object identity (the loader
// caches packages, so a callee seen from two importers is one *types.Func);
// calls through interfaces, function values, and fields of func type do not
// resolve and simply contribute no edges. Function literals are analyzed
// inline at their definition point with the enclosing function's lock state —
// except literals launched with `go`, which start with an empty held set
// (a goroutine does not inherit its parent's locks).

// Program is the whole-program view: every analyzed package, a summary per
// declared function, and the lock-class configuration used to canonicalize
// mutex identities.
type Program struct {
	Fset     *token.FileSet
	Packages []*Package
	// Funcs maps a declared function/method object to its summary. Only
	// functions declared in the analyzed packages appear; stdlib callees
	// resolve to nil and contribute nothing.
	Funcs map[*types.Func]*FuncInfo
	Locks LockClasses

	// funcList holds the same summaries in deterministic (position) order —
	// every whole-program iteration must use it, never the map.
	funcList []*FuncInfo
}

// FuncInfo is one function's interprocedural summary.
type FuncInfo struct {
	Obj  *types.Func
	Pkg  *Package
	Decl *ast.FuncDecl

	// Acquires lists every mutex Lock/RLock site with the lock classes held
	// at that point and the snapshot-guard context it sits in.
	Acquires []lockSite
	// Calls lists every statically resolved call site with held locks and
	// guard context. Callees outside the program resolve to no FuncInfo.
	Calls []callSite

	// DropsError reports a non-deferred call whose error result is discarded
	// (bare call or blank assign) somewhere in the body.
	DropsError bool
	DropPos    token.Pos
	// CallsTimeNow reports a direct time.Now() read in the body.
	CallsTimeNow bool
	TimeNowPos   token.Pos

	// mayAcquire is the transitive closure of lock classes this function may
	// acquire (directly or through any resolved callee), with a witness
	// position inside this function (the acquire or the call that leads
	// there). Filled by the fixed point in summary.go.
	mayAcquire map[string]token.Pos
}

// Name renders the function as "Type.Method" or "Func" for diagnostics and
// config references.
func (fi *FuncInfo) Name() string { return funcDisplayName(fi.Obj) }

func funcDisplayName(fn *types.Func) string {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return named.Obj().Name() + "." + fn.Name()
		}
	}
	return fn.Name()
}

// FuncRef names a function for configuration: Name is "Func" for a
// package-level function or "Type.Method" for a method (pointer and value
// receivers are not distinguished).
type FuncRef struct {
	Pkg  string
	Name string
}

// FuncNamed resolves a FuncRef against the program, or nil.
func (p *Program) FuncNamed(ref FuncRef) *FuncInfo {
	for _, fi := range p.funcList {
		if fi.Pkg.Path == ref.Pkg && fi.Name() == ref.Name {
			return fi
		}
	}
	return nil
}

// snapGuard is the snapshot-branch context of a site: whether control flow
// reached it under a proven "<x>.snap == nil" (locked path) or
// "<x>.snap != nil" (snapshot path) condition.
type snapGuard uint8

const (
	snapUnknown snapGuard = iota
	snapIsNil             // dominated by a snap == nil test: the 2PL path
	snapNonNil            // dominated by a snap != nil test: the MVCC path
)

// heldLock is one lock class held at a site, with its acquire position.
type heldLock struct {
	class string
	pos   token.Pos
}

// lockSite is one mutex acquisition.
type lockSite struct {
	class string
	pos   token.Pos
	held  []heldLock
	guard snapGuard
}

// callSite is one statically resolved call.
type callSite struct {
	callee *types.Func
	pos    token.Pos
	held   []heldLock
	guard  snapGuard
}

// BuildProgram computes summaries for every function declared in pkgs.
// guardField names the struct field whose nil-ness separates the snapshot
// read path from the locked path ("snap" in this repository; "" disables
// guard tracking).
func BuildProgram(fset *token.FileSet, pkgs []*Package, locks LockClasses, guardField string) *Program {
	p := &Program{
		Fset:     fset,
		Packages: pkgs,
		Funcs:    map[*types.Func]*FuncInfo{},
		Locks:    locks,
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fi := &FuncInfo{Obj: obj, Pkg: pkg, Decl: fd, mayAcquire: map[string]token.Pos{}}
				w := newFactWalker(pkg, fset, locks, guardField, fi)
				w.paths.walkBody(fd.Body, &factState{held: heldSet{}})
				p.Funcs[obj] = fi
				p.funcList = append(p.funcList, fi)
			}
		}
	}
	sort.Slice(p.funcList, func(i, j int) bool {
		a, b := p.funcList[i], p.funcList[j]
		if a.Pkg.Path != b.Pkg.Path {
			return a.Pkg.Path < b.Pkg.Path
		}
		return a.Decl.Pos() < b.Decl.Pos()
	})
	p.computeMayAcquire()
	return p
}

// factState is the summary walk's state: the may-held lock set and the
// current snapshot-guard context.
type factState struct {
	held  heldSet
	guard snapGuard
}

func (s *factState) clone() *factState {
	return &factState{held: maps.Clone(s.held), guard: s.guard}
}

// join is the may-hold union of the live branches; the guard survives when
// every live branch agrees on it (an if whose other arm returned leaves
// that arm's opposite proven), and stays the entry guard otherwise.
func (s *factState) join(live []*factState) {
	s.held = heldSet{}
	agree := true
	for _, b := range live {
		maps.Copy(s.held, b.held)
		agree = agree && b.guard == live[0].guard
	}
	if agree {
		s.guard = live[0].guard
	}
}

func (s *factState) heldSnapshot() []heldLock {
	if len(s.held) == 0 {
		return nil
	}
	out := make([]heldLock, 0, len(s.held))
	for class, pos := range s.held {
		out = append(out, heldLock{class: class, pos: pos})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].class < out[j].class })
	return out
}

// factWalker extracts one function's summary as a client of the path
// walker: it tracks a may-hold lock set forward (a deferred Unlock keeps
// the lock held for the rest of the body — the opposite reading from leak
// checking) and a snapshot-guard context refined by if conditions.
type factWalker struct {
	pkg        *Package
	fset       *token.FileSet
	locks      LockClasses
	guardField string
	fi         *FuncInfo
	paths      pathWalker[*factState]
}

func newFactWalker(pkg *Package, fset *token.FileSet, locks LockClasses, guardField string, fi *FuncInfo) *factWalker {
	w := &factWalker{pkg: pkg, fset: fset, locks: locks, guardField: guardField, fi: fi}
	w.paths = pathWalker[*factState]{node: w.node, refine: w.refine, deferCall: w.walkDefer, goCall: w.walkGo}
	return w
}

// node records the facts of one simple statement or expression.
func (w *factWalker) node(n ast.Node, st *factState) {
	switch t := n.(type) {
	case *ast.ExprStmt:
		w.checkDroppedError(t)
	case *ast.AssignStmt:
		w.checkBlankError(t)
	}
	w.scanExpr(n, st)
}

// refine sets the guard each arm of an if proves.
func (w *factWalker) refine(cond ast.Expr, then, els *factState) {
	thenGuard, elseGuard := w.condGuards(cond)
	if thenGuard != snapUnknown {
		then.guard = thenGuard
	}
	if elseGuard != snapUnknown {
		els.guard = elseGuard
	}
}

// walkGo models a go statement: arguments are evaluated now, in the current
// state; the body runs on a fresh goroutine that holds none of our locks.
func (w *factWalker) walkGo(call *ast.CallExpr, st *factState) {
	for _, arg := range call.Args {
		w.scanExpr(arg, st)
	}
	fresh := &factState{held: heldSet{}, guard: st.guard}
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		w.paths.walkStmts(lit.Body.List, fresh)
	} else {
		w.handleCall(call, fresh)
	}
}

// walkDefer models a deferred call. A deferred Unlock does NOT release the
// lock for the remainder of the body — it runs at exit — so it is simply
// skipped. Deferred plain calls and literal bodies run with (approximately)
// the current state; their effects on the held set are discarded.
func (w *factWalker) walkDefer(call *ast.CallExpr, st *factState) {
	for _, arg := range call.Args {
		w.scanExpr(arg, st)
	}
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		w.paths.walkStmts(lit.Body.List, st.clone())
		return
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && isMutexMethod(&Pass{Pkg: w.pkg, Fset: w.fset}, sel) {
		switch sel.Sel.Name {
		case "Unlock", "RUnlock", "Lock", "RLock":
			return
		}
	}
	w.handleCall(call, st.clone())
}

// scanExpr records calls, lock events, and time.Now reads inside an
// expression (or simple statement) subtree, in syntactic order. Function
// literals are walked inline against a copy of the current state.
func (w *factWalker) scanExpr(n ast.Node, st *factState) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(nd ast.Node) bool {
		switch t := nd.(type) {
		case *ast.FuncLit:
			w.paths.walkStmts(t.Body.List, st.clone())
			return false
		case *ast.CallExpr:
			w.handleCall(t, st)
			// Descend: arguments may contain further calls. handleCall does
			// not recurse itself, so nothing is double-counted except that
			// the callee selector is revisited harmlessly.
			return true
		case *ast.SelectorExpr:
			if fn, ok := w.pkg.Info.Uses[t.Sel].(*types.Func); ok {
				if fn.Pkg() != nil && fn.Pkg().Path() == "time" && fn.Name() == "Now" && !w.fi.CallsTimeNow {
					w.fi.CallsTimeNow = true
					w.fi.TimeNowPos = t.Pos()
				}
			}
		}
		return true
	})
}

// handleCall classifies one call expression: a mutex Lock/Unlock updates the
// held set (and records an acquire site); anything else that statically
// resolves to a function object is recorded as a call site.
func (w *factWalker) handleCall(call *ast.CallExpr, st *factState) {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		switch sel.Sel.Name {
		case "Lock", "RLock", "Unlock", "RUnlock":
			if isMutexMethod(&Pass{Pkg: w.pkg, Fset: w.fset}, sel) {
				class, local := w.locks.classify(w.pkg, sel.X)
				if local || class == "" {
					return
				}
				switch sel.Sel.Name {
				case "Lock", "RLock":
					w.fi.Acquires = append(w.fi.Acquires, lockSite{
						class: class,
						pos:   call.Pos(),
						held:  st.heldSnapshot(),
						guard: st.guard,
					})
					st.held[class] = call.Pos()
				case "Unlock", "RUnlock":
					delete(st.held, class)
				}
				return
			}
		}
	}
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = w.pkg.Info.Uses[fun]
	case *ast.SelectorExpr:
		obj = w.pkg.Info.Uses[fun.Sel]
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return
	}
	w.fi.Calls = append(w.fi.Calls, callSite{
		callee: fn,
		pos:    call.Pos(),
		held:   st.heldSnapshot(),
		guard:  st.guard,
	})
}

// condGuards extracts the snapshot-guard implications of an if condition:
// what is proven inside the then-branch and inside the else-branch.
//
//	x.snap == nil     → then: isNil,   else: nonNil
//	x.snap != nil     → then: nonNil,  else: isNil
//	A && B            → then: guards of both; else: nothing provable
//	A || B            → then: nothing provable; else: guards of both
func (w *factWalker) condGuards(cond ast.Expr) (then, els snapGuard) {
	if w.guardField == "" {
		return snapUnknown, snapUnknown
	}
	bin, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok {
		return snapUnknown, snapUnknown
	}
	switch bin.Op {
	case token.LAND:
		t1, _ := w.condGuards(bin.X)
		t2, _ := w.condGuards(bin.Y)
		return combineGuards(t1, t2), snapUnknown
	case token.LOR:
		_, e1 := w.condGuards(bin.X)
		_, e2 := w.condGuards(bin.Y)
		return snapUnknown, combineGuards(e1, e2)
	case token.EQL, token.NEQ:
		var other ast.Expr
		switch {
		case w.isNil(bin.Y):
			other = bin.X
		case w.isNil(bin.X):
			other = bin.Y
		default:
			return snapUnknown, snapUnknown
		}
		if !w.isGuardField(other) {
			return snapUnknown, snapUnknown
		}
		if bin.Op == token.EQL {
			return snapIsNil, snapNonNil
		}
		return snapNonNil, snapIsNil
	}
	return snapUnknown, snapUnknown
}

func combineGuards(a, b snapGuard) snapGuard {
	if a != snapUnknown {
		return a
	}
	return b
}

func (w *factWalker) isNil(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || id.Name != "nil" {
		return false
	}
	_, isNil := w.pkg.Info.Uses[id].(*types.Nil)
	return isNil
}

// isGuardField reports whether e is a selector (or ident) whose final name is
// the configured guard field ("t.snap", "txn.snap", ...).
func (w *factWalker) isGuardField(e ast.Expr) bool {
	switch t := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		return t.Sel.Name == w.guardField
	case *ast.Ident:
		return t.Name == w.guardField
	}
	return false
}

// checkDroppedError marks the summary when a bare call's result set includes
// a discarded error (same shape errdrop reports intraprocedurally).
func (w *factWalker) checkDroppedError(stmt *ast.ExprStmt) {
	call, ok := stmt.X.(*ast.CallExpr)
	if !ok || w.fi.DropsError {
		return
	}
	pass := &Pass{Pkg: w.pkg, Fset: w.fset}
	if errResultIndex(pass, call) >= 0 {
		w.fi.DropsError = true
		w.fi.DropPos = call.Pos()
	}
}

// checkBlankError marks the summary when an assignment discards an error
// component into the blank identifier.
func (w *factWalker) checkBlankError(as *ast.AssignStmt) {
	if w.fi.DropsError {
		return
	}
	pass := &Pass{Pkg: w.pkg, Fset: w.fset}
	if len(as.Rhs) == 1 {
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return
		}
		idx := errResultIndex(pass, call)
		if idx < 0 || idx >= len(as.Lhs) {
			return
		}
		if id, ok := as.Lhs[idx].(*ast.Ident); ok && id.Name == "_" {
			w.fi.DropsError = true
			w.fi.DropPos = as.Pos()
		}
		return
	}
	if len(as.Rhs) != len(as.Lhs) {
		return
	}
	for i, rhs := range as.Rhs {
		call, ok := rhs.(*ast.CallExpr)
		if !ok || errResultIndex(pass, call) < 0 {
			continue
		}
		if id, ok := as.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
			w.fi.DropsError = true
			w.fi.DropPos = as.Pos()
			return
		}
	}
}

// --- lock classes ---

// LockClassRef declares one mutex the engine cares about: the struct field
// (or package-level variable, Type == "") that holds it, and the canonical
// class name used in the order table and diagnostics.
type LockClassRef struct {
	Pkg   string // import path of the declaring package
	Type  string // struct type name; "" for a package-level mutex variable
	Field string // field or variable name
	Class string // canonical name ("engine.commitMu", "wal.log.mu", ...)
}

// LockClasses resolves mutex expressions to canonical class names.
type LockClasses struct {
	Refs []LockClassRef
}

// classify maps the receiver expression of a Lock/Unlock call ("x.mu" in
// "x.mu.Lock()") to a lock class. local reports a function-local mutex
// variable, which cannot participate in a global acquisition order and is
// excluded from analysis. Undeclared non-local mutexes get a synthesized
// descriptive name so lockorder can report them as missing from the table.
func (lc LockClasses) classify(pkg *Package, mutex ast.Expr) (class string, local bool) {
	switch e := ast.Unparen(mutex).(type) {
	case *ast.SelectorExpr:
		// Field selection: resolve the owning named struct type.
		if sel, ok := pkg.Info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			recv := sel.Recv()
			if ptr, ok := recv.(*types.Pointer); ok {
				recv = ptr.Elem()
			}
			if named, ok := recv.(*types.Named); ok && named.Obj().Pkg() != nil {
				return lc.fieldClass(named.Obj().Pkg().Path(), named.Obj().Name(), sel.Obj().Name()), false
			}
			return "", true
		}
		// Qualified package-level variable: pkg.Mu.
		if v, ok := pkg.Info.Uses[e.Sel].(*types.Var); ok && v.Pkg() != nil && !v.IsField() {
			if v.Parent() == v.Pkg().Scope() {
				return lc.fieldClass(v.Pkg().Path(), "", v.Name()), false
			}
		}
		return "", true
	case *ast.Ident:
		obj := pkg.Info.Uses[e]
		if obj == nil {
			obj = pkg.Info.Defs[e]
		}
		v, ok := obj.(*types.Var)
		if !ok || v.Pkg() == nil {
			return "", true
		}
		if v.Parent() == v.Pkg().Scope() {
			return lc.fieldClass(v.Pkg().Path(), "", v.Name()), false
		}
		return "", true // function-local mutex
	}
	return "", true
}

func (lc LockClasses) fieldClass(pkgPath, typeName, field string) string {
	for _, ref := range lc.Refs {
		if ref.Pkg == pkgPath && ref.Type == typeName && ref.Field == field {
			return ref.Class
		}
	}
	short := pkgPath
	if i := strings.LastIndex(short, "/"); i >= 0 {
		short = short[i+1:]
	}
	if typeName == "" {
		return short + "." + field
	}
	return short + "." + typeName + "." + field
}

// ClassIndex returns the position of class in the declared order, or -1.
func classIndex(order []string, class string) int {
	for i, c := range order {
		if c == class {
			return i
		}
	}
	return -1
}
