package query

// Decomposed aggregate states for COLLECT ... INTO groups.
//
// PR 3 left a refinement open: the parallel COLLECT builds per-chunk partial
// group tables, but SUM/MIN/MAX/LENGTH over the INTO array still folded the
// whole concatenated member list at projection time, because per-chunk
// floating-point partial sums are not byte-identical to the serial
// left-to-right fold. This file closes that gap where byte-identity CAN be
// proven:
//
//   - LENGTH/COUNT decompose as sums of per-chunk element counts — always
//     exact.
//   - MIN/MAX decompose as per-chunk bests merged first-wins in chunk order —
//     mmvalue.Compare is a total order and the serial scan keeps the first
//     minimal/maximal element, which the left-preferring merge reproduces for
//     any element types.
//   - SUM decomposes into per-chunk integer partial sums, but only while
//     every numeric element is a KindInt and every prefix sum (in the exact
//     serial fold order) stays within ±(2^53-1). Under that guard each float64
//     addition the serial fold performs is exact, so Int(partial-sum total) is
//     bit-for-bit the serial result. Any float element, oversized value, or
//     out-of-range prefix flips the state to invalid and the projection falls
//     back to the ordinary fold — correctness never depends on the guard,
//     only the shortcut does.
//
// Wiring: Pipeline.analyze detects decomposable aggregate calls downstream of
// a COLLECT ... INTO (annotateCollectAggs), records an aggSpec per distinct
// (fn, path) on the clause, and stamps each FuncCall with the hidden binding
// name. Both the serial and the parallel COLLECT paths accumulate the same
// aggState per group and buildCollectRows binds the finished value under the
// hidden name ("\x00"-prefixed, unreachable from either parser; env.allVars
// skips it so INTO member objects are unchanged). evalFunc consults the
// hidden binding before evaluating its argument; mmvalue.Null marks an
// invalidated state and routes evaluation down the normal fold.
//
// Late materialization: when those annotated calls are the only readers of
// the group variable (annotateCollectAggs sets aggOnly), grouping folds each
// row into the states without building its member object (observeRow), and
// buildCollectRows binds the INTO array — built then from the group's member
// rows — only for a group with a Null state, whose calls fall back to it.

import (
	"strings"

	"repro/internal/mmvalue"
)

// maxExactInt is the largest magnitude for which int64 arithmetic and the
// serial float64 fold provably agree: every integer in [-(2^53-1), 2^53-1] is
// exactly representable as a float64, and additions whose operands and result
// all lie in that range round to the exact value.
const maxExactInt = int64(1)<<53 - 1

// aggSpec is one decomposable aggregate detected at compile time.
type aggSpec struct {
	fn     string   // "LENGTH", "SUM", "MIN" or "MAX" (COUNT normalizes to LENGTH)
	path   []string // field chain navigated from each member object; empty = the member itself
	hidden string   // "\x00"-prefixed env name carrying the precomputed value
}

// hiddenAggName builds the env binding name for a spec. The NUL prefix keeps
// it out of reach of both parsers (identifiers cannot contain NUL), and the
// full (fn, var, path) triple keys it so distinct aggregates never collide.
func hiddenAggName(fn, varName string, path []string) string {
	return "\x00agg\x00" + fn + "\x00" + varName + "\x00" + strings.Join(path, "\x00")
}

// annotateCollectAggs scans the clauses downstream of a COLLECT ... INTO for
// aggregate calls over the group variable, annotating each call with its
// hidden binding name and recording the specs on the clause. The scan stops
// once a clause rebinds the group variable: past that point the variable no
// longer names this clause's group array, so calls stay unannotated and
// evaluate normally (stale hidden bindings deeper in the env chain are only
// ever consulted by annotated calls).
//
// It also decides whether the clause is aggregate-only (see aggOnly).
func annotateCollectAggs(col *CollectClause, rest []Clause) {
	if col.Into == "" {
		return
	}
	col.aggOnly = true
	for _, cl := range rest {
		// A clause's expressions evaluate before its binding takes effect
		// (LET g = SUM(g[*].x) reads the old g), so annotate first.
		exprs := clauseExprs(cl)
		for _, e := range exprs {
			annotateAggExprs(col, e)
		}
		if later, ok := cl.(*CollectClause); ok && later.Into != "" {
			col.aggOnly = false // its member objects would capture the group array
		}
		for _, e := range exprs {
			if !readsIntoOnlyViaAggs(col, e) {
				col.aggOnly = false
			}
		}
		if clauseRebinds(cl, col.Into) {
			break
		}
	}
	for _, sp := range col.aggSpecs {
		if len(sp.path) == 0 && sp.fn != "LENGTH" {
			col.aggOnly = false // MIN(g), SUM(g): the state folds the member objects themselves
		}
	}
}

// readsIntoOnlyViaAggs reports whether every reference to col.Into in e is
// the argument of a call annotated with one of col's aggSpecs, and e holds
// no subquery (walkExpr does not enter one, so it could read the group
// variable unseen).
func readsIntoOnlyViaAggs(col *CollectClause, e Expr) bool {
	covered := map[*VarRef]bool{}
	ok := true
	walkExpr(e, func(x Expr) {
		switch t := x.(type) {
		case *SubqueryExpr:
			ok = false
		case *FuncCall:
			if t.aggName != "" && col.hasAggSpec(t.aggName) {
				covered[aggArgRoot(t.Args[0])] = true
			}
		default:
			// Variable references are checked by the second walk.
		}
	})
	walkExpr(e, func(x Expr) {
		if v, isVar := x.(*VarRef); isVar && !v.Param && v.Name == col.Into && !covered[v] {
			ok = false
		}
	})
	return ok
}

// hasAggSpec reports whether one of the clause's specs binds hidden.
func (col *CollectClause) hasAggSpec(hidden string) bool {
	for _, sp := range col.aggSpecs {
		if sp.hidden == hidden {
			return true
		}
	}
	return false
}

// aggArgRoot returns the variable an aggregate argument accepted by
// aggArgPath navigates from.
func aggArgRoot(e Expr) *VarRef {
	for {
		switch t := e.(type) {
		case *FieldAccess:
			e = t.Base
		case *IndexAccess:
			e = t.Base
		case *VarRef:
			return t
		default:
			return nil
		}
	}
}

// clauseRebinds reports whether executing cl introduces a new binding of
// name, shadowing the COLLECT's group variable for everything downstream.
func clauseRebinds(cl Clause, name string) bool {
	switch t := cl.(type) {
	case *ForClause:
		return t.Var == name
	case *LetClause:
		return t.Var == name
	case *CollectClause:
		if t.Into == name {
			return true
		}
		for _, v := range t.Vars {
			if v == name {
				return true
			}
		}
	default:
		// FILTER/SORT/LIMIT/RETURN and the DML clauses read bindings but
		// never introduce one.
	}
	return false
}

// annotateAggExprs walks one clause expression (walkExpr stays shallow at
// subqueries — a nested pipeline has its own binding scope and its own
// analyze pass) and annotates decomposable aggregate calls over col.Into.
func annotateAggExprs(col *CollectClause, e Expr) {
	walkExpr(e, func(x Expr) {
		fc, ok := x.(*FuncCall)
		if !ok || fc.Star || len(fc.Args) != 1 || fc.aggName != "" {
			return
		}
		fn := fc.Name
		switch fn {
		case "COUNT":
			fn = "LENGTH"
		case "LENGTH", "SUM", "MIN", "MAX":
		default:
			return
		}
		varName, path, ok := aggArgPath(fc.Args[0])
		if !ok || varName != col.Into {
			return
		}
		sp := aggSpec{fn: fn, path: path, hidden: hiddenAggName(fn, varName, path)}
		fc.aggName = sp.hidden
		if !col.hasAggSpec(sp.hidden) {
			col.aggSpecs = append(col.aggSpecs, sp)
		}
	})
}

// aggArgPath recognizes aggregate arguments of the shape v, v[*].a.b, or
// v.a.b — a variable reference navigated by dot fields, with [*] expansions
// allowed anywhere in the chain. On an array, [*] is the identity and dot
// navigation maps element-wise with null-skipping and one-level flattening
// (navigateField), so the whole-array navigation decomposes exactly into the
// concatenation of per-member navigations (navElems) in member order.
func aggArgPath(e Expr) (varName string, path []string, ok bool) {
	var rev []string
	for {
		switch t := e.(type) {
		case *FieldAccess:
			rev = append(rev, t.Name)
			e = t.Base
		case *IndexAccess:
			if !t.Star {
				return "", nil, false
			}
			e = t.Base
		case *VarRef:
			if t.Param {
				return "", nil, false
			}
			path = make([]string, len(rev))
			for i, n := range rev {
				path[len(rev)-1-i] = n
			}
			return t.Name, path, true
		default:
			return "", nil, false
		}
	}
}

// navElems visits, depth first, the elements one member contributes to the
// navigated group array, applying exactly navigateField's array rule per
// step: map the field access over the working elements, drop nulls, flatten
// one array level. Depth-first order is the level-by-level order: each
// element's descendants stay contiguous and in element order.
func navElems(member mmvalue.Value, path []string, visit func(mmvalue.Value)) {
	if len(path) == 0 {
		visit(member)
		return
	}
	colElems(navigateField(member, path[0]), path[1:], visit)
}

// aggState is one group's running partial for one aggSpec. States accumulate
// member-by-member on whichever goroutine owns the group's chunk and merge in
// ascending chunk order, mirroring the serial fold order exactly.
type aggState struct {
	count int64 // LENGTH: elements contributed so far

	// SUM: integer running sum plus the extremes every prefix sum reached,
	// tracked so merging chunks can re-check that each global prefix stays in
	// the float64-exact range. ok latches false on any violation.
	ok           bool
	sum          int64
	loPre, hiPre int64

	// MIN/MAX: first-wins best element seen so far.
	best    mmvalue.Value
	hasBest bool
}

// newAggStates allocates one state per spec with SUM validity latched on.
func newAggStates(n int) []aggState {
	st := make([]aggState, n)
	for i := range st {
		st[i].ok = true
	}
	return st
}

// observeMember folds one member's contribution into the state.
func (a *aggState) observeMember(sp aggSpec, member mmvalue.Value) {
	navElems(member, sp.path, func(el mmvalue.Value) { a.observeOne(sp, el) })
}

// observeRow folds the contribution of the member object allVars would build
// from row r without building it: the object's field path[0] is r's newest
// binding of that name, so lookupDirect then colElems over path[1:] visits
// exactly what navElems visits in the object. An empty path occurs on an
// aggOnly clause only for LENGTH(g), which counts the member.
func (a *aggState) observeRow(sp aggSpec, r *env) {
	if len(sp.path) == 0 {
		a.count++
		return
	}
	v, _ := r.lookupDirect(sp.path[0])
	colElems(v, sp.path[1:], func(el mmvalue.Value) { a.observeOne(sp, el) })
}

func (a *aggState) observeOne(sp aggSpec, el mmvalue.Value) {
	switch sp.fn {
	case "LENGTH":
		a.count++
	case "SUM":
		if !a.ok {
			return
		}
		// The serial fold skips non-numbers without touching the accumulator.
		if !el.IsNumber() {
			return
		}
		if el.Kind() != mmvalue.KindInt {
			a.ok = false
			return
		}
		x := el.AsInt()
		if x > maxExactInt || x < -maxExactInt {
			a.ok = false
			return
		}
		a.sum += x // |sum| ≤ 2^53 and |x| ≤ 2^53: cannot overflow int64
		if a.sum > maxExactInt || a.sum < -maxExactInt {
			a.ok = false
			return
		}
		if a.sum < a.loPre {
			a.loPre = a.sum
		}
		if a.sum > a.hiPre {
			a.hiPre = a.sum
		}
	case "MIN", "MAX":
		if !a.hasBest {
			a.best, a.hasBest = el, true
			return
		}
		cmp := mmvalue.Compare(el, a.best)
		if (sp.fn == "MIN" && cmp < 0) || (sp.fn == "MAX" && cmp > 0) {
			a.best = el
		}
	}
}

// merge folds a later chunk's partial into this one (chunk order = serial
// fold order). For SUM, b's prefix extremes shift by a's total; if any merged
// prefix leaves the exact range the state invalidates, because the serial
// fold would have passed through that prefix.
func (a *aggState) merge(sp aggSpec, b *aggState) {
	switch sp.fn {
	case "LENGTH":
		a.count += b.count
	case "SUM":
		if !a.ok || !b.ok {
			a.ok = false
			return
		}
		lo, hi := a.sum+b.loPre, a.sum+b.hiPre
		if lo < -maxExactInt || hi > maxExactInt {
			a.ok = false
			return
		}
		if lo < a.loPre {
			a.loPre = lo
		}
		if hi > a.hiPre {
			a.hiPre = hi
		}
		a.sum += b.sum
	case "MIN", "MAX":
		if !b.hasBest {
			return
		}
		if !a.hasBest {
			a.best, a.hasBest = b.best, true
			return
		}
		cmp := mmvalue.Compare(b.best, a.best)
		if (sp.fn == "MIN" && cmp < 0) || (sp.fn == "MAX" && cmp > 0) {
			a.best = b.best
		}
	}
}

// value finishes the state. mmvalue.Null marks an invalidated (or
// empty MIN/MAX) state; evalFunc treats it as "recompute via the normal
// fold", which for an empty MIN/MAX also yields Null, so the marker is never
// ambiguous.
func (a *aggState) value(sp aggSpec) mmvalue.Value {
	switch sp.fn {
	case "LENGTH":
		return mmvalue.Int(a.count)
	case "SUM":
		if !a.ok {
			return mmvalue.Null
		}
		return mmvalue.Int(a.sum)
	case "MIN", "MAX":
		if !a.hasBest {
			return mmvalue.Null
		}
		return a.best
	}
	return mmvalue.Null
}
