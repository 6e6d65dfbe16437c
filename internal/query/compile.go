package query

// This file is the compile step that runs once per parsed pipeline, so that
// plans cached by core's compiled-plan cache carry their execution
// annotations instead of re-deriving them on every call:
//
//   - hasMutation: whether the pipeline (or any nested subquery pipeline)
//     contains a DML clause — every stage of such a pipeline is one chunk.
//   - parallelSafe on FilterClause, LetClause, SortClause, CollectClause,
//     and ReturnClause: whether the stage's expressions may be evaluated
//     concurrently, split into chunks (no subqueries — they run whole
//     pipelines against shared executor state).
//
// analyze is idempotent and cheap (one tree walk); both parsers call it on
// the top-level pipeline, and it recurses into every SubqueryExpr so nested
// pipelines are annotated too.

// analyze fills in the compiled annotations of a pipeline and all pipelines
// nested in its expressions.
func (p *Pipeline) analyze() {
	if p == nil || p.analyzed {
		return
	}
	p.analyzed = true
	for _, cl := range p.Clauses {
		switch t := cl.(type) {
		case *InsertClause, *UpdateClause, *RemoveClause:
			p.hasMutation = true
		case *FilterClause:
			t.parallelSafe = exprParallelSafe(t.Expr)
		case *LetClause:
			t.parallelSafe = exprParallelSafe(t.Expr)
		case *SortClause:
			t.parallelSafe = true
			for _, k := range t.Keys {
				if !exprParallelSafe(k.Expr) {
					t.parallelSafe = false
				}
			}
		case *CollectClause:
			t.parallelSafe = true
			for _, k := range t.Keys {
				if !exprParallelSafe(k) {
					t.parallelSafe = false
				}
			}
		case *ReturnClause:
			t.parallelSafe = exprParallelSafe(t.Expr)
		case *ForClause, *LimitClause, *distinctRowsClause:
			// No compile-time annotations; a new clause kind must decide
			// here whether it mutates or parallelizes.
		}
		for _, e := range clauseExprs(cl) {
			walkExpr(e, func(x Expr) {
				if sub, ok := x.(*SubqueryExpr); ok {
					sub.Pipeline.analyze()
					if sub.Pipeline.hasMutation {
						// A mutating subquery can run from any clause of
						// this pipeline; stay on the serial executor.
						p.hasMutation = true
					}
				}
			})
		}
	}
	// Second pass: detect decomposable aggregates downstream of each
	// COLLECT ... INTO so group partial states can be accumulated during
	// grouping instead of folded at projection time (see decompose.go).
	for i, cl := range p.Clauses {
		if col, ok := cl.(*CollectClause); ok {
			annotateCollectAggs(col, p.Clauses[i+1:])
		}
	}
	// Third pass: the vectorizable analysis (mirroring the parallelSafe
	// annotations above): detect scan→filter→aggregate shapes whose
	// predicates and aggregates are expressible over column vectors, so the
	// batch-at-a-time executor in vector.go can engage at run time. Runs
	// after pass two so aggregate calls already carry their hidden names.
	p.computeVecPlan()
}

// computeVecPlan fills p.vec when the pipeline opens with FOR over a named
// source. The plan records the longest vectorizable PREFIX of the fused
// filters — a strict prefix, because reordering filters would change which
// rows reach an erroring residual filter — and, when the whole pipeline is
// exactly FOR + filters + keyless COLLECT..INTO + RETURN over decomposable
// aggregates, an aggregate plan that can finish without materializing rows.
func (p *Pipeline) computeVecPlan() {
	if p.hasMutation || len(p.Clauses) == 0 {
		return
	}
	forCl, ok := p.Clauses[0].(*ForClause)
	if !ok || forCl.Source.Kind != SourceName {
		return
	}
	end := 1
	var fused []*FilterClause
	for ; end < len(p.Clauses); end++ {
		f, ok := p.Clauses[end].(*FilterClause)
		if !ok {
			break
		}
		fused = append(fused, f)
	}
	v := &vecPlan{forCl: forCl, loopVar: forCl.Var, source: forCl.Source.Name}
	for _, f := range fused {
		if !vecExprOK(f.Expr, forCl.Var) {
			break
		}
		v.filters = append(v.filters, f.Expr)
	}
	// Aggregate shape: every fused filter vectorized, then exactly a keyless
	// COLLECT ... INTO and a final RETURN whose only data references are
	// recognized aggregates over the group variable.
	if len(v.filters) == len(fused) && end+2 == len(p.Clauses) {
		if col, ok := p.Clauses[end].(*CollectClause); ok &&
			col.Into != "" && len(col.Keys) == 0 && len(col.Vars) == 0 {
			if ret, ok := p.Clauses[end+1].(*ReturnClause); ok {
				if specs, ok := vecReturnSpecs(ret.Expr, col.Into, forCl.Var); ok {
					v.agg = &vecAggPlan{collect: col, ret: ret, specs: specs}
				}
			}
		}
	}
	p.vec = v
}

// vecOps is the operator vocabulary the vectorized evaluator implements:
// comparisons map to bitset partitions (zone stats, bitslice, or per-row
// Compare), booleans to bitset algebra, and the arithmetic/membership rest
// to per-row scalar evaluation over column vectors. The jsonb operators are
// deliberately absent — they stay on the row path.
func vecOpOK(op string) bool {
	switch op {
	case "==", "!=", "<", "<=", ">", ">=",
		"AND", "OR", "+", "-", "*", "/", "%", "IN", "LIKE":
		return true
	}
	return false
}

// vecExprOK reports whether a fused filter predicate is expressible over
// column vectors: literals, parameters, dot chains rooted at a variable
// (the loop variable's fields, or a bare column resolved through the
// source-fallback), and the vecOps combinations of those. A bare reference
// to the loop variable itself (the whole document) is not vectorizable.
func vecExprOK(e Expr, loopVar string) bool {
	switch t := e.(type) {
	case *Literal:
		return true
	case *VarRef:
		return t.Param || t.Name != loopVar
	case *FieldAccess:
		base := Expr(t)
		for {
			fa, ok := base.(*FieldAccess)
			if !ok {
				break
			}
			base = fa.Base
		}
		_, ok := base.(*VarRef)
		return ok
	case *BinaryOp:
		return vecOpOK(t.Op) && vecExprOK(t.L, loopVar) && vecExprOK(t.R, loopVar)
	case *UnaryOp:
		return (t.Op == "NOT" || t.Op == "-") && vecExprOK(t.X, loopVar)
	case *ArrayExpr:
		for _, el := range t.Elems {
			if !vecExprOK(el, loopVar) {
				return false
			}
		}
		return true
	default:
		// IndexAccess, FuncCall, ObjectExpr, SubqueryExpr, TernaryExpr:
		// row path.
		return false
	}
}

// vecReturnSpecs checks that a RETURN expression references row data only
// through decomposable aggregate calls over the group variable, collecting
// one spec per distinct aggregate. LENGTH/COUNT accept any path rooted at
// the loop variable (or the bare group); SUM/MIN/MAX/AVG need a column
// path (g[*].<loopVar>.<col>...) so elements come from column vectors.
// AVG — not decomposed by pass two — gets its hidden name stamped here;
// the row path never binds it, so the stamp is inert off the vectorized
// path.
func vecReturnSpecs(e Expr, into, loopVar string) ([]vecAggSpec, bool) {
	var specs []vecAggSpec
	var walk func(Expr) bool
	walk = func(x Expr) bool {
		switch t := x.(type) {
		case *Literal:
			return true
		case *VarRef:
			return t.Param
		case *FuncCall:
			fn := t.Name
			if fn == "COUNT" {
				fn = "LENGTH"
			}
			switch fn {
			case "LENGTH", "SUM", "MIN", "MAX", "AVG":
			default:
				return false
			}
			if t.Star || len(t.Args) != 1 {
				return false
			}
			varName, path, ok := aggArgPath(t.Args[0])
			if !ok || varName != into {
				return false
			}
			if len(path) > 0 && path[0] != loopVar {
				return false
			}
			if fn != "LENGTH" && len(path) < 2 {
				return false
			}
			hidden := hiddenAggName(fn, varName, path)
			if t.aggName == "" {
				t.aggName = hidden
			}
			if t.aggName != hidden {
				return false
			}
			for _, s := range specs {
				if s.hidden == hidden {
					return true
				}
			}
			specs = append(specs, vecAggSpec{fn: fn, path: path, hidden: hidden})
			return true
		case *BinaryOp:
			return walk(t.L) && walk(t.R)
		case *UnaryOp:
			return walk(t.X)
		case *TernaryExpr:
			return walk(t.Cond) && walk(t.Then) && walk(t.Else)
		case *ArrayExpr:
			for _, el := range t.Elems {
				if !walk(el) {
					return false
				}
			}
			return true
		case *ObjectExpr:
			for _, v := range t.Values {
				if !walk(v) {
					return false
				}
			}
			return true
		case *FieldAccess:
			return walk(t.Base)
		case *IndexAccess:
			if t.Star {
				return false
			}
			return walk(t.Base) && walk(t.Index)
		default:
			// SubqueryExpr: row path.
			return false
		}
	}
	if !walk(e) {
		return nil, false
	}
	return specs, true
}

// ReadOnly reports whether the pipeline is proven free of DML (directly and
// in every nested subquery) by the compile-time analysis, and may therefore
// run on a lock-free snapshot transaction. An unanalyzed pipeline is
// conservatively not read-only.
func (p *Pipeline) ReadOnly() bool { return p.analyzed && !p.hasMutation }

// exprParallelSafe reports whether an expression can be evaluated from
// multiple goroutines at once. Everything the evaluator does is read-only
// except running a subquery pipeline (which may contain DML and mutates the
// shared Stats), so subqueries are the one exclusion.
func exprParallelSafe(e Expr) bool {
	safe := true
	walkExpr(e, func(x Expr) {
		if _, ok := x.(*SubqueryExpr); ok {
			safe = false
		}
	})
	return safe
}

// clauseExprs returns the expressions directly held by a clause (not
// recursing into them; pair with walkExpr).
func clauseExprs(cl Clause) []Expr {
	switch t := cl.(type) {
	case *ForClause:
		var out []Expr
		if t.Source.Expr != nil {
			out = append(out, t.Source.Expr)
		}
		if t.Source.Start != nil {
			out = append(out, t.Source.Start)
		}
		return out
	case *LetClause:
		return []Expr{t.Expr}
	case *FilterClause:
		return []Expr{t.Expr}
	case *SortClause:
		out := make([]Expr, len(t.Keys))
		for i, k := range t.Keys {
			out[i] = k.Expr
		}
		return out
	case *LimitClause:
		var out []Expr
		if t.Offset != nil {
			out = append(out, t.Offset)
		}
		if t.Count != nil {
			out = append(out, t.Count)
		}
		return out
	case *CollectClause:
		return t.Keys
	case *distinctRowsClause:
		return t.keys
	case *ReturnClause:
		return []Expr{t.Expr}
	case *InsertClause:
		return []Expr{t.Doc}
	case *UpdateClause:
		return []Expr{t.KeyExpr, t.Patch}
	case *RemoveClause:
		return []Expr{t.KeyExpr}
	}
	return nil
}
