package query

// Vectorized (batch-at-a-time) execution for scan→filter→aggregate pipelines
// over column-backed ("coltable") sources. The compile-time vectorizable
// analysis (compile.go, pass four) records a vecPlan on the pipeline; this
// file is the runtime:
//
//   - execVecScan replaces the row-at-a-time FOR expansion: colstore's batch
//     reader materializes ~1k-item column vectors per batch, the fused
//     filter prefix evaluates as bitset algebra over those vectors (zone
//     stats and per-batch bitslice indexes answer comparisons without
//     touching values where they can), and only surviving rows are
//     reconstructed into documents. Residual (non-vectorizable) filters run
//     on those documents — the mid-pipeline fallback — so downstream
//     clauses see exactly the rows the row path would produce.
//   - execVecAgg short-circuits the full FOR + FILTER* + keyless
//     COLLECT..INTO + RETURN aggregate shape: per-batch aggregate partials
//     (the PR-4 aggState discipline) accumulate straight from column
//     vectors — COUNT/LENGTH from selection popcounts, guarded integer
//     SUM/AVG from bitslice popcount sums, MIN/MAX from zone extremes —
//     and no document is ever materialized.
//
// Byte-identity with the serial row path is the invariant everything here
// serves. Predicates replicate eval.go's exact semantics (Compare-based
// comparisons, short-circuit truthiness, the arithmetic kind rules);
// absent attributes evaluate as Null exactly as document navigation would;
// aggregate finishes either satisfy the PR-4 exactness guard or refold
// serially in row order through evalFunc's own fold (foldNumeric). Rows
// that could make the row path error — a bare-column reference to an
// attribute some row lacks, an unbound parameter — make the whole query
// fall back to the row path, which then produces the identical error.
// Batches split into chunks like any stage's rows (parallel.go) and merge
// in batch order, never map order.

import (
	"repro/internal/bitmapidx"
	"repro/internal/colstore"
	"repro/internal/fanout"
	"repro/internal/mmvalue"
)

// vecPlan is the compile-time vectorization plan recorded on a Pipeline by
// computeVecPlan (compile.go).
type vecPlan struct {
	forCl   *ForClause
	loopVar string
	source  string
	// filters is the longest vectorizable prefix of the FOR's fused
	// filters; the rest run as residual row-path filters.
	filters []Expr
	// agg is non-nil when the whole pipeline is an aggregate-only shape
	// that can finish without materializing rows.
	agg *vecAggPlan
}

type vecAggPlan struct {
	collect *CollectClause
	ret     *ReturnClause
	specs   []vecAggSpec
}

// vecAggSpec is one aggregate the plan computes from column vectors.
// fn is LENGTH, SUM, MIN, MAX, or AVG; path is the aggArgPath chain
// (path[0] is the loop variable and path[1] the column when len >= 2).
type vecAggSpec struct {
	fn     string
	path   []string
	hidden string
}

// stateSpec maps the spec onto the PR-4 aggState vocabulary (AVG
// accumulates through the guarded SUM state plus a separate count).
func (sp vecAggSpec) stateSpec() aggSpec {
	fn := sp.fn
	if fn == "AVG" {
		fn = "SUM"
	}
	return aggSpec{fn: fn, path: sp.path, hidden: sp.hidden}
}

// --- compiled predicate nodes ---------------------------------------------

// vnode is a filter predicate compiled against one execution's parameters:
// parameters fold to constants, variable references resolve to column
// accessors, and only eval.go-replicable operators survive compilation.
type vnode interface{ isVnode() }

type vconst struct{ val mmvalue.Value }

// vcol reads a column: the value of attribute name at a row (Null when
// absent — document navigation semantics), navigated through rest.
// strict marks a bare-column reference, which the row path resolves via
// the source fallback and which ERRORS when the attribute is missing;
// strict columns must be fully present in every batch or the query falls
// back to the row path to reproduce that error.
type vcol struct {
	name   string
	rest   []string
	strict bool
}

type vbin struct {
	op   string
	l, r vnode
}

type vun struct {
	op string
	x  vnode
}

type varr struct{ elems []vnode }

func (*vconst) isVnode() {}
func (*vcol) isVnode()   {}
func (*vbin) isVnode()   {}
func (*vun) isVnode()    {}
func (*varr) isVnode()   {}

// compileVecPred lowers one vectorizable filter expression. It fails (row
// path) on unbound parameters and on shapes the analysis should have
// excluded. Bare-column names land in *strict for the per-batch presence
// check; _part/_sort are served from the key vectors and are always
// present.
func compileVecPred(e Expr, loopVar string, params map[string]mmvalue.Value, strict *[]string) (vnode, bool) {
	switch t := e.(type) {
	case *Literal:
		return &vconst{val: t.Value}, true
	case *VarRef:
		if t.Param {
			v, ok := params[t.Name]
			if !ok {
				return nil, false
			}
			return &vconst{val: v}, true
		}
		if t.Name == loopVar {
			return nil, false
		}
		if t.Name != "_part" && t.Name != "_sort" {
			addStrictCol(strict, t.Name)
		}
		return &vcol{name: t.Name, strict: true}, true
	case *FieldAccess:
		if vr, ok := t.Base.(*VarRef); ok && !vr.Param && vr.Name == loopVar {
			// loopVar.<attr>: lenient document navigation (absent → Null).
			return &vcol{name: t.Name}, true
		}
		base, ok := compileVecPred(t.Base, loopVar, params, strict)
		if !ok {
			return nil, false
		}
		switch bt := base.(type) {
		case *vconst:
			return &vconst{val: navigateField(bt.val, t.Name)}, true
		case *vcol:
			rest := make([]string, 0, len(bt.rest)+1)
			rest = append(rest, bt.rest...)
			rest = append(rest, t.Name)
			return &vcol{name: bt.name, rest: rest, strict: bt.strict}, true
		default:
			return nil, false
		}
	case *BinaryOp:
		if !vecOpOK(t.Op) {
			return nil, false
		}
		l, ok := compileVecPred(t.L, loopVar, params, strict)
		if !ok {
			return nil, false
		}
		r, ok := compileVecPred(t.R, loopVar, params, strict)
		if !ok {
			return nil, false
		}
		return &vbin{op: t.Op, l: l, r: r}, true
	case *UnaryOp:
		if t.Op != "NOT" && t.Op != "-" {
			return nil, false
		}
		x, ok := compileVecPred(t.X, loopVar, params, strict)
		if !ok {
			return nil, false
		}
		return &vun{op: t.Op, x: x}, true
	case *ArrayExpr:
		elems := make([]vnode, len(t.Elems))
		for i, el := range t.Elems {
			n, ok := compileVecPred(el, loopVar, params, strict)
			if !ok {
				return nil, false
			}
			elems[i] = n
		}
		return &varr{elems: elems}, true
	default:
		return nil, false
	}
}

func addStrictCol(strict *[]string, name string) {
	for _, have := range *strict {
		if have == name {
			return
		}
	}
	*strict = append(*strict, name)
}

// compileVecPreds lowers the plan's whole filter prefix.
func compileVecPreds(filters []Expr, loopVar string, params map[string]mmvalue.Value) ([]vnode, []string, bool) {
	var strict []string
	preds := make([]vnode, 0, len(filters))
	for _, f := range filters {
		n, ok := compileVecPred(f, loopVar, params, &strict)
		if !ok {
			return nil, nil, false
		}
		preds = append(preds, n)
	}
	return preds, strict, true
}

// strictColsOK reports whether every bare-column reference is present on
// every row of the batch — the precondition for the vectorized evaluator
// to be equivalent to the (erroring) row path.
func strictColsOK(b *colstore.Batch, strict []string) bool {
	for _, name := range strict {
		c := b.Col(name)
		if c == nil || c.NPresent != b.Len() {
			return false
		}
	}
	return true
}

// --- bitset evaluation ----------------------------------------------------

// vecEval evaluates compiled predicates over one batch. perRow records
// whether any per-row value loop ran — a batch whose selection empties
// without one was skipped purely by bitmap/zone/bitslice pruning.
type vecEval struct {
	b      *colstore.Batch
	perRow bool
}

// evalBits returns the subset of cand on which the predicate is truthy.
// Every return is a freshly allocated bitset (callers may mutate results
// but never cand).
func (ve *vecEval) evalBits(n vnode, cand *bitmapidx.Bitset) *bitmapidx.Bitset {
	switch t := n.(type) {
	case *vconst:
		if t.val.Truthy() {
			return cand.Clone()
		}
		return bitmapidx.NewBitset()
	case *vbin:
		switch t.op {
		case "AND":
			return ve.evalBits(t.r, ve.evalBits(t.l, cand))
		case "OR":
			a := ve.evalBits(t.l, cand)
			b := ve.evalBits(t.r, cand.AndNot(a))
			a.OrWith(b)
			return a
		case "==", "!=", "<", "<=", ">", ">=":
			if col, ok := t.l.(*vcol); ok && len(col.rest) == 0 && !pseudoCol(col.name) {
				if cv, ok := t.r.(*vconst); ok {
					return ve.colCmp(t.op, col, cv.val, cand)
				}
			}
			if cv, ok := t.l.(*vconst); ok {
				if col, ok := t.r.(*vcol); ok && len(col.rest) == 0 && !pseudoCol(col.name) {
					return ve.colCmp(flipCmp(t.op), col, cv.val, cand)
				}
			}
		}
	case *vun:
		if t.op == "NOT" {
			return cand.AndNot(ve.evalBits(t.x, cand))
		}
	case *vcol, *varr:
		// Truthiness of a raw value: per-row below.
	}
	out := bitmapidx.NewBitset()
	ve.perRow = true
	cand.ForEach(func(i int) bool {
		if ve.scalar(n, i).Truthy() {
			out.Set(i)
		}
		return true
	})
	return out
}

func pseudoCol(name string) bool { return name == "_part" || name == "_sort" }

func flipCmp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	}
	return op // == and != are symmetric under Compare's antisymmetry
}

// cmpTruth maps a Compare result onto a comparison operator's truth value —
// exactly evalBinary's comparison cases.
func cmpTruth(cmp int, op string) bool {
	switch op {
	case "==":
		return cmp == 0
	case "!=":
		return cmp != 0
	case "<":
		return cmp < 0
	case "<=":
		return cmp <= 0
	case ">":
		return cmp > 0
	case ">=":
		return cmp >= 0
	}
	return false
}

// zoneDecide classifies a whole column against a constant from its
// per-batch extremes: whether every present value satisfies the
// comparison, or none does. cmin/cmax are Compare(MinVal, c) and
// Compare(MaxVal, c).
func zoneDecide(op string, cmin, cmax int) (allTrue, allFalse bool) {
	switch op {
	case "==":
		return cmin == 0 && cmax == 0, cmax < 0 || cmin > 0
	case "!=":
		return cmax < 0 || cmin > 0, cmin == 0 && cmax == 0
	case "<":
		return cmax < 0, cmin >= 0
	case "<=":
		return cmax <= 0, cmin > 0
	case ">":
		return cmin > 0, cmax <= 0
	case ">=":
		return cmin >= 0, cmax < 0
	}
	return false, false
}

// colCmp evaluates `column op constant` over cand. Absent rows carry the
// constant truth of Compare(Null, c); present rows resolve through the
// zone extremes, the per-batch bitslice (integer columns vs an integer
// constant), or a per-row Compare loop.
func (ve *vecEval) colCmp(op string, col *vcol, constV mmvalue.Value, cand *bitmapidx.Bitset) *bitmapidx.Bitset {
	c := ve.b.Col(col.name)
	nullTruth := cmpTruth(mmvalue.Compare(mmvalue.Null, constV), op)
	if c == nil {
		if nullTruth {
			return cand.Clone()
		}
		return bitmapidx.NewBitset()
	}
	var out *bitmapidx.Bitset
	if nullTruth {
		out = cand.AndNot(c.Present)
	} else {
		out = bitmapidx.NewBitset()
	}
	cp := cand.And(c.Present)
	if cp.Count() == 0 {
		return out
	}
	cmin := mmvalue.Compare(c.MinVal, constV)
	cmax := mmvalue.Compare(c.MaxVal, constV)
	allTrue, allFalse := zoneDecide(op, cmin, cmax)
	switch {
	case allTrue:
		out.OrWith(cp)
	case allFalse:
		// No present row qualifies.
	case c.AllInt && constV.Kind() == mmvalue.KindInt:
		// Bit-sliced comparison: when the zone check is undecided the
		// constant lies within [IntMin, IntMax], so the biased delta is
		// non-negative.
		slice, bias := c.IntSlice()
		delta := uint64(constV.AsInt()) - uint64(bias)
		eq, lt, gt := slice.CompareConst(delta)
		var pick *bitmapidx.Bitset
		switch op {
		case "==":
			pick = eq
		case "!=":
			lt.OrWith(gt)
			pick = lt
		case "<":
			pick = lt
		case "<=":
			lt.OrWith(eq)
			pick = lt
		case ">":
			pick = gt
		case ">=":
			gt.OrWith(eq)
			pick = gt
		}
		pick.AndWith(cp)
		out.OrWith(pick)
	default:
		ve.perRow = true
		cp.ForEach(func(i int) bool {
			if cmpTruth(mmvalue.Compare(c.Vals[i], constV), op) {
				out.Set(i)
			}
			return true
		})
	}
	return out
}

// --- per-row scalar evaluation --------------------------------------------

// colValue reads one row of a compiled column accessor, replicating
// document navigation: absent → Null, then navigateField per rest step.
func (ve *vecEval) colValue(t *vcol, i int) mmvalue.Value {
	var val mmvalue.Value
	switch t.name {
	case "_part":
		val = ve.b.Parts[i]
	case "_sort":
		val = ve.b.Sorts[i]
	default:
		val = mmvalue.Null
		if c := ve.b.Col(t.name); c != nil && c.Present.Has(i) {
			val = c.Vals[i]
		}
	}
	for _, name := range t.rest {
		val = navigateField(val, name)
	}
	return val
}

// scalar evaluates a compiled node for one row, replicating eval.go's
// value semantics for the compiled subset (none of which can error).
func (ve *vecEval) scalar(n vnode, i int) mmvalue.Value {
	switch t := n.(type) {
	case *vconst:
		return t.val
	case *vcol:
		return ve.colValue(t, i)
	case *vun:
		x := ve.scalar(t.x, i)
		if t.op == "NOT" {
			return mmvalue.Bool(!x.Truthy())
		}
		if x.Kind() == mmvalue.KindInt {
			return mmvalue.Int(-x.AsInt())
		}
		return mmvalue.Float(-x.AsFloat())
	case *varr:
		arr := make([]mmvalue.Value, len(t.elems))
		for ei, el := range t.elems {
			arr[ei] = ve.scalar(el, i)
		}
		return mmvalue.ArrayOf(arr)
	case *vbin:
		return ve.scalarBin(t, i)
	}
	return mmvalue.Null
}

// scalarBin replicates evalBinary for the vectorizable operator set.
func (ve *vecEval) scalarBin(t *vbin, i int) mmvalue.Value {
	switch t.op {
	case "AND":
		if !ve.scalar(t.l, i).Truthy() {
			return mmvalue.False
		}
		return mmvalue.Bool(ve.scalar(t.r, i).Truthy())
	case "OR":
		if ve.scalar(t.l, i).Truthy() {
			return mmvalue.True
		}
		return mmvalue.Bool(ve.scalar(t.r, i).Truthy())
	}
	l := ve.scalar(t.l, i)
	r := ve.scalar(t.r, i)
	switch t.op {
	case "==", "!=", "<", "<=", ">", ">=":
		return mmvalue.Bool(cmpTruth(mmvalue.Compare(l, r), t.op))
	case "+":
		if l.Kind() == mmvalue.KindString || r.Kind() == mmvalue.KindString {
			return mmvalue.String(stringify(l) + stringify(r))
		}
		if l.Kind() == mmvalue.KindInt && r.Kind() == mmvalue.KindInt {
			return mmvalue.Int(l.AsInt() + r.AsInt())
		}
		return mmvalue.Float(l.AsFloat() + r.AsFloat())
	case "-":
		if l.Kind() == mmvalue.KindInt && r.Kind() == mmvalue.KindInt {
			return mmvalue.Int(l.AsInt() - r.AsInt())
		}
		return mmvalue.Float(l.AsFloat() - r.AsFloat())
	case "*":
		if l.Kind() == mmvalue.KindInt && r.Kind() == mmvalue.KindInt {
			return mmvalue.Int(l.AsInt() * r.AsInt())
		}
		return mmvalue.Float(l.AsFloat() * r.AsFloat())
	case "/":
		if r.AsFloat() == 0 {
			return mmvalue.Null
		}
		return mmvalue.Float(l.AsFloat() / r.AsFloat())
	case "%":
		if r.AsInt() == 0 {
			return mmvalue.Null
		}
		return mmvalue.Int(l.AsInt() % r.AsInt())
	case "IN":
		if r.Kind() != mmvalue.KindArray {
			return mmvalue.False
		}
		for _, el := range r.AsArray() {
			if mmvalue.Compare(l, el) == 0 {
				return mmvalue.True
			}
		}
		return mmvalue.False
	case "LIKE":
		return mmvalue.Bool(likeMatch(stringify(l), stringify(r)))
	}
	return mmvalue.Null
}

// colElems visits the aggregate elements one value contributes once a field
// step produced it — a column value, whose member loopVar and column steps
// are already taken, or navElems' value after its first step: nulls drop,
// arrays flatten one level, the remaining path steps apply per element.
func colElems(val mmvalue.Value, rest []string, visit func(mmvalue.Value)) {
	switch {
	case val.IsNull():
	case val.Kind() == mmvalue.KindArray:
		for _, el := range val.AsArray() {
			navElems(el, rest, visit)
		}
	default:
		navElems(val, rest, visit)
	}
}

// batchValue reads the raw column value for an aggregate path's column at
// one row (attribute, or the _part/_sort key vectors).
func batchValue(b *colstore.Batch, attr string, i int) mmvalue.Value {
	switch attr {
	case "_part":
		return b.Parts[i]
	case "_sort":
		return b.Sorts[i]
	}
	if c := b.Col(attr); c != nil && c.Present.Has(i) {
		return c.Vals[i]
	}
	return mmvalue.Null
}

// --- vectorized scan (FOR + fused filters) --------------------------------

// execVecScan runs the FOR expansion batch-at-a-time. It returns ok=false
// to hand the clause back to the row path when batches cannot win or cannot
// match it: no vectorizable filter (every row would be rebuilt from its
// columns for nothing), a non-coltable source, an unbound parameter, a
// strict column absent somewhere, or a sparse batch (colstore.Batch.Dense:
// rebuilding a row would walk far more columns than the item holds). The
// last two stop the read at the batch that shows them. Residual filters —
// the non-vectorizable suffix — evaluate per surviving row on reconstructed
// documents, which is the mid-pipeline fallback.
func (c *execCtx) execVecScan(cl *ForClause, filters []*FilterClause, rows []*env) ([]*env, bool, error) {
	v := c.curPipe.vec
	if len(v.filters) == 0 || c.resolveName(v.source) != "coltable" {
		return nil, false, nil
	}
	preds, strict, ok := compileVecPreds(v.filters, v.loopVar, c.opts.Params)
	if !ok {
		return nil, false, nil
	}
	var batches []*colstore.Batch
	total, declined := 0, false
	err := c.src.Cols.EachBatch(c.tx, v.source, c.batchSize(), nil, func(b *colstore.Batch) bool {
		if !strictColsOK(b, strict) || !b.Dense() {
			declined = true
			return false
		}
		batches = append(batches, b)
		total += b.Len()
		return true
	})
	if err != nil {
		return nil, true, err
	}
	if declined {
		return nil, false, nil
	}
	c.stats.FullScans++
	c.stats.RowsRead += total
	c.stats.VectorizedBatches += len(batches)

	residual := filters[len(v.filters):]
	base := rows[0]
	outPer := make([][]*env, len(batches))
	skippedPer := make([]bool, len(batches))
	p := c.split(len(batches), total, filtersSafe(residual), &c.stats.ParallelScans)
	err = fanout.RunChunks(p, func(_, lo, hi int) error {
		for bi := lo; bi < hi; bi++ {
			b := batches[bi]
			ve := &vecEval{b: b}
			sel := bitmapidx.NewBitset()
			sel.SetRange(b.Len())
			for _, pred := range preds {
				sel = ve.evalBits(pred, sel)
			}
			if sel.Count() == 0 {
				skippedPer[bi] = !ve.perRow
				continue
			}
			var out []*env
			var ferr error
			sel.ForEach(func(i int) bool {
				en := base.bindSource(cl.Var, b.Doc(i))
				keep, err := c.applyFilters(residual, en)
				if err != nil {
					ferr = err
					return false
				}
				if keep {
					out = append(out, en)
				}
				return true
			})
			if ferr != nil {
				return ferr
			}
			outPer[bi] = out
		}
		return nil
	})
	if err != nil {
		return nil, true, err
	}
	for _, skipped := range skippedPer {
		if skipped {
			c.stats.BatchesSkippedByBitmap++
		}
	}
	return fanout.ConcatChunks(outPer), true, nil // batch order == key order == serial row order
}

// --- vectorized aggregation (whole-pipeline shape) ------------------------

// vecBatchAgg is one batch's contribution: the selection, one aggState per
// spec, per-spec numeric element counts (AVG), whether the batch was pruned
// without any per-row work, and how many specs it answered from popcounts /
// zone stats alone (vectorized, in the strong sense). vecAggBatch runs in
// chunk bodies, so everything it learns lands here, never in c.stats.
type vecBatchAgg struct {
	sel     *bitmapidx.Bitset
	states  []aggState
	ns      []int64
	skipped bool
	vecAggs int
}

// vecAggBatch filters one batch and accumulates every spec's partial from
// its column vectors.
func (c *execCtx) vecAggBatch(v *vecPlan, preds []vnode, b *colstore.Batch) vecBatchAgg {
	ve := &vecEval{b: b}
	sel := bitmapidx.NewBitset()
	sel.SetRange(b.Len())
	for _, p := range preds {
		sel = ve.evalBits(p, sel)
	}
	specs := v.agg.specs
	res := vecBatchAgg{sel: sel, states: newAggStates(len(specs)), ns: make([]int64, len(specs))}
	nsel := sel.Count()
	if nsel == 0 {
		res.skipped = !ve.perRow
		return res
	}
	for si := range specs {
		sp := specs[si]
		st := &res.states[si]
		if sp.fn == "LENGTH" && len(sp.path) <= 1 {
			// Each selected row contributes exactly one element (itself or
			// its document) — a pure popcount.
			st.count = int64(nsel)
			res.vecAggs++
			continue
		}
		var col *colstore.Column
		fastCol := false
		if len(sp.path) == 2 && !pseudoCol(sp.path[1]) {
			col = b.Col(sp.path[1])
			fastCol = true
		}
		if fastCol && col == nil {
			// No row in the batch carries the attribute: zero elements.
			// SUM stays 0/ok, MIN/MAX stay empty, AVG count stays 0 —
			// exactly the serial fold over no contributions.
			continue
		}
		cnt := 0
		if fastCol {
			cnt = col.Present.AndCount(sel)
		}
		switch {
		case fastCol && sp.fn == "LENGTH" && !col.HasNull && !col.HasArray:
			st.count = int64(cnt)
			res.vecAggs++
			continue
		case fastCol && (sp.fn == "SUM" || sp.fn == "AVG") &&
			col.AllInt && col.IntMin >= 0 && col.IntMax <= maxExactInt:
			// Bitslice popcount sum. Non-negative elements keep every
			// serial prefix within [0, total], so the PR-4 guard reduces
			// to the total itself.
			if cnt > 0 {
				slice, bias := col.IntSlice()
				totalU := slice.Sum(sel) + uint64(bias)*uint64(cnt)
				if totalU > uint64(maxExactInt) {
					st.ok = false
				} else {
					st.sum = int64(totalU)
					st.hiPre = st.sum
				}
				res.ns[si] = int64(cnt)
				res.vecAggs++
			}
			continue
		case fastCol && (sp.fn == "MIN" || sp.fn == "MAX") &&
			!col.HasNull && !col.HasArray && cnt == col.NPresent:
			// Every present value is selected and contributes itself, so
			// the batch best is the column's zone extreme (first-wins
			// under Compare, matching the serial scan).
			if sp.fn == "MIN" {
				st.best = col.MinVal
			} else {
				st.best = col.MaxVal
			}
			st.hasBest = true
			res.vecAggs++
			continue
		}
		// Per-row accumulation over column values (deep paths, mixed-kind
		// columns, nulls, arrays, partial selections).
		ssp := sp.stateSpec()
		ve.perRow = true
		sel.ForEach(func(i int) bool {
			colElems(batchValue(b, sp.path[1], i), sp.path[2:], func(el mmvalue.Value) {
				st.observeOne(ssp, el)
				if el.IsNumber() {
					res.ns[si]++
				}
			})
			return true
		})
	}
	return res
}

// execVecAgg runs the whole aggregate-shaped pipeline batch-at-a-time,
// returning ok=false to fall back to the row path. The finish step binds
// each aggregate's value under its hidden name (decompose.go) and lets
// execReturn project it — states that could not stay byte-exact refold
// serially in row order first, through evalFunc's foldNumeric.
func (c *execCtx) execVecAgg(pipe *Pipeline) ([]mmvalue.Value, bool, error) {
	v := pipe.vec
	if c.resolveName(v.source) != "coltable" {
		return nil, false, nil
	}
	preds, strict, ok := compileVecPreds(v.filters, v.loopVar, c.opts.Params)
	if !ok {
		return nil, false, nil
	}
	specs := v.agg.specs
	// Project only what the predicates and aggregates read; documents are
	// never reconstructed on this path.
	project := make([]string, 0, len(strict)+len(specs))
	for _, name := range strict {
		project = append(project, name)
	}
	var collectCols func(vnode)
	collectCols = func(n vnode) {
		switch t := n.(type) {
		case *vcol:
			if !pseudoCol(t.name) {
				project = append(project, t.name)
			}
		case *vbin:
			collectCols(t.l)
			collectCols(t.r)
		case *vun:
			collectCols(t.x)
		case *varr:
			for _, el := range t.elems {
				collectCols(el)
			}
		case *vconst:
		}
	}
	for _, p := range preds {
		collectCols(p)
	}
	for _, sp := range specs {
		if len(sp.path) >= 2 && !pseudoCol(sp.path[1]) {
			project = append(project, sp.path[1])
		}
	}
	batches, err := c.src.Cols.ReadBatches(c.tx, v.source, c.batchSize(), project)
	if err != nil {
		return nil, true, err
	}
	total := 0
	for _, b := range batches {
		if !strictColsOK(b, strict) {
			return nil, false, nil
		}
		total += b.Len()
	}
	c.stats.FullScans++
	c.stats.RowsRead += total
	c.stats.VectorizedBatches += len(batches)
	c.stats.DecomposedAggs += len(v.agg.collect.aggSpecs)

	results := make([]vecBatchAgg, len(batches))
	p := c.split(len(batches), total, true, &c.stats.ParallelScans)
	err = fanout.RunChunks(p, func(_, lo, hi int) error {
		for bi := lo; bi < hi; bi++ {
			results[bi] = c.vecAggBatch(v, preds, batches[bi])
		}
		return nil
	})
	if err != nil {
		return nil, true, err
	}

	// Merge partials in batch order — the serial fold order.
	states := newAggStates(len(specs))
	ns := make([]int64, len(specs))
	for bi := range results {
		if results[bi].skipped {
			c.stats.BatchesSkippedByBitmap++
		}
		c.stats.VectorizedAggs += results[bi].vecAggs
		for si := range specs {
			ssp := specs[si].stateSpec()
			states[si].merge(ssp, &results[bi].states[si])
			ns[si] += results[bi].ns[si]
		}
	}

	// refoldElems re-walks the selected rows of every batch in order,
	// streaming the exact elements the serial fold would see.
	refoldElems := func(sp vecAggSpec) func(visit func(mmvalue.Value)) {
		return func(visit func(mmvalue.Value)) {
			for bi, b := range batches {
				results[bi].sel.ForEach(func(i int) bool {
					colElems(batchValue(b, sp.path[1], i), sp.path[2:], visit)
					return true
				})
			}
		}
	}

	en := newEnv().bind(v.agg.collect.Into, mmvalue.Array())
	for si := range specs {
		sp := specs[si]
		st := &states[si]
		var val mmvalue.Value
		switch sp.fn {
		case "LENGTH":
			val = mmvalue.Int(st.count)
		case "SUM":
			if st.ok {
				val = mmvalue.Int(st.sum)
			} else {
				// The exactness guard tripped: refold as evalFunc does.
				val = foldNumeric(refoldElems(sp)).sumValue()
			}
		case "AVG":
			switch {
			case !st.ok:
				val = foldNumeric(refoldElems(sp)).avgValue()
			case ns[si] == 0:
				val = mmvalue.Null
			default:
				val = mmvalue.Float(float64(st.sum) / float64(ns[si]))
			}
		case "MIN", "MAX":
			val = st.value(sp.stateSpec())
		}
		// A Null value doubles as the "recompute" marker (decompose.go);
		// it is only ever produced here when the recompute over the empty
		// Into array yields the same Null (empty MIN/MAX/AVG), so the
		// binding stays unambiguous.
		en = en.bind(sp.hidden, val)
	}
	vals, err := c.execReturn(v.agg.ret, []*env{en})
	if err != nil {
		return nil, true, err
	}
	return vals, true, nil
}
