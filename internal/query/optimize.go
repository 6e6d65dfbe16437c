package query

import (
	"fmt"
	"strings"

	"repro/internal/docstore"
	"repro/internal/fanout"
	"repro/internal/inverted"
	"repro/internal/mmvalue"
)

// This file is the rule-based optimizer: given a FOR/FROM source and the
// filters that immediately follow it, pick an access path. The mapping
// follows the paper's index classification exactly:
//
//	equality on _key / primary key  -> primary B+tree point lookup
//	range on a table's primary key  -> bounded scan of the PK-ordered rows
//	equality on an indexed path     -> secondary B+tree LookupEq
//	range on an indexed path        -> secondary B+tree LookupRange
//	containment (@>) on a document  -> GIN index item lookups + recheck
//	FTSEARCH(coll, ...) membership  -> full-text index token lookups
//
// (Bitmap/bitslice aggregation — the remaining family of the paper's
// classification — is a store-level accelerator measured in E5, not a
// planner rule.)
//
// Filters are never removed: index results are always rechecked by the
// remaining FilterClauses, so a wrong index choice can cost time but never
// correctness.

// predicate is a normalized conjunct: <loopVar-rooted path> op <constant>.
type predicate struct {
	path  string // dotted path below the loop variable
	op    string // "==", "<", "<=", ">", ">=", "@>"
	value mmvalue.Value
}

// extractPredicates pulls indexable conjuncts out of the filters that
// reference only the loop variable and constants.
func (c *execCtx) extractPredicates(loopVar string, filters []*FilterClause, r *env) []predicate {
	var preds []predicate
	for _, f := range filters {
		for _, conj := range conjuncts(f.Expr) {
			if p, ok := c.asPredicate(loopVar, conj, r); ok {
				preds = append(preds, p)
			}
		}
	}
	return preds
}

// conjuncts splits an AND tree.
func conjuncts(e Expr) []Expr {
	if b, ok := e.(*BinaryOp); ok && b.Op == "AND" {
		return append(conjuncts(b.L), conjuncts(b.R)...)
	}
	return []Expr{e}
}

// asPredicate normalizes `path op const` or `const op path` against the
// loop variable. The constant side may reference outer bindings (it is
// evaluated against the current outer row).
func (c *execCtx) asPredicate(loopVar string, e Expr, r *env) (predicate, bool) {
	b, ok := e.(*BinaryOp)
	if !ok {
		return predicate{}, false
	}
	flip := map[string]string{"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "=="}
	switch b.Op {
	case "==", "<", "<=", ">", ">=":
		if path, ok := rowPath(loopVar, b.L, r); ok && c.constSide(loopVar, b.R) {
			v, err := c.eval(b.R, r)
			if err != nil {
				return predicate{}, false
			}
			return predicate{path: path, op: b.Op, value: v}, true
		}
		if path, ok := rowPath(loopVar, b.R, r); ok && c.constSide(loopVar, b.L) {
			v, err := c.eval(b.L, r)
			if err != nil {
				return predicate{}, false
			}
			return predicate{path: path, op: flip[b.Op], value: v}, true
		}
	case "@>":
		if _, ok := b.L.(*VarRef); ok {
			if vr := b.L.(*VarRef); vr.Name == loopVar && c.constSide(loopVar, b.R) {
				v, err := c.eval(b.R, r)
				if err != nil {
					return predicate{}, false
				}
				return predicate{op: "@>", value: coerceJSON(v)}, true
			}
		}
	}
	return predicate{}, false
}

// rowPath matches expressions shaped var.a.b or var->'a'->>'b', returning the
// dotted path below the loop variable; the bare variable is not a path. It
// also reads MSQL's bare columns (`id` meaning `c.id`): a name that the outer
// row r binds neither directly nor as a column of an earlier source can, once
// the loop variable is bound, only resolve to a column of the loop variable's
// row (see env.lookup), so it heads a path below it.
func rowPath(loopVar string, e Expr, r *env) (string, bool) {
	root, parts, ok := exprPath(e)
	if !ok {
		return "", false
	}
	if root.Name != loopVar {
		if _, bound := r.lookup(root.Name); bound {
			return "", false
		}
		parts = append([]string{root.Name}, parts...)
	}
	return strings.Join(parts, "."), len(parts) > 0
}

// exprPath splits a chain of field accesses (var.a.b or var->'a'->>'b') into
// its root variable and the field names below it.
func exprPath(e Expr) (root *VarRef, parts []string, ok bool) {
	for {
		switch t := e.(type) {
		case *FieldAccess:
			parts = append([]string{t.Name}, parts...)
			e = t.Base
		case *BinaryOp:
			if t.Op != "->" && t.Op != "->>" {
				return nil, nil, false
			}
			lit, ok := t.R.(*Literal)
			if !ok || lit.Value.Kind() != mmvalue.KindString {
				return nil, nil, false
			}
			parts = append([]string{lit.Value.AsString()}, parts...)
			e = t.L
		case *VarRef:
			return t, parts, !t.Param
		default:
			return nil, nil, false
		}
	}
}

// constSide reports whether an expression avoids the loop variable (it may
// reference outer bindings, evaluated per outer row).
func (c *execCtx) constSide(loopVar string, e Expr) bool {
	ok := true
	walkExpr(e, func(x Expr) {
		if v, isVar := x.(*VarRef); isVar && !v.Param && v.Name == loopVar {
			ok = false
		}
		if _, isSub := x.(*SubqueryExpr); isSub {
			ok = false
		}
	})
	return ok
}

// tryIndexAccess attempts an indexed access path for a named source.
func (c *execCtx) tryIndexAccess(loopVar, name, kind string, filters []*FilterClause, r *env) ([]mmvalue.Value, bool, error) {
	preds := c.extractPredicates(loopVar, filters, r)
	if len(preds) == 0 {
		return nil, false, nil
	}
	switch kind {
	case "collection":
		return c.tryDocIndex(name, preds)
	case "table":
		return c.tryRelIndex(name, preds)
	case "graph", "bucket":
		return nil, false, nil
	}
	return nil, false, nil
}

func (c *execCtx) tryDocIndex(coll string, preds []predicate) ([]mmvalue.Value, bool, error) {
	// Primary key equality.
	for _, p := range preds {
		if p.path == docstore.KeyField && p.op == "==" {
			doc, ok, err := c.src.Docs.Get(c.tx, coll, stringify(p.value))
			if err != nil {
				return nil, false, err
			}
			c.noteIndex("doc:" + coll + " primary (_key ==)")
			if !ok {
				return nil, true, nil
			}
			c.stats.RowsRead++
			return []mmvalue.Value{doc}, true, nil
		}
	}
	defs, err := c.src.Docs.Indexes(c.tx, coll)
	if err != nil {
		return nil, false, err
	}
	// GIN containment: the candidates hold every item of the pattern, and
	// the `@>` filter rechecks them (GIN is lossy). A pattern without items
	// ({}, []) has nothing to look up and falls back to the scan.
	for _, p := range preds {
		if p.op != "@>" {
			continue
		}
		for _, d := range defs {
			if d.Kind != docstore.GINIndex {
				continue
			}
			items := inverted.Items(d.Mode, p.value)
			if len(items) == 0 {
				continue
			}
			keys, err := c.src.Docs.LookupAll(c.tx, coll, d.Name, items)
			if err != nil {
				return nil, false, err
			}
			c.noteIndex("doc:" + coll + " GIN (@>)")
			docs, err := c.fetchDocs(coll, keys)
			return docs, true, err
		}
	}
	// Path indexes: equality first (most selective), then ranges.
	for _, p := range preds {
		if p.op != "==" {
			continue
		}
		for _, d := range defs {
			if d.Kind != docstore.PathIndex || !pathMatchesIndex(p.path, d.Path) {
				continue
			}
			keys, err := c.src.Docs.LookupEq(c.tx, coll, d.Name, p.value)
			if err != nil {
				return nil, false, err
			}
			c.noteIndex(fmt.Sprintf("doc:%s idx %s (==)", coll, d.Name))
			docs, err := c.fetchDocs(coll, keys)
			return docs, true, err
		}
	}
	for _, d := range defs {
		if d.Kind != docstore.PathIndex {
			continue
		}
		lo := docstore.Bound{Unbounded: true}
		hi := docstore.Bound{Unbounded: true}
		matched := false
		for _, p := range preds {
			if !pathMatchesIndex(p.path, d.Path) {
				continue
			}
			switch p.op {
			case ">":
				lo = docstore.Bound{Value: p.value}
				matched = true
			case ">=":
				lo = docstore.Bound{Value: p.value, Inclusive: true}
				matched = true
			case "<":
				hi = docstore.Bound{Value: p.value}
				matched = true
			case "<=":
				hi = docstore.Bound{Value: p.value, Inclusive: true}
				matched = true
			}
		}
		if !matched {
			continue
		}
		keys, err := c.src.Docs.LookupRange(c.tx, coll, d.Name, lo, hi)
		if err != nil {
			return nil, false, err
		}
		c.noteIndex(fmt.Sprintf("doc:%s idx %s (range)", coll, d.Name))
		docs, err := c.fetchDocs(coll, keys)
		return docs, true, err
	}
	return nil, false, nil
}

// pathMatchesIndex matches a predicate path against an index path, treating
// [*] segments as matching the bare path (an index on "lines[*].price"
// serves predicates on "lines.price" written via dot navigation).
func pathMatchesIndex(predPath, idxPath string) bool {
	if predPath == idxPath {
		return true
	}
	stripped := strings.ReplaceAll(idxPath, "[*]", "")
	return predPath == stripped
}

// fetchDocs materializes an index access's candidate key list (missing
// keys are skipped). Large key lists (GIN candidate sets, wide B+tree
// ranges) split into key chunks like any stage, Txn.Get being safe for
// concurrent use on one transaction; results concatenate in key order, so
// downstream recheck filters see the identical row sequence.
func (c *execCtx) fetchDocs(coll string, keys []string) ([]mmvalue.Value, error) {
	p := c.split(len(keys), len(keys), true, &c.stats.ParallelIndexFetches)
	per := make([][]mmvalue.Value, p.K)
	err := fanout.RunChunks(p, func(ci, lo, hi int) error {
		var out []mmvalue.Value
		for _, k := range keys[lo:hi] {
			doc, ok, err := c.src.Docs.Get(c.tx, coll, k)
			if err != nil {
				return err
			}
			if ok {
				out = append(out, doc)
			}
		}
		per[ci] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := fanout.ConcatChunks(per)
	c.stats.RowsRead += len(out)
	return out, nil
}

func (c *execCtx) tryRelIndex(table string, preds []predicate) ([]mmvalue.Value, bool, error) {
	schema, err := c.src.Rels.Schema(c.tx, table)
	if err != nil {
		return nil, false, err
	}
	// Single-column primary key equality.
	pkCol := ""
	if len(schema.PrimaryKey) == 1 {
		pkCol = schema.PrimaryKey[0]
		for _, p := range preds {
			if p.path == pkCol && p.op == "==" {
				row, ok, err := c.src.Rels.Get(c.tx, table, p.value)
				if err != nil {
					return nil, false, err
				}
				c.noteIndex("rel:" + table + " primary key (==)")
				if !ok {
					return nil, true, nil
				}
				c.stats.RowsRead++
				return []mmvalue.Value{row}, true, nil
			}
		}
	}
	idxCols, err := c.src.Rels.IndexedColumns(c.tx, table)
	if err != nil {
		return nil, false, err
	}
	for _, p := range preds {
		if p.op != "==" {
			continue
		}
		if idxName, ok := idxCols[p.path]; ok {
			rows, err := c.src.Rels.LookupEq(c.tx, table, idxName, p.value)
			if err != nil {
				return nil, false, err
			}
			c.noteIndex(fmt.Sprintf("rel:%s idx %s (==)", table, idxName))
			c.stats.RowsRead += len(rows)
			return rows, true, nil
		}
	}
	// Range on the single-column primary key or an indexed column: accumulate
	// bounds per column, keeping the columns in predicate order so that the
	// choice between two bounded columns is the same on every run.
	type bounds struct {
		col          string
		lo, hi       mmvalue.Value
		loSet, hiSet bool
	}
	var ranged []*bounds
	for _, p := range preds {
		if _, indexed := idxCols[p.path]; !indexed && (pkCol == "" || p.path != pkCol) {
			continue
		}
		var b *bounds
		for _, x := range ranged {
			if x.col == p.path {
				b = x
			}
		}
		if b == nil {
			b = &bounds{col: p.path}
			ranged = append(ranged, b)
		}
		// The scan covers [lo, hi), with a max-pad keeping the boundary row
		// of <=; the residual filter drops the boundary row of >.
		switch p.op {
		case ">", ">=":
			b.lo, b.loSet = p.value, true
		case "<":
			b.hi, b.hiSet = p.value, true
		case "<=":
			b.hi, b.hiSet = padMax(p.value), true
		}
	}
	for _, b := range ranged {
		if !b.loSet && !b.hiSet {
			continue
		}
		var rows []mmvalue.Value
		if b.col == pkCol {
			// The table keyspace is ordered by primary key: a bounded scan
			// of it reads exactly the rows in range.
			err = c.src.Rels.ScanRange(c.tx, table, b.lo, b.hi, !b.loSet, !b.hiSet, func(row mmvalue.Value) bool {
				rows = append(rows, row)
				return true
			})
			c.noteIndex("rel:" + table + " primary key (range)")
		} else {
			rows, err = c.src.Rels.LookupRange(c.tx, table, idxCols[b.col], b.lo, b.hi, !b.loSet, !b.hiSet)
			c.noteIndex(fmt.Sprintf("rel:%s idx %s (range)", table, idxCols[b.col]))
		}
		if err != nil {
			return nil, false, err
		}
		c.stats.RowsRead += len(rows)
		return rows, true, nil
	}
	return nil, false, nil
}

// padMax nudges an upper bound so <= predicates keep their boundary row;
// the residual filter trims any overshoot.
func padMax(v mmvalue.Value) mmvalue.Value {
	switch v.Kind() {
	case mmvalue.KindInt:
		return mmvalue.Int(v.AsInt() + 1)
	case mmvalue.KindFloat:
		return mmvalue.Float(v.AsFloat() + 1)
	case mmvalue.KindString:
		return mmvalue.String(v.AsString() + "\xff")
	default:
		return v
	}
}

func (c *execCtx) noteIndex(desc string) {
	c.stats.IndexScans++
	c.stats.IndexUsed = append(c.stats.IndexUsed, desc)
}
