package query

import (
	"fmt"
	"strings"

	"repro/internal/mmvalue"
)

// ParseMSQL parses the SQL-flavored front-end and compiles it onto the same
// clause pipeline MMQL uses:
//
//	SELECT [DISTINCT] item (, item)*        item := expr [AS alias] | *
//	FROM name [alias] (, name [alias])*
//	(JOIN name [alias] ON cond)*
//	[WHERE cond]
//	[GROUP BY expr (, expr)*] [HAVING cond]
//	[ORDER BY expr [ASC|DESC] (, ...)*]
//	[LIMIT n [OFFSET m]]
//
// plus INSERT INTO name VALUES(json), DELETE FROM name WHERE …, and
// UPDATE name SET … WHERE … are intentionally *not* duplicated here — DML
// flows through MMQL; MSQL is the read surface, like the paper's SQL
// extensions.
//
// SELECT expressions understand the PostgreSQL JSON operators ->, ->>, #>,
// @>, ? and OrientDB-style navigation: dot access maps over arrays, and a
// single top-level EXPAND(expr) item flattens its array result into rows.
func ParseMSQL(input string) (*Pipeline, error) {
	toks, err := lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, mode: modeMSQL}
	pipe, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	if !p.at(tokEOF) {
		return nil, p.errf("unexpected %s after query", p.cur())
	}
	pipe.analyze()
	return pipe, nil
}

type selectItem struct {
	expr  Expr
	alias string
	star  bool
}

func (p *parser) parseSelect() (*Pipeline, error) {
	if err := p.expectKw("SELECT"); err != nil {
		return nil, err
	}
	distinct := p.acceptKw("DISTINCT")
	items, err := p.parseSelectItems()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("FROM"); err != nil {
		return nil, err
	}
	var clauses []Clause
	var sourceVars []string
	// FROM list.
	for {
		fc, err := p.parseFromSource()
		if err != nil {
			return nil, err
		}
		clauses = append(clauses, fc)
		sourceVars = append(sourceVars, fc.Var)
		if !p.acceptOp(",") {
			break
		}
	}
	// JOIN ... ON ... (inner joins as FOR+FILTER).
	for p.atKw("JOIN") || (p.atKw("INNER") && isKeyword(p.peek(), "JOIN")) {
		p.acceptKw("INNER")
		p.next() // JOIN
		fc, err := p.parseFromSource()
		if err != nil {
			return nil, err
		}
		clauses = append(clauses, fc)
		sourceVars = append(sourceVars, fc.Var)
		if err := p.expectKw("ON"); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		clauses = append(clauses, &FilterClause{Expr: cond})
	}
	if p.acceptKw("WHERE") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		clauses = append(clauses, &FilterClause{Expr: cond})
	}
	var groupKeys []Expr
	if p.acceptKw("GROUP") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			groupKeys = append(groupKeys, e)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	var having Expr
	if p.acceptKw("HAVING") {
		h, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		having = h
	}
	var sortKeys []SortKey
	if p.acceptKw("ORDER") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		sortKeys, err = p.parseSortKeys()
		if err != nil {
			return nil, err
		}
	}
	var limit, offset Expr
	if p.acceptKw("LIMIT") {
		limit, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
		if p.acceptKw("OFFSET") {
			offset, err = p.parseExpr()
			if err != nil {
				return nil, err
			}
		}
	}

	// Grouping: with GROUP BY or any aggregate in the select list / having,
	// insert a Collect and rewrite aggregate arguments over the group rows.
	needsGroup := len(groupKeys) > 0 || having != nil
	for _, it := range items {
		if !it.star && containsAggregate(it.expr) {
			needsGroup = true
		}
	}
	if needsGroup {
		clauses = append(clauses, &CollectClause{Keys: groupKeys, Into: groupRowsVar})
		for i := range items {
			if !items[i].star {
				items[i].expr = rewriteAggregates(items[i].expr, sourceVars)
			}
		}
		if having != nil {
			clauses = append(clauses, &FilterClause{Expr: rewriteAggregates(having, sourceVars)})
		}
		for i := range sortKeys {
			sortKeys[i].Expr = rewriteAggregates(sortKeys[i].Expr, sourceVars)
		}
	}
	// ORDER BY may reference select-item aliases; substitute them with the
	// aliased (already aggregate-rewritten) expressions.
	aliasExpr := map[string]Expr{}
	for _, it := range items {
		if it.alias != "" && !it.star {
			aliasExpr[it.alias] = it.expr
		}
	}
	for i := range sortKeys {
		if v, ok := sortKeys[i].Expr.(*VarRef); ok && !v.Param {
			if e, found := aliasExpr[v.Name]; found {
				sortKeys[i].Expr = e
			}
		}
	}

	// SQL applies DISTINCT before ORDER BY/LIMIT; dedup rows on the select
	// expressions first when either follows.
	if distinct && (len(sortKeys) > 0 || limit != nil) {
		var keys []Expr
		for _, it := range items {
			if it.star {
				for _, v := range sourceVars {
					keys = append(keys, &VarRef{Name: v})
				}
				continue
			}
			keys = append(keys, it.expr)
		}
		clauses = append(clauses, &distinctRowsClause{keys: keys})
	}
	if len(sortKeys) > 0 {
		clauses = append(clauses, &SortClause{Keys: sortKeys})
	}
	if limit != nil {
		clauses = append(clauses, &LimitClause{Offset: offset, Count: limit})
	}

	ret, err := buildReturn(items, sourceVars, distinct)
	if err != nil {
		return nil, err
	}
	clauses = append(clauses, ret)
	return &Pipeline{Clauses: clauses}, nil
}

// groupRowsVar is the implicit group variable MSQL grouping binds.
const groupRowsVar = "__rows"

func (p *parser) parseSelectItems() ([]selectItem, error) {
	var items []selectItem
	for {
		if p.acceptOp("*") {
			items = append(items, selectItem{star: true})
		} else {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			it := selectItem{expr: e}
			if p.acceptKw("AS") {
				a, err := p.expectIdent()
				if err != nil {
					return nil, err
				}
				it.alias = a
			} else if p.at(tokIdent) && !p.isReserved(p.cur().text) {
				it.alias = p.next().text
			}
			items = append(items, it)
		}
		if !p.acceptOp(",") {
			return items, nil
		}
	}
}

func (p *parser) parseFromSource() (*ForClause, error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	alias := name
	if p.acceptKw("AS") {
		alias, err = p.expectIdent()
		if err != nil {
			return nil, err
		}
	} else if p.at(tokIdent) && !p.isReserved(p.cur().text) {
		alias = p.next().text
	}
	return &ForClause{Var: alias, Source: Source{Kind: SourceName, Name: name}}, nil
}

// buildReturn assembles the ReturnClause from select items.
func buildReturn(items []selectItem, sourceVars []string, distinct bool) (*ReturnClause, error) {
	// Single EXPAND(expr): OrientDB flattening.
	if len(items) == 1 && !items[0].star {
		if fc, ok := items[0].expr.(*FuncCall); ok && fc.Name == "EXPAND" {
			if len(fc.Args) != 1 {
				return nil, fmt.Errorf("query: EXPAND takes one argument")
			}
			return &ReturnClause{Distinct: distinct, Expr: fc.Args[0], expand: true}, nil
		}
	}
	// SELECT * alone.
	if len(items) == 1 && items[0].star {
		if len(sourceVars) == 1 {
			return &ReturnClause{Distinct: distinct, Expr: &VarRef{Name: sourceVars[0]}}, nil
		}
		obj := &ObjectExpr{}
		for _, v := range sourceVars {
			obj.Keys = append(obj.Keys, v)
			obj.Values = append(obj.Values, &VarRef{Name: v})
		}
		return &ReturnClause{Distinct: distinct, Expr: obj}, nil
	}
	obj := &ObjectExpr{}
	for i, it := range items {
		if it.star {
			for _, v := range sourceVars {
				obj.Keys = append(obj.Keys, v)
				obj.Values = append(obj.Values, &VarRef{Name: v})
			}
			continue
		}
		name := it.alias
		if name == "" {
			name = inferColumnName(it.expr, i)
		}
		obj.Keys = append(obj.Keys, name)
		obj.Values = append(obj.Values, it.expr)
	}
	return &ReturnClause{Distinct: distinct, Expr: obj}, nil
}

func inferColumnName(e Expr, i int) string {
	switch t := e.(type) {
	case *VarRef:
		return t.Name
	case *FieldAccess:
		return t.Name
	case *FuncCall:
		return strings.ToLower(t.Name)
	case *BinaryOp:
		// ->> 'key' names the column after the key (PostgreSQL-ish).
		if t.Op == "->>" || t.Op == "->" {
			if lit, ok := t.R.(*Literal); ok && lit.Value.Kind() == mmvalue.KindString {
				return lit.Value.AsString()
			}
		}
	default:
		// Any other expression shape has no natural column name.
	}
	return fmt.Sprintf("column_%d", i+1)
}

// aggregateFuncs lists the aggregate function names both front-ends share.
var aggregateFuncs = map[string]bool{
	"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true,
}

func containsAggregate(e Expr) bool {
	found := false
	walkExpr(e, func(x Expr) {
		if fc, ok := x.(*FuncCall); ok && aggregateFuncs[fc.Name] {
			found = true
		}
	})
	return found
}

// walkExpr visits every node of an expression tree.
func walkExpr(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch t := e.(type) {
	case *FieldAccess:
		walkExpr(t.Base, fn)
	case *IndexAccess:
		walkExpr(t.Base, fn)
		walkExpr(t.Index, fn)
	case *BinaryOp:
		walkExpr(t.L, fn)
		walkExpr(t.R, fn)
	case *UnaryOp:
		walkExpr(t.X, fn)
	case *FuncCall:
		for _, a := range t.Args {
			walkExpr(a, fn)
		}
	case *ArrayExpr:
		for _, a := range t.Elems {
			walkExpr(a, fn)
		}
	case *ObjectExpr:
		for _, a := range t.Values {
			walkExpr(a, fn)
		}
	case *TernaryExpr:
		walkExpr(t.Cond, fn)
		walkExpr(t.Then, fn)
		walkExpr(t.Else, fn)
	case *Literal, *VarRef, *SubqueryExpr:
		// Leaves. Subquery pipelines are annotated by Pipeline.analyze,
		// which recurses into them explicitly; walkExpr stays shallow.
	}
}

// rewriteAggregates rewrites AGG(arg) into an aggregate over the implicit
// group rows: every reference to a source variable v inside arg becomes
// __rows[*].v, so SUM(c.price) evaluates SUM over the grouped rows.
// COUNT(*) becomes LENGTH(__rows).
func rewriteAggregates(e Expr, sourceVars []string) Expr {
	inSet := map[string]bool{}
	for _, v := range sourceVars {
		inSet[v] = true
	}
	var rw func(e Expr) Expr
	rw = func(e Expr) Expr {
		switch t := e.(type) {
		case *FuncCall:
			if aggregateFuncs[t.Name] {
				if t.Star {
					return &FuncCall{Name: "LENGTH", Args: []Expr{&VarRef{Name: groupRowsVar}}}
				}
				args := make([]Expr, len(t.Args))
				for i, a := range t.Args {
					args[i] = substituteGroupRefs(a, inSet, sourceVars)
				}
				return &FuncCall{Name: t.Name, Args: args}
			}
			args := make([]Expr, len(t.Args))
			for i, a := range t.Args {
				args[i] = rw(a)
			}
			return &FuncCall{Name: t.Name, Args: args, Star: t.Star}
		case *BinaryOp:
			return &BinaryOp{Op: t.Op, L: rw(t.L), R: rw(t.R)}
		case *UnaryOp:
			return &UnaryOp{Op: t.Op, X: rw(t.X)}
		case *FieldAccess:
			return &FieldAccess{Base: rw(t.Base), Name: t.Name}
		case *IndexAccess:
			idx := t.Index
			if idx != nil {
				idx = rw(idx)
			}
			return &IndexAccess{Base: rw(t.Base), Index: idx, Star: t.Star}
		case *TernaryExpr:
			return &TernaryExpr{Cond: rw(t.Cond), Then: rw(t.Then), Else: rw(t.Else)}
		default:
			return e
		}
	}
	return rw(e)
}

// substituteGroupRefs replaces source variable references with
// __rows[*].<var> inside aggregate arguments. inSet holds sourceVars, which
// may name one variable twice.
func substituteGroupRefs(e Expr, inSet map[string]bool, sourceVars []string) Expr {
	switch t := e.(type) {
	case *VarRef:
		if inSet[t.Name] {
			return &FieldAccess{
				Base: &IndexAccess{Base: &VarRef{Name: groupRowsVar}, Star: true},
				Name: t.Name,
			}
		}
		// A bare column name (SUM(qty) with FROM sales s): with a single
		// source, navigate through it — __rows[*].s.qty.
		if !t.Param && t.Name != groupRowsVar && len(inSet) == 1 {
			return &FieldAccess{
				Base: &FieldAccess{
					Base: &IndexAccess{Base: &VarRef{Name: groupRowsVar}, Star: true},
					Name: sourceVars[0],
				},
				Name: t.Name,
			}
		}
		return t
	case *FieldAccess:
		return &FieldAccess{Base: substituteGroupRefs(t.Base, inSet, sourceVars), Name: t.Name}
	case *IndexAccess:
		idx := t.Index
		if idx != nil {
			idx = substituteGroupRefs(idx, inSet, sourceVars)
		}
		return &IndexAccess{Base: substituteGroupRefs(t.Base, inSet, sourceVars), Index: idx, Star: t.Star}
	case *BinaryOp:
		return &BinaryOp{Op: t.Op, L: substituteGroupRefs(t.L, inSet, sourceVars), R: substituteGroupRefs(t.R, inSet, sourceVars)}
	case *UnaryOp:
		return &UnaryOp{Op: t.Op, X: substituteGroupRefs(t.X, inSet, sourceVars)}
	case *FuncCall:
		args := make([]Expr, len(t.Args))
		for i, a := range t.Args {
			args[i] = substituteGroupRefs(a, inSet, sourceVars)
		}
		return &FuncCall{Name: t.Name, Args: args, Star: t.Star}
	default:
		return e
	}
}
