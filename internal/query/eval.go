package query

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/graphstore"
	"repro/internal/mmvalue"
	"repro/internal/rdfstore"
)

// env is one row of bindings flowing through the pipeline, stored as a
// persistent chain: each bind prepends one immutable node, so binding is
// O(1) with no copying, rows sharing a prefix share memory, and an env can
// be read from any number of goroutines (the parallel executor relies on
// this). nil is the empty environment.
type env struct {
	parent   *env
	name     string
	val      mmvalue.Value
	isSource bool // bound by FROM/FOR, eligible for bare-column fallback
}

func newEnv() *env { return nil }

func (e *env) bind(name string, v mmvalue.Value) *env {
	return &env{parent: e, name: name, val: v}
}

func (e *env) bindSource(name string, v mmvalue.Value) *env {
	return &env{parent: e, name: name, val: v, isSource: true}
}

// lookupDirect finds the most recent binding of name.
func (e *env) lookupDirect(name string) (mmvalue.Value, bool) {
	for n := e; n != nil; n = n.parent {
		if n.name == name {
			return n.val, true
		}
	}
	return mmvalue.Null, false
}

// lookup resolves a name: direct binding first, then bare-column fallback
// through source variables (MSQL `credit_limit` meaning `c.credit_limit`),
// trying sources in declaration order.
func (e *env) lookup(name string) (mmvalue.Value, bool) {
	if v, ok := e.lookupDirect(name); ok {
		return v, true
	}
	var buf [8]string
	sources := buf[:0]
	for n := e; n != nil; n = n.parent {
		if n.isSource {
			sources = append(sources, n.name)
		}
	}
	for i := len(sources) - 1; i >= 0; i-- {
		if row, ok := e.lookupDirect(sources[i]); ok && row.Kind() == mmvalue.KindObject {
			if v, ok := row.Get(name); ok {
				return v, true
			}
		}
	}
	return mmvalue.Null, false
}

// this returns the newest source row (OrientDB's @this) for OUT()/IN().
func (e *env) this() (mmvalue.Value, bool) {
	for n := e; n != nil; n = n.parent {
		if n.isSource {
			return e.lookupDirect(n.name)
		}
	}
	return mmvalue.Null, false
}

// allVars snapshots every visible binding (newest wins) in oldest-first
// order, for COLLECT ... INTO materialization. Hidden "\x00"-prefixed
// bindings (decomposed aggregate values, see decompose.go) are skipped so
// member objects carry only user-visible variables.
func (e *env) allVars() []mmvalue.Field {
	seen := map[string]bool{}
	var fields []mmvalue.Field
	for n := e; n != nil; n = n.parent {
		if len(n.name) > 0 && n.name[0] == '\x00' {
			continue
		}
		if seen[n.name] {
			continue
		}
		seen[n.name] = true
		fields = append(fields, mmvalue.F(n.name, n.val))
	}
	for i, j := 0, len(fields)-1; i < j; i, j = i+1, j-1 {
		fields[i], fields[j] = fields[j], fields[i]
	}
	return fields
}

// eval evaluates an expression in an environment.
func (c *execCtx) eval(e Expr, en *env) (mmvalue.Value, error) {
	switch t := e.(type) {
	case *Literal:
		return t.Value, nil
	case *VarRef:
		if t.Param {
			v, ok := c.opts.Params[t.Name]
			if !ok {
				return mmvalue.Null, fmt.Errorf("query: unbound parameter @%s", t.Name)
			}
			return v, nil
		}
		if v, ok := en.lookup(t.Name); ok {
			return v, nil
		}
		return mmvalue.Null, fmt.Errorf("query: unknown variable %q", t.Name)
	case *FieldAccess:
		base, err := c.eval(t.Base, en)
		if err != nil {
			return mmvalue.Null, err
		}
		return navigateField(base, t.Name), nil
	case *IndexAccess:
		base, err := c.eval(t.Base, en)
		if err != nil {
			return mmvalue.Null, err
		}
		if t.Star {
			if base.Kind() == mmvalue.KindArray {
				return base, nil
			}
			return mmvalue.Array(), nil
		}
		idx, err := c.eval(t.Index, en)
		if err != nil {
			return mmvalue.Null, err
		}
		switch base.Kind() {
		case mmvalue.KindArray:
			v, _ := base.Index(int(idx.AsInt()))
			return v, nil
		case mmvalue.KindObject:
			if idx.Kind() == mmvalue.KindString {
				return base.GetOr(idx.AsString()), nil
			}
		default:
			// Indexing a scalar yields null, like a missing field.
		}
		return mmvalue.Null, nil
	case *BinaryOp:
		return c.evalBinary(t, en)
	case *UnaryOp:
		x, err := c.eval(t.X, en)
		if err != nil {
			return mmvalue.Null, err
		}
		switch t.Op {
		case "NOT":
			return mmvalue.Bool(!x.Truthy()), nil
		case "-":
			if x.Kind() == mmvalue.KindInt {
				return mmvalue.Int(-x.AsInt()), nil
			}
			return mmvalue.Float(-x.AsFloat()), nil
		}
		return mmvalue.Null, fmt.Errorf("query: unknown unary %q", t.Op)
	case *FuncCall:
		return c.evalFunc(t, en)
	case *ArrayExpr:
		arr := make([]mmvalue.Value, len(t.Elems))
		for i, el := range t.Elems {
			v, err := c.eval(el, en)
			if err != nil {
				return mmvalue.Null, err
			}
			arr[i] = v
		}
		return mmvalue.ArrayOf(arr), nil
	case *ObjectExpr:
		fields := make([]mmvalue.Field, 0, len(t.Keys))
		for i, k := range t.Keys {
			v, err := c.eval(t.Values[i], en)
			if err != nil {
				return mmvalue.Null, err
			}
			fields = append(fields, mmvalue.F(k, v))
		}
		return mmvalue.ObjectOf(fields), nil
	case *SubqueryExpr:
		vals, err := c.runPipeline(t.Pipeline, en)
		if err != nil {
			return mmvalue.Null, err
		}
		return mmvalue.ArrayOf(vals), nil
	case *TernaryExpr:
		cond, err := c.eval(t.Cond, en)
		if err != nil {
			return mmvalue.Null, err
		}
		if cond.Truthy() {
			return c.eval(t.Then, en)
		}
		return c.eval(t.Else, en)
	}
	return mmvalue.Null, fmt.Errorf("query: cannot evaluate %T", e)
}

// navigateField implements dot navigation: object field access, and
// OrientDB-style mapping over arrays with one level of flattening.
func navigateField(base mmvalue.Value, name string) mmvalue.Value {
	switch base.Kind() {
	case mmvalue.KindObject:
		return base.GetOr(name)
	case mmvalue.KindArray:
		var out []mmvalue.Value
		for _, el := range base.AsArray() {
			v := navigateField(el, name)
			if v.IsNull() {
				continue
			}
			if v.Kind() == mmvalue.KindArray {
				out = append(out, v.AsArray()...)
			} else {
				out = append(out, v)
			}
		}
		return mmvalue.ArrayOf(out)
	default:
		return mmvalue.Null
	}
}

func (c *execCtx) evalBinary(t *BinaryOp, en *env) (mmvalue.Value, error) {
	// Short-circuit logic first.
	switch t.Op {
	case "AND":
		l, err := c.eval(t.L, en)
		if err != nil {
			return mmvalue.Null, err
		}
		if !l.Truthy() {
			return mmvalue.False, nil
		}
		r, err := c.eval(t.R, en)
		if err != nil {
			return mmvalue.Null, err
		}
		return mmvalue.Bool(r.Truthy()), nil
	case "OR":
		l, err := c.eval(t.L, en)
		if err != nil {
			return mmvalue.Null, err
		}
		if l.Truthy() {
			return mmvalue.True, nil
		}
		r, err := c.eval(t.R, en)
		if err != nil {
			return mmvalue.Null, err
		}
		return mmvalue.Bool(r.Truthy()), nil
	}
	l, err := c.eval(t.L, en)
	if err != nil {
		return mmvalue.Null, err
	}
	r, err := c.eval(t.R, en)
	if err != nil {
		return mmvalue.Null, err
	}
	switch t.Op {
	case "==":
		return mmvalue.Bool(mmvalue.Compare(l, r) == 0), nil
	case "!=":
		return mmvalue.Bool(mmvalue.Compare(l, r) != 0), nil
	case "<":
		return mmvalue.Bool(mmvalue.Compare(l, r) < 0), nil
	case "<=":
		return mmvalue.Bool(mmvalue.Compare(l, r) <= 0), nil
	case ">":
		return mmvalue.Bool(mmvalue.Compare(l, r) > 0), nil
	case ">=":
		return mmvalue.Bool(mmvalue.Compare(l, r) >= 0), nil
	case "+":
		if l.Kind() == mmvalue.KindString || r.Kind() == mmvalue.KindString {
			return mmvalue.String(stringify(l) + stringify(r)), nil
		}
		if l.Kind() == mmvalue.KindInt && r.Kind() == mmvalue.KindInt {
			return mmvalue.Int(l.AsInt() + r.AsInt()), nil
		}
		return mmvalue.Float(l.AsFloat() + r.AsFloat()), nil
	case "-":
		if l.Kind() == mmvalue.KindInt && r.Kind() == mmvalue.KindInt {
			return mmvalue.Int(l.AsInt() - r.AsInt()), nil
		}
		return mmvalue.Float(l.AsFloat() - r.AsFloat()), nil
	case "*":
		if l.Kind() == mmvalue.KindInt && r.Kind() == mmvalue.KindInt {
			return mmvalue.Int(l.AsInt() * r.AsInt()), nil
		}
		return mmvalue.Float(l.AsFloat() * r.AsFloat()), nil
	case "/":
		if r.AsFloat() == 0 {
			return mmvalue.Null, nil
		}
		return mmvalue.Float(l.AsFloat() / r.AsFloat()), nil
	case "%":
		if r.AsInt() == 0 {
			return mmvalue.Null, nil
		}
		return mmvalue.Int(l.AsInt() % r.AsInt()), nil
	case "IN":
		if r.Kind() != mmvalue.KindArray {
			return mmvalue.False, nil
		}
		for _, el := range r.AsArray() {
			if mmvalue.Compare(l, el) == 0 {
				return mmvalue.True, nil
			}
		}
		return mmvalue.False, nil
	case "LIKE":
		return mmvalue.Bool(likeMatch(stringify(l), stringify(r))), nil
	case "->":
		return jsonArrow(l, r), nil
	case "->>":
		v := jsonArrow(l, r)
		if v.IsNull() {
			return mmvalue.Null, nil
		}
		return mmvalue.String(stringify(v)), nil
	case "#>":
		return jsonPathExtract(l, r), nil
	case "@>":
		return mmvalue.Bool(mmvalue.Contains(coerceJSON(l), coerceJSON(r))), nil
	case "<@":
		return mmvalue.Bool(mmvalue.Contains(coerceJSON(r), coerceJSON(l))), nil
	case "?":
		return mmvalue.Bool(mmvalue.HasKey(l, stringify(r))), nil
	case "?|":
		for _, k := range r.AsArray() {
			if mmvalue.HasKey(l, stringify(k)) {
				return mmvalue.True, nil
			}
		}
		return mmvalue.False, nil
	case "?&":
		for _, k := range r.AsArray() {
			if !mmvalue.HasKey(l, stringify(k)) {
				return mmvalue.False, nil
			}
		}
		return mmvalue.True, nil
	}
	return mmvalue.Null, fmt.Errorf("query: unknown operator %q", t.Op)
}

// jsonArrow implements the PostgreSQL -> operator: object field by string
// key or array element by integer index.
func jsonArrow(l, r mmvalue.Value) mmvalue.Value {
	switch {
	case r.Kind() == mmvalue.KindString:
		return l.GetOr(r.AsString())
	case r.IsNumber():
		v, _ := l.Index(int(r.AsInt()))
		return v
	}
	return mmvalue.Null
}

// jsonPathExtract implements #>: path as array of keys/indexes, PostgreSQL
// '{Orderlines,1}' style (the MSQL text form is an array literal or a
// brace-string).
func jsonPathExtract(l, r mmvalue.Value) mmvalue.Value {
	var steps []mmvalue.Value
	switch r.Kind() {
	case mmvalue.KindArray:
		steps = r.AsArray()
	case mmvalue.KindString:
		s := strings.Trim(r.AsString(), "{}")
		if s == "" {
			return l
		}
		for _, part := range strings.Split(s, ",") {
			part = strings.TrimSpace(part)
			if n, err := strconv.ParseInt(part, 10, 64); err == nil {
				steps = append(steps, mmvalue.Int(n))
			} else {
				steps = append(steps, mmvalue.String(part))
			}
		}
	default:
		return mmvalue.Null
	}
	cur := l
	for _, st := range steps {
		cur = jsonArrow(cur, st)
		if cur.IsNull() {
			return mmvalue.Null
		}
	}
	return cur
}

// coerceJSON parses a string operand that looks like a JSON document, so
// SQL-style `col @> '{"a":1}'` works like PostgreSQL's jsonb cast.
func coerceJSON(v mmvalue.Value) mmvalue.Value {
	if v.Kind() != mmvalue.KindString {
		return v
	}
	s := strings.TrimSpace(v.AsString())
	if len(s) == 0 || (s[0] != '{' && s[0] != '[') {
		return v
	}
	if parsed, err := mmvalue.ParseJSON([]byte(s)); err == nil {
		return parsed
	}
	return v
}

func stringify(v mmvalue.Value) string {
	if v.Kind() == mmvalue.KindString {
		return v.AsString()
	}
	return v.String()
}

// likeMatch implements SQL LIKE with % and _ wildcards.
func likeMatch(s, pattern string) bool {
	// Dynamic-programming match to avoid regexp.
	n, m := len(s), len(pattern)
	dp := make([]bool, n+1)
	dp[0] = true
	for j := 0; j < m; j++ {
		p := pattern[j]
		next := make([]bool, n+1)
		switch p {
		case '%':
			// next[i] true if any dp[k] for k <= i.
			any := false
			for i := 0; i <= n; i++ {
				if dp[i] {
					any = true
				}
				next[i] = any
			}
		case '_':
			for i := 1; i <= n; i++ {
				next[i] = dp[i-1]
			}
		default:
			for i := 1; i <= n; i++ {
				next[i] = dp[i-1] && s[i-1] == p
			}
		}
		dp = next
	}
	return dp[n]
}

// evalFunc dispatches built-in functions, including the cross-model access
// functions that make one query touch every data model.
func (c *execCtx) evalFunc(t *FuncCall, en *env) (mmvalue.Value, error) {
	// Decomposed aggregate fast path: a call annotated at compile time reads
	// the value the upstream COLLECT accumulated per group, skipping both the
	// INTO-array navigation and the fold. Null marks a state that could not
	// stay byte-exact (see decompose.go) — fall through to the normal fold.
	if t.aggName != "" {
		if v, ok := en.lookupDirect(t.aggName); ok && !v.IsNull() {
			return v, nil
		}
	}
	args := make([]mmvalue.Value, len(t.Args))
	for i, a := range t.Args {
		v, err := c.eval(a, en)
		if err != nil {
			return mmvalue.Null, err
		}
		args[i] = v
	}
	need := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("query: %s expects %d arguments, got %d", t.Name, n, len(args))
		}
		return nil
	}
	switch t.Name {
	case "LENGTH", "COUNT":
		if t.Star {
			return mmvalue.Null, fmt.Errorf("query: COUNT(*) outside GROUP BY context")
		}
		if err := need(1); err != nil {
			return mmvalue.Null, err
		}
		return mmvalue.Int(int64(args[0].Len())), nil
	case "SUM":
		if err := need(1); err != nil {
			return mmvalue.Null, err
		}
		return foldNumeric(arrayElems(args[0])).sumValue(), nil
	case "AVG":
		if err := need(1); err != nil {
			return mmvalue.Null, err
		}
		return foldNumeric(arrayElems(args[0])).avgValue(), nil
	case "MIN", "MAX":
		if err := need(1); err != nil {
			return mmvalue.Null, err
		}
		arr := args[0].AsArray()
		if len(arr) == 0 {
			return mmvalue.Null, nil
		}
		best := arr[0]
		for _, x := range arr[1:] {
			cmp := mmvalue.Compare(x, best)
			if (t.Name == "MIN" && cmp < 0) || (t.Name == "MAX" && cmp > 0) {
				best = x
			}
		}
		return best, nil
	case "CONCAT":
		var sb strings.Builder
		for _, a := range args {
			sb.WriteString(stringify(a))
		}
		return mmvalue.String(sb.String()), nil
	case "UPPER":
		if err := need(1); err != nil {
			return mmvalue.Null, err
		}
		return mmvalue.String(strings.ToUpper(stringify(args[0]))), nil
	case "LOWER":
		if err := need(1); err != nil {
			return mmvalue.Null, err
		}
		return mmvalue.String(strings.ToLower(stringify(args[0]))), nil
	case "CONTAINS":
		if err := need(2); err != nil {
			return mmvalue.Null, err
		}
		return mmvalue.Bool(strings.Contains(stringify(args[0]), stringify(args[1]))), nil
	case "STARTS_WITH":
		if err := need(2); err != nil {
			return mmvalue.Null, err
		}
		return mmvalue.Bool(strings.HasPrefix(stringify(args[0]), stringify(args[1]))), nil
	case "SUBSTRING":
		if len(args) < 2 || len(args) > 3 {
			return mmvalue.Null, fmt.Errorf("query: SUBSTRING expects 2 or 3 arguments")
		}
		s := stringify(args[0])
		start := int(args[1].AsInt())
		if start < 0 || start > len(s) {
			return mmvalue.String(""), nil
		}
		end := len(s)
		if len(args) == 3 {
			end = start + int(args[2].AsInt())
			if end > len(s) {
				end = len(s)
			}
		}
		return mmvalue.String(s[start:end]), nil
	case "ABS":
		if err := need(1); err != nil {
			return mmvalue.Null, err
		}
		if args[0].Kind() == mmvalue.KindInt {
			x := args[0].AsInt()
			if x < 0 {
				x = -x
			}
			return mmvalue.Int(x), nil
		}
		return mmvalue.Float(math.Abs(args[0].AsFloat())), nil
	case "ROUND":
		if err := need(1); err != nil {
			return mmvalue.Null, err
		}
		return mmvalue.Int(int64(math.Round(args[0].AsFloat()))), nil
	case "COALESCE", "NOT_NULL":
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return mmvalue.Null, nil
	case "TO_STRING":
		if err := need(1); err != nil {
			return mmvalue.Null, err
		}
		return mmvalue.String(stringify(args[0])), nil
	case "TO_NUMBER":
		if err := need(1); err != nil {
			return mmvalue.Null, err
		}
		if args[0].IsNumber() {
			return args[0], nil
		}
		if f, err := strconv.ParseFloat(stringify(args[0]), 64); err == nil {
			if f == math.Trunc(f) {
				return mmvalue.Int(int64(f)), nil
			}
			return mmvalue.Float(f), nil
		}
		return mmvalue.Null, nil
	case "UNIQUE":
		if err := need(1); err != nil {
			return mmvalue.Null, err
		}
		var out []mmvalue.Value
		for _, x := range args[0].AsArray() {
			dup := false
			for _, y := range out {
				if mmvalue.Equal(x, y) {
					dup = true
					break
				}
			}
			if !dup {
				out = append(out, x)
			}
		}
		return mmvalue.ArrayOf(out), nil
	case "FLATTEN":
		if err := need(1); err != nil {
			return mmvalue.Null, err
		}
		var out []mmvalue.Value
		for _, x := range args[0].AsArray() {
			if x.Kind() == mmvalue.KindArray {
				out = append(out, x.AsArray()...)
			} else {
				out = append(out, x)
			}
		}
		return mmvalue.ArrayOf(out), nil
	case "FIRST":
		if err := need(1); err != nil {
			return mmvalue.Null, err
		}
		v, _ := args[0].Index(0)
		return v, nil
	case "LAST":
		if err := need(1); err != nil {
			return mmvalue.Null, err
		}
		v, _ := args[0].Index(-1)
		return v, nil
	case "HAS":
		if err := need(2); err != nil {
			return mmvalue.Null, err
		}
		return mmvalue.Bool(mmvalue.HasKey(args[0], stringify(args[1]))), nil
	case "KEYS":
		if err := need(1); err != nil {
			return mmvalue.Null, err
		}
		keys := args[0].Keys()
		arr := make([]mmvalue.Value, len(keys))
		for i, k := range keys {
			arr[i] = mmvalue.String(k)
		}
		return mmvalue.ArrayOf(arr), nil
	case "MERGE":
		if err := need(2); err != nil {
			return mmvalue.Null, err
		}
		return args[0].Merge(args[1]), nil
	// --- Cross-model access functions ---
	case "DOCUMENT":
		if err := need(2); err != nil {
			return mmvalue.Null, err
		}
		doc, ok, err := c.src.Docs.Get(c.tx, stringify(args[0]), stringify(args[1]))
		if err != nil || !ok {
			return mmvalue.Null, err
		}
		return doc, nil
	case "KV":
		if err := need(2); err != nil {
			return mmvalue.Null, err
		}
		v, ok, err := c.src.KV.Get(c.tx, stringify(args[0]), stringify(args[1]))
		if err != nil || !ok {
			return mmvalue.Null, err
		}
		return v, nil
	case "OUT", "IN", "INN", "BOTH":
		return c.evalGraphNav(t.Name, args, en)
	case "SHORTEST_PATH":
		if err := need(3); err != nil {
			return mmvalue.Null, err
		}
		path, err := c.graphShortestPath(stringify(args[0]),
			stringify(args[1]), stringify(args[2]), graphstore.Outbound, "")
		if err != nil {
			return mmvalue.Array(), nil //nolint:nilerr — no path is a value, not an error
		}
		arr := make([]mmvalue.Value, len(path))
		for i, v := range path {
			arr[i] = mmvalue.String(v)
		}
		return mmvalue.ArrayOf(arr), nil
	case "XPATH":
		if err := need(2); err != nil {
			return mmvalue.Null, err
		}
		vals, err := c.src.XML.XPathValues(c.tx, stringify(args[0]), stringify(args[1]))
		if err != nil {
			return mmvalue.Null, err
		}
		return mmvalue.ArrayOf(vals), nil
	case "TRIPLES":
		if err := need(4); err != nil {
			return mmvalue.Null, err
		}
		pat := rdfstore.Pattern{}
		if !args[1].IsNull() {
			pat.S = stringify(args[1])
		}
		if !args[2].IsNull() {
			pat.P = stringify(args[2])
		}
		if !args[3].IsNull() {
			pat.O = stringify(args[3])
		}
		triples, err := c.src.RDF.Match(c.tx, stringify(args[0]), pat)
		if err != nil {
			return mmvalue.Null, err
		}
		arr := make([]mmvalue.Value, len(triples))
		for i, tr := range triples {
			arr[i] = mmvalue.Object(
				mmvalue.F("s", mmvalue.String(tr.S)),
				mmvalue.F("p", mmvalue.String(tr.P)),
				mmvalue.F("o", mmvalue.String(tr.O)),
			)
		}
		return mmvalue.ArrayOf(arr), nil
	case "FTSEARCH":
		if err := need(2); err != nil {
			return mmvalue.Null, err
		}
		ids, err := c.src.Docs.SearchText(c.tx, stringify(args[0]), stringify(args[1]))
		if err != nil {
			return mmvalue.Null, err
		}
		arr := make([]mmvalue.Value, len(ids))
		for i, id := range ids {
			arr[i] = mmvalue.String(id)
		}
		return mmvalue.ArrayOf(arr), nil
	case "EXPAND":
		// EXPAND outside the single-item select position degrades to
		// identity (the flattening happens in RETURN).
		if err := need(1); err != nil {
			return mmvalue.Null, err
		}
		return args[0], nil
	}
	return mmvalue.Null, fmt.Errorf("query: unknown function %s", t.Name)
}

// evalGraphNav implements OUT/IN/BOTH(graph, label [, startKey]); without a
// start it navigates from @this._key. Returns the far vertex documents.
func (c *execCtx) evalGraphNav(name string, args []mmvalue.Value, en *env) (mmvalue.Value, error) {
	if len(args) < 2 || len(args) > 3 {
		return mmvalue.Null, fmt.Errorf("query: %s expects (graph, label [, start])", name)
	}
	graph := stringify(args[0])
	label := ""
	if !args[1].IsNull() {
		label = stringify(args[1])
	}
	var start string
	if len(args) == 3 {
		start = stringify(args[2])
	} else {
		this, ok := en.this()
		if !ok {
			return mmvalue.Null, fmt.Errorf("query: %s without a current row", name)
		}
		start = this.GetOr("_key").AsString()
	}
	dir := graphstore.Outbound
	switch name {
	case "IN", "INN":
		dir = graphstore.Inbound
	case "BOTH":
		dir = graphstore.Any
	}
	keys, err := c.graphNeighborKeys(graph, start, dir, label)
	if err != nil {
		return mmvalue.Null, err
	}
	var out []mmvalue.Value
	for _, k := range keys {
		doc, ok, err := c.src.Graphs.Vertex(c.tx, graph, k)
		if err != nil {
			return mmvalue.Null, err
		}
		if ok {
			out = append(out, doc)
		}
	}
	return mmvalue.ArrayOf(out), nil
}

// numericFold is the left-to-right float64 fold SUM and AVG share over the
// numeric elements of a stream (the others are skipped). The vectorized
// aggregate refolds through it too, so both paths agree bit for bit.
type numericFold struct {
	sum    float64
	n      int
	allInt bool
}

// foldNumeric folds the elements each visits, in order.
func foldNumeric(each func(visit func(mmvalue.Value))) numericFold {
	f := numericFold{allInt: true}
	each(func(x mmvalue.Value) {
		if !x.IsNumber() {
			return
		}
		if x.Kind() != mmvalue.KindInt {
			f.allInt = false
		}
		f.sum += x.AsFloat()
		f.n++
	})
	return f
}

// sumValue is SUM's result: an Int when every element was one and the sum
// is integral, else a Float.
func (f numericFold) sumValue() mmvalue.Value {
	if f.allInt && f.sum == math.Trunc(f.sum) {
		return mmvalue.Int(int64(f.sum))
	}
	return mmvalue.Float(f.sum)
}

// avgValue is AVG's result: Null over no numbers.
func (f numericFold) avgValue() mmvalue.Value {
	if f.n == 0 {
		return mmvalue.Null
	}
	return mmvalue.Float(f.sum / float64(f.n))
}

// arrayElems streams an array's elements (none for a non-array).
func arrayElems(v mmvalue.Value) func(visit func(mmvalue.Value)) {
	return func(visit func(mmvalue.Value)) {
		for _, x := range v.AsArray() {
			visit(x)
		}
	}
}
