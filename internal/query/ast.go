package query

import (
	"repro/internal/graphstore"
	"repro/internal/mmvalue"
)

// Expr is an expression AST node.
type Expr interface{ expr() }

// Literal is a constant value.
type Literal struct{ Value mmvalue.Value }

// VarRef references a bound variable (loop variable, LET binding, alias) or
// a bind parameter.
type VarRef struct {
	Name  string
	Param bool // true for @name bind parameters
}

// FieldAccess is expr.name.
type FieldAccess struct {
	Base Expr
	Name string
}

// IndexAccess is expr[index] where index is an expression, or expr[*] when
// Star is set (AQL array expansion).
type IndexAccess struct {
	Base  Expr
	Index Expr
	Star  bool
}

// BinaryOp is a binary operator application. Op is normalized: "==", "!=",
// "<", "<=", ">", ">=", "+", "-", "*", "/", "%", "AND", "OR", "IN", "LIKE",
// "->", "->>", "#>", "@>", "<@", "?", "?|", "?&", "CONTAINSKEY".
type BinaryOp struct {
	Op   string
	L, R Expr
}

// UnaryOp is "-", "NOT".
type UnaryOp struct {
	Op string
	X  Expr
}

// FuncCall is a function application; Star marks COUNT(*).
type FuncCall struct {
	Name string // upper-cased
	Args []Expr
	Star bool

	// aggName is set by Pipeline.analyze when this call is a decomposable
	// aggregate over an upstream COLLECT ... INTO group variable: it names
	// the hidden env binding carrying the precomputed value (see
	// decompose.go). Empty for ordinary calls.
	aggName string
}

// ArrayExpr is [e1, e2, ...].
type ArrayExpr struct{ Elems []Expr }

// ObjectExpr is {k1: e1, ...}.
type ObjectExpr struct {
	Keys   []string
	Values []Expr
}

// SubqueryExpr is a parenthesized MMQL pipeline used as an expression; it
// evaluates to the array of returned values.
type SubqueryExpr struct{ Pipeline *Pipeline }

// TernaryExpr is cond ? a : b.
type TernaryExpr struct{ Cond, Then, Else Expr }

func (*Literal) expr()      {}
func (*VarRef) expr()       {}
func (*FieldAccess) expr()  {}
func (*IndexAccess) expr()  {}
func (*BinaryOp) expr()     {}
func (*UnaryOp) expr()      {}
func (*FuncCall) expr()     {}
func (*ArrayExpr) expr()    {}
func (*ObjectExpr) expr()   {}
func (*SubqueryExpr) expr() {}
func (*TernaryExpr) expr()  {}

// Clause is one stage of the logical pipeline both front-ends compile to.
type Clause interface{ clause() }

// ForClause iterates a source, binding Var for each element.
type ForClause struct {
	Var    string
	Source Source
}

// SourceKind discriminates FOR sources.
type SourceKind int

// Source kinds.
const (
	SourceName      SourceKind = iota // named collection/table/bucket/graph
	SourceExpr                        // any expression yielding an array
	SourceTraversal                   // graph traversal
)

// Source describes what a ForClause iterates.
type Source struct {
	Kind SourceKind
	Name string // SourceName
	Expr Expr   // SourceExpr
	// Traversal fields.
	Min, Max  int
	Direction graphstore.Direction
	Start     Expr   // start vertex key
	Graph     string // graph name
	Label     string // optional edge label filter
}

// LetClause binds Var to the value of Expr.
type LetClause struct {
	Var  string
	Expr Expr

	// parallelSafe is set by Pipeline.analyze when Expr contains no
	// subqueries, so the binding may be evaluated for many rows
	// concurrently by the parallel executor.
	parallelSafe bool
}

// FilterClause keeps rows where Expr is truthy.
type FilterClause struct {
	Expr Expr

	// parallelSafe is set by Pipeline.analyze when Expr contains no
	// subqueries, so it may be evaluated concurrently by the parallel
	// scan+filter executor (subqueries run whole pipelines and mutate
	// shared executor state).
	parallelSafe bool
}

// SortKey is one ORDER BY / SORT key.
type SortKey struct {
	Expr Expr
	Desc bool
}

// SortClause orders rows.
type SortClause struct {
	Keys []SortKey

	// parallelSafe is set by Pipeline.analyze when no key expression
	// contains a subquery, so key evaluation and the chunked merge sort may
	// run on the worker pool.
	parallelSafe bool
}

// LimitClause applies offset/count.
type LimitClause struct{ Offset, Count Expr }

// CollectClause groups rows by key expressions. Each output row binds the
// key variables plus, when Into is set, an array of the grouped rows'
// visible bindings. Aggregate FuncCalls downstream read the group.
type CollectClause struct {
	Vars []string
	Keys []Expr
	Into string // optional group variable

	// parallelSafe is set by Pipeline.analyze when no key expression
	// contains a subquery, so per-chunk partial grouping (and INTO member
	// materialization) may run on the worker pool.
	parallelSafe bool
	// aggSpecs lists the decomposable aggregates downstream clauses compute
	// over the Into array (see decompose.go): both COLLECT paths accumulate
	// a per-group partial state per spec and bind the finished value under
	// the spec's hidden name.
	aggSpecs []aggSpec
}

// ReturnClause produces the result value per row. expand (set by MSQL's
// EXPAND) flattens array results into individual rows, OrientDB-style.
type ReturnClause struct {
	Distinct bool
	Expr     Expr
	expand   bool

	// parallelSafe is set by Pipeline.analyze when Expr contains no
	// subqueries, so the projection — including per-group aggregate folds
	// like SUM(g[*].x) — may be evaluated for many rows concurrently.
	parallelSafe bool
}

// InsertClause inserts the evaluated document into a collection per row.
type InsertClause struct {
	Doc  Expr
	Coll string
}

// UpdateClause merges Patch into the document with key KeyExpr.
type UpdateClause struct {
	KeyExpr Expr
	Patch   Expr
	Coll    string
}

// RemoveClause deletes the document with key KeyExpr.
type RemoveClause struct {
	KeyExpr Expr
	Coll    string
}

// distinctRowsClause deduplicates rows by key expressions before sort and
// limit — SQL's DISTINCT-before-ORDER BY/LIMIT ordering, which MMQL's
// RETURN DISTINCT (applied last) cannot express.
type distinctRowsClause struct{ keys []Expr }

func (*distinctRowsClause) clause() {}

func (*ForClause) clause()     {}
func (*LetClause) clause()     {}
func (*FilterClause) clause()  {}
func (*SortClause) clause()    {}
func (*LimitClause) clause()   {}
func (*CollectClause) clause() {}
func (*ReturnClause) clause()  {}
func (*InsertClause) clause()  {}
func (*UpdateClause) clause()  {}
func (*RemoveClause) clause()  {}

// Pipeline is a parsed query: a clause sequence ending in RETURN or a DML
// clause. A Pipeline is immutable after parsing: the compiled annotations
// below are filled in once by analyze, so one parsed Pipeline (e.g. from
// core's plan cache) may be executed by any number of goroutines
// concurrently.
type Pipeline struct {
	Clauses []Clause

	// hasMutation is set by analyze when the pipeline — or any subquery
	// pipeline nested in its expressions — contains INSERT/UPDATE/REMOVE.
	// Such pipelines always use the serial executor.
	hasMutation bool
	// analyzed records that compile-time analysis ran (parsers always run
	// it; hand-built pipelines that skip it simply never parallelize).
	analyzed bool
	// readSet and cacheable are set by analyze via computeReadSet (see
	// readset.go): the stores the pipeline can read, and whether a
	// materialized result may be reused across queries under the per-keyspace
	// data-version vector.
	readSet   []ReadRef
	cacheable bool
	// viewBacked is set by computeReadSet when the pipeline (or a nested
	// subquery) may be answered from a commit-log-subscriber view — `@>`
	// via the GIN, FTSEARCH via full-text — whose contents can run ahead of
	// a snapshot. It implies !cacheable.
	viewBacked bool
	// vec is the compile-time vectorization plan (see the vectorizable
	// analysis in compile.go and the runtime in vector.go): non-nil when the
	// pipeline opens with a FOR over a named source whose fused filters are
	// expressible over column vectors. Execution still requires
	// Options.Vectorized and a column-backed ("coltable") source.
	vec *vecPlan
}
