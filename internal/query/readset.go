package query

// Compile-time read-set analysis for the cross-query result cache.
//
// A cached materialized result is valid exactly while every keyspace the
// pipeline read is unchanged, so the compiler must know — before execution —
// which stores a pipeline can touch. This file derives that set from the
// AST: named FOR sources, graph traversals, and the cross-model access
// functions (DOCUMENT, FTSEARCH, KV, OUT/IN/INN/BOTH, SHORTEST_PATH, XPATH,
// TRIPLES) with literal first arguments. Anything whose target is only
// known at run time (a computed collection name) marks the pipeline
// uncacheable instead: correctness over coverage. Index keyspaces (`@>` via
// a GIN, FTSEARCH via a full-text index) need no entry: every write to an
// index also writes its collection's keyspace in the same transaction.
//
// This file is in the cachekey lint scope (see internal/lint): no map
// iteration, wall-clock, or randomness may influence what it computes,
// because its output is half of a cache key.

import "repro/internal/mmvalue"

// ReadKind classifies one entry of a pipeline's read-set.
type ReadKind int

// Read-set reference kinds. ReadSource names a FOR source whose concrete
// model (collection, table, bucket, graph, column table) is resolved by the
// caller against the catalog; the function-derived kinds are already
// model-typed by the function that produced them.
const (
	ReadSource ReadKind = iota
	ReadCollection
	ReadBucket
	ReadGraph
	ReadXML
	ReadRDF
)

// ReadRef is one compile-time read-set entry: a kind plus the model-level
// name (collection, bucket, graph, document, …) it refers to.
type ReadRef struct {
	Kind ReadKind
	Name string
}

// ReadSet returns the pipeline's compile-time read-set in deterministic
// clause order, deduplicated. Callers must not mutate the returned slice.
// Only meaningful when Cacheable() is true.
func (p *Pipeline) ReadSet() []ReadRef { return p.readSet }

// Cacheable reports whether a materialized result of this pipeline may be
// reused across queries: the pipeline is proven read-only and every data
// access it can perform is covered by the read-set. Unanalyzed pipelines are
// conservatively uncacheable.
func (p *Pipeline) Cacheable() bool {
	return p.analyzed && !p.hasMutation && p.cacheable
}

// computeReadSet derives p.readSet and p.cacheable. Called by
// analyze after its clause walk, when every nested subquery pipeline is
// already analyzed (so their read-sets union in directly). Deduplication is
// by linear scan — read-sets are tiny, and this path must stay free of map
// iteration.
func (p *Pipeline) computeReadSet() {
	cacheable := true
	var refs []ReadRef
	add := func(kind ReadKind, name string) {
		for _, r := range refs {
			if r.Kind == kind && r.Name == name {
				return
			}
		}
		refs = append(refs, ReadRef{Kind: kind, Name: name})
	}
	for _, cl := range p.Clauses {
		if fc, ok := cl.(*ForClause); ok {
			switch fc.Source.Kind {
			case SourceName:
				add(ReadSource, fc.Source.Name)
			case SourceTraversal:
				add(ReadGraph, fc.Source.Graph)
			case SourceExpr:
				// Whatever the expression reads is found by the walk below.
			}
		}
		for _, e := range clauseExprs(cl) {
			walkExpr(e, func(x Expr) {
				switch t := x.(type) {
				case *SubqueryExpr:
					if !t.Pipeline.cacheable || t.Pipeline.hasMutation {
						cacheable = false
						return
					}
					for _, r := range t.Pipeline.readSet {
						add(r.Kind, r.Name)
					}
				case *FuncCall:
					kind, reads := crossModelRead(t.Name)
					if !reads {
						return
					}
					name, lit := literalStringArg(t.Args, 0)
					if !lit {
						// Target store only known at run time.
						cacheable = false
						return
					}
					add(kind, name)
				case *ArrayExpr, *BinaryOp, *FieldAccess, *IndexAccess, *Literal,
					*ObjectExpr, *TernaryExpr, *UnaryOp, *VarRef:
					// Pure node kinds: no store access of their own, and
					// walkExpr already descends into their children. Listed
					// explicitly (no default) so a future Expr kind fails the
					// exhaustive lint and forces a cacheability decision here.
				}
			})
		}
	}
	p.readSet = refs
	p.cacheable = cacheable
}

// crossModelRead maps a function name to the read-set kind of its first
// (name) argument; reads is false for pure functions that touch no store.
func crossModelRead(name string) (kind ReadKind, reads bool) {
	switch name {
	case "DOCUMENT", "FTSEARCH":
		return ReadCollection, true
	case "KV":
		return ReadBucket, true
	case "OUT", "IN", "INN", "BOTH", "SHORTEST_PATH":
		return ReadGraph, true
	case "XPATH":
		return ReadXML, true
	case "TRIPLES":
		return ReadRDF, true
	}
	return 0, false
}

// literalStringArg returns args[i] when it is a string literal.
func literalStringArg(args []Expr, i int) (string, bool) {
	if i >= len(args) {
		return "", false
	}
	lit, ok := args[i].(*Literal)
	if !ok {
		return "", false
	}
	if lit.Value.Kind() != mmvalue.KindString {
		return "", false
	}
	return lit.Value.AsString(), true
}
