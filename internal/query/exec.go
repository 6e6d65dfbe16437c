package query

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/colstore"
	"repro/internal/docstore"
	"repro/internal/engine"
	"repro/internal/fanout"
	"repro/internal/graphstore"
	"repro/internal/kvstore"
	"repro/internal/mmvalue"
	"repro/internal/rdfstore"
	"repro/internal/relstore"
	"repro/internal/xmlstore"
)

// Sources wires the query layer to every model store.
type Sources struct {
	Cols   *colstore.Store
	Docs   *docstore.Store
	Rels   *relstore.Store
	KV     *kvstore.Store
	Graphs *graphstore.Store
	XML    *xmlstore.Store
	RDF    *rdfstore.Store

	// Resolve reports what kind of source a name is: "collection",
	// "table", "graph", "bucket", or "" when unknown.
	Resolve func(tx engine.Tx, name string) string
}

// Options tunes one execution.
type Options struct {
	// Params binds @name parameters.
	Params map[string]mmvalue.Value
	// SnapshotReads is redundant and ignored: the auto-transaction entry
	// points (core.DB and unidb.Database) already run every proven read-only
	// pipeline on a lock-free MVCC snapshot. The field survives only because
	// the benchmark ladder (bench/ladder.go) still sets it; a benchmark-only
	// change drops that use, after which a product change deletes the field.
	SnapshotReads bool
	// Ablate switches execution strategies off. The zero value runs every
	// strategy the compiled plan makes eligible; see Ablate.
	Ablate Ablate
}

// Ablate is a set of execution strategies to switch off, for tests and
// experiments. Every strategy is byte-identical to the serial row path by
// contract, so no bit changes a result except NoIndexes, which can change
// the order of an unsorted result (index-range order vs scan order).
type Ablate uint8

const (
	// NoIndexes forces full scans (the ablation for E2–E6).
	NoIndexes Ablate = 1 << iota
	// NoParallel keeps every stage on the calling goroutine (E18).
	NoParallel
	// NoVector runs column-table scans row at a time instead of on the
	// batch-at-a-time executor in vector.go (E23).
	NoVector
	// NoCSR answers graph traversals and navigation functions by per-edge
	// B+tree probes even on a snapshot transaction (E25).
	NoCSR
	// Stress is the test bit: parallel stages engage from one element on
	// four workers, even on a one-CPU host, and column batches hold 7 rows,
	// so chunk merges and batch boundaries are exercised on small inputs.
	Stress
)

// Stats reports what the optimizer did — benches assert on these.
type Stats struct {
	FullScans     int      // sources walked row by row
	IndexScans    int      // sources served by an index
	IndexUsed     []string // descriptions of index accesses
	RowsRead      int      // rows pulled from sources before filtering
	ParallelScans int      // FOR clauses and column scans split into chunks
	// Counters of the other stages split into chunks (see parallel.go).
	ParallelCollects     int // COLLECT stages grouped via per-chunk partials
	ParallelSorts        int // SORT stages run as chunked stable merge sorts
	ParallelEvals        int // standalone FILTER/LET/RETURN stages
	ParallelIndexFetches int // index-range key lists fetched in chunks
	// DecomposedAggs counts aggregate specs served from per-group partial
	// states accumulated during COLLECT (see decompose.go) instead of folded
	// over the INTO array at projection time.
	DecomposedAggs int
	// StagedWrites counts DML rows whose expressions were fully evaluated
	// before any write was applied. Staged writes land in the transaction's
	// record buffer and reach the WAL as one AppendBatch at commit, so a
	// multi-row INSERT/UPDATE/REMOVE costs a single group-commit window.
	StagedWrites int
	// SnapshotReads is 1 when this execution ran on a lock-free snapshot
	// transaction (zero lock-manager traffic) and 0 on the 2PL path.
	SnapshotReads int
	// Vectorized-execution counters (see vector.go).
	VectorizedBatches      int // column batches processed batch-at-a-time
	BatchesSkippedByBitmap int // batches pruned by bitset/zone/bitslice alone
	VectorizedAggs         int // per-batch aggregates answered from column vectors
	// CSRTraversals counts traversal clauses and graph functions served by
	// the CSR adjacency snapshot instead of per-edge probes (csrroute.go).
	CSRTraversals int
}

// Result is a completed execution.
type Result struct {
	Values []mmvalue.Value
	Stats  Stats
}

type execCtx struct {
	tx    engine.Tx
	src   *Sources
	opts  Options
	stats Stats
	// curPipe is the pipeline currently being run (subqueries swap it in
	// and out); its compiled annotations gate split's fan-out.
	curPipe *Pipeline
	// csrTraversals becomes Stats.CSRTraversals. Graph functions count into
	// it from chunk bodies, several of which may run at once.
	csrTraversals atomic.Int64
	// resolved memoizes source-name classification for this execution.
	// Queries cannot run DDL, so a name's kind cannot change mid-query;
	// this spares nested FOR clauses a catalog lookup per outer row.
	resolved map[string]string
}

// Execute runs a pipeline inside a transaction.
func Execute(tx engine.Tx, src *Sources, pipe *Pipeline, opts Options) (*Result, error) {
	c := &execCtx{tx: tx, src: src, opts: opts}
	if tx.SnapshotRead() {
		c.stats.SnapshotReads = 1
	}
	vals, err := c.runPipeline(pipe, newEnv())
	if err != nil {
		return nil, err
	}
	c.stats.CSRTraversals = int(c.csrTraversals.Load())
	return &Result{Values: vals, Stats: c.stats}, nil
}

// runPipeline executes clauses over a starting environment, returning the
// RETURN values (or per-row DML acknowledgements).
func (c *execCtx) runPipeline(pipe *Pipeline, start *env) ([]mmvalue.Value, error) {
	prevPipe := c.curPipe
	c.curPipe = pipe
	defer func() { c.curPipe = prevPipe }()
	// Whole-pipeline vectorized aggregation: when the compiled plan proved
	// the pipeline is exactly scan→filter→keyless-aggregate, finish it from
	// per-batch column partials without materializing a single row. Only
	// from an empty starting environment — a subquery run per outer row has
	// outer bindings its expressions may reference.
	if c.opts.Ablate&NoVector == 0 && pipe.vec != nil && pipe.vec.agg != nil && start == nil {
		vals, ok, err := c.execVecAgg(pipe)
		if err != nil {
			return nil, err
		}
		if ok {
			return vals, nil
		}
	}
	rows := []*env{start}
	clauses := pipe.Clauses
	for i := 0; i < len(clauses); i++ {
		switch cl := clauses[i].(type) {
		case *ForClause:
			// Peek at immediately-following filters: they feed index
			// selection, and execFor applies them (fused, possibly in
			// parallel), so they are consumed here rather than run as
			// standalone clauses.
			var filters []*FilterClause
			for j := i + 1; j < len(clauses); j++ {
				f, ok := clauses[j].(*FilterClause)
				if !ok {
					break
				}
				filters = append(filters, f)
			}
			// A LIMIT directly after the FOR and its filters bounds how many
			// survivors the source has to produce.
			need := -1
			if j := i + 1 + len(filters); j < len(clauses) {
				if lc, ok := clauses[j].(*LimitClause); ok {
					need = c.limitBound(lc)
				}
			}
			next, err := c.execFor(cl, filters, rows, need)
			if err != nil {
				return nil, err
			}
			rows = next
			i += len(filters)
		case *LetClause:
			next, err := c.execLet(cl, rows)
			if err != nil {
				return nil, err
			}
			rows = next
		case *FilterClause:
			next, err := c.execFilter(cl, rows)
			if err != nil {
				return nil, err
			}
			rows = next
		case *SortClause:
			next, err := c.execSort(cl, rows)
			if err != nil {
				return nil, err
			}
			rows = next
		case *LimitClause:
			next, err := c.execLimit(cl, rows)
			if err != nil {
				return nil, err
			}
			rows = next
		case *CollectClause:
			next, err := c.execCollect(cl, rows)
			if err != nil {
				return nil, err
			}
			rows = next
		case *distinctRowsClause:
			next, err := c.execDistinctRows(cl, rows)
			if err != nil {
				return nil, err
			}
			rows = next
		case *ReturnClause:
			return c.execReturn(cl, rows)
		case *InsertClause:
			return c.execInsert(cl, rows)
		case *UpdateClause:
			return c.execUpdate(cl, rows)
		case *RemoveClause:
			return c.execRemove(cl, rows)
		default:
			return nil, fmt.Errorf("query: unhandled clause %T", cl)
		}
	}
	return nil, errors.New("query: pipeline has no RETURN or DML clause")
}

func rows0(rows []*env) *env {
	if len(rows) > 0 {
		return rows[0]
	}
	return newEnv()
}

// The DML stages below run in two phases: evaluate every row's expressions
// first, then apply the staged writes back-to-back. The writes accumulate in
// the transaction's record buffer and reach the WAL as a single AppendBatch
// when the transaction commits, so a multi-row mutation costs one
// group-commit window — one shared fsync under Synced durability — instead
// of interleaving evaluation work between writes. Evaluation errors therefore
// surface before the first write, keeping failed pipelines from leaving
// partial mutation prefixes for rollback to undo.

// execInsert inserts one evaluated document per row into cl.Coll, returning
// the generated keys.
func (c *execCtx) execInsert(cl *InsertClause, rows []*env) ([]mmvalue.Value, error) {
	docs := make([]mmvalue.Value, len(rows))
	for ri, r := range rows {
		doc, err := c.eval(cl.Doc, r)
		if err != nil {
			return nil, err
		}
		docs[ri] = doc
	}
	c.stats.StagedWrites += len(docs)
	var out []mmvalue.Value
	for _, doc := range docs {
		key, err := c.src.Docs.Insert(c.tx, cl.Coll, doc)
		if err != nil {
			return nil, err
		}
		out = append(out, mmvalue.String(key))
	}
	return out, nil
}

// execUpdate merges one evaluated patch per row into the document named by
// the row's key expression, returning the keys.
func (c *execCtx) execUpdate(cl *UpdateClause, rows []*env) ([]mmvalue.Value, error) {
	keys := make([]mmvalue.Value, len(rows))
	patches := make([]mmvalue.Value, len(rows))
	for ri, r := range rows {
		key, err := c.eval(cl.KeyExpr, r)
		if err != nil {
			return nil, err
		}
		patch, err := c.eval(cl.Patch, r)
		if err != nil {
			return nil, err
		}
		keys[ri], patches[ri] = key, patch
	}
	c.stats.StagedWrites += len(keys)
	var out []mmvalue.Value
	for ri, key := range keys {
		if err := c.src.Docs.Update(c.tx, cl.Coll, stringify(key), patches[ri]); err != nil {
			return nil, err
		}
		out = append(out, key)
	}
	return out, nil
}

// execRemove deletes the document named by each row's key expression,
// returning the keys.
func (c *execCtx) execRemove(cl *RemoveClause, rows []*env) ([]mmvalue.Value, error) {
	keys := make([]mmvalue.Value, len(rows))
	for ri, r := range rows {
		key, err := c.eval(cl.KeyExpr, r)
		if err != nil {
			return nil, err
		}
		keys[ri] = key
	}
	c.stats.StagedWrites += len(keys)
	var out []mmvalue.Value
	for _, key := range keys {
		if _, err := c.src.Docs.Delete(c.tx, cl.Coll, stringify(key)); err != nil {
			return nil, err
		}
		out = append(out, key)
	}
	return out, nil
}

// execLet binds a LET variable on every row. The stage is 1:1, so each
// chunk writes its own slots of the output and no merge is needed.
func (c *execCtx) execLet(cl *LetClause, rows []*env) ([]*env, error) {
	next := make([]*env, len(rows))
	p := c.split(len(rows), len(rows), cl.parallelSafe, &c.stats.ParallelEvals)
	err := fanout.RunChunks(p, func(_, lo, hi int) error {
		for ri := lo; ri < hi; ri++ {
			v, err := c.eval(cl.Expr, rows[ri])
			if err != nil {
				return err
			}
			next[ri] = rows[ri].bind(cl.Var, v)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return next, nil
}

// execFilter runs a standalone FILTER stage (one not fused into a preceding
// FOR — e.g. after COLLECT or LET), keeping rows whose predicate is truthy.
func (c *execCtx) execFilter(cl *FilterClause, rows []*env) ([]*env, error) {
	p := c.split(len(rows), len(rows), cl.parallelSafe, &c.stats.ParallelEvals)
	per := make([][]*env, p.K)
	err := fanout.RunChunks(p, func(ci, lo, hi int) error {
		var next []*env
		for _, r := range rows[lo:hi] {
			v, err := c.eval(cl.Expr, r)
			if err != nil {
				return err
			}
			if v.Truthy() {
				next = append(next, r)
			}
		}
		per[ci] = next
		return nil
	})
	if err != nil {
		return nil, err
	}
	return fanout.ConcatChunks(per), nil
}

// execSort orders rows by the clause's keys. Each chunk evaluates its rows'
// key vectors and stable-sorts its own index range; the sorted runs then
// merge into the unique stable order — rows ordered by (key vector, original
// index) — which is what one sort.SliceStable over all rows produces.
func (c *execCtx) execSort(cl *SortClause, rows []*env) ([]*env, error) {
	keys := make([][]mmvalue.Value, len(rows))
	less := func(a, b int) bool {
		for ki := range cl.Keys {
			cmp := mmvalue.Compare(keys[a][ki], keys[b][ki])
			if cl.Keys[ki].Desc {
				cmp = -cmp
			}
			if cmp != 0 {
				return cmp < 0
			}
		}
		return false
	}
	p := c.split(len(rows), len(rows), cl.parallelSafe, &c.stats.ParallelSorts)
	runs := make([][]int, p.K)
	err := fanout.RunChunks(p, func(ci, lo, hi int) error {
		for ri := lo; ri < hi; ri++ {
			ks := make([]mmvalue.Value, len(cl.Keys))
			for ki, k := range cl.Keys {
				v, err := c.eval(k.Expr, rows[ri])
				if err != nil {
					return err
				}
				ks[ki] = v
			}
			keys[ri] = ks
		}
		idx := make([]int, hi-lo)
		for i := range idx {
			idx[i] = lo + i
		}
		sort.SliceStable(idx, func(a, b int) bool { return less(idx[a], idx[b]) })
		runs[ci] = idx
		return nil
	})
	if err != nil {
		return nil, err
	}
	next := make([]*env, len(rows))
	for i, j := range mergeSortedRuns(runs, less) {
		next[i] = rows[j]
	}
	return next, nil
}

// execLimit applies OFFSET/COUNT against the first row's bindings.
func (c *execCtx) execLimit(cl *LimitClause, rows []*env) ([]*env, error) {
	offset := 0
	if cl.Offset != nil {
		v, err := c.eval(cl.Offset, rows0(rows))
		if err != nil {
			return nil, err
		}
		offset = int(v.AsInt())
	}
	count := len(rows)
	if cl.Count != nil {
		v, err := c.eval(cl.Count, rows0(rows))
		if err != nil {
			return nil, err
		}
		count = int(v.AsInt())
	}
	if offset < 0 || count < 0 {
		return nil, fmt.Errorf("query: LIMIT offset and count must not be negative (got %d, %d)", offset, count)
	}
	if offset > len(rows) {
		offset = len(rows)
	}
	if count > len(rows)-offset {
		count = len(rows) - offset
	}
	return rows[offset : offset+count], nil
}

// limitBound returns offset+count of a LIMIT whose bounds are literals or
// parameters — values known before any row exists — or -1 when the clause
// puts no usable bound on its input (no count, a bound that depends on a
// row, or one execLimit will reject).
func (c *execCtx) limitBound(cl *LimitClause) int {
	if cl.Count == nil {
		return -1
	}
	need := 0
	for _, e := range []Expr{cl.Offset, cl.Count} {
		switch t := e.(type) {
		case nil:
			continue
		case *Literal:
		case *VarRef:
			if !t.Param {
				return -1
			}
		default:
			return -1
		}
		v, err := c.eval(e, nil)
		if err != nil || v.AsInt() < 0 {
			return -1
		}
		need += int(v.AsInt())
	}
	if need < 0 { // offset+count overflowed
		return -1
	}
	return need
}

// execDistinctRows deduplicates rows by key expressions (SQL DISTINCT before
// ORDER BY/LIMIT). First-occurrence semantics require a serial pass over the
// global row order; see the DISTINCT note in parallel.go.
func (c *execCtx) execDistinctRows(cl *distinctRowsClause, rows []*env) ([]*env, error) {
	var next []*env
	seen := valueSet{}
	for _, r := range rows {
		keyVals := make([]mmvalue.Value, len(cl.keys))
		for i, k := range cl.keys {
			v, err := c.eval(k, r)
			if err != nil {
				return nil, err
			}
			keyVals[i] = v
		}
		if seen.add(mmvalue.ArrayOf(keyVals)) {
			next = append(next, r)
		}
	}
	return next, nil
}

// valueSet is a hash set of values under mmvalue.Equal: the
// first-occurrence filter of both DISTINCT forms.
type valueSet map[uint64][]mmvalue.Value

// add inserts v, reporting whether no Equal value was in the set.
func (s valueSet) add(v mmvalue.Value) bool {
	h := v.Hash()
	for _, prev := range s[h] {
		if mmvalue.Equal(prev, v) {
			return false
		}
	}
	s[h] = append(s[h], v)
	return true
}

// execReturn materializes results, handling DISTINCT and EXPAND. This is
// where aggregate folds over COLLECT groups (SUM(g[*].x), LENGTH(g), ...)
// run, so chunks spread groups across workers while each group's fold stays
// serial within one chunk. EXPAND may change cardinality, so chunks collect
// their own values; DISTINCT dedup is a serial pass over the merged output.
func (c *execCtx) execReturn(cl *ReturnClause, rows []*env) ([]mmvalue.Value, error) {
	p := c.split(len(rows), len(rows), cl.parallelSafe, &c.stats.ParallelEvals)
	per := make([][]mmvalue.Value, p.K)
	err := fanout.RunChunks(p, func(ci, lo, hi int) error {
		var out []mmvalue.Value
		for _, r := range rows[lo:hi] {
			v, err := c.eval(cl.Expr, r)
			if err != nil {
				return err
			}
			if cl.expand {
				if v.Kind() == mmvalue.KindArray {
					out = append(out, v.AsArray()...)
				} else if !v.IsNull() {
					out = append(out, v)
				}
				continue
			}
			out = append(out, v)
		}
		per[ci] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := fanout.ConcatChunks(per)
	if cl.Distinct {
		var uniq []mmvalue.Value
		seen := valueSet{}
		for _, v := range out {
			if seen.add(v) {
				uniq = append(uniq, v)
			}
		}
		out = uniq
	}
	return out, nil
}

// execCollect groups rows by key expressions. Output rows bind the key
// variables, the Into variable (array of row-binding objects), and — for
// MSQL's loose-grouping convenience — the bindings of the group's first row.
// Each chunk groups its rows into its own table; the tables merge in chunk
// order (see parallel.go). An aggOnly clause folds each row into its group's
// aggregate states and leaves the member objects to buildCollectRows.
func (c *execCtx) execCollect(cl *CollectClause, rows []*env) ([]*env, error) {
	c.stats.DecomposedAggs += len(cl.aggSpecs)
	p := c.split(len(rows), len(rows), cl.parallelSafe, &c.stats.ParallelCollects)
	partials := make([]*groupTable, p.K)
	members := &memberRows{rows: rows, next: make([]int32, len(rows))}
	err := fanout.RunChunks(p, func(ci, lo, hi int) error {
		groups := newGroupTable()
		keyVals := make([]mmvalue.Value, len(cl.Keys)) // reused; a new group copies it
		for i := lo; i < hi; i++ {
			r := rows[i]
			for ki, k := range cl.Keys {
				v, err := c.eval(k, r)
				if err != nil {
					return err
				}
				keyVals[ki] = v
			}
			g := groups.group(keyVals)
			members.add(g, i)
			switch {
			case cl.aggOnly:
				g.observeRow(cl, r)
			case cl.Into != "":
				obj := mmvalue.ObjectOf(r.allVars())
				g.memberObjs = append(g.memberObjs, obj)
				g.observeAggs(cl, obj)
			}
		}
		partials[ci] = groups
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := buildCollectRows(cl, mergeCollectPartials(cl, partials, members), members)
	// A keyless COLLECT over zero rows still yields one (empty) group so
	// aggregates like COUNT(*) return 0.
	if len(out) == 0 && len(cl.Keys) == 0 {
		base := newEnv()
		if cl.Into != "" {
			base = base.bind(cl.Into, mmvalue.Array())
		}
		out = append(out, base)
	}
	return out, nil
}

// forPart is the materialized expansion of one outer row: the row itself
// plus the source elements it produces.
type forPart struct {
	r     *env
	elems []mmvalue.Value
}

// execFor expands each input row by the source's elements, using an index
// when the immediately-following filters allow it, then applies those
// filters fused with the bind. Reading the source is one pass through the
// transaction; the bind + filter loop over the flat (outer row × element)
// index is the stage's chunk body.
//
// need > 0 says a LIMIT directly follows and keeps at most need rows: a named
// source is then bound and filtered inside its scan, which stops at the
// need-th survivor instead of reading (and decoding) the rest of the source.
func (c *execCtx) execFor(cl *ForClause, filters []*FilterClause, rows []*env, need int) ([]*env, error) {
	// Vectorized scan+filter: the opening FOR of the current pipeline, run
	// from the empty starting environment, with a compiled vectorization
	// plan and no LIMIT bounding it (the row path below stops at the need-th
	// survivor; a batch read materializes the whole table). execVecScan
	// declines (ok=false) where batches cannot win or cannot match, falling
	// through to the row path below.
	if c.opts.Ablate&NoVector == 0 && need <= 0 && c.curPipe != nil && c.curPipe.vec != nil &&
		c.curPipe.vec.forCl == cl && len(rows) == 1 && rows[0] == nil {
		out, ok, err := c.execVecScan(cl, filters, rows)
		if err != nil {
			return nil, err
		}
		if ok {
			return out, nil
		}
	}
	if need > 0 && cl.Source.Kind == SourceName {
		var out []*env
		for _, r := range rows {
			var ferr error
			err := c.scanNamed(cl.Var, cl.Source.Name, filters, r, func(el mmvalue.Value) bool {
				en := r.bindSource(cl.Var, el)
				keep, err := c.applyFilters(filters, en)
				if err != nil {
					ferr = err
					return false
				}
				if keep {
					out = append(out, en)
				}
				return len(out) < need
			})
			if err == nil {
				err = ferr
			}
			if err != nil {
				return nil, err
			}
			if len(out) >= need {
				break
			}
		}
		return out, nil
	}
	parts := make([]forPart, len(rows))
	total := 0
	for ri, r := range rows {
		elems, err := c.sourceElems(cl, filters, r)
		if err != nil {
			return nil, err
		}
		parts[ri] = forPart{r: r, elems: elems}
		total += len(elems)
	}
	p := c.split(total, total, filtersSafe(filters), &c.stats.ParallelScans)
	per := make([][]*env, p.K)
	err := fanout.RunChunks(p, func(ci, lo, hi int) error {
		var out []*env
		if len(filters) == 0 {
			out = make([]*env, 0, hi-lo) // every element binds one row
		}
		base := 0 // flat index of part's first element
		for _, part := range parts {
			if base >= hi {
				break
			}
			n := len(part.elems)
			if base+n > lo {
				for _, el := range part.elems[max(lo-base, 0):min(hi-base, n)] {
					en := part.r.bindSource(cl.Var, el)
					keep, err := c.applyFilters(filters, en)
					if err != nil {
						return err
					}
					if keep {
						out = append(out, en)
					}
				}
			}
			base += n
		}
		per[ci] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	return fanout.ConcatChunks(per), nil
}

// applyFilters evaluates the residual filters against one row, reporting
// whether every filter is truthy. It runs in chunk bodies, possibly several
// at once, so it must stay free of writes to shared executor state.
func (c *execCtx) applyFilters(filters []*FilterClause, en *env) (bool, error) {
	for _, f := range filters {
		v, err := c.eval(f.Expr, en)
		if err != nil {
			return false, err
		}
		if !v.Truthy() {
			return false, nil
		}
	}
	return true, nil
}

// sourceElems yields the values a FOR source produces for one outer row.
func (c *execCtx) sourceElems(cl *ForClause, filters []*FilterClause, r *env) ([]mmvalue.Value, error) {
	s := cl.Source
	switch s.Kind {
	case SourceExpr:
		v, err := c.eval(s.Expr, r)
		if err != nil {
			return nil, err
		}
		if v.Kind() != mmvalue.KindArray {
			if v.IsNull() {
				return nil, nil
			}
			return []mmvalue.Value{v}, nil
		}
		return v.AsArray(), nil
	case SourceTraversal:
		start, err := c.eval(s.Start, r)
		if err != nil {
			return nil, err
		}
		startKey := stringify(start)
		if start.Kind() == mmvalue.KindObject {
			startKey = start.GetOr("_key").AsString()
		}
		keys, err := c.graphTraverse(s.Graph, startKey, s.Min, s.Max, s.Direction, s.Label)
		if err != nil {
			return nil, err
		}
		var out []mmvalue.Value
		for _, k := range keys {
			doc, ok, err := c.src.Graphs.Vertex(c.tx, s.Graph, k)
			if err != nil {
				return nil, err
			}
			if ok {
				out = append(out, doc)
			}
		}
		c.stats.RowsRead += len(out)
		return out, nil
	case SourceName:
		var out []mmvalue.Value
		err := c.scanNamed(cl.Var, s.Name, filters, r, func(el mmvalue.Value) bool {
			out = append(out, el)
			return true
		})
		return out, err
	}
	return nil, fmt.Errorf("query: bad source")
}

// resolveName classifies a named source ("collection", "table", "coltable",
// "graph", "bucket", or "" when unknown), memoizing per execution — queries
// cannot run DDL, so a name's kind cannot change mid-query.
func (c *execCtx) resolveName(name string) string {
	kind, memoized := c.resolved[name]
	if !memoized {
		if c.src.Resolve != nil {
			kind = c.src.Resolve(c.tx, name)
		}
		if c.resolved == nil {
			c.resolved = map[string]string{}
		}
		c.resolved[name] = kind
	}
	return kind
}

// scanNamed resolves a named source and feeds its elements to visit until
// visit returns false, consulting indexes first (see optimize.go).
func (c *execCtx) scanNamed(loopVar, name string, filters []*FilterClause, r *env, visit func(el mmvalue.Value) bool) error {
	kind := c.resolveName(name)
	if kind == "" {
		return fmt.Errorf("query: unknown source %q", name)
	}
	if c.opts.Ablate&NoIndexes == 0 {
		if vals, ok, err := c.tryIndexAccess(loopVar, name, kind, filters, r); err != nil {
			return err
		} else if ok {
			for _, v := range vals {
				if !visit(v) {
					break
				}
			}
			return nil
		}
	}
	// Full scan.
	c.stats.FullScans++
	read := func(el mmvalue.Value) bool {
		c.stats.RowsRead++
		return visit(el)
	}
	switch kind {
	case "collection":
		return c.src.Docs.Scan(c.tx, name, func(_ string, doc mmvalue.Value) bool { return read(doc) })
	case "table":
		return c.src.Rels.Scan(c.tx, name, read)
	case "graph":
		return c.src.Graphs.Vertices(c.tx, name, func(_ string, doc mmvalue.Value) bool { return read(doc) })
	case "bucket":
		return c.src.KV.Scan(c.tx, name, func(k string, v mmvalue.Value) bool {
			return read(mmvalue.Object(
				mmvalue.F("_key", mmvalue.String(k)),
				mmvalue.F("value", v)))
		})
	case "coltable":
		return c.src.Cols.ScanJSON(c.tx, name, read)
	default:
		return fmt.Errorf("query: unknown source kind %q for %q", kind, name)
	}
}
