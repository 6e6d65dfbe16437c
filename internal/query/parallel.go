package query

// Parallel pipeline executor. PR 1 parallelized the scan+filter frontier;
// this file extends the same worker-pool design to the pipeline tail:
//
//	scan+filter  execForParallel      bind loop var + residual FILTERs per chunk
//	COLLECT      execCollectParallel  per-chunk partial groups, merged in chunk order
//	SORT         execSortParallel     per-chunk key eval + chunked stable merge sort
//	FILTER/LET/  execFilterParallel / per-row evaluation on the pool (aggregate
//	RETURN       execLetParallel /    folds over COLLECT groups run here)
//	             execReturnParallel
//	index ranges fetchDocsParallel    materialize B+tree/GIN key lists per chunk
//
// The invariant shared by every stage: work is partitioned into contiguous
// chunks of the row (or key) list, each chunk produces a partial result on
// one worker, and partials are merged in ascending chunk order — never by
// ranging over a map — so output is byte-identical to the serial executor.
// The `parallel-merge` analyzer in internal/lint enforces the no-map-range
// rule on this file's merge paths.
//
// Mergeable partial states per stage:
//
//   - COLLECT: each chunk builds an ordered partial group table — first-seen
//     key order within the chunk, member lists in row order, INTO member
//     objects pre-materialized on the worker. Merging concatenates member
//     lists in chunk order, and group output order is global first-seen
//     order (the first chunk that saw a key wins). Aggregates detected at
//     compile time (LENGTH/COUNT, MIN/MAX, and integer SUM — see
//     decompose.go) additionally accumulate per-chunk partial states merged
//     in chunk order, with integer SUM guarded so the state invalidates the
//     moment byte-identity with the serial left-to-right float64 fold could
//     break; invalidated or undetected aggregates (AVG, float SUM) fold over
//     the concatenated INTO array at projection time exactly as the serial
//     path does, parallelizing across groups in the RETURN/LET stage.
//   - SORT: each chunk evaluates its rows' key vectors, then stable-sorts
//     its contiguous index range; sorted runs merge pairwise with ties
//     taking the left run (which holds the lower original indices),
//     reproducing sort.SliceStable's unique stable order.
//   - DISTINCT stays serial: first-occurrence semantics need global order,
//     and hashing is cheap relative to expression evaluation.
//
// The serial path is kept for: small inputs (below parallelThreshold —
// goroutine fan-out costs more than it saves), pipelines containing mutation
// clauses, stages whose expressions contain subqueries (they run whole
// pipelines against shared executor state), and unanalyzed hand-built
// pipelines.
//
// Thread-safety: workers share the execCtx strictly read-only. Expression
// evaluation reaches the engine only through Txn.Get/Scan and the store read
// APIs, which the engine documents as safe for concurrent use on one
// transaction (see engine.Txn); the auxiliary GIN/full-text views are behind
// core's RWMutex; env rows are copy-on-bind, so outer rows are never mutated.

import (
	"runtime"
	"sort"
	"sync"

	"repro/internal/mmvalue"
)

// parallelThreshold is the minimum number of elements (FOR-source
// rows, COLLECT/SORT input rows, or index-range keys) before a parallel
// stage engages. Below roughly this size the fan-out overhead exceeds the
// win. Options.Ablate's Stress bit lowers it to 1.
const parallelThreshold = 1024

// Under Options.Ablate's Stress bit: the worker count, whatever the host's
// CPUs, and the rows per column batch on the vectorized path.
const (
	stressWorkers   = 4
	stressBatchSize = 7
)

// maxWorkers resolves the worker pool size for this execution.
func (c *execCtx) maxWorkers() int {
	switch {
	case c.opts.Ablate&NoParallel != 0:
		return 1
	case c.opts.Ablate&Stress != 0:
		return stressWorkers
	}
	return runtime.GOMAXPROCS(0)
}

// batchSize resolves the rows per column batch (0 means
// colstore.DefaultBatchSize).
func (c *execCtx) batchSize() int {
	if c.opts.Ablate&Stress != 0 {
		return stressBatchSize
	}
	return 0
}

// pipelineParallelOK reports whether the currently-running pipeline may use
// the parallel executor at all: at least two workers and a compile-analyzed
// read-only plan (hand-built pipelines stay serial).
func (c *execCtx) pipelineParallelOK() bool {
	return c.maxWorkers() >= 2 && c.curPipe != nil && c.curPipe.analyzed && !c.curPipe.hasMutation
}

// aboveThreshold reports whether n elements justify goroutine fan-out.
func (c *execCtx) aboveThreshold(n int) bool {
	if c.opts.Ablate&Stress != 0 {
		return n >= 1
	}
	return n >= parallelThreshold
}

// parallelEligible decides serial vs parallel for one FOR expansion.
func (c *execCtx) parallelEligible(total int, filters []*FilterClause) bool {
	if !c.pipelineParallelOK() || !c.aboveThreshold(total) {
		return false
	}
	for _, f := range filters {
		if !f.parallelSafe {
			return false
		}
	}
	return true
}

// stageEligible decides serial vs parallel for one tail stage (COLLECT,
// SORT, standalone FILTER, LET, RETURN) over n input rows.
func (c *execCtx) stageEligible(n int, parallelSafe bool) bool {
	return parallelSafe && c.pipelineParallelOK() && c.aboveThreshold(n)
}

// chunkRange is one contiguous index range [lo, hi) assigned to a worker.
type chunkRange struct{ lo, hi int }

// splitChunks partitions n items into at most maxWorkers contiguous ranges.
func (c *execCtx) splitChunks(n int) []chunkRange {
	workers := c.maxWorkers()
	if workers > n {
		workers = n
	}
	if workers < 1 {
		return nil
	}
	size := (n + workers - 1) / workers
	chunks := make([]chunkRange, 0, workers)
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		chunks = append(chunks, chunkRange{lo: lo, hi: hi})
	}
	return chunks
}

// runChunks runs fn over each chunk on its own goroutine and returns the
// first error in chunk order — the same error the serial executor would hit
// first, since chunks are contiguous and workers stop at their first error.
func runChunks(chunks []chunkRange, fn func(ci int, ch chunkRange) error) error {
	errPer := make([]error, len(chunks))
	var wg sync.WaitGroup
	for ci, ch := range chunks {
		wg.Add(1)
		go func(ci int, ch chunkRange) {
			defer wg.Done()
			errPer[ci] = fn(ci, ch)
		}(ci, ch)
	}
	wg.Wait()
	for _, err := range errPer {
		if err != nil {
			return err
		}
	}
	return nil
}

// concatEnvChunks merges per-chunk row slices in chunk order.
func concatEnvChunks(per [][]*env) []*env {
	total := 0
	for _, rows := range per {
		total += len(rows)
	}
	out := make([]*env, 0, total)
	for _, rows := range per {
		out = append(out, rows...)
	}
	return out
}

// bindJob is one (outer row, source element) pair awaiting bind + filter.
type bindJob struct {
	r  *env
	el mmvalue.Value
}

// execForParallel is the parallel counterpart of execFor's bind+filter loop.
// Chunks are contiguous ranges of the flattened (outer row × element) list,
// and the merge concatenates chunk results in chunk order, preserving the
// exact output order of the serial path.
func (c *execCtx) execForParallel(loopVar string, filters []*FilterClause, parts []forPart, total int) ([]*env, error) {
	jobs := make([]bindJob, 0, total)
	for _, p := range parts {
		for _, el := range p.elems {
			jobs = append(jobs, bindJob{r: p.r, el: el})
		}
	}
	chunks := c.splitChunks(len(jobs))
	rowsPer := make([][]*env, len(chunks))
	err := runChunks(chunks, func(ci int, ch chunkRange) error {
		out := make([]*env, 0, ch.hi-ch.lo)
		for _, j := range jobs[ch.lo:ch.hi] {
			en := j.r.bindSource(loopVar, j.el)
			keep, err := c.applyFilters(filters, en)
			if err != nil {
				return err
			}
			if keep {
				out = append(out, en)
			}
		}
		rowsPer[ci] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	return concatEnvChunks(rowsPer), nil
}

// execFilterParallel evaluates a standalone FILTER (one not fused into a
// preceding FOR) over chunks, concatenating survivors in chunk order.
func (c *execCtx) execFilterParallel(cl *FilterClause, rows []*env) ([]*env, error) {
	chunks := c.splitChunks(len(rows))
	rowsPer := make([][]*env, len(chunks))
	err := runChunks(chunks, func(ci int, ch chunkRange) error {
		out := make([]*env, 0, ch.hi-ch.lo)
		for _, r := range rows[ch.lo:ch.hi] {
			v, err := c.eval(cl.Expr, r)
			if err != nil {
				return err
			}
			if v.Truthy() {
				out = append(out, r)
			}
		}
		rowsPer[ci] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	return concatEnvChunks(rowsPer), nil
}

// execLetParallel evaluates a LET binding per row on the pool. The stage is
// 1:1, so each worker writes its slots of the output slice directly — no
// merge step is needed and order is preserved by construction.
func (c *execCtx) execLetParallel(cl *LetClause, rows []*env) ([]*env, error) {
	next := make([]*env, len(rows))
	err := runChunks(c.splitChunks(len(rows)), func(_ int, ch chunkRange) error {
		for ri := ch.lo; ri < ch.hi; ri++ {
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

// execReturnParallel evaluates the RETURN projection per row on the pool.
// This is where aggregate folds over COLLECT groups (SUM(g[*].x), LENGTH(g),
// ...) actually run, so group-by + aggregate pipelines scale across cores
// while each group's numeric fold stays serial within one worker — exact
// float semantics, byte-identical output. EXPAND may change cardinality, so
// chunks collect into per-chunk slices merged in chunk order; DISTINCT runs
// serially afterwards (first-occurrence semantics need global order).
func (c *execCtx) execReturnParallel(cl *ReturnClause, rows []*env) ([]mmvalue.Value, error) {
	chunks := c.splitChunks(len(rows))
	valsPer := make([][]mmvalue.Value, len(chunks))
	err := runChunks(chunks, func(ci int, ch chunkRange) error {
		out := make([]mmvalue.Value, 0, ch.hi-ch.lo)
		for _, r := range rows[ch.lo:ch.hi] {
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
		valsPer[ci] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	total := 0
	for _, vs := range valsPer {
		total += len(vs)
	}
	out := make([]mmvalue.Value, 0, total)
	for _, vs := range valsPer {
		out = append(out, vs...)
	}
	return out, nil
}

// --- parallel COLLECT ---

// collectGroup is one group's partial (or merged) state: key values, member
// rows in arrival order, and — when INTO is requested — the member binding
// objects, materialized on the worker that saw the member, plus one running
// aggregate state per compiled aggSpec.
type collectGroup struct {
	keyVals    []mmvalue.Value
	hash       uint64 // of mmvalue.ArrayOf(keyVals)
	members    []*env
	memberObjs []mmvalue.Value
	partials   []aggState
}

// observeAggs folds one member object into the group's aggregate states.
// Both the serial and the parallel COLLECT call it per appended member, so
// the two paths accumulate identical states.
func (g *collectGroup) observeAggs(cl *CollectClause, obj mmvalue.Value) {
	if len(cl.aggSpecs) == 0 {
		return
	}
	if g.partials == nil {
		g.partials = newAggStates(len(cl.aggSpecs))
	}
	for si := range cl.aggSpecs {
		g.partials[si].observeMember(cl.aggSpecs[si], obj)
	}
}

// groupTable holds COLLECT groups in first-seen key order. Keys match
// under mmvalue.Equal, bucketed by Hash, as DISTINCT's do.
type groupTable struct {
	order  []*collectGroup
	byHash map[uint64][]*collectGroup
}

func newGroupTable() *groupTable {
	return &groupTable{byHash: make(map[uint64][]*collectGroup)}
}

// lookup returns the group whose key equals keyVals, or nil.
func (t *groupTable) lookup(h uint64, keyVals []mmvalue.Value) *collectGroup {
	for _, g := range t.byHash[h] {
		if mmvalue.Equal(mmvalue.ArrayOf(g.keyVals), mmvalue.ArrayOf(keyVals)) {
			return g
		}
	}
	return nil
}

func (t *groupTable) insert(g *collectGroup) {
	t.byHash[g.hash] = append(t.byHash[g.hash], g)
	t.order = append(t.order, g)
}

// group returns the group of keyVals, adding an empty one after the groups
// already seen when the key is new.
func (t *groupTable) group(keyVals []mmvalue.Value) *collectGroup {
	h := mmvalue.ArrayOf(keyVals).Hash()
	if g := t.lookup(h, keyVals); g != nil {
		return g
	}
	g := &collectGroup{keyVals: keyVals, hash: h}
	t.insert(g)
	return g
}

// execCollectParallel builds per-chunk group tables on the pool and merges
// them in chunk order. Global group order is first-seen order (the lowest
// chunk that saw a key determines its position), and member lists
// concatenate in chunk order — both identical to the serial pass, because
// chunks are contiguous row ranges processed in order.
func (c *execCtx) execCollectParallel(cl *CollectClause, rows []*env) ([]*env, error) {
	chunks := c.splitChunks(len(rows))
	partials := make([]*groupTable, len(chunks))
	err := runChunks(chunks, func(ci int, ch chunkRange) error {
		t := newGroupTable()
		for _, r := range rows[ch.lo:ch.hi] {
			keyVals := make([]mmvalue.Value, len(cl.Keys))
			for i, k := range cl.Keys {
				v, err := c.eval(k, r)
				if err != nil {
					return err
				}
				keyVals[i] = v
			}
			g := t.group(keyVals)
			g.members = append(g.members, r)
			if cl.Into != "" {
				obj := mmvalue.ObjectOf(r.allVars())
				g.memberObjs = append(g.memberObjs, obj)
				g.observeAggs(cl, obj)
			}
		}
		partials[ci] = t
		return nil
	})
	if err != nil {
		return nil, err
	}
	return c.buildCollectRows(cl, mergeCollectPartials(cl, partials)), nil
}

// mergeCollectPartials merges per-chunk group tables in ascending chunk
// order: group order is global first-seen order, member lists concatenate,
// and per-spec aggregate states merge pairwise (chunk order is serial fold
// order, so the merged state matches what one left-to-right accumulation
// would have produced).
func mergeCollectPartials(cl *CollectClause, partials []*groupTable) []*collectGroup {
	merged := newGroupTable()
	for _, p := range partials {
		for _, pg := range p.order {
			g := merged.lookup(pg.hash, pg.keyVals)
			if g == nil {
				merged.insert(pg)
				continue
			}
			g.members = append(g.members, pg.members...)
			g.memberObjs = append(g.memberObjs, pg.memberObjs...)
			if g.partials != nil && pg.partials != nil {
				for si := range cl.aggSpecs {
					g.partials[si].merge(cl.aggSpecs[si], &pg.partials[si])
				}
			}
		}
	}
	return merged.order
}

// buildCollectRows produces the output rows of a COLLECT from the merged
// group table, mirroring the serial pass: loose-grouping base bindings from
// the group's first member, key variables, then the INTO array.
func (c *execCtx) buildCollectRows(cl *CollectClause, groups []*collectGroup) []*env {
	out := make([]*env, 0, len(groups))
	for _, g := range groups {
		base := g.members[0]
		for i, v := range g.keyVals {
			if i < len(cl.Vars) {
				base = base.bind(cl.Vars[i], v)
			}
		}
		if cl.Into != "" {
			base = base.bind(cl.Into, mmvalue.ArrayOf(g.memberObjs))
			// Publish decomposed aggregate values under their hidden names;
			// annotated FuncCalls downstream read them instead of folding
			// the INTO array (Null marks an invalidated state — fold).
			for si := range cl.aggSpecs {
				if g.partials == nil {
					break
				}
				base = base.bind(cl.aggSpecs[si].hidden, g.partials[si].value(cl.aggSpecs[si]))
			}
		}
		out = append(out, base)
	}
	return out
}

// --- parallel SORT ---

// execSortParallel sorts rows by the clause's keys using the worker pool
// twice: once to evaluate each row's key vector (chunked 1:1, written in
// place), then as a chunked stable merge sort over row indices. The result
// is the unique stable order — elements ordered by (key vector, original
// index) — which is exactly what the serial sort.SliceStable pass produces.
func (c *execCtx) execSortParallel(cl *SortClause, rows []*env) ([]*env, error) {
	keys := make([][]mmvalue.Value, len(rows))
	chunks := c.splitChunks(len(rows))
	err := runChunks(chunks, func(_ int, ch chunkRange) error {
		for ri := ch.lo; ri < ch.hi; ri++ {
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
		return nil
	})
	if err != nil {
		return nil, err
	}
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
	// Sort each contiguous chunk's index range on its own worker. Within a
	// run sort.SliceStable preserves original order on ties; across runs,
	// the pairwise merge below prefers the left run, which holds strictly
	// lower original indices — global stability.
	runs := make([][]int, len(chunks))
	_ = runChunks(chunks, func(ci int, ch chunkRange) error {
		idx := make([]int, ch.hi-ch.lo)
		for i := range idx {
			idx[i] = ch.lo + i
		}
		sort.SliceStable(idx, func(a, b int) bool { return less(idx[a], idx[b]) })
		runs[ci] = idx
		return nil
	})
	idx := mergeSortedRuns(runs, less)
	next := make([]*env, len(rows))
	for i, j := range idx {
		next[i] = rows[j]
	}
	return next, nil
}

// mergeSortedRuns repeatedly merges adjacent sorted runs (each round's
// merges run concurrently) until one remains. Ties take the left run, whose
// elements all carry lower original indices, preserving stability.
func mergeSortedRuns(runs [][]int, less func(a, b int) bool) []int {
	for len(runs) > 1 {
		merged := make([][]int, (len(runs)+1)/2)
		var wg sync.WaitGroup
		for i := 0; i < len(runs); i += 2 {
			slot := i / 2
			if i+1 == len(runs) {
				merged[slot] = runs[i]
				continue
			}
			wg.Add(1)
			go func(slot int, l, r []int) {
				defer wg.Done()
				merged[slot] = mergeTwoRuns(l, r, less)
			}(slot, runs[i], runs[i+1])
		}
		wg.Wait()
		runs = merged
	}
	if len(runs) == 0 {
		return nil
	}
	return runs[0]
}

// mergeTwoRuns merges two sorted runs; on ties the left run wins (stable).
func mergeTwoRuns(l, r []int, less func(a, b int) bool) []int {
	out := make([]int, 0, len(l)+len(r))
	li, ri := 0, 0
	for li < len(l) && ri < len(r) {
		if less(r[ri], l[li]) {
			out = append(out, r[ri])
			ri++
		} else {
			out = append(out, l[li])
			li++
		}
	}
	out = append(out, l[li:]...)
	out = append(out, r[ri:]...)
	return out
}

// --- parallel index-range materialization ---

// fetchDocsParallel materializes an index scan's key list by fetching
// documents in contiguous key chunks on the pool, concatenating per-chunk
// results in chunk order (missing keys are skipped, as in the serial path).
// Txn.Get is documented safe for concurrent use on one transaction.
func (c *execCtx) fetchDocsParallel(coll string, keys []string) ([]mmvalue.Value, error) {
	chunks := c.splitChunks(len(keys))
	docsPer := make([][]mmvalue.Value, len(chunks))
	err := runChunks(chunks, func(ci int, ch chunkRange) error {
		out := make([]mmvalue.Value, 0, ch.hi-ch.lo)
		for _, k := range keys[ch.lo:ch.hi] {
			doc, ok, err := c.src.Docs.Get(c.tx, coll, k)
			if err != nil {
				return err
			}
			if ok {
				out = append(out, doc)
			}
		}
		docsPer[ci] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	total := 0
	for _, docs := range docsPer {
		total += len(docs)
	}
	out := make([]mmvalue.Value, 0, total)
	for _, docs := range docsPer {
		out = append(out, docs...)
	}
	return out, nil
}
