package query

// One executor, serial or parallel by chunk count. Every stage that
// evaluates per row is written once, as a body over one contiguous chunk
// [lo, hi) of its input, and a merge of the chunk results in chunk order:
//
//	stage                    chunk body                       merge
//	FOR (exec.go)            bind loop var + fused FILTERs    ConcatChunks
//	FILTER, RETURN           per-row evaluation               ConcatChunks
//	LET                      per-row evaluation, 1:1 slots    none needed
//	COLLECT                  chunk-local group table          mergeCollectPartials
//	SORT                     key vectors + stable chunk sort  mergeSortedRuns
//	fetchDocs (optimize.go)  fetch a key chunk's documents    ConcatChunks
//	execVecScan/execVecAgg   a run of column batches          batch order
//	(vector.go)
//
// split is the only place that chooses how many chunks a stage runs as, and
// internal/fanout runs them. Serial execution is the one-chunk case:
// fanout.RunChunks runs a single chunk on the calling goroutine, and every merge returns its only input. A stage
// fans out only when it is parallelSafe (no subquery in its expressions;
// subqueries run whole pipelines against shared executor state), the
// pipeline was compile-analyzed and holds no mutation clause, the stage's
// work reaches parallelThreshold (goroutine fan-out costs more than it
// saves below it), and at least two workers are available.
//
// Byte-identity to the one-chunk run holds by construction: chunks are
// contiguous and merged in ascending chunk order — never by ranging over a
// map — so every output order is the serial order. The `determinism`
// analyzer in internal/lint bans map ranges, wall-clock reads and
// randomness across this package and internal/fanout. The mergeable
// partial states:
//
//   - COLLECT: each chunk builds an ordered group table — first-seen key
//     order within the chunk, member lists in row order, INTO member objects
//     materialized by the chunk that saw the member (an aggOnly clause
//     builds them after the merge, and only for fallback groups). Merging
//     concatenates member lists in chunk order, and group order is global
//     first-seen order (the first chunk that saw a key wins). Aggregates detected at
//     compile time (LENGTH/COUNT, MIN/MAX, and integer SUM — see
//     decompose.go) also accumulate per-chunk partial states merged in
//     chunk order, with integer SUM guarded so the state invalidates the
//     moment byte-identity with the serial left-to-right float64 fold could
//     break; invalidated or undetected aggregates (AVG, float SUM) fold over
//     the concatenated INTO array at projection time, in the RETURN/LET
//     stage, whose chunks run across groups.
//   - SORT: each chunk evaluates its rows' key vectors, then stable-sorts
//     its contiguous index range; sorted runs merge pairwise with ties
//     taking the left run (which holds the lower original indices),
//     reproducing sort.SliceStable's unique stable order.
//   - DISTINCT stays serial: first-occurrence semantics need global order,
//     and hashing is cheap relative to expression evaluation.
//
// Thread-safety: chunk bodies share the execCtx strictly read-only.
// Expression evaluation reaches the engine only through Txn.Get/Scan and the
// store read APIs, which the engine documents as safe for concurrent use on
// one transaction (see engine.Txn); env rows are copy-on-bind, so outer
// rows are never mutated. A panic in a chunk body fails the query with an
// error instead of the process; only read-only pipelines ever run more than
// one chunk.

import (
	"runtime"
	"slices"

	"repro/internal/fanout"
	"repro/internal/mmvalue"
)

// parallelThreshold is the minimum amount of work (FOR-source rows,
// stage input rows, index-range keys, or column-table rows) before a stage
// fans out. Below roughly this size the fan-out overhead exceeds the win.
// Options.Ablate's Stress bit lowers it to 1.
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

// aboveThreshold reports whether work elements justify goroutine fan-out.
func (c *execCtx) aboveThreshold(work int) bool {
	if c.opts.Ablate&Stress != 0 {
		return work >= 1
	}
	return work >= parallelThreshold
}

// split chooses how many chunks a stage over n items runs as: the one chunk
// [0, n) unless the stage is safe, the running pipeline is compile-analyzed
// and read-only, work (n itself, or the rows behind n column batches)
// reaches the threshold, and two or more workers can each take an item.
// It counts a fan-out in the stage's Stats counter.
func (c *execCtx) split(n, work int, safe bool, counter *int) fanout.Partition {
	k := min(c.maxWorkers(), n)
	pipe := c.curPipe
	if k < 2 || !safe || pipe == nil || !pipe.analyzed || pipe.hasMutation || !c.aboveThreshold(work) {
		return fanout.Partition{N: n, K: 1}
	}
	*counter++
	return fanout.Partition{N: n, K: k}
}

// filtersSafe reports whether every filter may run in a chunk body off the
// calling goroutine.
func filtersSafe(filters []*FilterClause) bool {
	for _, f := range filters {
		if !f.parallelSafe {
			return false
		}
	}
	return true
}

// --- COLLECT partial state ---

// collectGroup is one group's partial (or merged) state: key values, member
// rows in arrival order (a list in memberRows), and — when INTO is
// requested — the member binding objects, materialized by the chunk that saw
// the member (or, on an aggOnly clause, not at all until buildCollectRows
// needs them), plus one running aggregate state per compiled aggSpec.
type collectGroup struct {
	keyVals     []mmvalue.Value
	hash        uint64 // of mmvalue.ArrayOf(keyVals)
	first, last int32  // member rows, see memberRows
	size        int
	memberObjs  []mmvalue.Value
	partials    []aggState
}

// memberRows holds every COLLECT group's member rows as a list linked
// through the stage input: a group's members run from rows[g.first] along
// next to rows[g.last], in arrival order. One index per input row replaces a
// growing slice per group. A chunk writes next only in its own index range;
// merges run after every chunk.
type memberRows struct {
	rows []*env
	next []int32 // next[i]: index of the member after rows[i], -1 after the last (an input holds fewer than 2^31 rows)
}

// add appends rows[i] to g's members.
func (m *memberRows) add(g *collectGroup, i int) {
	m.next[i] = -1
	if g.size == 0 {
		g.first = int32(i)
	} else {
		m.next[g.last] = int32(i)
	}
	g.last = int32(i)
	g.size++
}

// join appends later's members to g's.
func (m *memberRows) join(g, later *collectGroup) {
	m.next[g.last] = later.first
	g.last = later.last
	g.size += later.size
}

// objects builds g's member objects in arrival order — the objects the
// chunk body of a clause that is not aggOnly builds.
func (m *memberRows) objects(g *collectGroup) []mmvalue.Value {
	objs := make([]mmvalue.Value, 0, g.size)
	for i := g.first; i >= 0; i = m.next[i] {
		objs = append(objs, mmvalue.ObjectOf(m.rows[i].allVars()))
	}
	return objs
}

// observeAggs folds one member object into the group's aggregate states.
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

// observeRow folds one member row into the group's aggregate states without
// building its member object (aggOnly clauses).
func (g *collectGroup) observeRow(cl *CollectClause, r *env) {
	if len(cl.aggSpecs) == 0 {
		return
	}
	if g.partials == nil {
		g.partials = newAggStates(len(cl.aggSpecs))
	}
	for si := range cl.aggSpecs {
		g.partials[si].observeRow(cl.aggSpecs[si], r)
	}
}

// needsMembers reports whether the group's Into array must be bound: always
// unless the clause is aggOnly, and then only when a state finishes Null, so
// an annotated call falls back to folding the array.
func (g *collectGroup) needsMembers(cl *CollectClause) bool {
	if !cl.aggOnly {
		return true
	}
	for si := range g.partials {
		if g.partials[si].value(cl.aggSpecs[si]).IsNull() {
			return true
		}
	}
	return false
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
// already seen when the key is new. keyVals is copied only then, so callers
// may reuse it.
func (t *groupTable) group(keyVals []mmvalue.Value) *collectGroup {
	h := mmvalue.ArrayOf(keyVals).Hash()
	if g := t.lookup(h, keyVals); g != nil {
		return g
	}
	g := &collectGroup{keyVals: slices.Clone(keyVals), hash: h}
	t.insert(g)
	return g
}

// mergeCollectPartials merges per-chunk group tables in ascending chunk
// order: group order is global first-seen order, member lists concatenate,
// and per-spec aggregate states merge pairwise (chunk order is serial fold
// order, so the merged state matches what one left-to-right accumulation
// would have produced). One chunk's table is returned as is.
func mergeCollectPartials(cl *CollectClause, partials []*groupTable, members *memberRows) []*collectGroup {
	if len(partials) == 1 {
		return partials[0].order
	}
	merged := newGroupTable()
	for _, p := range partials {
		for _, pg := range p.order {
			g := merged.lookup(pg.hash, pg.keyVals)
			if g == nil {
				merged.insert(pg)
				continue
			}
			members.join(g, pg)
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
// group table: loose-grouping base bindings from the group's first member,
// key variables, then the INTO array (on an aggOnly clause only where
// needsMembers) and the decomposed aggregate values.
func buildCollectRows(cl *CollectClause, groups []*collectGroup, members *memberRows) []*env {
	out := make([]*env, 0, len(groups))
	for _, g := range groups {
		base := members.rows[g.first]
		for i, v := range g.keyVals {
			if i < len(cl.Vars) {
				base = base.bind(cl.Vars[i], v)
			}
		}
		if cl.Into != "" {
			if g.needsMembers(cl) {
				objs := g.memberObjs
				if cl.aggOnly {
					objs = members.objects(g) // the fallback fold's input
				}
				base = base.bind(cl.Into, mmvalue.ArrayOf(objs))
			}
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

// --- SORT merge ---

// mergeSortedRuns merges adjacent sorted runs pairwise, round by round,
// until one remains; one run is returned as is. Ties take the left run,
// whose elements all carry lower original indices, preserving stability.
// It reuses runs' backing array.
func mergeSortedRuns(runs [][]int, less func(a, b int) bool) []int {
	for len(runs) > 1 {
		merged := runs[:0]
		for i := 0; i < len(runs); i += 2 {
			if i+1 == len(runs) {
				merged = append(merged, runs[i])
				continue
			}
			merged = append(merged, mergeTwoRuns(runs[i], runs[i+1], less))
		}
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
