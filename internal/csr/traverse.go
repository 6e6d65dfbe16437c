package csr

import (
	"errors"
	"fmt"

	"repro/internal/bitmapidx"
	"repro/internal/fanout"
)

// ErrNoSuchPath mirrors the graph store's sentinel; the store wraps it back
// into its own error space so callers see one identity either way.
var ErrNoSuchPath = errors.New("csr: no path")

// parallelFrontier is the frontier size at which expansion fans out across
// workers. Below it the chunking overhead costs more than the scan.
const parallelFrontier = 256

// forNeighbors walks v's adjacency slots for one direction in probe order:
// the out half, then (for Any) the in half with self-loop slots skipped. A
// self-loop of v is the one edge present in both incident lists — in the in
// half it is exactly the slot whose far vertex is v itself (to == v by
// membership, from == far == v) — so skipping it reproduces the probe
// path's dedup-by-edge-key. sel filters by interned label id.
func (g *Graph) forNeighbors(v int32, dir Dir, sel int32, fn func(far int32)) {
	if sel == matchNone || v >= int32(g.realV) {
		return
	}
	if dir == Out || dir == Any {
		for i := g.out.off[v]; i < g.out.off[v+1]; i++ {
			if sel != matchAll && g.out.label[i] != sel {
				continue
			}
			fn(g.out.adj[i])
		}
	}
	if dir == In || dir == Any {
		for i := g.in.off[v]; i < g.in.off[v+1]; i++ {
			if sel != matchAll && g.in.label[i] != sel {
				continue
			}
			far := g.in.adj[i]
			if dir == Any && far == v {
				continue
			}
			fn(far)
		}
	}
}

// NeighborKeys expands one step from vertex key v, returning the far-side
// vertex keys in the probe path's order (edge-key order per direction, out
// then in for Any, self-loops reported once).
func (g *Graph) NeighborKeys(v string, dir Dir, label string) []string {
	id, ok := g.idOf[v]
	if !ok || id >= int32(g.realV) {
		return nil
	}
	var out []string
	g.forNeighbors(id, dir, g.labelSel(label), func(far int32) {
		out = append(out, g.keys[far])
	})
	return out
}

// expand computes one BFS level: every unvisited far vertex reachable from
// the frontier, in the frontier's own order, marking visited as it goes.
// The returned slice is both the next frontier and (at depth >= min) the
// output order — identical to the probe path's serial loop.
//
// For large frontiers the slot walks fan out across workers: the frontier
// is split into contiguous chunks, each worker collects its chunk's
// candidates filtered against the visited set (read-only and stable for
// the whole phase — no candidate is marked until every worker returns),
// and a serial merge in chunk order performs the authoritative
// check-mark-append. Cross-chunk duplicates survive the worker prefilter
// but die at the merge, so the result is byte-identical to the serial walk.
// A panic in a worker fails the traversal with an error.
func (g *Graph) expand(frontier []int32, dir Dir, sel int32, visited *bitmapidx.Bitset, workers int) ([]int32, error) {
	if workers <= 1 || len(frontier) < parallelFrontier {
		var next []int32
		for _, v := range frontier {
			g.forNeighbors(v, dir, sel, func(far int32) {
				if visited.Has(int(far)) {
					return
				}
				visited.Set(int(far))
				next = append(next, far)
			})
		}
		return next, nil
	}
	if workers > len(frontier) {
		workers = len(frontier)
	}
	chunks := make([][]int32, workers)
	err := fanout.RunChunks(fanout.Partition{N: len(frontier), K: workers}, func(ci, lo, hi int) error {
		var cand []int32
		for _, v := range frontier[lo:hi] {
			g.forNeighbors(v, dir, sel, func(far int32) {
				if !visited.Has(int(far)) {
					cand = append(cand, far)
				}
			})
		}
		chunks[ci] = cand
		return nil
	})
	if err != nil {
		return nil, err
	}
	var next []int32
	for _, cand := range chunks {
		for _, far := range cand {
			if visited.Has(int(far)) {
				continue
			}
			visited.Set(int(far))
			next = append(next, far)
		}
	}
	return next, nil
}

// Traverse performs the `FOR v IN min..max <dir> start` BFS expansion over
// the CSR arrays, returning reached vertex keys in the probe path's exact
// order: each vertex once at its first-reach depth, depths min..max, the
// start included only when min == 0 and the start vertex exists.
func (g *Graph) Traverse(start string, min, max int, dir Dir, label string, workers int) ([]string, error) {
	if min < 0 || max < min {
		return nil, fmt.Errorf("csr: bad depth range %d..%d", min, max)
	}
	id, ok := g.idOf[start]
	if !ok || id >= int32(g.realV) {
		return nil, nil
	}
	sel := g.labelSel(label)
	visited := bitmapidx.NewBitset()
	visited.Set(int(id))
	frontier := []int32{id}
	var out []string
	if min == 0 {
		out = append(out, start)
	}
	for depth := 1; depth <= max && len(frontier) > 0; depth++ {
		var err error
		if frontier, err = g.expand(frontier, dir, sel, visited, workers); err != nil {
			return nil, err
		}
		if depth >= min {
			for _, v := range frontier {
				out = append(out, g.keys[v])
			}
		}
	}
	return out, nil
}

// ShortestPath returns the vertex keys of an unweighted shortest path from
// start to goal (inclusive), or ErrNoSuchPath. The BFS is serial: parent
// pointers follow the probe path's discovery order exactly, so tie-breaking
// between equal-length paths is identical, and the early exit on goal
// discovery usually stops mid-level anyway.
func (g *Graph) ShortestPath(start, goal string, dir Dir, label string) ([]string, error) {
	sid, ok := g.idOf[start]
	if !ok || sid >= int32(g.realV) {
		return nil, fmt.Errorf("%w: %s -> %s", ErrNoSuchPath, start, goal)
	}
	if start == goal {
		return []string{start}, nil
	}
	gid, ok := g.idOf[goal]
	if !ok || gid >= int32(g.realV) {
		return nil, fmt.Errorf("%w: %s -> %s", ErrNoSuchPath, start, goal)
	}
	sel := g.labelSel(label)
	visited := bitmapidx.NewBitset()
	visited.Set(int(sid))
	parent := map[int32]int32{}
	frontier := []int32{sid}
	for len(frontier) > 0 {
		var next []int32
		for _, v := range frontier {
			found := false
			g.forNeighbors(v, dir, sel, func(far int32) {
				if visited.Has(int(far)) {
					return
				}
				visited.Set(int(far))
				parent[far] = v
				if far == gid {
					found = true
				}
				next = append(next, far)
			})
			if found {
				return g.buildPath(parent, sid, gid), nil
			}
		}
		frontier = next
	}
	return nil, fmt.Errorf("%w: %s -> %s", ErrNoSuchPath, start, goal)
}

// buildPath walks parent pointers from goal back to start and reverses.
func (g *Graph) buildPath(parent map[int32]int32, start, goal int32) []string {
	rev := []int32{goal}
	for v := goal; v != start; {
		v = parent[v]
		rev = append(rev, v)
	}
	out := make([]string, len(rev))
	for i, v := range rev {
		out[len(rev)-1-i] = g.keys[v]
	}
	return out
}
