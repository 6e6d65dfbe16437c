package query

import (
	"repro/internal/csr"
	"repro/internal/graphstore"
)

// CSR traversal routing. A traversal clause or graph function executing on
// a lock-free snapshot transaction can run against the graph's immutable
// CSR adjacency snapshot (internal/csr) instead of per-edge B+tree probes:
// the CSR cache validates by the snapshot's version vector, so an unchanged
// graph is array walks all the way down. Every router here falls back to
// the probe path — which is always correct — when the transaction is
// locked (DML), the CSR path is disabled, or the build fails; output is
// byte-identical either way (pinned by core's equivalence corpus).

// csrFor resolves the CSR snapshot for graph, honoring the per-query
// opt-out.
func (c *execCtx) csrFor(graph string) (*csr.Graph, bool) {
	if c.opts.Ablate&NoCSR != 0 || c.src.Graphs == nil {
		return nil, false
	}
	g, ok := c.src.Graphs.CSRFor(c.tx, graph)
	if !ok {
		return nil, false
	}
	return g, true
}

// graphTraverse runs the `FOR v IN min..max <dir>` expansion, via CSR when
// the transaction allows it. Invalid depth ranges go to the probe path so
// the error is the store's own.
func (c *execCtx) graphTraverse(graph, start string, min, max int, dir graphstore.Direction, label string) ([]string, error) {
	if min >= 0 && max >= min {
		if g, ok := c.csrFor(graph); ok {
			c.csrTraversals.Add(1)
			return g.Traverse(start, min, max, graphstore.CSRDir(dir), label, c.maxWorkers())
		}
	}
	return c.src.Graphs.Traverse(c.tx, graph, start, min, max, dir, label)
}

// graphShortestPath runs SHORTEST_PATH, via CSR when possible. Both paths
// signal an absent path with an error the caller maps to an empty array.
func (c *execCtx) graphShortestPath(graph, start, goal string, dir graphstore.Direction, label string) ([]string, error) {
	if g, ok := c.csrFor(graph); ok {
		c.csrTraversals.Add(1)
		return g.ShortestPath(start, goal, graphstore.CSRDir(dir), label)
	}
	return c.src.Graphs.ShortestPath(c.tx, graph, start, goal, dir, label)
}

// graphNeighborKeys runs the one-step OUT/IN/BOTH expansion, returning far
// vertex keys in incident-edge order.
func (c *execCtx) graphNeighborKeys(graph, v string, dir graphstore.Direction, label string) ([]string, error) {
	if g, ok := c.csrFor(graph); ok {
		c.csrTraversals.Add(1)
		return g.NeighborKeys(v, graphstore.CSRDir(dir), label), nil
	}
	ns, err := c.src.Graphs.Neighbors(c.tx, graph, v, dir, label)
	if err != nil {
		return nil, err
	}
	keys := make([]string, 0, len(ns))
	for _, n := range ns {
		keys = append(keys, n.VertexKey)
	}
	return keys, nil
}
