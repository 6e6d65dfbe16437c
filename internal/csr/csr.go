// Package csr builds compact immutable CSR (compressed sparse row)
// adjacency snapshots of a property graph and runs lock-free traversals
// over them.
//
// The graph store's probe path answers every hop with per-edge B+tree
// probes: one edge-index range scan per frontier vertex plus a full edge
// document decode per incident edge. A depth-2/3 traversal over a power-law
// graph pays thousands of probes per frontier. A CSR snapshot pays that
// cost once — one ordered scan of each graph keyspace under an MVCC
// snapshot — and turns every subsequent hop into int32 array walks:
//
//	keys    []string   vertex id -> key   (ascending key order)
//	off/adj [][]int32  two halves (out, in), per-vertex slots in
//	                   edge-key order, far-vertex id + interned label id
//
// Because the source scans run against a copy-on-write snapshot, the build
// observes one commit boundary and never blocks (or is blocked by) writers.
// A built Graph is immutable and safe for any number of concurrent readers.
//
// Validity: the Cache keys each graph's CSR by the engine's keyspace-drop
// epoch plus the data-version vector of the four graph keyspaces, both
// captured at the snapshot's cut (engine.Txn.SnapshotVersionsFor). Equal
// tokens imply byte-identical keyspace content, so an unchanged graph
// rebuilds zero times no matter how many queries traverse it.
//
// Equivalence: slot order reproduces the probe path exactly. The edge-index
// keyspaces sort by keyenc(vertex, edgeKey), and vertex ids are assigned in
// the same keyenc order, so walking a vertex's slots visits edges in the
// identical order incidentEdgeKeys yields them. ANY-direction expansion
// walks the out half then the in half and skips self-loops in the in half —
// the one edge class present in both incident lists.
package csr

import (
	"fmt"

	"repro/internal/binenc"
	"repro/internal/engine"
	"repro/internal/keyenc"
	"repro/internal/mmvalue"
)

// Reserved edge fields, mirroring the graph store's document layout.
const (
	fromField  = "_from"
	toField    = "_to"
	labelField = "_label"
)

// Dir selects traversal direction, matching the graph store's
// Outbound/Inbound/Any (the csr package cannot import graphstore — the
// store owns the cache — so the constants are duplicated by value).
type Dir int

// Traversal directions.
const (
	Out Dir = iota
	In
	Any
)

// Spec names the four engine keyspaces one graph lives in.
type Spec struct {
	Vertex string // keyenc(vkey) -> vertex doc
	Edge   string // keyenc(ekey) -> edge doc
	Out    string // keyenc(from, ekey) -> ""
	In     string // keyenc(to, ekey) -> ""
}

// half is one direction of the CSR: vertex v's slots are
// adj[off[v]:off[v+1]], in edge-key order.
type half struct {
	off   []int32 // len = vertex count + 1
	adj   []int32 // far vertex id per slot
	label []int32 // interned label id per slot (0 = unlabeled)
}

// Graph is an immutable CSR adjacency snapshot of one property graph.
type Graph struct {
	// keys maps vertex id -> vertex key. Ids 0..realV-1 are vertices
	// present in the vertex keyspace, assigned in ascending keyenc order;
	// ids >= realV are phantom endpoints referenced by an edge document
	// but absent from the vertex keyspace (impossible through the graph
	// store API, which enforces referential integrity, but tolerated here
	// so corrupt data degrades instead of panicking). Phantoms have no
	// adjacency slots.
	keys  []string
	idOf  map[string]int32
	realV int

	labelOf map[string]int32 // label -> id; "" is always id 0

	out, in half

	edges int // edge documents indexed (slots per half)
	bytes int // approximate resident size, for cache accounting
}

// Label-selector sentinels for the internal neighbor walks: matchAll when
// no label filter is given, matchNone when the filter names a label no edge
// carries (the BFS then runs against empty adjacency, like the probe path
// filtering every edge out).
const (
	matchAll  int32 = -1
	matchNone int32 = -2
)

// labelSel resolves a label filter to a selector for neighbor walks.
func (g *Graph) labelSel(label string) int32 {
	if label == "" {
		return matchAll
	}
	if id, ok := g.labelOf[label]; ok {
		return id
	}
	return matchNone
}

// VertexCount returns the number of vertices present in the vertex
// keyspace at the snapshot.
func (g *Graph) VertexCount() int { return g.realV }

// EdgeCount returns the number of edge documents indexed.
func (g *Graph) EdgeCount() int { return g.edges }

// Bytes approximates the resident size of the CSR arrays and dictionary.
func (g *Graph) Bytes() int { return g.bytes }

// edgeInfo is the decoded endpoint/label triple of one edge document.
type edgeInfo struct {
	from, to int32
	label    int32
}

// Build constructs the CSR snapshot of one graph by scanning its four
// keyspaces through tx — expected (but not required) to be a lock-free
// snapshot transaction, so the build observes one commit boundary. Cost is
// one ordered scan per keyspace plus one decode per edge document; after
// that, traversals never touch the B+trees again.
func Build(tx engine.Tx, spec Spec) (*Graph, error) {
	g := &Graph{
		idOf:    map[string]int32{},
		labelOf: map[string]int32{"": 0},
	}
	// Pass 1: vertex dictionary, in ascending keyenc order — the same
	// order the edge-index scans group by, which is what lets pass 3 fill
	// slots in one streaming append.
	var decErr error
	var parts []mmvalue.Value // key scratch, reused row to row and scan to scan
	err := tx.Scan(spec.Vertex, nil, nil, func(k, _ []byte) bool {
		var err error
		parts, err = keyenc.DecodeAppend(parts[:0], k)
		if err != nil || len(parts) != 1 {
			decErr = fmt.Errorf("csr: corrupt vertex key: %w", err)
			return false
		}
		key := parts[0].AsString()
		g.idOf[key] = int32(len(g.keys))
		g.keys = append(g.keys, key)
		return true
	})
	if err != nil {
		return nil, err
	}
	if decErr != nil {
		return nil, decErr
	}
	g.realV = len(g.keys)

	// Pass 2: edge documents. Each decodes once; endpoints intern phantom
	// ids when the vertex is missing, labels intern into the dictionary.
	info := map[string]edgeInfo{}
	err = tx.Scan(spec.Edge, nil, nil, func(k, v []byte) bool {
		var err error
		parts, err = keyenc.DecodeAppend(parts[:0], k)
		if err != nil || len(parts) != 1 {
			decErr = fmt.Errorf("csr: corrupt edge key: %w", err)
			return false
		}
		doc, err := binenc.Decode(v)
		if err != nil {
			decErr = fmt.Errorf("csr: corrupt edge document: %w", err)
			return false
		}
		ei := edgeInfo{
			from:  g.internVertex(doc.GetOr(fromField).AsString()),
			to:    g.internVertex(doc.GetOr(toField).AsString()),
			label: g.internLabel(doc.GetOr(labelField).AsString()),
		}
		info[parts[0].AsString()] = ei
		g.edges++
		return true
	})
	if err != nil {
		return nil, err
	}
	if decErr != nil {
		return nil, decErr
	}

	// Passes 3 and 4: the edge-index keyspaces, sorted by
	// keyenc(vertex, edgeKey), stream straight into each CSR half. The far
	// side comes from the edge document: _to for the out half, _from for
	// the in half — exactly what the probe path reports per direction.
	if g.out, err = g.buildHalf(tx, spec.Out, info, false); err != nil {
		return nil, err
	}
	if g.in, err = g.buildHalf(tx, spec.In, info, true); err != nil {
		return nil, err
	}

	g.bytes = g.footprint()
	return g, nil
}

// internVertex returns the id of key, interning a phantom id for endpoints
// missing from the vertex keyspace. Empty keys (a corrupt edge document
// with no endpoint field) intern under "" like any other phantom.
func (g *Graph) internVertex(key string) int32 {
	if id, ok := g.idOf[key]; ok {
		return id
	}
	id := int32(len(g.keys))
	g.idOf[key] = id
	g.keys = append(g.keys, key)
	return id
}

// internLabel returns the id of label, interning it on first sight.
func (g *Graph) internLabel(label string) int32 {
	if id, ok := g.labelOf[label]; ok {
		return id
	}
	id := int32(len(g.labelOf))
	g.labelOf[label] = id
	return id
}

// buildHalf streams one edge-index keyspace into a CSR half. Entries arrive
// sorted by (vertex, edgeKey); real vertex ids were assigned in the same
// sort order, so groups arrive in ascending id order and the offsets close
// with a monotonic sweep. Entries whose edge document is missing (a
// dangling index row) are skipped, like the probe path skips them; entries
// whose owning vertex is not in the vertex keyspace are skipped too —
// expansion from a vertex that does not exist is not a state the graph
// store can produce.
func (g *Graph) buildHalf(tx engine.Tx, ks string, info map[string]edgeInfo, inbound bool) (half, error) {
	h := half{off: make([]int32, g.realV+1)}
	if g.edges > 0 {
		h.adj = make([]int32, 0, g.edges)
		h.label = make([]int32, 0, g.edges)
	}
	cur := int32(0)
	var decErr error
	var parts []mmvalue.Value // key scratch, reused row to row
	err := tx.Scan(ks, nil, nil, func(k, _ []byte) bool {
		var err error
		parts, err = keyenc.DecodeAppend(parts[:0], k)
		if err != nil || len(parts) != 2 {
			decErr = fmt.Errorf("csr: corrupt edge index entry: %w", err)
			return false
		}
		vid, ok := g.idOf[parts[0].AsString()]
		if !ok || vid >= int32(g.realV) {
			return true
		}
		ei, ok := info[parts[1].AsString()]
		if !ok {
			return true
		}
		for cur < vid {
			cur++
			h.off[cur] = int32(len(h.adj))
		}
		far := ei.to
		if inbound {
			far = ei.from
		}
		h.adj = append(h.adj, far)
		h.label = append(h.label, ei.label)
		return true
	})
	if err != nil {
		return half{}, err
	}
	if decErr != nil {
		return half{}, decErr
	}
	for cur < int32(g.realV) {
		cur++
		h.off[cur] = int32(len(h.adj))
	}
	return h, nil
}

// footprint approximates the graph's resident bytes: the two halves' int32
// arrays, the key dictionary's string headers and payloads, and the id map.
func (g *Graph) footprint() int {
	n := 4 * (len(g.out.off) + len(g.out.adj) + len(g.out.label) +
		len(g.in.off) + len(g.in.adj) + len(g.in.label))
	for _, k := range g.keys {
		// String payload plus header, counted twice (dictionary + map key),
		// plus the map's id value and bucket overhead, roughly.
		n += 2*(len(k)+16) + 16
	}
	n += 48 * len(g.labelOf)
	return n
}
