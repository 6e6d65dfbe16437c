// Package graphstore implements the property-graph data model the ArangoDB
// way described in the paper: "since vertices and edges of graphs are
// documents, this allows to mix all three data models". Vertices and edges
// are stored as documents; adjacency is two hash-shaped edge-index
// keyspaces over _from and _to (ArangoDB's "edge index"), giving O(degree)
// neighbor expansion.
//
// Layout on the integrated backend:
//
//	g:<graph>:v     keyenc(vkey) -> binenc(vertex doc incl. _key)
//	g:<graph>:e     keyenc(ekey) -> binenc(edge doc incl. _key,_from,_to,_label)
//	g:<graph>:out   keyenc(from, ekey)  -> ""   (edge index, forward)
//	g:<graph>:in    keyenc(to, ekey)    -> ""   (edge index, reverse)
package graphstore

import (
	"errors"
	"fmt"
	"strconv"
	"sync/atomic"

	"repro/internal/binenc"
	"repro/internal/csr"
	"repro/internal/engine"
	"repro/internal/keyenc"
	"repro/internal/mmvalue"
)

// Reserved edge fields.
const (
	KeyField   = "_key"
	FromField  = "_from"
	ToField    = "_to"
	LabelField = "_label"
)

// Errors.
var (
	ErrNotFound   = errors.New("graphstore: not found")
	ErrDuplicate  = errors.New("graphstore: duplicate key")
	ErrBadEdge    = errors.New("graphstore: edge endpoints missing")
	ErrNoSuchPath = errors.New("graphstore: no path")
)

// Direction selects traversal direction, matching AQL's OUTBOUND / INBOUND /
// ANY.
type Direction int

// Traversal directions.
const (
	Outbound Direction = iota
	Inbound
	Any
)

func (d Direction) String() string {
	switch d {
	case Outbound:
		return "OUTBOUND"
	case Inbound:
		return "INBOUND"
	default:
		return "ANY"
	}
}

// Store provides graph operations within engine transactions.
type Store struct {
	e      engine.Sizer
	keySeq atomic.Uint64
	// dc memoizes decoded vertex documents on the point-lookup path
	// (traversals fetch each visited vertex); entries are validated
	// against the raw bytes each read returns.
	dc *binenc.DecodeCache
	// csr caches one immutable CSR adjacency snapshot per graph for the
	// lock-free traversal path.
	csr *csr.Cache
}

// New returns a graph store over the engine.
func New(e engine.Sizer) *Store {
	return &Store{e: e, dc: binenc.NewDecodeCache(8192), csr: csr.NewCache()}
}

func vKS(g string) string { return "g:" + g + ":v" }
func eKS(g string) string { return "g:" + g + ":e" }

// OutKeyspace and InKeyspace expose the edge-index keyspaces (used by the
// unified query engine and the multi-model join index).
func OutKeyspace(g string) string { return "g:" + g + ":out" }

// InKeyspace is the reverse edge index keyspace.
func InKeyspace(g string) string { return "g:" + g + ":in" }

// VertexKeyspace exposes the vertex keyspace name.
func VertexKeyspace(g string) string { return vKS(g) }

// EdgeKeyspace exposes the edge keyspace name.
func EdgeKeyspace(g string) string { return eKS(g) }

func (s *Store) genKey(prefix string) string {
	return prefix + strconv.FormatUint(s.keySeq.Add(1), 36)
}

// AddVertex stores a vertex document. Key from _key or generated; returns
// the key.
func (s *Store) AddVertex(tx engine.Tx, graph string, doc mmvalue.Value) (string, error) {
	if doc.Kind() != mmvalue.KindObject {
		doc = mmvalue.Object(mmvalue.F("value", doc))
	}
	key := doc.GetOr(KeyField).AsString()
	if key == "" {
		key = s.genKey("v")
		doc = doc.Set(KeyField, mmvalue.String(key))
	}
	pk := keyenc.AppendString(nil, key)
	if _, ok, err := tx.Get(vKS(graph), pk); err != nil {
		return "", err
	} else if ok {
		return "", fmt.Errorf("%w: vertex %s", ErrDuplicate, key)
	}
	return key, tx.Put(vKS(graph), pk, binenc.Encode(doc))
}

// PutVertex upserts a vertex under an explicit key.
func (s *Store) PutVertex(tx engine.Tx, graph, key string, doc mmvalue.Value) error {
	doc = doc.Set(KeyField, mmvalue.String(key))
	return tx.Put(vKS(graph), keyenc.AppendString(nil, key), binenc.Encode(doc))
}

// Vertex fetches a vertex document.
func (s *Store) Vertex(tx engine.Tx, graph, key string) (mmvalue.Value, bool, error) {
	raw, ok, err := tx.Get(vKS(graph), keyenc.AppendString(nil, key))
	if err != nil || !ok {
		return mmvalue.Null, false, err
	}
	doc, err := s.dc.Decode(raw)
	return doc, err == nil, err
}

// RemoveVertex deletes a vertex and every incident edge.
func (s *Store) RemoveVertex(tx engine.Tx, graph, key string) error {
	pk := keyenc.AppendString(nil, key)
	if _, ok, err := tx.Get(vKS(graph), pk); err != nil {
		return err
	} else if !ok {
		return fmt.Errorf("%w: vertex %s", ErrNotFound, key)
	}
	// Remove incident edges in both directions.
	for _, dir := range []Direction{Outbound, Inbound} {
		edges, err := s.incidentEdgeKeys(tx, graph, key, dir)
		if err != nil {
			return err
		}
		for _, ek := range edges {
			if err := s.RemoveEdge(tx, graph, ek); err != nil && !errors.Is(err, ErrNotFound) {
				return err
			}
		}
	}
	return tx.Delete(vKS(graph), pk)
}

// AddEdge stores an edge document; it must carry _from and _to (vertex
// keys). _label is optional. Returns the edge key.
func (s *Store) AddEdge(tx engine.Tx, graph string, doc mmvalue.Value) (string, error) {
	from := doc.GetOr(FromField).AsString()
	to := doc.GetOr(ToField).AsString()
	if from == "" || to == "" {
		return "", ErrBadEdge
	}
	// Referential integrity: endpoints must exist.
	for _, v := range []string{from, to} {
		if _, ok, err := tx.Get(vKS(graph), keyenc.AppendString(nil, v)); err != nil {
			return "", err
		} else if !ok {
			return "", fmt.Errorf("%w: vertex %s", ErrNotFound, v)
		}
	}
	key := doc.GetOr(KeyField).AsString()
	if key == "" {
		key = s.genKey("e")
		doc = doc.Set(KeyField, mmvalue.String(key))
	}
	pk := keyenc.AppendString(nil, key)
	if _, ok, err := tx.Get(eKS(graph), pk); err != nil {
		return "", err
	} else if ok {
		return "", fmt.Errorf("%w: edge %s", ErrDuplicate, key)
	}
	if err := tx.Put(eKS(graph), pk, binenc.Encode(doc)); err != nil {
		return "", err
	}
	outKey := keyenc.AppendString(keyenc.AppendString(nil, from), key)
	if err := tx.Put(OutKeyspace(graph), outKey, nil); err != nil {
		return "", err
	}
	inKey := keyenc.AppendString(keyenc.AppendString(nil, to), key)
	return key, tx.Put(InKeyspace(graph), inKey, nil)
}

// Connect is AddEdge with positional endpoints and an optional label.
func (s *Store) Connect(tx engine.Tx, graph, from, to, label string, props mmvalue.Value) (string, error) {
	doc := props
	if doc.Kind() != mmvalue.KindObject {
		doc = mmvalue.Object()
	}
	doc = doc.Set(FromField, mmvalue.String(from)).Set(ToField, mmvalue.String(to))
	if label != "" {
		doc = doc.Set(LabelField, mmvalue.String(label))
	}
	return s.AddEdge(tx, graph, doc)
}

// Edge fetches an edge document.
func (s *Store) Edge(tx engine.Tx, graph, key string) (mmvalue.Value, bool, error) {
	raw, ok, err := tx.Get(eKS(graph), keyenc.AppendString(nil, key))
	if err != nil || !ok {
		return mmvalue.Null, false, err
	}
	doc, err := binenc.Decode(raw)
	return doc, err == nil, err
}

// RemoveEdge deletes an edge and its index entries.
func (s *Store) RemoveEdge(tx engine.Tx, graph, key string) error {
	pk := keyenc.AppendString(nil, key)
	raw, ok, err := tx.Get(eKS(graph), pk)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("%w: edge %s", ErrNotFound, key)
	}
	doc, err := binenc.Decode(raw)
	if err != nil {
		return err
	}
	from := doc.GetOr(FromField).AsString()
	to := doc.GetOr(ToField).AsString()
	if err := tx.Delete(OutKeyspace(graph), keyenc.AppendString(keyenc.AppendString(nil, from), key)); err != nil {
		return err
	}
	if err := tx.Delete(InKeyspace(graph), keyenc.AppendString(keyenc.AppendString(nil, to), key)); err != nil {
		return err
	}
	return tx.Delete(eKS(graph), pk)
}

// incidentEdgeKeys lists edge keys incident to v in one direction using the
// edge index.
func (s *Store) incidentEdgeKeys(tx engine.Tx, graph, v string, dir Direction) ([]string, error) {
	ks := OutKeyspace(graph)
	if dir == Inbound {
		ks = InKeyspace(graph)
	}
	lo := keyenc.AppendString(nil, v)
	hi := keyenc.AppendMax(keyenc.AppendString(nil, v))
	var out []string
	var decErr error
	var parts []mmvalue.Value // key scratch, reused row to row
	err := tx.Scan(ks, lo, hi, func(k, _ []byte) bool {
		var err error
		parts, err = keyenc.DecodeAppend(parts[:0], k)
		if err != nil || len(parts) != 2 {
			decErr = fmt.Errorf("graphstore: corrupt edge index entry: %w", err)
			return false
		}
		out = append(out, parts[1].AsString())
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, decErr
}

// Neighbor is one step of an expansion: the edge document and the vertex
// key on its far side.
type Neighbor struct {
	Edge      mmvalue.Value
	VertexKey string
}

// Neighbors expands one step from v. label filters edges by _label when
// non-empty. For Any, a self-loop of v sits in both the outbound and
// inbound incident lists; it is reported once (dedup by edge key).
func (s *Store) Neighbors(tx engine.Tx, graph, v string, dir Direction, label string) ([]Neighbor, error) {
	var out []Neighbor
	dirs := []Direction{dir}
	if dir == Any {
		dirs = []Direction{Outbound, Inbound}
	}
	var seen map[string]struct{}
	if dir == Any {
		seen = map[string]struct{}{}
	}
	for _, d := range dirs {
		keys, err := s.incidentEdgeKeys(tx, graph, v, d)
		if err != nil {
			return nil, err
		}
		for _, ek := range keys {
			if seen != nil {
				if _, dup := seen[ek]; dup {
					continue
				}
				seen[ek] = struct{}{}
			}
			edge, ok, err := s.Edge(tx, graph, ek)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
			if label != "" && edge.GetOr(LabelField).AsString() != label {
				continue
			}
			far := edge.GetOr(ToField).AsString()
			if d == Inbound {
				far = edge.GetOr(FromField).AsString()
			}
			out = append(out, Neighbor{Edge: edge, VertexKey: far})
		}
	}
	return out, nil
}

// Traverse performs the AQL `FOR v IN min..max <dir> start <label>` BFS
// expansion, returning each reached vertex key at depth min..max (inclusive)
// exactly once (first reach wins), excluding the start unless min == 0.
func (s *Store) Traverse(tx engine.Tx, graph, start string, min, max int, dir Direction, label string) ([]string, error) {
	if min < 0 || max < min {
		return nil, fmt.Errorf("graphstore: bad depth range %d..%d", min, max)
	}
	visited := map[string]int{start: 0}
	frontier := []string{start}
	var out []string
	if min == 0 {
		// Depth 0 emits the start vertex — but only if it exists; a
		// traversal from a vertex not in the graph reaches nothing.
		ok, err := s.vertexExists(tx, graph, start)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, start)
		}
	}
	for depth := 1; depth <= max && len(frontier) > 0; depth++ {
		var next []string
		for _, v := range frontier {
			ns, err := s.Neighbors(tx, graph, v, dir, label)
			if err != nil {
				return nil, err
			}
			for _, n := range ns {
				if _, seen := visited[n.VertexKey]; seen {
					continue
				}
				visited[n.VertexKey] = depth
				next = append(next, n.VertexKey)
				if depth >= min {
					out = append(out, n.VertexKey)
				}
			}
		}
		frontier = next
	}
	return out, nil
}

// ShortestPath returns the vertex keys of an unweighted shortest path from
// start to goal (inclusive), or ErrNoSuchPath.
func (s *Store) ShortestPath(tx engine.Tx, graph, start, goal string, dir Direction, label string) ([]string, error) {
	if start == goal {
		// The trivial path exists only if the vertex itself does.
		ok, err := s.vertexExists(tx, graph, start)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("%w: %s -> %s", ErrNoSuchPath, start, goal)
		}
		return []string{start}, nil
	}
	parent := map[string]string{start: ""}
	frontier := []string{start}
	for len(frontier) > 0 {
		var next []string
		for _, v := range frontier {
			ns, err := s.Neighbors(tx, graph, v, dir, label)
			if err != nil {
				return nil, err
			}
			for _, n := range ns {
				if _, seen := parent[n.VertexKey]; seen {
					continue
				}
				parent[n.VertexKey] = v
				if n.VertexKey == goal {
					return buildPath(parent, start, goal), nil
				}
				next = append(next, n.VertexKey)
			}
		}
		frontier = next
	}
	return nil, fmt.Errorf("%w: %s -> %s", ErrNoSuchPath, start, goal)
}

func buildPath(parent map[string]string, start, goal string) []string {
	var rev []string
	for v := goal; v != ""; v = parent[v] {
		rev = append(rev, v)
		if v == start {
			break
		}
	}
	out := make([]string, len(rev))
	for i, v := range rev {
		out[len(rev)-1-i] = v
	}
	return out
}

// Vertices iterates every vertex in key order.
func (s *Store) Vertices(tx engine.Tx, graph string, fn func(key string, doc mmvalue.Value) bool) error {
	return s.scanDocs(tx, vKS(graph), fn)
}

// Edges iterates every edge in key order.
func (s *Store) Edges(tx engine.Tx, graph string, fn func(key string, doc mmvalue.Value) bool) error {
	return s.scanDocs(tx, eKS(graph), fn)
}

func (s *Store) scanDocs(tx engine.Tx, ks string, fn func(key string, doc mmvalue.Value) bool) error {
	var decErr error
	var parts []mmvalue.Value // key scratch, reused row to row
	err := tx.Scan(ks, nil, nil, func(k, v []byte) bool {
		var err error
		parts, err = keyenc.DecodeAppend(parts[:0], k)
		if err != nil || len(parts) == 0 {
			decErr = err
			return false
		}
		doc, err := binenc.Decode(v)
		if err != nil {
			decErr = err
			return false
		}
		return fn(parts[0].AsString(), doc)
	})
	if err != nil {
		return err
	}
	return decErr
}

// Degree returns the number of edges incident to v in the given direction.
func (s *Store) Degree(tx engine.Tx, graph, v string, dir Direction) (int, error) {
	if dir == Any {
		out, err := s.Degree(tx, graph, v, Outbound)
		if err != nil {
			return 0, err
		}
		in, err := s.Degree(tx, graph, v, Inbound)
		return out + in, err
	}
	keys, err := s.incidentEdgeKeys(tx, graph, v, dir)
	return len(keys), err
}

// VertexCount and EdgeCount are engine statistics.
func (s *Store) VertexCount(graph string) int { return s.e.KeyspaceLen(vKS(graph)) }

// EdgeCount returns the number of edges.
func (s *Store) EdgeCount(graph string) int { return s.e.KeyspaceLen(eKS(graph)) }
