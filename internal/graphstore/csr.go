package graphstore

import (
	"repro/internal/csr"
	"repro/internal/engine"
	"repro/internal/keyenc"
)

// CSRSpec names the four keyspaces of one graph for the CSR builder.
func CSRSpec(graph string) csr.Spec {
	return csr.Spec{
		Vertex: vKS(graph),
		Edge:   eKS(graph),
		Out:    OutKeyspace(graph),
		In:     InKeyspace(graph),
	}
}

// CSRDir converts a store Direction to the csr package's Dir.
func CSRDir(dir Direction) csr.Dir {
	switch dir {
	case Inbound:
		return csr.In
	case Any:
		return csr.Any
	default:
		return csr.Out
	}
}

// CSRFor returns the CSR adjacency snapshot of the graph as seen by tx's
// snapshot, building or reusing the cached one as its version vector
// dictates. ok is false when tx is a locked transaction, when the CSR path
// is disabled, when too few snapshot transactions have read this graph
// state to pay for a build, or when the build fails — callers fall back to
// per-edge probes, which are always correct.
func (s *Store) CSRFor(tx engine.Tx, graph string) (*csr.Graph, bool) {
	if s.csrOff.Load() {
		return nil, false
	}
	g, ok, err := s.csr.Get(tx, graph, CSRSpec(graph))
	if err != nil || !ok {
		return nil, false
	}
	return g, true
}

// CSRStats reports CSR cache effectiveness counters.
func (s *Store) CSRStats() csr.Stats { return s.csr.Stats() }

// SetCSREnabled toggles the CSR traversal path; disabled, every traversal
// uses per-edge probes (the correctness baseline).
func (s *Store) SetCSREnabled(on bool) { s.csrOff.Store(!on) }

// InvalidateCSR drops the cached CSR snapshot for one graph, so the graph
// is rebuilt from scratch once it is read often enough again (benchmarks
// use it to measure cold builds; correctness never requires it — the
// version vector and drop epoch already invalidate on any change).
func (s *Store) InvalidateCSR(graph string) { s.csr.Invalidate(graph) }

// vertexExists probes the vertex keyspace without decoding the document.
func (s *Store) vertexExists(tx engine.Tx, graph, key string) (bool, error) {
	_, ok, err := tx.Get(vKS(graph), keyenc.AppendString(nil, key))
	return ok, err
}
