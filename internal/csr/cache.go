package csr

import (
	"slices"
	"sync"

	"repro/internal/engine"
)

// versioned is the slice of the transaction surface the cache validates
// against: the per-keyspace data-version vector and keyspace-drop epoch
// captured at the transaction's snapshot cut. Both engine.Txn and the
// shard router's Txn implement it (the router sums per-shard values, which
// stays collision-free because versions only ever increase). Locked
// transactions report ok == false and never hit the cache.
type versioned interface {
	SnapshotVersionsFor(keyspaces []string) ([]uint64, bool)
	SnapshotDropEpoch() (uint64, bool)
}

// token is the validity key of one graph state: the keyspace-drop epoch and
// the data versions of the graph's four keyspaces.
type token struct {
	epoch uint64
	vers  [4]uint64
}

// entry pairs one built Graph with the token it was built at.
type entry struct {
	tok token
	g   *Graph
}

// buildAfter is how many distinct snapshot transactions must observe the
// same graph state before Get builds its CSR image. A cold build costs
// about what fifty probe traversals do, so a graph written between every
// traversal must keep probing rather than rebuild for each query.
const buildAfter = 3

// sightings counts the distinct snapshot transactions that have observed
// one not-yet-built graph state.
type sightings struct {
	tok token
	txs [buildAfter]uint64
	n   int
}

// Cache holds one CSR snapshot per graph, validated by the snapshot's
// version vector: a Get whose transaction observes the same (drop epoch,
// 4-keyspace versions) token reuses the cached Graph without touching the
// engine at all, so an unchanged graph rebuilds zero times across any
// number of queries. A state is built only once buildAfter distinct
// snapshot transactions have asked for it; until then Get reports ok ==
// false and the caller probes.
//
// c.mu guards only the maps and counters — it is a leaf lock, held for map
// operations only, never across a Build (which scans keyspaces). Two
// transactions racing on a cold graph may both build; the later store wins,
// which is harmless since both snapshots observed identical content.
type Cache struct {
	mu      sync.Mutex
	entries map[string]*entry
	pending map[string]*sightings
	bytes   int // sum of entry Graph footprints, maintained incrementally

	builds   int // cold builds (no entry existed)
	rebuilds int // version-mismatch builds (entry existed, token changed)
	reuses   int // cache hits
}

// NewCache returns an empty CSR cache.
func NewCache() *Cache {
	return &Cache{entries: map[string]*entry{}, pending: map[string]*sightings{}}
}

// Stats is a point-in-time snapshot of cache effectiveness counters.
type Stats struct {
	Builds   int // CSR constructions for graphs with no cached snapshot
	Rebuilds int // CSR constructions replacing a stale snapshot
	Reuses   int // traversals served from a cached snapshot
	Graphs   int // graphs currently cached
	Bytes    int // approximate resident size of all cached snapshots
}

// Stats returns current counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Builds:   c.builds,
		Rebuilds: c.rebuilds,
		Reuses:   c.reuses,
		Graphs:   len(c.entries),
		Bytes:    c.bytes,
	}
}

// Invalidate drops the cached snapshot for one graph (used on graph drop,
// and by benchmarks to measure cold-build amortization).
func (c *Cache) Invalidate(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[name]; ok {
		c.bytes -= e.g.Bytes()
		delete(c.entries, name)
	}
	delete(c.pending, name)
}

// Get returns the CSR snapshot for the named graph as seen by tx's
// snapshot: the cached one when its token matches, otherwise a fresh build
// once buildAfter distinct snapshot transactions have observed this state.
// ok is false — with no error — when tx is not a snapshot transaction or
// the state has not yet earned a build; the caller falls back to the probe
// path.
func (c *Cache) Get(tx engine.Tx, name string, spec Spec) (*Graph, bool, error) {
	vt, okIface := tx.(versioned)
	if !okIface {
		return nil, false, nil
	}
	vers, ok := vt.SnapshotVersionsFor([]string{spec.Vertex, spec.Edge, spec.Out, spec.In})
	if !ok {
		return nil, false, nil
	}
	epoch, ok := vt.SnapshotDropEpoch()
	if !ok {
		return nil, false, nil
	}
	tok := token{epoch: epoch}
	copy(tok.vers[:], vers)

	c.mu.Lock()
	if e, had := c.entries[name]; had && e.tok == tok {
		c.reuses++
		g := e.g
		c.mu.Unlock()
		return g, true, nil
	}
	ready := c.sightLocked(name, tok, tx.ID())
	c.mu.Unlock()
	if !ready {
		return nil, false, nil
	}

	// Build outside the mutex: the scans may be large and must not block
	// cache hits for other graphs.
	g, err := Build(tx, spec)
	if err != nil {
		return nil, false, err
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	switch prev, ok := c.entries[name]; {
	case !ok:
		c.builds++
	case prev.tok == tok:
		// A concurrent transaction built the same snapshot while we did;
		// not a staleness rebuild.
		c.bytes -= prev.g.Bytes()
	default:
		c.bytes -= prev.g.Bytes()
		c.rebuilds++
	}
	c.entries[name] = &entry{tok: tok, g: g}
	c.bytes += g.Bytes()
	if s := c.pending[name]; s != nil && s.tok == tok {
		delete(c.pending, name)
	}
	return g, true, nil
}

// sightLocked records that transaction id observed state tok of the named
// graph and reports whether buildAfter distinct transactions now have. A
// new state restarts the count, and a transaction that asks again is not
// counted twice. The caller holds c.mu.
func (c *Cache) sightLocked(name string, tok token, id uint64) bool {
	s := c.pending[name]
	if s == nil || s.tok != tok {
		s = &sightings{tok: tok}
		c.pending[name] = s
	}
	if s.n < buildAfter && !slices.Contains(s.txs[:s.n], id) {
		s.txs[s.n] = id
		s.n++
	}
	return s.n >= buildAfter
}
