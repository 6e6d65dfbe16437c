// Single adapts one engine to the Backend surface: the Shards=1 path pays
// no routing, no fan-out, and no cut barrier — it is today's single-engine
// code path verbatim, so leaving Options.Shards unset costs nothing.

package shard

import (
	"repro/internal/engine"
	"repro/internal/wal"
)

// Single is the one-engine Backend.
type Single struct {
	E *engine.Engine
}

// NewSingle wraps an already-open engine.
func NewSingle(e *engine.Engine) *Single { return &Single{E: e} }

// BeginTx starts a read-write transaction.
func (s *Single) BeginTx() (engine.Tx, error) { return s.E.Begin() }

// Update delegates to the engine's retry-on-deadlock update loop.
func (s *Single) Update(fn func(tx engine.Tx) error) error {
	return s.E.Update(func(t *engine.Txn) error { return fn(t) })
}

// View delegates to the engine's read-only view.
func (s *Single) View(fn func(tx engine.Tx) error) error {
	return s.E.View(func(t *engine.Txn) error { return fn(t) })
}

// SnapshotView delegates to the engine's lock-free snapshot view.
func (s *Single) SnapshotView(fn func(tx engine.Tx) error) error {
	return s.E.SnapshotView(func(t *engine.Txn) error { return fn(t) })
}

// KeyspaceLen delegates to the engine.
func (s *Single) KeyspaceLen(ks string) int { return s.E.KeyspaceLen(ks) }

// Keyspaces delegates to the engine.
func (s *Single) Keyspaces() []string { return s.E.Keyspaces() }

// Subscribe delegates to the engine's commit log.
func (s *Single) Subscribe(fn func(batch []wal.Record)) { s.E.Subscribe(fn) }

// SnapshotReads delegates to the engine's counter.
func (s *Single) SnapshotReads() uint64 { return s.E.SnapshotReads() }

// WALStats delegates to the engine's log counters.
func (s *Single) WALStats() wal.Stats { return s.E.WALStats() }

// Checkpoint delegates to the engine.
func (s *Single) Checkpoint() error { return s.E.Checkpoint() }

// NewReplica wraps the engine's WAL-shipping replica.
func (s *Single) NewReplica(lagTxns int) *Replica {
	return &Replica{subs: []*engine.Replica{s.E.NewReplica(lagTxns)}}
}

// Stats reports the single partition's keyspace versions; the cross-shard
// counters are structurally zero.
func (s *Single) Stats() Stats {
	return Stats{Shards: 1, KeyspaceVersions: []map[string]uint64{s.E.Versions()}}
}

// Close closes the engine.
func (s *Single) Close() error { return s.E.Close() }
