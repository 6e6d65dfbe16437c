// Router transactions: one logical transaction fanned across N shard
// engines. Reads and writes route by key hash; scans scatter, collect
// per-shard sorted runs concurrently, and gather by k-way merge (key sets
// are disjoint across shards, so the merged order is byte-identical to a
// single engine's). Commit picks the cheapest sufficient protocol: writes on
// zero or one shard commit locally, writes on two or more run two-phase
// commit against the router's coordinator log.

package shard

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/engine"
	"repro/internal/fanout"
	"repro/internal/wal"
)

// Txn is a transaction spanning every shard, satisfying engine.Tx. Its
// per-shard slices share one global id drawn from the fleet-wide sequence,
// so their lock acquisitions are idempotent against each other and deadlock
// detection sees the transaction as one node. Same concurrency contract as
// engine.Txn: any number of concurrent readers between writes, one
// goroutine at a time otherwise.
type Txn struct {
	r    *Router
	id   uint64
	subs []*engine.Txn
	snap bool
	done bool
}

// Begin starts a read-write transaction across all shards.
func (r *Router) Begin() (*Txn, error) {
	id := r.seq.Add(1)
	subs := make([]*engine.Txn, len(r.shards))
	for i, e := range r.shards {
		sub, err := e.BeginWith(id)
		if err != nil {
			for _, s := range subs[:i] {
				s.Abort()
			}
			r.locks.ReleaseAll(id)
			return nil, err
		}
		subs[i] = sub
	}
	return &Txn{r: r, id: id, subs: subs}, nil
}

// BeginTx is Begin returning the interface type (the Backend surface).
func (r *Router) BeginTx() (engine.Tx, error) { return r.Begin() }

// beginSnapshot starts a read-only transaction over a fresh consistent
// cut: cutMu held exclusively excludes phase-two appliers, so every
// cross-shard transaction is entirely inside or entirely outside the cut.
// The per-shard cuts are the engines' O(1) copy-on-write snapshots, and
// every shard slice reads its own, lock-free.
func (r *Router) beginSnapshot() (*Txn, error) {
	r.cutMu.Lock()
	snaps := make([]*engine.Snapshot, len(r.shards))
	for i, e := range r.shards {
		snaps[i] = e.Snapshot()
	}
	r.cutMu.Unlock()
	subs := make([]*engine.Txn, len(r.shards))
	for i, e := range r.shards {
		sub, err := e.BeginSnapshotAt(snaps[i])
		if err != nil {
			return nil, err
		}
		subs[i] = sub
	}
	return &Txn{r: r, id: r.seq.Add(1), subs: subs, snap: true}, nil
}

// ID returns the global transaction id.
func (t *Txn) ID() uint64 { return t.id }

// SnapshotRead reports whether this transaction reads a consistent cut
// rather than the live locked trees.
func (t *Txn) SnapshotRead() bool { return t.snap }

// SnapshotVersionsFor returns the given keyspaces' data versions as of this
// transaction's consistent cut, summed positionally across shards.
// ok=false for a locked transaction.
func (t *Txn) SnapshotVersionsFor(keyspaces []string) ([]uint64, bool) {
	if !t.snap {
		return nil, false
	}
	sum := make([]uint64, len(keyspaces))
	for _, sub := range t.subs {
		vers, ok := sub.SnapshotVersionsFor(keyspaces)
		if !ok {
			return nil, false
		}
		for i, v := range vers {
			sum[i] += v
		}
	}
	return sum, true
}

// SnapshotDropEpoch sums the per-shard keyspace-drop counters as of the cut
// (a drop is staged on every shard, so the sum moves whenever any shard
// dropped). ok=false for a locked transaction.
func (t *Txn) SnapshotDropEpoch() (uint64, bool) {
	if !t.snap {
		return 0, false
	}
	var sum uint64
	for _, sub := range t.subs {
		e, ok := sub.SnapshotDropEpoch()
		if !ok {
			return 0, false
		}
		sum += e
	}
	return sum, true
}

// sub returns the shard slice owning (ks, key).
func (t *Txn) sub(ks string, key []byte) *engine.Txn {
	return t.subs[t.r.shardFor(ks, key)]
}

// Get reads key through its owning shard.
func (t *Txn) Get(ks string, key []byte) ([]byte, bool, error) {
	return t.sub(ks, key).Get(ks, key)
}

// Put stages a write on the owning shard.
func (t *Txn) Put(ks string, key, value []byte) error {
	return t.sub(ks, key).Put(ks, key, value)
}

// Delete stages a tombstone on the owning shard.
func (t *Txn) Delete(ks string, key []byte) error {
	return t.sub(ks, key).Delete(ks, key)
}

// DropKeyspace stages the drop on every shard (the keyspace's pairs are
// spread across all of them).
func (t *Txn) DropKeyspace(ks string) error {
	for _, sub := range t.subs {
		if err := sub.DropKeyspace(ks); err != nil {
			return err
		}
	}
	return nil
}

// KeyspaceNonEmpty reports whether any shard holds a pair of ks in this
// transaction's view.
func (t *Txn) KeyspaceNonEmpty(ks string) bool {
	for _, sub := range t.subs {
		if sub.KeyspaceNonEmpty(ks) {
			return true
		}
	}
	return false
}

// Scan iterates pairs with lo <= key < hi ascending, merged across shards.
func (t *Txn) Scan(ks string, lo, hi []byte, fn func(key, value []byte) bool) error {
	return t.scan(ks, lo, hi, fn, false)
}

// ScanReverse is Scan in descending key order.
func (t *Txn) ScanReverse(ks string, lo, hi []byte, fn func(key, value []byte) bool) error {
	return t.scan(ks, lo, hi, fn, true)
}

// scan scatters the range over all shards, collecting each shard's run on
// its own goroutine through internal/fanout (the engine read path is safe
// for concurrent readers of one transaction; a panic in one fails the scan
// with an error), then gathers by ordered merge and drives fn. The runs
// are complete before fn first runs, so fn may freely re-enter the
// transaction; each holds only the pairs its shard has in range.
func (t *Txn) scan(ks string, lo, hi []byte, fn func(key, value []byte) bool, reverse bool) error {
	if len(t.subs) == 1 {
		if reverse {
			return t.subs[0].ScanReverse(ks, lo, hi, fn)
		}
		return t.subs[0].Scan(ks, lo, hi, fn)
	}
	t.r.shardFanouts.Add(1)
	runs := make([][][2][]byte, len(t.subs))
	err := fanout.RunChunks(fanout.Partition{N: len(t.subs), K: len(t.subs)}, func(i, _, _ int) error {
		var pairs [][2][]byte
		if lo == nil && hi == nil {
			// A full scan returns the whole shard: one allocation of its
			// committed size instead of a realloc chain.
			pairs = make([][2][]byte, 0, t.r.shards[i].KeyspaceLen(ks))
		}
		collect := func(k, v []byte) bool {
			pairs = append(pairs, [2][]byte{k, v})
			return true
		}
		scan := t.subs[i].Scan
		if reverse {
			scan = t.subs[i].ScanReverse
		}
		err := scan(ks, lo, hi, collect)
		runs[i] = pairs
		return err
	})
	if err != nil {
		return err
	}
	gather(runs, reverse, fn)
	return nil
}

// gather drives fn over per-shard sorted runs in global key order, by a
// min-pick across the run heads, until fn returns false. It reads the runs
// in place (no merged copy, which halves the allocation and GC-barrier
// traffic of a fan-out scan). Keys are disjoint across shards (each key
// hashes to one owner), so there are never ties to break and the order is
// byte-identical to a single engine's scan of the union.
func gather(runs [][][2][]byte, reverse bool, fn func(key, value []byte) bool) {
	idx := make([]int, len(runs))
	for {
		best := -1
		for i, run := range runs {
			if idx[i] >= len(run) {
				continue
			}
			if best < 0 {
				best = i
				continue
			}
			c := bytes.Compare(run[idx[i]][0], runs[best][idx[best]][0])
			if (!reverse && c < 0) || (reverse && c > 0) {
				best = i
			}
		}
		if best < 0 {
			return
		}
		p := runs[best][idx[best]]
		idx[best]++
		if !fn(p[0], p[1]) {
			return
		}
	}
}

// Commit publishes the transaction. Single-shard write-sets take the
// engine's ordinary commit path — one WAL batch, one fsync barrier, no
// coordination and no cut barrier (the engine's own mutex makes the apply
// atomic). Multi-shard write-sets run two-phase commit. Locks are released
// once, here, after every shard applied: strict 2PL at the router level.
func (t *Txn) Commit() error {
	if t.done {
		return engine.ErrTxnDone
	}
	if t.snap {
		for _, sub := range t.subs {
			sub.Commit()
		}
		t.done = true
		return nil
	}
	var participants []*engine.Txn
	for _, sub := range t.subs {
		if sub.HasWrites() {
			participants = append(participants, sub)
		}
	}
	if len(participants) >= 2 {
		return t.commitCrossShard(participants)
	}
	var err error
	for _, sub := range t.subs {
		if cerr := sub.Commit(); cerr != nil && err == nil {
			err = cerr
		}
	}
	t.r.locks.ReleaseAll(t.id)
	t.done = true
	return err
}

// commitCrossShard runs two-phase commit. Phase one: every participant
// makes its redo records plus a prepare record durable through its own
// group-commit window. Decision: one commit record in the coordinator log —
// this append is the commit point; until it lands the transaction is
// presumed aborted. Phase two: each participant applies under the router's
// shared cut barrier (so a consistent cut sees all applies or none) and
// logs a local commit marker that spares future recoveries the coordinator
// lookup. Any failure before the decision record aborts every participant
// the same way recovery would: presumed abort.
func (t *Txn) commitCrossShard(participants []*engine.Txn) error {
	r := t.r
	r.crossShardTxns.Add(1)
	prepared := 0
	var err error
	for _, p := range participants {
		if err = p.Prepare(); err != nil {
			break
		}
		prepared++
		r.preparedTxns.Add(1)
	}
	if err == nil && r.coord != nil {
		if _, derr := r.coord.AppendBatch([]wal.Record{{Txn: t.id, Op: wal.OpCommit}}); derr != nil {
			err = fmt.Errorf("shard: coordinator decision: %w", derr)
		}
	}
	if err != nil {
		for i, p := range participants {
			if i < prepared {
				p.AbortPrepared()
			}
		}
		t.abortRemaining()
		r.locks.ReleaseAll(t.id)
		t.done = true
		return err
	}
	var werr error
	r.cutMu.RLock()
	for _, p := range participants {
		if aerr := p.CommitPrepared(); aerr != nil && werr == nil {
			werr = aerr
		}
	}
	r.cutMu.RUnlock()
	t.abortRemaining()
	r.locks.ReleaseAll(t.id)
	t.done = true
	return werr
}

// abortRemaining finishes every still-open sub-transaction (the no-write
// shards, plus unprepared participants on the abort path). Abort on an
// already-finished sub is a no-op.
func (t *Txn) abortRemaining() {
	for _, sub := range t.subs {
		sub.Abort()
	}
}

// Abort discards the transaction on every shard and releases its locks.
// Safe to call on a finished transaction, where it is a no-op returning
// nil.
func (t *Txn) Abort() error {
	if t.done {
		return nil
	}
	var err error
	for _, sub := range t.subs {
		if aerr := sub.Abort(); aerr != nil && err == nil {
			err = aerr
		}
	}
	if !t.snap {
		t.r.locks.ReleaseAll(t.id)
	}
	t.done = true
	return err
}

// Update runs fn in a router transaction, committing on nil and aborting on
// error, with the same bounded, backed-off deadlock retry as a single engine.
func (r *Router) Update(fn func(tx engine.Tx) error) error {
	var lastErr error
	for attempt := 0; attempt < engine.DeadlockRetries; attempt++ {
		if attempt > 0 {
			engine.DeadlockBackoff(attempt)
		}
		t, err := r.Begin()
		if err != nil {
			return err
		}
		err = fn(t)
		if err == nil {
			return t.Commit()
		}
		if aerr := t.Abort(); aerr != nil {
			return errors.Join(err, aerr)
		}
		if !errors.Is(err, engine.ErrDeadlock) {
			return err
		}
		lastErr = err
	}
	return lastErr
}

// View runs fn read-only over the live locked trees (fn may technically
// write; the transaction aborts either way).
func (r *Router) View(fn func(tx engine.Tx) error) error {
	t, err := r.Begin()
	if err != nil {
		return err
	}
	defer t.Abort()
	return errors.Join(fn(t), t.Abort())
}

// SnapshotView runs fn against a fresh consistent cut: lock-free reads that
// cannot block or be blocked by writers on any shard.
func (r *Router) SnapshotView(fn func(tx engine.Tx) error) error {
	t, err := r.beginSnapshot()
	if err != nil {
		return err
	}
	defer t.Abort()
	return errors.Join(fn(t), t.Abort())
}
