// Package engine implements unidb's single integrated backend: named
// keyspaces (ordered key/value maps on copy-on-write B+trees) with ACID
// transactions, write-ahead logging, checkpoint/recovery, and WAL-shipping
// replicas.
//
// Every data model in unidb — relational tables, document collections,
// key/value buckets, graphs, XML trees, RDF triples — is a thin mapping onto
// keyspaces, so a single transaction here is automatically a *cross-model*
// transaction, the capability the paper lists among its six open challenges.
//
// Concurrency control is hybrid. Writers use strict two-phase locking with
// multiple-granularity locks (IS/IX on keyspaces, S/X on keys, S/X on whole
// keyspaces for scans and drops) and waits-for-graph deadlock detection;
// their writes are buffered in a private write-set and applied to the shared
// trees only at commit, so the live trees always hold exactly the committed
// state. That invariant is what makes MVCC reads possible: Engine.Snapshot
// marks every tree root shared in O(1) under e.mu and hands out an immutable
// multi-keyspace view, and snapshot transactions (BeginSnapshot) read it
// with zero lock-manager traffic — no IS/S acquisition, no deadlock
// exposure, no blocking of concurrent X-writers. Durability is
// WAL-before-commit with non-blocking snapshot checkpoints; recovery replays
// the committed suffix of the log over the latest snapshot.
package engine

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/btree"
	"repro/internal/wal"
)

// Durability selects how eagerly commits reach disk.
type Durability int

// Durability levels.
const (
	// Ephemeral keeps everything in memory: no WAL, no recovery.
	Ephemeral Durability = iota
	// Buffered writes the WAL through a buffer flushed at commit but does
	// not fsync; a process crash preserves committed work, an OS crash may
	// lose a recent suffix.
	Buffered
	// Synced fsyncs the WAL at every commit.
	Synced
)

// Options configures Open.
type Options struct {
	// Dir is the data directory; required unless Durability is Ephemeral.
	Dir string
	// Durability selects the commit protocol.
	Durability Durability
	// GroupCommitWindow caps how many concurrent Synced committers share
	// one WAL fsync (group commit). 0 selects wal.DefaultCommitWindow; 1
	// restores per-commit fsync.
	GroupCommitWindow int
	// Locks, when non-nil, makes the engine acquire its 2PL locks from a
	// lock manager shared with other engines (the shard router's fleet).
	// nil keeps a private manager — the single-engine default.
	Locks *Locks
	// TxnSeq, when non-nil, is a shared transaction-id sequence. Engines
	// opened over one sequence never collide on ids, which BeginWith relies
	// on to run one logical transaction across several engines.
	TxnSeq *atomic.Uint64
	// DecidePrepared resolves in-doubt prepares found during recovery: it
	// reports whether the 2PC coordinator committed the given global
	// transaction id. nil presumes abort for every undecided prepare.
	DecidePrepared func(txn uint64) bool
}

// Sizer reports committed keyspace cardinality — the only non-transactional
// engine surface the model stores need, satisfied by both *Engine and the
// shard router.
type Sizer interface {
	KeyspaceLen(ks string) int
}

// Tx is the transaction surface shared by *Txn and the shard router's
// fan-out transaction: every model store and the query executor work
// against it, so one code path serves both the single engine and N shards.
// The concurrency contract matches Txn: any number of concurrent readers
// between writes, one goroutine at a time otherwise.
type Tx interface {
	ID() uint64
	SnapshotRead() bool
	Get(ks string, key []byte) ([]byte, bool, error)
	Put(ks string, key, value []byte) error
	Delete(ks string, key []byte) error
	Scan(ks string, lo, hi []byte, fn func(key, value []byte) bool) error
	ScanReverse(ks string, lo, hi []byte, fn func(key, value []byte) bool) error
	DropKeyspace(ks string) error
	KeyspaceNonEmpty(ks string) bool
	Commit() error
	Abort() error
}

// ErrClosed is returned by operations on a closed engine.
var ErrClosed = errors.New("engine: closed")

// ErrTxnDone is returned by operations on a committed or aborted Txn.
var ErrTxnDone = errors.New("engine: transaction finished")

// ErrReadOnlyTxn is returned by write operations on a snapshot transaction.
var ErrReadOnlyTxn = errors.New("engine: write on snapshot (read-only) transaction")

// Engine is the multi-model storage engine.
type Engine struct {
	mu        sync.Mutex // guards keyspaces, versions, and tree mutation
	keyspaces map[string]*btree.Tree

	// versions holds a monotonic per-keyspace data version, bumped once per
	// committing transaction for every keyspace in its write-set, in the same
	// e.mu critical section that applies the write-set to the trees. A cached
	// result derived from some keyspaces is valid exactly while each of their
	// versions is unchanged. Dropping a keyspace deletes its entry (absent
	// reads as 0), so version numbers restart after a drop — consumers that
	// cache across DDL must pair the vector with a DDL epoch.
	versions map[string]uint64
	// dropEpoch counts committed keyspace drops, under the same e.mu cut
	// as versions. It disambiguates version vectors across a drop+recreate
	// of the same keyspace, whose per-keyspace counter restarts at 1.
	dropEpoch uint64

	// commitMu orders commit publication against the checkpoint cut. Every
	// committer holds it shared across its WAL append *and* tree apply (and
	// the group-commit fsync that runs outside the WAL mutex); Checkpoint
	// holds it exclusively for the brief O(1) cut — snapshotting tree roots
	// plus capturing the WAL watermark — and again for the prefix
	// truncation's file swap. The barrier guarantees each transaction lands
	// entirely before or entirely after the cut, so the snapshot file and
	// the retained WAL suffix compose exactly.
	commitMu sync.RWMutex

	locks  *lockManager
	log    *wal.Log
	dir    string
	txnSeq atomic.Uint64
	// seq is the id source Begin* draws from: &txnSeq normally, or the
	// shared sequence from Options.TxnSeq under a shard router.
	seq *atomic.Uint64

	// prepared counts transactions that are past Prepare but not yet past
	// CommitPrepared/AbortPrepared. Checkpoint refuses to cut while it is
	// non-zero: a cut between a prepare and its decision could truncate the
	// prepare record that recovery needs to resolve the transaction.
	prepared atomic.Int64

	// snapshotReads counts snapshot (lock-free MVCC) transactions begun.
	snapshotReads atomic.Uint64

	stateMu sync.Mutex
	closed  bool
	cpMu    sync.Mutex // serializes whole checkpoints (cut → write → truncate)

	subMu     sync.Mutex
	subs      []*Replica
	listeners []func([]wal.Record)
}

// Subscribe registers fn to be called synchronously with the redo batch of
// every committed transaction, in commit order. This is the paper's
// OctopusDB idea ("storage views defined over a central log") put to work:
// replicas, secondary index views, and materialized views are all just log
// subscribers.
func (e *Engine) Subscribe(fn func(batch []wal.Record)) {
	e.subMu.Lock()
	e.listeners = append(e.listeners, fn)
	e.subMu.Unlock()
}

// Open creates or recovers an engine per opts.
func Open(opts Options) (*Engine, error) {
	e := &Engine{
		keyspaces: map[string]*btree.Tree{},
		versions:  map[string]uint64{},
		locks:     newLockManager(),
		dir:       opts.Dir,
	}
	e.seq = &e.txnSeq
	if opts.Locks != nil {
		e.locks = opts.Locks.lm
	}
	if opts.TxnSeq != nil {
		e.seq = opts.TxnSeq
	}
	if opts.Durability == Ephemeral {
		return e, nil
	}
	if opts.Dir == "" {
		return nil, errors.New("engine: durable mode requires Options.Dir")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("engine: mkdir: %w", err)
	}
	// Recover: snapshot first, then the committed WAL suffix — including
	// prepared transactions the 2PC coordinator decided to commit.
	if err := e.loadSnapshot(wal.SnapshotPath(opts.Dir)); err != nil {
		return nil, err
	}
	recs, err := wal.ReadAll(wal.LogPath(opts.Dir))
	if err != nil {
		return nil, err
	}
	for _, r := range wal.ReplaySets(recs, opts.DecidePrepared) {
		e.applyRecord(r)
	}
	// Advance the id sequence past every id in the log, so transactions
	// begun after recovery can never collide with recovered ones.
	for _, r := range recs {
		for {
			cur := e.seq.Load()
			if r.Txn <= cur || e.seq.CompareAndSwap(cur, r.Txn) {
				break
			}
		}
	}
	log, err := wal.OpenOptions(wal.LogPath(opts.Dir), wal.Options{
		SyncEveryCommit: opts.Durability == Synced,
		CommitWindow:    opts.GroupCommitWindow,
	})
	if err != nil {
		return nil, err
	}
	e.log = log
	return e, nil
}

// WALStats returns the WAL's cumulative activity counters (zero-valued for
// an Ephemeral engine, which has no log).
func (e *Engine) WALStats() wal.Stats {
	if e.log == nil {
		return wal.Stats{}
	}
	return e.log.Stats()
}

// applyRecord applies a redo record to the in-memory trees (recovery,
// commit publication, and replicas share this).
func (e *Engine) applyRecord(r wal.Record) {
	switch r.Op {
	case wal.OpSet:
		e.tree(r.Keyspace).Put(r.Key, r.Value)
	case wal.OpDelete:
		if t := e.keyspaces[r.Keyspace]; t != nil {
			t.Delete(r.Key)
		}
	case wal.OpDropKeyspace:
		delete(e.keyspaces, r.Keyspace)
	case wal.OpCommit, wal.OpAbort, wal.OpPrepare:
		// Control records carry no data to apply.
	}
}

// tree returns (creating if needed) the named keyspace. Caller holds e.mu or
// is in single-threaded recovery.
func (e *Engine) tree(ks string) *btree.Tree {
	t := e.keyspaces[ks]
	if t == nil {
		t = btree.New()
		e.keyspaces[ks] = t
	}
	return t
}

// Close flushes and closes the engine. In-flight transactions must be
// finished first; Close does not wait for them.
func (e *Engine) Close() error {
	e.stateMu.Lock()
	e.closed = true
	e.stateMu.Unlock()
	if e.log != nil {
		return e.log.Close()
	}
	return nil
}

// Keyspaces returns the sorted names of existing keyspaces.
func (e *Engine) Keyspaces() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]string, 0, len(e.keyspaces))
	for ks := range e.keyspaces {
		out = append(out, ks)
	}
	sort.Strings(out)
	return out
}

// KeyspaceLen returns the number of pairs in a keyspace (0 when absent);
// the optimizer's cardinality estimate. It sees committed state only — for
// a view that includes a transaction's staged writes use
// Txn.KeyspaceNonEmpty.
func (e *Engine) KeyspaceLen(ks string) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	if t := e.keyspaces[ks]; t != nil {
		return t.Len()
	}
	return 0
}

// wsEntry is one staged write: a pending value or a tombstone.
type wsEntry struct {
	value []byte
	del   bool
}

// wsKeyspace is a transaction's private overlay for one keyspace: staged
// values and tombstones, plus whether the keyspace itself was dropped
// (clearing the committed view from this transaction's perspective).
type wsKeyspace struct {
	dropped bool
	entries map[string]wsEntry
}

// Txn is a serializable transaction over any number of keyspaces (and
// therefore any number of data models).
//
// Writes are deferred: Put/Delete/DropKeyspace stage into a private
// write-set (reads consult it first, so a transaction always sees its own
// writes) and the shared trees are only touched at Commit, under the
// engine's commit barrier. The shared trees therefore hold exactly the
// committed state at every instant — the invariant Engine.Snapshot relies
// on. Abort simply discards the write-set; there is no undo.
//
// Concurrency contract (relied on by the query layer's parallel scan+filter
// executor): the read path — Get, Scan, ScanReverse — is safe to call from
// multiple goroutines on one Txn concurrently. Reads serialize on the lock
// manager's mutex and the engine's tree mutex (or, for snapshot
// transactions, touch only immutable data), and lock acquisition by the
// same transaction id from several goroutines is idempotent (an already-held
// compatible mode is granted without waiting), so concurrent readers cannot
// deadlock against themselves. The write path (Put, Delete, DropKeyspace)
// and the lifecycle methods (Commit, Abort) mutate the unguarded write-set
// and the done flag, so they must be externally ordered: no call may overlap
// a write or a lifecycle call on the same Txn. In short: any number of
// concurrent readers between writes; one goroutine at a time otherwise.
type Txn struct {
	e    *Engine
	id   uint64
	snap *Snapshot // non-nil: lock-free MVCC reader, writes rejected
	ws   map[string]*wsKeyspace
	recs []wal.Record // redo batch for WAL + tree apply + replica shipping
	done bool
	// extLocks marks a sub-transaction of a router-level transaction: its
	// locks live in a shared manager under a shared id, and the router —
	// not this Txn's finish — releases them, once, after every shard
	// applied. Early release here would expose torn cross-shard state.
	extLocks bool
}

// Begin starts a read-write transaction (2PL).
func (e *Engine) Begin() (*Txn, error) {
	e.stateMu.Lock()
	defer e.stateMu.Unlock()
	if e.closed {
		return nil, ErrClosed
	}
	return &Txn{e: e, id: e.seq.Add(1)}, nil
}

// BeginWith starts a read-write sub-transaction carrying an externally
// assigned id — one shard's slice of a router-level transaction. The id must
// come from the shared Options.TxnSeq sequence; lock acquisition under a
// shared lock manager is idempotent per id, so every shard's sub-transaction
// reuses the grants of its siblings instead of self-deadlocking. Lock
// release is the caller's job (Locks.ReleaseAll), after all shards applied.
func (e *Engine) BeginWith(id uint64) (*Txn, error) {
	e.stateMu.Lock()
	defer e.stateMu.Unlock()
	if e.closed {
		return nil, ErrClosed
	}
	return &Txn{e: e, id: id, extLocks: true}, nil
}

// BeginSnapshot starts a read-only transaction against an immutable
// snapshot of the current committed state. Its reads acquire no locks at
// all — they cannot block writers, be blocked by writers, or participate in
// deadlocks — and keep observing the snapshot even as later transactions
// commit. Write operations return ErrReadOnlyTxn.
func (e *Engine) BeginSnapshot() (*Txn, error) {
	e.stateMu.Lock()
	closed := e.closed
	e.stateMu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	e.snapshotReads.Add(1)
	return &Txn{e: e, id: e.seq.Add(1), snap: e.Snapshot()}, nil
}

// BeginSnapshotAt starts a read-only transaction against a previously
// captured Snapshot (e.g. from VersionedSnapshot), rather than cutting a new
// one. Same contract as BeginSnapshot otherwise: lock-free reads, writes
// rejected with ErrReadOnlyTxn.
func (e *Engine) BeginSnapshotAt(s *Snapshot) (*Txn, error) {
	e.stateMu.Lock()
	closed := e.closed
	e.stateMu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	e.snapshotReads.Add(1)
	return &Txn{e: e, id: e.seq.Add(1), snap: s}, nil
}

// SnapshotReads returns how many snapshot (lock-free) transactions have
// been started on this engine.
func (e *Engine) SnapshotReads() uint64 { return e.snapshotReads.Load() }

// ID returns the transaction id.
func (t *Txn) ID() uint64 { return t.id }

// SnapshotRead reports whether this transaction reads from an immutable
// snapshot (lock-free MVCC) rather than the live 2PL-locked trees.
func (t *Txn) SnapshotRead() bool { return t.snap != nil }

// SnapshotVersionsFor returns the data versions of the given keyspaces as of
// this transaction's snapshot cut, positionally, or ok=false for a locked
// (non-snapshot) transaction — whose view moves as it acquires locks, so no
// single vector describes it. Derived read-only structures (the graph CSR
// cache) key their validity on this vector: equal vectors imply
// byte-identical keyspace content.
func (t *Txn) SnapshotVersionsFor(keyspaces []string) ([]uint64, bool) {
	if t.snap == nil {
		return nil, false
	}
	return t.snap.VersionsFor(keyspaces), true
}

// SnapshotDropEpoch returns the keyspace-drop counter as of this
// transaction's snapshot cut, or ok=false for a locked transaction. It is
// the other half of the validity token SnapshotVersionsFor starts.
func (t *Txn) SnapshotDropEpoch() (uint64, bool) {
	if t.snap == nil {
		return 0, false
	}
	return t.snap.DropEpoch(), true
}

func (t *Txn) finish() {
	if t.snap == nil {
		if !t.extLocks {
			t.e.locks.releaseAll(t.id)
		}
	}
	t.done = true
}

// wsFor returns (creating if needed) the write-set overlay for ks.
func (t *Txn) wsFor(ks string) *wsKeyspace {
	w := t.ws[ks]
	if w == nil {
		if t.ws == nil {
			t.ws = map[string]*wsKeyspace{}
		}
		w = &wsKeyspace{entries: map[string]wsEntry{}}
		t.ws[ks] = w
	}
	return w
}

// Get returns the value under key in keyspace ks, seeing the transaction's
// own staged writes first.
func (t *Txn) Get(ks string, key []byte) ([]byte, bool, error) {
	if t.done {
		return nil, false, ErrTxnDone
	}
	if t.snap != nil {
		v, ok := t.snap.Get(ks, key)
		return v, ok, nil
	}
	if err := t.e.locks.acquire(t.id, ksLockName(ks), LockIS); err != nil {
		return nil, false, err
	}
	if err := t.e.locks.acquire(t.id, keyLockName(ks, key), LockS); err != nil {
		return nil, false, err
	}
	if w := t.ws[ks]; w != nil {
		if ent, ok := w.entries[string(key)]; ok {
			if ent.del {
				return nil, false, nil
			}
			return ent.value, true, nil
		}
		if w.dropped {
			return nil, false, nil
		}
	}
	t.e.mu.Lock()
	defer t.e.mu.Unlock()
	tree := t.e.keyspaces[ks]
	if tree == nil {
		return nil, false, nil
	}
	v, ok := tree.Get(key)
	return v, ok, nil
}

// Put stages value under key in keyspace ks (creating the keyspace at
// commit if needed). The shared tree is not touched until Commit.
func (t *Txn) Put(ks string, key, value []byte) error {
	if t.done {
		return ErrTxnDone
	}
	if t.snap != nil {
		return ErrReadOnlyTxn
	}
	if err := t.e.locks.acquire(t.id, ksLockName(ks), LockIX); err != nil {
		return err
	}
	if err := t.e.locks.acquire(t.id, keyLockName(ks, key), LockX); err != nil {
		return err
	}
	t.wsFor(ks).entries[string(key)] = wsEntry{value: value}
	t.recs = append(t.recs, wal.Record{Txn: t.id, Op: wal.OpSet, Keyspace: ks, Key: key, Value: value})
	return nil
}

// Delete stages the removal of key from keyspace ks. Removing a key that is
// absent in the transaction's view is a no-op (no redo record).
func (t *Txn) Delete(ks string, key []byte) error {
	if t.done {
		return ErrTxnDone
	}
	if t.snap != nil {
		return ErrReadOnlyTxn
	}
	if err := t.e.locks.acquire(t.id, ksLockName(ks), LockIX); err != nil {
		return err
	}
	if err := t.e.locks.acquire(t.id, keyLockName(ks, key), LockX); err != nil {
		return err
	}
	if w := t.ws[ks]; w != nil {
		if ent, ok := w.entries[string(key)]; ok {
			if ent.del {
				return nil
			}
			w.entries[string(key)] = wsEntry{del: true}
			t.recs = append(t.recs, wal.Record{Txn: t.id, Op: wal.OpDelete, Keyspace: ks, Key: key})
			return nil
		}
		if w.dropped {
			return nil
		}
	}
	// Presence check against committed state; stable under the held X lock
	// (no other transaction can commit a change to this key).
	t.e.mu.Lock()
	tree := t.e.keyspaces[ks]
	had := false
	if tree != nil {
		_, had = tree.Get(key)
	}
	t.e.mu.Unlock()
	if !had {
		return nil
	}
	t.wsFor(ks).entries[string(key)] = wsEntry{del: true}
	t.recs = append(t.recs, wal.Record{Txn: t.id, Op: wal.OpDelete, Keyspace: ks, Key: key})
	return nil
}

// Scan iterates pairs with lo <= key < hi (nil bounds are open) in ks,
// calling fn for each; fn returning false stops the walk. The scan takes a
// shared lock on the whole keyspace (snapshot transactions take none),
// which also prevents phantoms. It streams: the pairs come straight off an
// O(1) copy-on-write cut of the one tree being scanned, merged with the
// in-range staged writes as of scan start, so its cost follows the pairs it
// touches rather than the size of the keyspace. fn runs outside every
// engine mutex and may freely issue further operations on this transaction
// (including writes to the scanned keyspace — they do not affect the
// in-flight iteration). Callers must not mutate the key/value slices.
func (t *Txn) Scan(ks string, lo, hi []byte, fn func(key, value []byte) bool) error {
	return t.scan(ks, lo, hi, false, fn)
}

// ScanReverse is Scan in descending key order.
func (t *Txn) ScanReverse(ks string, lo, hi []byte, fn func(key, value []byte) bool) error {
	return t.scan(ks, lo, hi, true, fn)
}

func (t *Txn) scan(ks string, lo, hi []byte, reverse bool, fn func(key, value []byte) bool) error {
	if t.done {
		return ErrTxnDone
	}
	if t.snap != nil {
		scanTree(t.snap.trees[ks], lo, hi, reverse, fn)
		return nil
	}
	if err := t.e.locks.acquire(t.id, ksLockName(ks), LockS); err != nil {
		return err
	}
	w := t.ws[ks]
	var cut *btree.Tree
	if w == nil || !w.dropped {
		// Cut only the scanned tree: writers to other keyspaces keep
		// mutating their nodes in place.
		t.e.mu.Lock()
		if tree := t.e.keyspaces[ks]; tree != nil {
			cut = tree.Snapshot()
		}
		t.e.mu.Unlock()
	}
	staged := w.stagedIn(lo, hi, reverse)
	if len(staged) == 0 {
		scanTree(cut, lo, hi, reverse, fn)
		return nil
	}
	// Merge: staged values supersede committed ones, tombstones hide them,
	// and staged inserts appear in key order.
	stopped := false
	yield := func(k, v []byte) bool {
		stopped = !fn(k, v)
		return !stopped
	}
	scanTree(cut, lo, hi, reverse, func(k, v []byte) bool {
		for len(staged) > 0 {
			s := staged[0]
			c := bytes.Compare(s.key, k)
			if reverse {
				c = -c
			}
			if c > 0 {
				break
			}
			staged = staged[1:]
			if c == 0 {
				return s.del || yield(s.key, s.value)
			}
			if !s.del && !yield(s.key, s.value) {
				return false
			}
		}
		return yield(k, v)
	})
	for _, s := range staged {
		if stopped {
			break
		}
		if !s.del {
			yield(s.key, s.value)
		}
	}
	return nil
}

// stagedPair is one write-set entry captured for a scan.
type stagedPair struct {
	key, value []byte
	del        bool
}

// stagedIn returns the staged entries with lo <= key < hi in scan order: the
// write-set side of a scan's merge, fixed at scan start. A nil receiver (no
// writes staged on the keyspace) yields none.
func (w *wsKeyspace) stagedIn(lo, hi []byte, reverse bool) []stagedPair {
	if w == nil || len(w.entries) == 0 {
		return nil
	}
	var out []stagedPair
	for k, ent := range w.entries {
		if (lo != nil && k < string(lo)) || (hi != nil && k >= string(hi)) {
			continue
		}
		out = append(out, stagedPair{key: []byte(k), value: ent.value, del: ent.del})
	}
	sort.Slice(out, func(i, j int) bool {
		if reverse {
			i, j = j, i
		}
		return bytes.Compare(out[i].key, out[j].key) < 0
	})
	return out
}

// scanTree walks lo <= key < hi of an immutable tree in either direction; a
// nil tree (absent keyspace) is empty.
func scanTree(t *btree.Tree, lo, hi []byte, reverse bool, fn func(key, value []byte) bool) {
	switch {
	case t == nil:
	case reverse:
		t.ScanReverse(lo, hi, fn)
	default:
		t.Scan(lo, hi, fn)
	}
}

// DropKeyspace stages the removal of an entire keyspace. Dropping a
// keyspace that does not exist in the transaction's view is a no-op.
func (t *Txn) DropKeyspace(ks string) error {
	if t.done {
		return ErrTxnDone
	}
	if t.snap != nil {
		return ErrReadOnlyTxn
	}
	if err := t.e.locks.acquire(t.id, ksLockName(ks), LockX); err != nil {
		return err
	}
	// The keyspace exists in this transaction's view if it has staged
	// non-tombstone entries, or (absent an earlier staged drop) a committed
	// tree.
	w := t.ws[ks]
	exists := false
	if w != nil {
		for _, ent := range w.entries {
			if !ent.del {
				exists = true
				break
			}
		}
	}
	if !exists && (w == nil || !w.dropped) {
		t.e.mu.Lock()
		exists = t.e.keyspaces[ks] != nil
		t.e.mu.Unlock()
	}
	if !exists {
		return nil
	}
	w = t.wsFor(ks)
	w.dropped = true
	w.entries = map[string]wsEntry{}
	t.recs = append(t.recs, wal.Record{Txn: t.id, Op: wal.OpDropKeyspace, Keyspace: ks})
	return nil
}

// KeyspaceNonEmpty reports whether ks holds at least one pair in this
// transaction's view — committed state plus staged writes. The query
// layer's name resolution uses it to classify raw key/value buckets.
func (t *Txn) KeyspaceNonEmpty(ks string) bool {
	if t.snap != nil {
		return t.snap.Len(ks) > 0
	}
	w := t.ws[ks]
	if w != nil {
		for _, ent := range w.entries {
			if !ent.del {
				return true
			}
		}
		if w.dropped {
			return false
		}
	}
	live := t.e.KeyspaceLen(ks)
	if w == nil {
		return live > 0
	}
	// Only tombstones staged: each hides one distinct committed key.
	return live > len(w.entries)
}

// Commit publishes the write-set: the whole redo batch — data records plus
// the trailing commit record — is handed to the WAL as one AppendBatch (a
// single buffered write, and under Synced durability a single fsync barrier
// that concurrent committers share), then applied to the shared trees under
// e.mu, shipped to replicas, and only then are locks released (strict 2PL).
// The WAL append and tree apply happen under the engine's shared commit
// barrier so a checkpoint cut can never split a transaction. Commit does
// not return success before the commit record is durable. On WAL failure
// nothing has been applied; the transaction finishes with all staged writes
// discarded.
func (t *Txn) Commit() error {
	if t.done {
		return ErrTxnDone
	}
	if t.snap != nil || len(t.recs) == 0 {
		t.finish()
		return nil
	}
	t.e.commitMu.RLock()
	if t.e.log != nil {
		batch := append(t.recs, wal.Record{Txn: t.id, Op: wal.OpCommit})
		if _, err := t.e.log.AppendBatch(batch); err != nil {
			t.e.commitMu.RUnlock()
			t.finish()
			return fmt.Errorf("engine: commit: %w", err)
		}
		// AppendBatch assigned LSNs in place; drop the control record so
		// replicas ship data records only, as before.
		t.recs = batch[:len(batch)-1]
	}
	t.e.mu.Lock()
	for _, r := range t.recs {
		t.e.applyRecord(r)
	}
	t.e.bumpVersionsLocked(t.recs)
	t.e.mu.Unlock()
	t.e.commitMu.RUnlock()
	t.e.ship(t.recs)
	t.finish()
	return nil
}

// HasWrites reports whether the transaction staged any writes (and so must
// participate in a cross-shard commit).
func (t *Txn) HasWrites() bool { return len(t.recs) > 0 }

// Prepare is phase one of a cross-shard commit: the transaction's redo
// records plus a trailing prepare record are made durable through the same
// group-commit barrier a commit uses, but nothing is applied, no locks are
// released, and the transaction stays open awaiting CommitPrepared or
// AbortPrepared. Until that decision the engine counts the transaction as
// prepared, which parks Checkpoint — a cut must never truncate an undecided
// prepare record. The transaction id doubles as the 2PC global id the
// coordinator logs and recovery resolves.
func (t *Txn) Prepare() error {
	if t.done {
		return ErrTxnDone
	}
	if t.snap != nil {
		return ErrReadOnlyTxn
	}
	t.e.commitMu.RLock()
	if t.e.log != nil {
		batch := append(t.recs, wal.Record{Txn: t.id, Op: wal.OpPrepare})
		if _, err := t.e.log.AppendBatch(batch); err != nil {
			t.e.commitMu.RUnlock()
			return fmt.Errorf("engine: prepare: %w", err)
		}
		t.recs = batch[:len(batch)-1]
	}
	t.e.prepared.Add(1)
	t.e.commitMu.RUnlock()
	return nil
}

// CommitPrepared is phase two of a cross-shard commit after the coordinator
// logged the commit decision: a local commit marker is appended (so later
// recoveries of this shard need no coordinator lookup), the write-set is
// applied and versions bump under the commit barrier, and the batch ships to
// subscribers. Locks are NOT released — the router releases the shared id
// once every participant applied. A WAL error appending the marker is
// reported but does not stop the apply: the coordinator's decision record
// already made the transaction globally committed, and recovery would
// re-apply it from the prepare record regardless.
func (t *Txn) CommitPrepared() error {
	if t.done {
		return ErrTxnDone
	}
	var werr error
	t.e.commitMu.RLock()
	if t.e.log != nil {
		if _, err := t.e.log.AppendBatch([]wal.Record{{Txn: t.id, Op: wal.OpCommit}}); err != nil {
			werr = fmt.Errorf("engine: commit prepared: %w", err)
		}
	}
	t.e.mu.Lock()
	for _, r := range t.recs {
		t.e.applyRecord(r)
	}
	t.e.bumpVersionsLocked(t.recs)
	t.e.mu.Unlock()
	t.e.prepared.Add(-1)
	t.e.commitMu.RUnlock()
	t.e.ship(t.recs)
	t.finish()
	return werr
}

// AbortPrepared is phase two of a cross-shard abort: a local abort marker
// decides the prepare for future recoveries, the staged writes are
// discarded, and — as with CommitPrepared — lock release stays with the
// router.
func (t *Txn) AbortPrepared() error {
	if t.done {
		return ErrTxnDone
	}
	var werr error
	t.e.commitMu.RLock()
	if t.e.log != nil {
		if _, err := t.e.log.Append(wal.Record{Txn: t.id, Op: wal.OpAbort}); err != nil {
			werr = fmt.Errorf("engine: abort prepared: %w", err)
		}
	}
	t.e.prepared.Add(-1)
	t.e.commitMu.RUnlock()
	t.finish()
	return werr
}

// Abort discards the transaction's staged writes and releases all locks,
// reporting any WAL write failure (discarding itself cannot fail — the
// shared trees were never touched). Safe to call on a finished transaction,
// where it is a no-op returning nil.
func (t *Txn) Abort() error {
	if t.done {
		return nil
	}
	var err error
	if t.snap == nil && t.e.log != nil && len(t.recs) > 0 {
		// The abort record is informative only — recovery ignores
		// uncommitted transactions either way — but a failure to write it
		// still signals a sick log, so it is surfaced, not swallowed.
		if _, aerr := t.e.log.Append(wal.Record{Txn: t.id, Op: wal.OpAbort}); aerr != nil {
			err = fmt.Errorf("engine: abort record: %w", aerr)
		}
	}
	t.finish()
	return err
}

// DeadlockRetries bounds how many times Update (here and on the shard
// router) runs a closure that keeps losing deadlocks.
const DeadlockRetries = 24

// DeadlockBackoff sleeps before retry number attempt (1-based) of a
// transaction that was a deadlock victim. Retrying at once livelocks: the
// transactions that collided are all runnable again and collide again (eight
// read-then-upgrade writers on one key exhausted eight back-to-back retries
// most of the time on two cores). A random wait in a window that doubles per
// attempt, 50 µs up to 6.4 ms, lets one of them finish alone.
func DeadlockBackoff(attempt int) {
	window := 25 * time.Microsecond << min(attempt, 8)
	time.Sleep(time.Duration(rand.Int63n(int64(window))))
}

// Update runs fn in a transaction, committing on nil and aborting on error,
// with bounded automatic retry (after a jittered backoff) on deadlock.
func (e *Engine) Update(fn func(*Txn) error) error {
	var lastErr error
	for attempt := 0; attempt < DeadlockRetries; attempt++ {
		if attempt > 0 {
			DeadlockBackoff(attempt)
		}
		t, err := e.Begin()
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
		if !errors.Is(err, ErrDeadlock) {
			return err
		}
		lastErr = err
	}
	return lastErr
}

// View runs fn in a read-only usage pattern (fn may technically write; the
// transaction aborts either way, discarding any staged writes). The deferred
// Abort keeps the transaction from leaking locks if fn panics; the explicit
// one joins any abort-record WAL failure into the result (Abort on an
// already-finished Txn is a nil no-op).
func (e *Engine) View(fn func(*Txn) error) error {
	t, err := e.Begin()
	if err != nil {
		return err
	}
	defer t.Abort()
	return errors.Join(fn(t), t.Abort())
}

// SnapshotView runs fn against a snapshot transaction: reads see one
// consistent committed state, acquire no locks, and cannot block or be
// blocked by writers. Writes inside fn fail with ErrReadOnlyTxn.
func (e *Engine) SnapshotView(fn func(*Txn) error) error {
	t, err := e.BeginSnapshot()
	if err != nil {
		return err
	}
	defer t.Abort()
	return errors.Join(fn(t), t.Abort())
}

// SnapshotViewAt is SnapshotView against a previously captured Snapshot —
// the read side of the versioned-result-cache refresh path, which must
// execute against exactly the state its version vector describes.
func (e *Engine) SnapshotViewAt(s *Snapshot, fn func(*Txn) error) error {
	t, err := e.BeginSnapshotAt(s)
	if err != nil {
		return err
	}
	defer t.Abort()
	return errors.Join(fn(t), t.Abort())
}

// --- Keyspace data versions ---

// bumpVersionsLocked advances the data version of every keyspace written by
// a committed redo batch: one bump per keyspace per transaction, however many
// records touched it. A drop deletes the entry outright — and un-marks the
// keyspace as bumped, so a re-create later in the same batch restarts its
// lineage at 1 rather than reusing the pre-drop bump. Caller holds e.mu.
func (e *Engine) bumpVersionsLocked(recs []wal.Record) {
	bumped := make([]string, 0, 8)
	seen := func(ks string) bool {
		for _, b := range bumped {
			if b == ks {
				return true
			}
		}
		return false
	}
	for _, r := range recs {
		switch r.Op {
		case wal.OpSet, wal.OpDelete:
			if !seen(r.Keyspace) {
				e.versions[r.Keyspace]++
				bumped = append(bumped, r.Keyspace)
			}
		case wal.OpDropKeyspace:
			delete(e.versions, r.Keyspace)
			// A drop restarts the keyspace's version lineage, so vectors
			// from before and after a drop+recreate can collide. The drop
			// epoch disambiguates: any consumer validating cached state by
			// version vector pairs it with this counter (the result cache
			// uses core's DDL epoch the same way).
			e.dropEpoch++
			for i, b := range bumped {
				if b == r.Keyspace {
					bumped = append(bumped[:i], bumped[i+1:]...)
					break
				}
			}
		case wal.OpCommit, wal.OpAbort, wal.OpPrepare:
			// Control records carry no data.
		}
	}
}

// Versions returns a copy of the per-keyspace data version counters under
// the same brief e.mu cut used by Snapshot. Keyspaces never written since
// Open are absent (version 0). Versions are process-local: they restart at
// zero on every Open, which is sound for in-process caches (empty at Open)
// but not a cross-restart validity token.
func (e *Engine) Versions() map[string]uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[string]uint64, len(e.versions))
	for ks, v := range e.versions {
		out[ks] = v
	}
	return out
}

// VersionsFor returns the data versions of the given keyspaces, positionally,
// under a single e.mu cut (absent keyspaces read 0). The vector is therefore
// a consistent cut: no transaction's bumps can be half-visible in it, because
// commits bump all their keyspaces under the same mutex hold.
func (e *Engine) VersionsFor(keyspaces []string) []uint64 {
	out := make([]uint64, len(keyspaces))
	e.mu.Lock()
	for i, ks := range keyspaces {
		out[i] = e.versions[ks]
	}
	e.mu.Unlock()
	return out
}

// --- MVCC snapshots ---

// Snapshot is an immutable view of every keyspace at one commit boundary.
// Reads against it take no locks of any kind: the underlying trees are
// copy-on-write, so later writers publish new versions instead of mutating
// the nodes a snapshot references. A Snapshot is safe for concurrent use by
// any number of goroutines and stays valid indefinitely.
type Snapshot struct {
	trees map[string]*btree.Tree
	// vers is the per-keyspace data version vector captured in the same
	// e.mu critical section as the tree roots. It describes exactly the
	// state this snapshot holds: two snapshots with equal versions for a
	// set of keyspaces hold byte-identical content for them, which is what
	// lets derived structures (the CSR adjacency cache, cached results) be
	// validated against a snapshot without consulting the live engine.
	vers map[string]uint64
	// dropEpoch is the engine's keyspace-drop counter at the cut; paired
	// with vers it makes the snapshot's validity token unambiguous across
	// drop+recreate cycles.
	dropEpoch uint64
}

// Snapshot publishes the current committed state as an immutable view. The
// cut is O(keyspaces), not O(data): each tree root is marked shared under
// e.mu and handed out; no pair is copied.
func (e *Engine) Snapshot() *Snapshot {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.snapshotLocked()
}

// snapshotLocked marks every tree root shared and returns the immutable
// view, pairing it with a copy of the version counters. The cut stays
// O(keyspaces): the version copy rides the same loop bound as the root
// marking. Caller holds e.mu.
func (e *Engine) snapshotLocked() *Snapshot {
	trees := make(map[string]*btree.Tree, len(e.keyspaces))
	for ks, tr := range e.keyspaces {
		trees[ks] = tr.Snapshot()
	}
	vers := make(map[string]uint64, len(e.versions))
	for ks, v := range e.versions {
		vers[ks] = v
	}
	return &Snapshot{trees: trees, vers: vers, dropEpoch: e.dropEpoch}
}

// VersionedSnapshot publishes the current committed state together with the
// data versions of the given keyspaces, captured in one e.mu critical
// section. The pairing is exact: the returned vector describes precisely the
// state the snapshot holds, with no window for a commit to land between the
// two — which is what lets a result computed against the snapshot be cached
// under the vector.
func (e *Engine) VersionedSnapshot(keyspaces []string) (*Snapshot, []uint64) {
	e.mu.Lock()
	snap := e.snapshotLocked()
	e.mu.Unlock()
	// The snapshot carries the whole version map from the same cut, so the
	// vector can be projected out after the mutex is released.
	return snap, snap.VersionsFor(keyspaces)
}

// VersionsFor returns the data versions of the given keyspaces as of the
// snapshot's cut, positionally (absent keyspaces read 0). No engine mutex is
// taken: the vector was captured when the snapshot was cut, so this is a
// pure read of immutable state — safe on the lock-free snapshot read path.
func (s *Snapshot) VersionsFor(keyspaces []string) []uint64 {
	out := make([]uint64, len(keyspaces))
	for i, ks := range keyspaces {
		out[i] = s.vers[ks]
	}
	return out
}

// DropEpoch returns the engine's keyspace-drop counter as of the snapshot's
// cut. Consumers validating cached derived state by version vector pair the
// vector with this counter, because a drop restarts a keyspace's versions.
func (s *Snapshot) DropEpoch() uint64 { return s.dropEpoch }

// Get returns the value under key in keyspace ks as of the snapshot.
func (s *Snapshot) Get(ks string, key []byte) ([]byte, bool) {
	t := s.trees[ks]
	if t == nil {
		return nil, false
	}
	return t.Get(key)
}

// Len returns the number of pairs in a keyspace as of the snapshot.
func (s *Snapshot) Len(ks string) int {
	if t := s.trees[ks]; t != nil {
		return t.Len()
	}
	return 0
}

// Keyspaces returns the sorted names of keyspaces in the snapshot.
func (s *Snapshot) Keyspaces() []string {
	out := make([]string, 0, len(s.trees))
	for ks := range s.trees {
		out = append(out, ks)
	}
	sort.Strings(out)
	return out
}

// Scan iterates pairs with lo <= key < hi in ascending order.
func (s *Snapshot) Scan(ks string, lo, hi []byte, fn func(key, value []byte) bool) {
	scanTree(s.trees[ks], lo, hi, false, fn)
}

// ScanReverse is Scan in descending key order.
func (s *Snapshot) ScanReverse(ks string, lo, hi []byte, fn func(key, value []byte) bool) {
	scanTree(s.trees[ks], lo, hi, true, fn)
}

// --- Checkpoint and snapshots ---

const snapMagic = "UNIDBSNAP1"

// Checkpoint writes a consistent snapshot of all keyspaces and truncates
// the WAL prefix it covers. It does NOT stop the world: the cut is an O(1)
// copy-on-write snapshot of every tree plus a WAL watermark, taken under
// the commit barrier held exclusively for microseconds; serialization of
// the (potentially large) snapshot file happens outside every engine lock,
// so reads and writes proceed at full speed during the disk I/O. Commits
// that land after the cut survive in the retained WAL suffix.
func (e *Engine) Checkpoint() error {
	if e.log == nil {
		return errors.New("engine: checkpoint requires a durable engine")
	}
	e.cpMu.Lock()
	defer e.cpMu.Unlock()
	e.stateMu.Lock()
	closed := e.closed
	e.stateMu.Unlock()
	if closed {
		return ErrClosed
	}

	// Cut: freeze tree versions and the WAL watermark atomically with
	// respect to commit publication. The cut additionally waits out any
	// prepared-but-undecided transactions: their prepare records sit below
	// the watermark while their outcome is still unlogged, and truncating
	// them would strand recovery without the record the coordinator's
	// decision resolves. Prepare increments the counter under the shared
	// commit barrier, so once we hold it exclusively and read zero, no new
	// prepare can slip under this cut.
	var trees map[string]*btree.Tree
	var cut int64
	for {
		e.commitMu.Lock()
		if e.prepared.Load() == 0 {
			e.mu.Lock()
			trees = make(map[string]*btree.Tree, len(e.keyspaces))
			for ks, tr := range e.keyspaces {
				trees[ks] = tr.Snapshot()
			}
			e.mu.Unlock()
			var err error
			cut, err = e.log.CheckpointCut()
			e.commitMu.Unlock()
			if err != nil {
				return err
			}
			break
		}
		e.commitMu.Unlock()
		runtime.Gosched()
	}

	// Serialize outside all engine locks — the stall the old stop-the-world
	// checkpoint imposed on every reader and writer.
	if err := writeSnapshotFile(wal.SnapshotPath(e.dir), trees); err != nil {
		return err
	}

	// Drop the covered prefix. The barrier is re-taken because the WAL file
	// handle swaps underneath group-commit fsyncs that run outside the WAL
	// mutex; commitMu is what orders those windows against the swap.
	e.commitMu.Lock()
	err := e.log.TruncatePrefix(cut)
	e.commitMu.Unlock()
	return err
}

// writeSnapshotFile serializes a set of frozen trees to a temp file and
// renames it into place. It runs without any engine lock: the trees are
// immutable COW snapshots.
func writeSnapshotFile(path string, trees map[string]*btree.Tree) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("engine: snapshot: %w", err)
	}
	crc := crc32.NewIEEE()
	w := bufio.NewWriter(io.MultiWriter(f, crc))

	names := make([]string, 0, len(trees))
	for ks := range trees {
		names = append(names, ks)
	}
	sort.Strings(names)
	write := func(b []byte) {
		w.Write(b) //nolint:errcheck — error captured by Flush below
	}
	writeUvarint := func(x uint64) { write(binary.AppendUvarint(nil, x)) }
	write([]byte(snapMagic))
	writeUvarint(uint64(len(names)))
	for _, ks := range names {
		tree := trees[ks]
		writeUvarint(uint64(len(ks)))
		write([]byte(ks))
		writeUvarint(uint64(tree.Len()))
		tree.Scan(nil, nil, func(k, v []byte) bool {
			writeUvarint(uint64(len(k)))
			write(k)
			writeUvarint(uint64(len(v)))
			write(v)
			return true
		})
	}

	if err := w.Flush(); err != nil {
		return errors.Join(fmt.Errorf("engine: snapshot flush: %w", err), f.Close())
	}
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc.Sum32())
	if _, err := f.Write(sum[:]); err != nil {
		return errors.Join(err, f.Close())
	}
	if err := f.Sync(); err != nil {
		return errors.Join(err, f.Close())
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// loadSnapshot restores keyspaces from a snapshot file; a missing file is
// fine (fresh database).
func (e *Engine) loadSnapshot(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		return fmt.Errorf("engine: load snapshot: %w", err)
	}
	if len(data) < len(snapMagic)+4 {
		return errors.New("engine: snapshot too short")
	}
	body, sum := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return errors.New("engine: snapshot checksum mismatch")
	}
	if string(body[:len(snapMagic)]) != snapMagic {
		return errors.New("engine: bad snapshot magic")
	}
	rest := body[len(snapMagic):]
	readUvarint := func() (uint64, error) {
		x, n := binary.Uvarint(rest)
		if n <= 0 {
			return 0, errors.New("engine: snapshot truncated")
		}
		rest = rest[n:]
		return x, nil
	}
	readBytes := func() ([]byte, error) {
		ln, err := readUvarint()
		if err != nil {
			return nil, err
		}
		if uint64(len(rest)) < ln {
			return nil, errors.New("engine: snapshot truncated")
		}
		out := make([]byte, ln)
		copy(out, rest[:ln])
		rest = rest[ln:]
		return out, nil
	}
	nks, err := readUvarint()
	if err != nil {
		return err
	}
	for i := uint64(0); i < nks; i++ {
		name, err := readBytes()
		if err != nil {
			return err
		}
		count, err := readUvarint()
		if err != nil {
			return err
		}
		tree := btree.New()
		for j := uint64(0); j < count; j++ {
			k, err := readBytes()
			if err != nil {
				return err
			}
			v, err := readBytes()
			if err != nil {
				return err
			}
			tree.Put(k, v)
		}
		e.keyspaces[string(name)] = tree
	}
	return nil
}

// --- Replication (hybrid consistency substrate) ---

// Replica is a read-only copy of the engine fed by shipped commit batches,
// with a configurable replication lag measured in transactions. Reading
// from a Replica is unidb's EVENTUAL consistency level; reading from the
// primary under locks is STRONG. (E12.)
type Replica struct {
	mu         sync.Mutex
	keyspaces  map[string]*btree.Tree
	pending    [][]wal.Record
	lagTxns    int
	appliedTxn uint64 // count of applied transactions
}

// NewReplica attaches a replica that lags the primary by lagTxns committed
// transactions (0 = apply immediately on commit). The replica starts from a
// COW snapshot of the engine's current state — O(keyspaces), not O(data) —
// and forks its own mutable lineage from it as batches apply.
func (e *Engine) NewReplica(lagTxns int) *Replica {
	r := &Replica{keyspaces: map[string]*btree.Tree{}, lagTxns: lagTxns}
	e.mu.Lock()
	for ks, tree := range e.keyspaces {
		r.keyspaces[ks] = tree.Snapshot()
	}
	e.mu.Unlock()
	e.subMu.Lock()
	e.subs = append(e.subs, r)
	e.subMu.Unlock()
	return r
}

// ship delivers a committed batch to every replica (synchronously, so tests
// are deterministic; the lag model is logical, not wall-clock).
func (e *Engine) ship(batch []wal.Record) {
	e.subMu.Lock()
	subs := make([]*Replica, len(e.subs))
	copy(subs, e.subs)
	listeners := make([]func([]wal.Record), len(e.listeners))
	copy(listeners, e.listeners)
	e.subMu.Unlock()
	for _, r := range subs {
		r.enqueue(batch)
	}
	for _, fn := range listeners {
		fn(batch)
	}
}

func (r *Replica) enqueue(batch []wal.Record) {
	r.mu.Lock()
	defer r.mu.Unlock()
	cp := make([]wal.Record, len(batch))
	copy(cp, batch)
	r.pending = append(r.pending, cp)
	for len(r.pending) > r.lagTxns {
		r.applyFront()
	}
}

// applyFront applies the oldest pending batch. Caller holds r.mu.
func (r *Replica) applyFront() {
	batch := r.pending[0]
	r.pending = r.pending[1:]
	for _, rec := range batch {
		switch rec.Op {
		case wal.OpSet:
			t := r.keyspaces[rec.Keyspace]
			if t == nil {
				t = btree.New()
				r.keyspaces[rec.Keyspace] = t
			}
			t.Put(rec.Key, rec.Value)
		case wal.OpDelete:
			if t := r.keyspaces[rec.Keyspace]; t != nil {
				t.Delete(rec.Key)
			}
		case wal.OpDropKeyspace:
			delete(r.keyspaces, rec.Keyspace)
		case wal.OpCommit, wal.OpAbort, wal.OpPrepare:
			// Control records carry no data to apply.
		}
	}
	r.appliedTxn++
}

// CatchUp applies every pending batch, bringing the replica fully current.
func (r *Replica) CatchUp() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for len(r.pending) > 0 {
		r.applyFront()
	}
}

// Lag returns the number of committed-but-unapplied transactions.
func (r *Replica) Lag() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.pending)
}

// AppliedTxns returns how many transactions the replica has applied.
func (r *Replica) AppliedTxns() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.appliedTxn
}

// Get reads from the replica (eventually consistent, lock-free).
func (r *Replica) Get(ks string, key []byte) ([]byte, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.keyspaces[ks]
	if t == nil {
		return nil, false
	}
	return t.Get(key)
}

// Scan iterates the replica's view of a keyspace.
func (r *Replica) Scan(ks string, lo, hi []byte, fn func(key, value []byte) bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if t := r.keyspaces[ks]; t != nil {
		t.Scan(lo, hi, fn)
	}
}

// dataDir returns the engine directory (for tools).
func (e *Engine) DataDir() string { return e.dir }

// SetAfterFlushHook forwards to the WAL's after-flush test hook (no-op for
// an Ephemeral engine) — crash-recovery tests capture the data directory in
// the flushed-but-not-durable window it exposes.
func (e *Engine) SetAfterFlushHook(fn func()) {
	if e.log != nil {
		e.log.SetAfterFlushHook(fn)
	}
}
