// Package shard hash-partitions unidb's keyspaces across N in-process
// storage engines behind the same transactional surface a single engine
// offers. This is the paper's "scale out" column made concrete: one unified
// multi-model front-end over partitioned engines, with cross-partition
// transactions — the paper's sixth open challenge — handled by a two-phase
// commit layered on each shard's group-commit WAL.
//
// Layout. A Router owns N engine.Engine instances, each with its own data
// directory, WAL, and copy-on-write trees. A key (keyspace, key) lives on
// exactly one shard, chosen by FNV-1a hash — every keyspace is spread over
// all shards, so scans fan out and merge while point operations touch one
// shard. All engines share ONE lock manager and ONE transaction-id sequence
// (engine.Options.Locks / TxnSeq): the per-shard slices of a router
// transaction carry the same global id, which makes lock acquisition across
// shards idempotent, lets waits-for deadlock detection see the whole fleet,
// and lets the router release every lock in one sweep after all shards
// applied (strict two-phase locking at the router level).
//
// Commit. A transaction that wrote to one shard commits exactly as before —
// one WAL batch, one fsync barrier, no coordination. A transaction that
// wrote to k ≥ 2 shards runs two-phase commit: each participant makes its
// redo records plus a prepare record durable through its own group-commit
// window (phase one), the coordinator appends a commit decision record to
// its own log, and only then does each participant apply and log a local
// commit marker (phase two). The decision record is the commit point.
// Recovery is presumed-abort: a prepare with no local commit/abort marker
// and no coordinator decision rolls back.
//
// Consistent cuts. Cross-shard snapshot reads pair every shard's O(1)
// copy-on-write snapshot under the router's cutMu: phase-two application
// holds it shared across every participant, a cut holds it exclusively, so
// a cut can never observe half of a cross-shard transaction. Per-keyspace
// versions sum across shards; since each component is monotonic, two summed
// vectors are equal exactly when every component pair is, which keeps the
// CSR cache's version-vector validation sound unchanged.
package shard

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/wal"
)

// Options configures Open.
type Options struct {
	// Dir is the root data directory; shard i lives in Dir/shard-<i> and the
	// coordinator log at Dir/coord.log. Required unless Durability is
	// Ephemeral.
	Dir string
	// Durability is applied to every shard engine and the coordinator log.
	Durability engine.Durability
	// GroupCommitWindow is passed through to every shard's WAL.
	GroupCommitWindow int
	// Shards is the number of engine partitions; it is fixed at first Open
	// and persisted in Dir/shards.meta — reopening with a different count is
	// an error (resharding is out of scope).
	Shards int
}

// Stats is a point-in-time snapshot of router activity.
type Stats struct {
	// Shards is the partition count.
	Shards int
	// ShardFanouts counts scans and reverse scans that fanned out across
	// all shards (single-shard routers never fan out).
	ShardFanouts uint64
	// CrossShardTxns counts committed or aborted transactions that reached
	// the two-phase path (wrote to two or more shards).
	CrossShardTxns uint64
	// PreparedTxns counts prepare records written (cumulative, one per
	// participant per cross-shard transaction).
	PreparedTxns uint64
	// KeyspaceVersions holds each shard's per-keyspace data versions.
	KeyspaceVersions []map[string]uint64
}

// Backend is the storage surface the core layer programs against: one
// implementation wraps a single engine (Single), the other a shard fleet
// (Router). Everything above — model stores, query executor, public API —
// is identical over both.
type Backend interface {
	BeginTx() (engine.Tx, error)
	Update(fn func(tx engine.Tx) error) error
	View(fn func(tx engine.Tx) error) error
	SnapshotView(fn func(tx engine.Tx) error) error
	KeyspaceLen(ks string) int
	Keyspaces() []string
	Subscribe(fn func(batch []wal.Record))
	SnapshotReads() uint64
	WALStats() wal.Stats
	Checkpoint() error
	NewReplica(lagTxns int) *Replica
	Stats() Stats
	Close() error
}

// Router partitions keyspaces across N engines and coordinates cross-shard
// transactions.
type Router struct {
	shards []*engine.Engine
	// coord is the coordinator decision log (nil when Ephemeral). Decision
	// records are the commit point of cross-shard transactions; the log only
	// ever holds tiny control records and is never truncated — in-doubt
	// prepares on any shard must stay resolvable for the life of the store.
	coord *wal.Log
	locks *engine.Locks
	seq   atomic.Uint64
	dir   string

	// cutMu orders cross-shard commit publication against consistent cuts.
	// Phase two of a cross-shard commit holds it shared across every
	// participant's apply; a snapshot transaction's cut holds it
	// exclusively while pairing the per-shard snapshots, so a cut observes
	// each cross-shard transaction entirely or not at all. Single-shard commits
	// never touch it: they are atomic under their own engine's mutex.
	cutMu sync.RWMutex

	shardFanouts   atomic.Uint64
	crossShardTxns atomic.Uint64
	preparedTxns   atomic.Uint64
}

const metaName = "shards.meta"

func coordPath(dir string) string { return filepath.Join(dir, "coord.log") }

// checkMeta persists the shard count on first open and rejects a mismatched
// or unsharded reopen: records are routed by hash mod N, so data written
// under one N is unreadable under another.
func checkMeta(dir string, n int) error {
	metaPath := filepath.Join(dir, metaName)
	b, err := os.ReadFile(metaPath)
	if err == nil {
		got, perr := strconv.Atoi(strings.TrimSpace(string(b)))
		if perr != nil {
			return fmt.Errorf("shard: corrupt %s: %q", metaName, b)
		}
		if got != n {
			return fmt.Errorf("shard: directory holds %d shards, opened with %d (resharding is not supported)", got, n)
		}
		return nil
	}
	if !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("shard: read meta: %w", err)
	}
	if _, serr := os.Stat(wal.LogPath(dir)); serr == nil {
		return errors.New("shard: directory holds a single-engine store; cannot open it sharded")
	}
	if _, serr := os.Stat(wal.SnapshotPath(dir)); serr == nil {
		return errors.New("shard: directory holds a single-engine store; cannot open it sharded")
	}
	if err := os.WriteFile(metaPath, []byte(strconv.Itoa(n)+"\n"), 0o644); err != nil {
		return fmt.Errorf("shard: write meta: %w", err)
	}
	return nil
}

// Open creates or recovers a shard fleet. Recovery order matters: the
// coordinator's decisions are read first, then each shard recovers with a
// DecidePrepared resolver over them — an in-doubt prepare replays as
// committed exactly when the coordinator logged a commit decision for its
// global transaction id, and rolls back otherwise (presumed abort).
func Open(opts Options) (*Router, error) {
	if opts.Shards < 1 {
		return nil, fmt.Errorf("shard: invalid shard count %d", opts.Shards)
	}
	r := &Router{locks: engine.NewLocks(), dir: opts.Dir}
	durable := opts.Durability != engine.Ephemeral
	decisions := map[uint64]bool{}
	if durable {
		if opts.Dir == "" {
			return nil, errors.New("shard: durable mode requires Options.Dir")
		}
		if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("shard: mkdir: %w", err)
		}
		if err := checkMeta(opts.Dir, opts.Shards); err != nil {
			return nil, err
		}
		recs, err := wal.ReadAll(coordPath(opts.Dir))
		if err != nil {
			return nil, fmt.Errorf("shard: coordinator log: %w", err)
		}
		for _, rec := range recs {
			if rec.Op == wal.OpCommit {
				decisions[rec.Txn] = true
			}
		}
	}
	for i := 0; i < opts.Shards; i++ {
		eopts := engine.Options{
			Durability:        opts.Durability,
			GroupCommitWindow: opts.GroupCommitWindow,
			Locks:             r.locks,
			TxnSeq:            &r.seq,
			DecidePrepared:    func(txn uint64) bool { return decisions[txn] },
		}
		if durable {
			eopts.Dir = filepath.Join(opts.Dir, fmt.Sprintf("shard-%d", i))
		}
		e, err := engine.Open(eopts)
		if err != nil {
			r.closeShards()
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		r.shards = append(r.shards, e)
	}
	// Each engine already advanced the shared sequence past its own log;
	// advance it past coordinator decisions too, so post-recovery ids can
	// never collide with a decided global transaction.
	for txn := range decisions {
		for {
			cur := r.seq.Load()
			if txn <= cur || r.seq.CompareAndSwap(cur, txn) {
				break
			}
		}
	}
	if durable {
		log, err := wal.OpenOptions(coordPath(opts.Dir), wal.Options{
			SyncEveryCommit: opts.Durability == engine.Synced,
			CommitWindow:    opts.GroupCommitWindow,
		})
		if err != nil {
			r.closeShards()
			return nil, fmt.Errorf("shard: coordinator log: %w", err)
		}
		r.coord = log
	}
	return r, nil
}

func (r *Router) closeShards() {
	for _, e := range r.shards {
		e.Close()
	}
}

// Shard exposes partition i's engine (tests and tooling).
func (r *Router) Shard(i int) *engine.Engine { return r.shards[i] }

// shardFor routes a (keyspace, key) pair: FNV-1a over the keyspace name, a
// NUL separator, and the key, mod N. The separator keeps ("ab","c") and
// ("a","bc") on independently chosen shards.
func (r *Router) shardFor(ks string, key []byte) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(ks); i++ {
		h ^= uint64(ks[i])
		h *= prime64
	}
	h *= prime64 // NUL separator: h ^= 0 is a no-op
	for _, b := range key {
		h ^= uint64(b)
		h *= prime64
	}
	return int(h % uint64(len(r.shards)))
}

// Close closes every shard engine and the coordinator log.
func (r *Router) Close() error {
	var errs []error
	for i, e := range r.shards {
		if err := e.Close(); err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", i, err))
		}
	}
	if r.coord != nil {
		if err := r.coord.Close(); err != nil {
			errs = append(errs, fmt.Errorf("coordinator log: %w", err))
		}
	}
	return errors.Join(errs...)
}

// Subscribe registers fn on every shard's commit log. Batches arrive in each
// shard's commit order; a cross-shard transaction surfaces as one batch per
// participant shard.
func (r *Router) Subscribe(fn func(batch []wal.Record)) {
	for _, e := range r.shards {
		e.Subscribe(fn)
	}
}

// Keyspaces returns the sorted union of keyspace names across shards.
func (r *Router) Keyspaces() []string {
	seen := map[string]bool{}
	for _, e := range r.shards {
		for _, ks := range e.Keyspaces() {
			seen[ks] = true
		}
	}
	out := make([]string, 0, len(seen))
	for ks := range seen {
		out = append(out, ks)
	}
	sort.Strings(out)
	return out
}

// KeyspaceLen sums a keyspace's cardinality across shards.
func (r *Router) KeyspaceLen(ks string) int {
	n := 0
	for _, e := range r.shards {
		n += e.KeyspaceLen(ks)
	}
	return n
}

// SnapshotReads sums snapshot-transaction counts across shards.
func (r *Router) SnapshotReads() uint64 {
	var n uint64
	for _, e := range r.shards {
		n += e.SnapshotReads()
	}
	return n
}

// WALStats aggregates WAL counters across every shard log and the
// coordinator log.
func (r *Router) WALStats() wal.Stats {
	var out wal.Stats
	add := func(s wal.Stats) {
		out.Appends += s.Appends
		out.BatchedAppends += s.BatchedAppends
		out.Batches += s.Batches
		out.Windows += s.Windows
		out.GroupCommits += s.GroupCommits
		out.Fsyncs += s.Fsyncs
		out.FsyncsSaved += s.FsyncsSaved
	}
	for _, e := range r.shards {
		add(e.WALStats())
	}
	if r.coord != nil {
		add(r.coord.Stats())
	}
	return out
}

// Checkpoint checkpoints every shard. Each shard's own prepared-transaction
// gate keeps an undecided prepare record out of harm's way; the coordinator
// log is never truncated.
func (r *Router) Checkpoint() error {
	for i, e := range r.shards {
		if err := e.Checkpoint(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// Stats returns router activity counters plus each shard's keyspace
// versions.
func (r *Router) Stats() Stats {
	pv := make([]map[string]uint64, len(r.shards))
	for i, e := range r.shards {
		pv[i] = e.Versions()
	}
	return Stats{
		Shards:           len(r.shards),
		ShardFanouts:     r.shardFanouts.Load(),
		CrossShardTxns:   r.crossShardTxns.Load(),
		PreparedTxns:     r.preparedTxns.Load(),
		KeyspaceVersions: pv,
	}
}

// SetAfterFlushHook installs fn on every shard WAL and the coordinator log
// (crash-point injection in tests: the hook runs after buffered bytes reach
// the OS, before fsync).
func (r *Router) SetAfterFlushHook(fn func()) {
	for _, e := range r.shards {
		e.SetAfterFlushHook(fn)
	}
	if r.coord != nil {
		r.coord.SetAfterFlushHook(fn)
	}
}
