// Cross-query result cache: materialized results of read-only pipelines,
// keyed by (plan identity, bound params, per-keyspace data version vector).
//
// Validity contract (DESIGN.md decision 11): an entry may be served exactly
// while (a) the DDL epoch it was computed under is current — the same
// WAL-subscriber epoch the plan cache uses, so schema changes invalidate
// results and plans together — and (b) every keyspace in the pipeline's
// resolved read-set still has the data version recorded at materialization.
// Versions are bumped by the engine at commit, under the same mutex cut that
// applies the write-set, so the vector captured by VersionedSnapshot
// describes exactly the state the result was computed from.
//
// Bounded staleness: when only (b) fails and the entry was last verified
// fresh within Options.MaxResultStaleness, the stale value is served anyway
// and a single-flight background refresh recomputes it against a new
// versioned snapshot — hot queries never stall on a recompute.
//
// This file is in the cachekey lint scope: nothing here may read the wall
// clock or randomness, and map iteration is banned (the one collect-then-
// sort exception is annotated), because everything in this file either
// builds cache keys or decides validity. Callers pass time.Time in.
package core

import (
	"container/list"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/binenc"
	"repro/internal/mmvalue"
	"repro/internal/query"
)

// maxResultEntryDivisor caps one entry at budget/maxResultEntryDivisor
// bytes; larger results execute normally but are not stored, so one giant
// result cannot evict the whole working set.
const maxResultEntryDivisor = 8

// ResultCacheStats is a point-in-time snapshot of the result cache,
// exposed through unidb for observability and tests.
type ResultCacheStats struct {
	Hits                uint64 // lookups served a version-current entry
	Misses              uint64 // lookups that executed the pipeline
	StaleServes         uint64 // version-mismatched entries served within the staleness bound
	BackgroundRefreshes uint64 // successful snapshot recomputes behind stale serves
	Invalidations       uint64 // entries dropped for epoch/version mismatch or failed refresh
	Bytes               int    // bytes currently held
	Entries             int    // entries currently held
	Capacity            int    // configured byte budget
}

// HitRate returns the fraction of lookups answered without executing the
// pipeline — (Hits + StaleServes) / total — or 0 before any lookup.
func (s ResultCacheStats) HitRate() float64 {
	total := s.Hits + s.StaleServes + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits+s.StaleServes) / float64(total)
}

// resultEntry is one materialized result. values is immutable once stored
// (result() copies the slice header array on every serve; the foreground
// path stores its own copy), so an entry may serve any number of concurrent
// readers.
type resultEntry struct {
	key       string
	epoch     uint64   // DDL epoch the entry was computed under
	keyspaces []string // resolved read-set: the engine keyspaces the result depends on
	vers      []uint64 // data versions of keyspaces at the materialization cut
	values    []mmvalue.Value
	stats     query.Stats
	size      int

	// freshNano is the last instant (UnixNano) the entry was verified
	// version-current: set at materialization and refreshed by every hit
	// whose version check passes. now − freshNano bounds how stale the
	// value can possibly be, because the data provably matched the live
	// state at that instant.
	freshNano atomic.Int64
	// refreshing is the single-flight latch for the background recompute.
	refreshing atomic.Bool
}

// result materializes a served Result. The Values slice is a fresh copy so
// callers may append/reorder freely; the elements are shared immutable
// values, same as any query result.
func (ent *resultEntry) result() *query.Result {
	vals := make([]mmvalue.Value, len(ent.values))
	copy(vals, ent.values)
	return &query.Result{Values: vals, Stats: ent.stats}
}

func (ent *resultEntry) markFresh(now time.Time) { ent.freshNano.Store(now.UnixNano()) }

// staleFor returns how long ago the entry was last verified fresh.
func (ent *resultEntry) staleFor(now time.Time) time.Duration {
	return now.Sub(time.Unix(0, ent.freshNano.Load()))
}

// resultCache is a mutex-guarded LRU bounded by total bytes. Counters are
// atomics so hit paths touch the mutex once.
type resultCache struct {
	hits          atomic.Uint64
	misses        atomic.Uint64
	staleServes   atomic.Uint64
	refreshes     atomic.Uint64
	invalidations atomic.Uint64

	mu       sync.Mutex
	maxBytes int
	bytes    int
	lru      *list.List // front = most recently used; values are *resultEntry
	byKey    map[string]*list.Element
}

func newResultCache(maxBytes int) *resultCache {
	return &resultCache{
		maxBytes: maxBytes,
		lru:      list.New(),
		byKey:    map[string]*list.Element{},
	}
}

// lookup returns the entry under key when present and computed under the
// current DDL epoch; an entry from an older epoch is evicted (the shared
// plan-cache epoch advances on every committed DDL, so this is the schema
// half of the validity contract — the caller still checks data versions).
func (rc *resultCache) lookup(key string, epoch uint64) *resultEntry {
	rc.mu.Lock()
	el, ok := rc.byKey[key]
	if !ok {
		rc.mu.Unlock()
		return nil
	}
	ent := el.Value.(*resultEntry)
	if ent.epoch != epoch {
		rc.removeLocked(el, ent)
		rc.mu.Unlock()
		rc.invalidations.Add(1)
		return nil
	}
	rc.lru.MoveToFront(el)
	rc.mu.Unlock()
	return ent
}

// removeLocked unlinks an entry. Caller holds rc.mu.
func (rc *resultCache) removeLocked(el *list.Element, ent *resultEntry) {
	rc.lru.Remove(el)
	delete(rc.byKey, ent.key)
	rc.bytes -= ent.size
}

// remove drops the entry under key (data-version invalidation or a failed
// background refresh). Removing an absent key is a no-op.
func (rc *resultCache) remove(key string) {
	rc.mu.Lock()
	el, ok := rc.byKey[key]
	if ok {
		rc.removeLocked(el, el.Value.(*resultEntry))
	}
	rc.mu.Unlock()
	if ok {
		rc.invalidations.Add(1)
	}
}

// put stores (or replaces) an entry and evicts from the LRU tail until the
// byte budget holds. Entries above the per-entry cap are dropped silently —
// the query still ran; it is just not worth the working set.
func (rc *resultCache) put(ent *resultEntry) {
	if ent.size > rc.maxBytes/maxResultEntryDivisor {
		return
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if el, ok := rc.byKey[ent.key]; ok {
		rc.removeLocked(el, el.Value.(*resultEntry))
	}
	rc.byKey[ent.key] = rc.lru.PushFront(ent)
	rc.bytes += ent.size
	for rc.bytes > rc.maxBytes && rc.lru.Len() > 1 {
		tail := rc.lru.Back()
		rc.removeLocked(tail, tail.Value.(*resultEntry))
	}
}

// statsSnapshot snapshots the counters.
func (rc *resultCache) statsSnapshot() ResultCacheStats {
	rc.mu.Lock()
	bytes, entries, capacity := rc.bytes, rc.lru.Len(), rc.maxBytes
	rc.mu.Unlock()
	return ResultCacheStats{
		Hits:                rc.hits.Load(),
		Misses:              rc.misses.Load(),
		StaleServes:         rc.staleServes.Load(),
		BackgroundRefreshes: rc.refreshes.Load(),
		Invalidations:       rc.invalidations.Load(),
		Bytes:               bytes,
		Entries:             entries,
		Capacity:            capacity,
	}
}

// resultKey builds the cache key: dialect, query text, the one ablation bit
// that can change result order (query.NoIndexes — index-range order vs scan
// order), and every bound parameter in sorted name order with its canonical
// binary encoding. Every other strategy is byte-identical to the serial row
// path, so a result computed under one mask may serve a call under another.
func resultKey(dialect, text string, noIndexes query.Ablate, params map[string]mmvalue.Value) string {
	var sb strings.Builder
	sb.WriteString(dialect)
	sb.WriteByte(0)
	sb.WriteString(text)
	sb.WriteByte(0)
	sb.WriteByte(byte(noIndexes))
	for _, name := range sortedParamNames(params) {
		sb.WriteByte(0)
		sb.WriteString(name)
		sb.WriteByte('=')
		sb.Write(binenc.Encode(params[name]))
	}
	return sb.String()
}

// sortedParamNames returns the parameter names in sorted order, making the
// key independent of map iteration order.
func sortedParamNames(params map[string]mmvalue.Value) []string {
	names := make([]string, 0, len(params))
	//unidblint:ignore cachekey collect-then-sort is iteration-order independent
	for name := range params {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// resultEntrySize approximates an entry's memory footprint from the key and
// the canonical encoding of each value (plus per-value slice overhead).
func resultEntrySize(key string, values []mmvalue.Value) int {
	size := len(key) + 96
	for _, v := range values {
		size += len(binenc.Encode(v)) + 24
	}
	return size
}

// versionsEqual reports whether two version vectors (same keyspace order)
// are identical.
func versionsEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
