// Compiled-plan cache: parsing MMQL/MSQL dominates the cost of small
// queries (E1's recommendation query re-lexed and re-parsed on every call
// before this existed), so DB keeps an LRU of parsed pipelines keyed by
// (dialect, query text).
//
// Invalidation contract: the cache carries a generation counter (epoch).
// Every committed transaction that touches the catalog keyspace — which is
// where all DDL lands: collection/table/graph/coltable create and drop,
// index create and drop — or that drops a whole keyspace bumps the epoch
// via the engine's WAL subscriber (see DB.invalidatePlans). A cached entry
// whose epoch predates the current one is treated as a miss and evicted on
// the next lookup, so no plan compiled before a DDL statement is ever
// executed after it. Parameters are bound at execution time (query.Options
// .Params), so parameterized re-execution shares one cached plan.
package core

import (
	"container/list"
	"sync"
	"sync/atomic"

	"repro/internal/query"
)

// defaultPlanCacheCap bounds the number of cached plans per DB.
const defaultPlanCacheCap = 256

// Cache key dialects.
const (
	dialectMMQL = "mmql"
	dialectMSQL = "msql"
)

// PlanCacheStats is a point-in-time snapshot of the plan cache, exposed
// through unidb for observability and tests.
type PlanCacheStats struct {
	Hits     uint64 // lookups answered from the cache
	Misses   uint64 // lookups that required a parse
	Size     int    // entries currently held (may include not-yet-evicted stale ones)
	Capacity int    // LRU capacity
	Epoch    uint64 // DDL generation counter
}

// HitRate returns Hits/(Hits+Misses), or 0 before any lookup.
func (s PlanCacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

type planEntry struct {
	key   string
	epoch uint64
	pipe  *query.Pipeline
}

// planCache is a mutex-guarded LRU with lazy epoch invalidation. Pipelines
// are immutable after parsing, so one entry may be handed to any number of
// concurrent executions.
type planCache struct {
	epoch  atomic.Uint64
	hits   atomic.Uint64
	misses atomic.Uint64

	mu    sync.Mutex
	cap   int
	lru   *list.List // front = most recently used; values are *planEntry
	byKey map[string]*list.Element
}

func newPlanCache(capacity int) *planCache {
	if capacity <= 0 {
		capacity = defaultPlanCacheCap
	}
	return &planCache{
		cap:   capacity,
		lru:   list.New(),
		byKey: map[string]*list.Element{},
	}
}

func planKey(dialect, text string) string { return dialect + "\x00" + text }

// get returns the cached plan for (dialect, text) if present and current.
func (pc *planCache) get(dialect, text string) (*query.Pipeline, bool) {
	key := planKey(dialect, text)
	cur := pc.epoch.Load()
	pc.mu.Lock()
	el, ok := pc.byKey[key]
	if !ok {
		pc.mu.Unlock()
		pc.misses.Add(1)
		return nil, false
	}
	ent := el.Value.(*planEntry)
	if ent.epoch != cur {
		// Compiled before the last DDL: stale, evict.
		pc.lru.Remove(el)
		delete(pc.byKey, key)
		pc.mu.Unlock()
		pc.misses.Add(1)
		return nil, false
	}
	pc.lru.MoveToFront(el)
	pipe := ent.pipe // put may replace it once the lock is released
	pc.mu.Unlock()
	pc.hits.Add(1)
	return pipe, true
}

// put stores a freshly parsed plan, evicting from the LRU tail when full.
func (pc *planCache) put(dialect, text string, pipe *query.Pipeline) {
	key := planKey(dialect, text)
	cur := pc.epoch.Load()
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if el, ok := pc.byKey[key]; ok {
		ent := el.Value.(*planEntry)
		ent.pipe, ent.epoch = pipe, cur
		pc.lru.MoveToFront(el)
		return
	}
	pc.byKey[key] = pc.lru.PushFront(&planEntry{key: key, epoch: cur, pipe: pipe})
	for pc.lru.Len() > pc.cap {
		tail := pc.lru.Back()
		pc.lru.Remove(tail)
		delete(pc.byKey, tail.Value.(*planEntry).key)
	}
}

// bump invalidates every current entry by advancing the epoch; entries are
// evicted lazily on their next lookup.
func (pc *planCache) bump() { pc.epoch.Add(1) }

// stats snapshots the counters.
func (pc *planCache) stats() PlanCacheStats {
	pc.mu.Lock()
	size := pc.lru.Len()
	capacity := pc.cap
	pc.mu.Unlock()
	return PlanCacheStats{
		Hits:     pc.hits.Load(),
		Misses:   pc.misses.Load(),
		Size:     size,
		Capacity: capacity,
		Epoch:    pc.epoch.Load(),
	}
}
