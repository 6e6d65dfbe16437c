package binenc

import (
	"hash/maphash"
	"sync"

	"repro/internal/mmvalue"
)

// DecodeCache memoizes Decode results for hot read paths (catalog
// metadata, DOCUMENT()/KV() fetches, graph vertices, and document and
// table scans). It is content-addressed: entries are keyed by the encoded
// bytes themselves, and Decode is a pure function of those bytes, so a hit
// is correct by construction — transactional visibility is untouched
// because the caller still reads the bytes through its own transaction and
// only the decode step is memoized.
//
// Decoded Values are shared: every reader of the same bytes gets the same
// fields and elements, so a caller must treat a returned value's Fields()
// and AsArray() as read-only (mmvalue.Value is immutable by convention;
// Set, Delete and Merge build new values).
//
// The cache is sharded for concurrent use (the parallel query executor
// issues point reads from several goroutines). A hit costs one hash and
// one map lookup with no allocation. Each shard is cleared wholesale when
// it reaches capacity: churn-heavy workloads pay a small amortized reset
// instead of per-entry LRU bookkeeping. The clear keeps the map's room, so
// a miss in a full cache allocates what Decode does and no map growth.
// A store keeps one cache for all its collections or tables, its scans
// and its point reads, and old versions left by writes hold entries until
// their shard is cleared: a repeated scan is served from the cache only
// while everything the store reads fits it, and a scan of more than a
// shard's share clears the shard before it comes round again.
type DecodeCache struct {
	seed   maphash.Seed
	shards [dcShards]dcShard
}

const dcShards = 16

type dcShard struct {
	mu  sync.RWMutex
	cap int
	m   map[string]mmvalue.Value
}

// NewDecodeCache returns a cache bounded at roughly capacity entries.
func NewDecodeCache(capacity int) *DecodeCache {
	if capacity < dcShards {
		capacity = dcShards
	}
	c := &DecodeCache{seed: maphash.MakeSeed()}
	for i := range c.shards {
		c.shards[i].cap = capacity / dcShards
		c.shards[i].m = map[string]mmvalue.Value{}
	}
	return c
}

// Decode returns the decoded form of raw, memoized by content.
func (c *DecodeCache) Decode(raw []byte) (mmvalue.Value, error) {
	sh := &c.shards[maphash.Bytes(c.seed, raw)%dcShards]
	sh.mu.RLock()
	val, ok := sh.m[string(raw)]
	sh.mu.RUnlock()
	if ok {
		return val, nil
	}
	// The map key is the record's one copy: the decoded names and strings
	// are substrings of it.
	key := string(raw)
	val, err := decode(raw, key)
	if err != nil {
		return mmvalue.Null, err
	}
	sh.mu.Lock()
	if len(sh.m) >= sh.cap {
		clear(sh.m)
	}
	sh.m[key] = val
	sh.mu.Unlock()
	return val, nil
}
