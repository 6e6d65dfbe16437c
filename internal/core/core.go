// Package core assembles unidb: one engine, seven model layers, a unified
// catalog, cross-model transactions, auxiliary index views, and the two
// query front-ends. It is the paper's "multi-model database … multiple data
// models against a single, integrated backend" as a concrete object.
package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/colstore"
	"repro/internal/csr"
	"repro/internal/docstore"
	"repro/internal/engine"
	"repro/internal/graphstore"
	"repro/internal/inverted"
	"repro/internal/kvstore"
	"repro/internal/mmvalue"
	"repro/internal/query"
	"repro/internal/rdfstore"
	"repro/internal/relstore"
	"repro/internal/shard"
	"repro/internal/wal"
	"repro/internal/xmlstore"
)

// Options configures Open.
type Options struct {
	// Dir is the data directory; empty means a purely in-memory database.
	Dir string
	// Durability is forwarded to the engine (ignored when Dir is empty).
	Durability engine.Durability
	// GroupCommitWindow is forwarded to the engine: the maximum number of
	// concurrent Synced committers that share one WAL fsync (0 = default).
	GroupCommitWindow int
	// ResultCacheBytes enables the cross-query result cache with this total
	// byte budget; 0 disables it. Cacheable (proven read-only, fully
	// read-set-analyzed) pipelines then serve materialized results while
	// every read keyspace's data version is unchanged — see resultcache.go
	// for the validity contract.
	ResultCacheBytes int
	// MaxResultStaleness bounds the result cache's stale-serve window: when
	// a cached entry's version vector no longer matches but the entry was
	// verified fresh within this duration, it is served as-is and
	// recomputed in the background against an MVCC snapshot. 0 (the
	// default) disables stale serving — any version mismatch recomputes in
	// the foreground.
	MaxResultStaleness time.Duration
	// Vectorized makes the auto-transaction query entry points run eligible
	// scan→filter→aggregate pipelines over column tables batch-at-a-time
	// (see internal/query's vector.go). Results are byte-identical to the
	// row path; per-call query.Options can still opt in explicitly.
	Vectorized bool
	// Shards hash-partitions every keyspace across this many in-process
	// engine shards (internal/shard): point operations route by key hash,
	// scans fan out and merge, and transactions spanning shards commit via
	// two-phase commit over the group-commit WAL. 0 or 1 keeps today's
	// single-engine path with zero added overhead. The count is fixed at
	// first open of a directory.
	Shards int
	// DisableGraphCSR turns off the CSR adjacency-snapshot traversal path:
	// every graph traversal runs per-edge B+tree probes, as before PR 10.
	// Results are byte-identical either way; the switch exists for
	// ablation and as an escape hatch.
	DisableGraphCSR bool
}

// DB is a multi-model database instance.
type DB struct {
	// be is the only storage surface: a shard.Single over one engine, or a
	// shard.Router fanning across N engines. Every path reaches it through
	// the backend wrappers below (Update, View, SnapshotView, Checkpoint, …).
	be     shard.Backend
	Cat    *catalog.Catalog
	Docs   *docstore.Store
	Rels   *relstore.Store
	KV     *kvstore.Store
	Graphs *graphstore.Store
	Cols   *colstore.Store
	XML    *xmlstore.Store
	RDF    *rdfstore.Store

	// Auxiliary index views (the paper's OctopusDB "storage views over a
	// central log"): maintained by a WAL subscriber at commit time and
	// always rechecked by the query layer.
	viewMu sync.RWMutex
	gins   map[string]*inverted.GIN      // collection -> GIN
	fts    map[string]*inverted.FullText // collection -> full-text
	// views mirrors len(gins)+len(fts), stored under viewMu, so the query
	// path can ask "is there any view?" without taking viewMu, which every
	// commit's subscriber holds exclusively.
	views atomic.Int32

	// plans caches parsed pipelines keyed by (dialect, text); a WAL
	// subscriber bumps its epoch on every committed DDL (see
	// invalidatePlans and plancache.go for the contract).
	plans *planCache

	// results is the cross-query result cache (nil when disabled). It
	// shares the plan cache's DDL epoch and pairs it with per-keyspace data
	// versions from the engine; maxStale is its stale-serve bound and
	// refreshWG tracks in-flight background refreshes so Close can drain
	// them.
	results   *resultCache
	maxStale  time.Duration
	refreshWG sync.WaitGroup

	sources *query.Sources

	// vectorized is the Options.Vectorized default applied by the
	// auto-transaction query entry points (per-call query.Options can still
	// opt in explicitly).
	vectorized bool
}

// Open creates or recovers a database.
func Open(opts Options) (*DB, error) {
	durability := opts.Durability
	if opts.Dir == "" {
		durability = engine.Ephemeral
	}
	var be shard.Backend
	if opts.Shards > 1 {
		r, err := shard.Open(shard.Options{
			Dir:               opts.Dir,
			Durability:        durability,
			GroupCommitWindow: opts.GroupCommitWindow,
			Shards:            opts.Shards,
		})
		if err != nil {
			return nil, err
		}
		be = r
	} else {
		e, err := engine.Open(engine.Options{Dir: opts.Dir, Durability: durability, GroupCommitWindow: opts.GroupCommitWindow})
		if err != nil {
			return nil, err
		}
		be = shard.NewSingle(e)
	}
	cat := catalog.New(be)
	db := &DB{
		be:     be,
		Cat:    cat,
		Docs:   docstore.New(be, cat),
		Rels:   relstore.New(be, cat),
		KV:     kvstore.New(be),
		Graphs: graphstore.New(be),
		Cols:   colstore.New(be),
		XML:    xmlstore.New(be, cat),
		RDF:    rdfstore.New(be),
		gins:   map[string]*inverted.GIN{},
		fts:    map[string]*inverted.FullText{},
		plans:  newPlanCache(defaultPlanCacheCap),

		vectorized: opts.Vectorized,
		maxStale:   opts.MaxResultStaleness,
	}
	if opts.ResultCacheBytes > 0 {
		db.results = newResultCache(opts.ResultCacheBytes)
	}
	if opts.DisableGraphCSR {
		db.Graphs.SetCSREnabled(false)
	}
	db.sources = &query.Sources{
		Cols:   db.Cols,
		Docs:   db.Docs,
		Rels:   db.Rels,
		KV:     db.KV,
		Graphs: db.Graphs,
		XML:    db.XML,
		RDF:    db.RDF,
		GINLookup: func(coll string, pattern mmvalue.Value) ([]string, bool) {
			db.viewMu.RLock()
			defer db.viewMu.RUnlock()
			g, ok := db.gins[coll]
			if !ok {
				return nil, false
			}
			return g.CandidatesContains(pattern), true
		},
		FullText: func(coll, terms string) []string {
			db.viewMu.RLock()
			defer db.viewMu.RUnlock()
			ft, ok := db.fts[coll]
			if !ok {
				return nil
			}
			return ft.SearchAll(inverted.Tokenize(terms))
		},
		Resolve: db.resolve,
	}
	be.Subscribe(db.applyToViews)
	be.Subscribe(db.invalidatePlans)
	return db, nil
}

// --- Backend wrappers ---
//
// Every path reaches storage through these, so the same code serves one
// engine and N shards.

// BeginTx starts a read-write transaction on the backend (single-engine 2PL
// transaction, or a router transaction spanning every shard).
func (db *DB) BeginTx() (engine.Tx, error) { return db.be.BeginTx() }

// Update runs fn in a read-write transaction, committing on nil and
// aborting on error, with bounded deadlock retry.
func (db *DB) Update(fn func(tx engine.Tx) error) error { return db.be.Update(fn) }

// View runs fn read-only over the live locked trees.
func (db *DB) View(fn func(tx engine.Tx) error) error { return db.be.View(fn) }

// SnapshotView runs fn against a lock-free MVCC snapshot (a consistent
// cross-shard cut under a router).
func (db *DB) SnapshotView(fn func(tx engine.Tx) error) error { return db.be.SnapshotView(fn) }

// Checkpoint snapshots the store and truncates covered WAL prefixes (every
// shard, under a router).
func (db *DB) Checkpoint() error { return db.be.Checkpoint() }

// WALStats aggregates WAL activity counters across the backend's logs.
func (db *DB) WALStats() wal.Stats { return db.be.WALStats() }

// EngineSnapshotReads counts snapshot (lock-free) transactions started on
// the backend.
func (db *DB) EngineSnapshotReads() uint64 { return db.be.SnapshotReads() }

// NewReplica attaches a WAL-shipping read replica with the given apply lag.
func (db *DB) NewReplica(lagTxns int) shard.ReplicaView { return db.be.NewReplica(lagTxns) }

// ShardStats reports partition count, fan-out and cross-shard commit
// counters, and per-shard keyspace versions.
func (db *DB) ShardStats() shard.Stats { return db.be.Stats() }

// Keyspaces lists keyspace names across the whole backend.
func (db *DB) Keyspaces() []string { return db.be.Keyspaces() }

// KeyspaceLen reports a keyspace's committed cardinality (summed across
// shards under a router).
func (db *DB) KeyspaceLen(ks string) int { return db.be.KeyspaceLen(ks) }

// invalidatePlans is the commit-log subscriber behind the plan cache's
// invalidation contract: any committed write to the catalog keyspace (all
// DDL goes through the catalog) or whole-keyspace drop (collection/table
// drops, index drops) advances the cache epoch, so plans compiled before
// the DDL are never reused after it.
func (db *DB) invalidatePlans(batch []wal.Record) {
	for _, rec := range batch {
		if rec.Keyspace == catalog.Keyspace || rec.Op == wal.OpDropKeyspace {
			db.plans.bump()
			return
		}
	}
}

// PlanCacheStats snapshots the compiled-plan cache counters.
func (db *DB) PlanCacheStats() PlanCacheStats { return db.plans.stats() }

// ResultCacheStats snapshots the result cache counters (all-zero when the
// cache is disabled).
func (db *DB) ResultCacheStats() ResultCacheStats {
	if db.results == nil {
		return ResultCacheStats{}
	}
	return db.results.statsSnapshot()
}

// KeyspaceVersions returns the engine's per-keyspace data version counters —
// the validity half of every result-cache key — under one consistent cut.
func (db *DB) KeyspaceVersions() map[string]uint64 { return db.be.Versions() }

// CSRStats re-exports the CSR adjacency-snapshot cache counters type.
type CSRStats = csr.Stats

// CSRStats snapshots the graph store's CSR cache counters: builds,
// version-mismatch rebuilds, reuses, and resident size.
func (db *DB) CSRStats() CSRStats { return db.Graphs.CSRStats() }

// Close shuts the database down, draining in-flight background result-cache
// refreshes first so no goroutine races engine shutdown.
func (db *DB) Close() error {
	db.refreshWG.Wait()
	return db.be.Close()
}

// resolve classifies a name for the query layer.
func (db *DB) resolve(tx engine.Tx, name string) string {
	for _, kind := range []string{"collection", "table", "graph", "coltable"} {
		ok, err := db.Cat.Exists(tx, kind, name)
		if err == nil && ok {
			return kind
		}
	}
	if tx.KeyspaceNonEmpty(kvstore.Keyspace(name)) {
		return "bucket"
	}
	return ""
}

// CreateGraph registers a named graph in the catalog so queries can resolve
// it as a FOR source.
func (db *DB) CreateGraph(tx engine.Tx, name string) error {
	return db.Cat.Create(tx, "graph", name, mmvalue.Object())
}

// CreateColTable registers a wide-column table (Cassandra/DynamoDB model)
// so queries can resolve it as a FOR source.
func (db *DB) CreateColTable(tx engine.Tx, name string) error {
	return db.Cat.Create(tx, "coltable", name, mmvalue.Object())
}

// --- Auxiliary index views ---

// CreateGIN builds a GIN index over a collection in the given mode and
// keeps it maintained from the commit log.
func (db *DB) CreateGIN(coll string, mode inverted.Mode) error {
	g := inverted.NewGIN(mode)
	err := db.be.View(func(tx engine.Tx) error {
		return db.Docs.Scan(tx, coll, func(key string, doc mmvalue.Value) bool {
			g.Add(key, doc)
			return true
		})
	})
	if err != nil {
		return err
	}
	db.viewMu.Lock()
	db.gins[coll] = g
	db.countViewsLocked()
	db.viewMu.Unlock()
	return nil
}

// DropGIN removes the GIN view of a collection.
func (db *DB) DropGIN(coll string) {
	db.viewMu.Lock()
	delete(db.gins, coll)
	db.countViewsLocked()
	db.viewMu.Unlock()
}

// countViewsLocked refreshes db.views; the caller holds viewMu for writing.
func (db *DB) countViewsLocked() { db.views.Store(int32(len(db.gins) + len(db.fts))) }

// GINItems reports the index size (for E3).
func (db *DB) GINItems(coll string) int {
	db.viewMu.RLock()
	defer db.viewMu.RUnlock()
	if g, ok := db.gins[coll]; ok {
		return g.Items()
	}
	return 0
}

// CreateFullText builds a full-text view over a collection: every string
// leaf of every document is tokenized into one posting space per document.
func (db *DB) CreateFullText(coll string) error {
	ft := inverted.NewFullText()
	err := db.be.View(func(tx engine.Tx) error {
		return db.Docs.Scan(tx, coll, func(key string, doc mmvalue.Value) bool {
			ft.Add(key, docText(doc))
			return true
		})
	})
	if err != nil {
		return err
	}
	db.viewMu.Lock()
	db.fts[coll] = ft
	db.countViewsLocked()
	db.viewMu.Unlock()
	return nil
}

// FullTextSearch runs a boolean-AND term query against a collection's
// full-text view, returning matching document keys.
func (db *DB) FullTextSearch(coll, terms string) []string {
	return db.sources.FullText(coll, terms)
}

// FullTextPhrase runs an exact phrase query.
func (db *DB) FullTextPhrase(coll, phrase string) []string {
	db.viewMu.RLock()
	defer db.viewMu.RUnlock()
	if ft, ok := db.fts[coll]; ok {
		return ft.SearchPhrase(phrase)
	}
	return nil
}

// docText concatenates every string leaf of a document.
func docText(doc mmvalue.Value) string {
	var sb strings.Builder
	for _, e := range mmvalue.FlattenPaths(doc) {
		if e.Leaf.Kind() == mmvalue.KindString {
			sb.WriteString(e.Leaf.AsString())
			sb.WriteByte(' ')
		}
	}
	return sb.String()
}

// applyToViews is the commit-log subscriber maintaining auxiliary views.
func (db *DB) applyToViews(batch []wal.Record) {
	db.viewMu.Lock()
	defer db.viewMu.Unlock()
	if len(db.gins) == 0 && len(db.fts) == 0 {
		return
	}
	for _, rec := range batch {
		coll, ok := strings.CutPrefix(rec.Keyspace, "doc:")
		if !ok {
			continue
		}
		g := db.gins[coll]
		ft := db.fts[coll]
		if g == nil && ft == nil {
			continue
		}
		switch rec.Op {
		case wal.OpSet:
			key, doc, err := docstore.DecodeRecord(rec.Key, rec.Value)
			if err != nil {
				continue
			}
			if g != nil {
				g.Add(key, doc)
			}
			if ft != nil {
				ft.Add(key, docText(doc))
			}
		case wal.OpDelete:
			key, _, err := docstore.DecodeRecord(rec.Key, nil)
			if err != nil {
				continue
			}
			if g != nil {
				g.Remove(key)
			}
			if ft != nil {
				ft.Remove(key)
			}
		case wal.OpDropKeyspace:
			if g != nil {
				db.gins[coll] = inverted.NewGIN(g.Mode())
			}
			if ft != nil {
				db.fts[coll] = inverted.NewFullText()
			}
		case wal.OpCommit, wal.OpAbort, wal.OpPrepare:
			// Control records carry no document data to index.
		}
	}
}

// --- Query entry points ---

// Query parses and runs an MMQL query in its own transaction: a lock-free
// MVCC snapshot for a read-only statement, a 2PL transaction committed on
// success for DML. Parsed plans are served from the plan cache.
func (db *DB) Query(mmql string, params map[string]mmvalue.Value) (*query.Result, error) {
	return db.queryAuto(dialectMMQL, mmql, params, query.Options{})
}

// SQL parses and runs an MSQL query in its own transaction.
func (db *DB) SQL(msql string, params map[string]mmvalue.Value) (*query.Result, error) {
	return db.queryAuto(dialectMSQL, msql, params, query.Options{})
}

// QueryOpts runs MMQL with explicit executor options (e.g. index ablation).
func (db *DB) QueryOpts(mmql string, params map[string]mmvalue.Value, opts query.Options) (*query.Result, error) {
	opts.Params = params
	return db.queryAuto(dialectMMQL, mmql, params, opts)
}

// SQLOpts runs MSQL with explicit executor options.
func (db *DB) SQLOpts(msql string, params map[string]mmvalue.Value, opts query.Options) (*query.Result, error) {
	opts.Params = params
	return db.queryAuto(dialectMSQL, msql, params, opts)
}

// parseCached resolves (dialect, text) to a pipeline, consulting the plan
// cache first. Parse errors are not cached.
func (db *DB) parseCached(dialect, text string) (*query.Pipeline, error) {
	if pipe, ok := db.plans.get(dialect, text); ok {
		return pipe, nil
	}
	parse := query.ParseMMQL
	if dialect == dialectMSQL {
		parse = query.ParseMSQL
	}
	pipe, err := parse(text)
	if err != nil {
		return nil, err
	}
	db.plans.put(dialect, text, pipe)
	return pipe, nil
}

func (db *DB) queryAuto(dialect, text string, params map[string]mmvalue.Value,
	opts query.Options) (*query.Result, error) {
	pipe, err := db.parseCached(dialect, text)
	if err != nil {
		return nil, err
	}
	if opts.Params == nil {
		opts.Params = params
	}
	return db.execPipeline(dialect, text, pipe, opts)
}

// execPipeline is the shared execution tail behind Query/SQL (and their
// Opts variants) and prepared-statement Exec: result cache first for
// cacheable pipelines, then a lock-free MVCC snapshot for every proven
// read-only one, then the 2PL auto-commit path for DML.
//
// One read-only shape stays locked: a pipeline that may be answered from a
// GIN or full-text view, while the database has such a view. The views
// follow the latest commit, not a snapshot, so a snapshot consulting them
// could miss rows it should see; on a snapshot `@>` falls back to scan and
// recheck, but FTSEARCH has no scan form.
func (db *DB) execPipeline(dialect, text string, pipe *query.Pipeline, opts query.Options) (*query.Result, error) {
	// Apply the database-level vectorization default before either execution
	// path (cached or not) so both observe the same options. Like the
	// parallelism knobs, Vectorized is excluded from resultKey: the
	// vectorized executor is byte-identical to the row path, so cached and
	// recomputed results agree regardless of the flag.
	if db.vectorized {
		opts.Vectorized = true
	}
	if db.results != nil && !opts.NoResultCache && pipe.Cacheable() {
		res, handled, err := db.execCached(dialect, text, pipe, opts)
		if handled {
			return res, err
		}
	}
	var res *query.Result
	exec := func(tx engine.Tx) error {
		var qerr error
		res, qerr = query.Execute(tx, db.sources, pipe, opts)
		return qerr
	}
	var err error
	if pipe.ReadOnly() && !(pipe.ViewBacked() && db.views.Load() > 0) {
		// Proven read-only: no locks are taken, so the statement neither
		// waits for nor delays a writer, no deadlock retry loop is needed,
		// and nothing is committed.
		err = db.be.SnapshotView(exec)
	} else {
		err = db.be.Update(exec)
	}
	return res, err
}

// execCached serves a cacheable pipeline through the result cache. handled
// is false when the read-set could not be resolved against the catalog (the
// caller then executes uncached); otherwise the result/error pair is final.
func (db *DB) execCached(dialect, text string, pipe *query.Pipeline, opts query.Options) (res *query.Result, handled bool, err error) {
	key := resultKey(dialect, text, opts.DisableIndexes, opts.Params)
	// Captured before the version check: the entry's provable fresh instant
	// is at or after this, so staleness computed from it is conservative.
	now := time.Now()
	epoch := db.plans.epoch.Load()
	if ent := db.results.lookup(key, epoch); ent != nil {
		cur := db.be.VersionsFor(ent.keyspaces)
		if versionsEqual(cur, ent.vers) {
			ent.markFresh(now)
			db.results.hits.Add(1)
			return ent.result(), true, nil
		}
		if db.maxStale > 0 && ent.staleFor(now) <= db.maxStale {
			// Data moved, but within the configured bound: serve the stale
			// value and recompute behind it.
			db.results.staleServes.Add(1)
			db.startRefresh(key, pipe, opts, ent)
			return ent.result(), true, nil
		}
		db.results.remove(key)
	}
	db.results.misses.Add(1)
	ent, res, err := db.computeResultEntry(key, epoch, pipe, opts, now)
	if err != nil {
		return nil, true, err
	}
	if ent == nil {
		return nil, false, nil
	}
	db.results.put(ent)
	return res, true, nil
}

// computeResultEntry executes a cacheable pipeline against a versioned MVCC
// snapshot and wraps the result as a cache entry. The snapshot and the
// version vector come from one engine mutex cut, so the entry's validity
// token describes exactly the state it was computed from. A nil entry with
// nil error means the read-set did not resolve (e.g. a FOR source that is
// neither cataloged nor a non-empty bucket).
func (db *DB) computeResultEntry(key string, epoch uint64, pipe *query.Pipeline,
	opts query.Options, now time.Time) (*resultEntry, *query.Result, error) {
	keyspaces, resolved, err := db.readSetKeyspaces(pipe.ReadSet())
	if err != nil || !resolved {
		return nil, nil, err
	}
	snap, vers := db.be.VersionedSnapshot(keyspaces)
	var res *query.Result
	err = db.be.SnapshotViewAt(snap, func(tx engine.Tx) error {
		var qerr error
		res, qerr = query.Execute(tx, db.sources, pipe, opts)
		return qerr
	})
	if err != nil {
		return nil, nil, err
	}
	// The entry keeps its own copy of the value slice: the caller owns the
	// returned Result and may reorder or truncate it.
	vals := make([]mmvalue.Value, len(res.Values))
	copy(vals, res.Values)
	ent := &resultEntry{
		key:       key,
		epoch:     epoch,
		keyspaces: keyspaces,
		vers:      vers,
		values:    vals,
		stats:     res.Stats,
	}
	ent.size = resultEntrySize(key, vals)
	ent.markFresh(now)
	return ent, res, nil
}

// startRefresh launches the single-flight background recompute behind a
// stale serve. On failure (including engine shutdown) the stale entry is
// dropped so the next lookup recomputes in the foreground rather than
// serving it past the bound.
func (db *DB) startRefresh(key string, pipe *query.Pipeline, opts query.Options, ent *resultEntry) {
	if !ent.refreshing.CompareAndSwap(false, true) {
		return
	}
	// The caller may mutate its params map after we return; the refresh
	// keys on the same bindings, so it needs its own copy.
	opts.Params = copyParams(opts.Params)
	db.refreshWG.Add(1)
	go func() {
		defer db.refreshWG.Done()
		defer ent.refreshing.Store(false)
		fresh, _, err := db.computeResultEntry(key, db.plans.epoch.Load(), pipe, opts, time.Now())
		if err != nil || fresh == nil {
			db.results.remove(key)
			return
		}
		db.results.put(fresh)
		db.results.refreshes.Add(1)
	}()
}

// copyParams shallow-copies a parameter binding map.
func copyParams(params map[string]mmvalue.Value) map[string]mmvalue.Value {
	if params == nil {
		return nil
	}
	out := make(map[string]mmvalue.Value, len(params))
	for name, v := range params {
		out[name] = v
	}
	return out
}

// readSetKeyspaces resolves a pipeline's compile-time read-set to concrete
// engine keyspaces, deduplicated, in deterministic read-set order. Index
// keyspaces are deliberately omitted: every DML that changes an index also
// writes its base keyspace in the same transaction (bumping its version),
// and index DDL advances the shared epoch. resolved is false when a named
// source classifies as nothing — such a query errors during execution and
// must not be cached.
func (db *DB) readSetKeyspaces(refs []query.ReadRef) (keyspaces []string, resolved bool, err error) {
	keyspaces = make([]string, 0, len(refs)+3)
	add := func(ks string) {
		for _, have := range keyspaces {
			if have == ks {
				return
			}
		}
		keyspaces = append(keyspaces, ks)
	}
	addGraph := func(name string) {
		add(graphstore.VertexKeyspace(name))
		add(graphstore.EdgeKeyspace(name))
		add(graphstore.OutKeyspace(name))
		add(graphstore.InKeyspace(name))
	}
	resolved = true
	err = db.be.SnapshotView(func(tx engine.Tx) error {
		for _, r := range refs {
			switch r.Kind {
			case query.ReadSource:
				switch db.resolve(tx, r.Name) {
				case "collection":
					add(docstore.Keyspace(r.Name))
				case "table":
					add(relstore.Keyspace(r.Name))
				case "coltable":
					add(colstore.Keyspace(r.Name))
				case "bucket":
					add(kvstore.Keyspace(r.Name))
				case "graph":
					addGraph(r.Name)
				default:
					resolved = false
					return nil
				}
			case query.ReadCollection:
				add(docstore.Keyspace(r.Name))
			case query.ReadBucket:
				add(kvstore.Keyspace(r.Name))
			case query.ReadGraph:
				addGraph(r.Name)
			case query.ReadXML:
				add(xmlstore.Keyspace(r.Name))
				add(xmlstore.PathKeyspace(r.Name))
			case query.ReadRDF:
				for _, ks := range rdfstore.Keyspaces(r.Name) {
					add(ks)
				}
			}
		}
		return nil
	})
	return keyspaces, resolved, err
}

// QueryTx runs MMQL inside an existing transaction (for cross-model
// transactions mixing queries and store calls). The caller's choice of
// transaction stands: inside View or Update it reads under 2PL S locks.
func (db *DB) QueryTx(tx engine.Tx, mmql string, params map[string]mmvalue.Value) (*query.Result, error) {
	pipe, err := db.parseCached(dialectMMQL, mmql)
	if err != nil {
		return nil, err
	}
	return query.Execute(tx, db.sources, pipe, query.Options{Params: params})
}

// SQLTx runs MSQL inside an existing transaction.
func (db *DB) SQLTx(tx engine.Tx, msql string, params map[string]mmvalue.Value) (*query.Result, error) {
	pipe, err := db.parseCached(dialectMSQL, msql)
	if err != nil {
		return nil, err
	}
	return query.Execute(tx, db.sources, pipe, query.Options{Params: params})
}

// Sources exposes the query wiring (used by benches and the server).
func (db *DB) Sources() *query.Sources { return db.sources }

// ErrNotFound aliases the common not-found sentinel for the public facade.
var ErrNotFound = errors.New("unidb: not found")

// Strings extracts a []string from a result of string values (helper for
// examples and tests).
func Strings(res *query.Result) []string {
	out := make([]string, 0, len(res.Values))
	for _, v := range res.Values {
		out = append(out, valueString(v))
	}
	return out
}

func valueString(v mmvalue.Value) string {
	if v.Kind() == mmvalue.KindString {
		return v.AsString()
	}
	return v.String()
}

// MustQuery is Query that panics on error (examples and benches).
func (db *DB) MustQuery(mmql string) *query.Result {
	res, err := db.Query(mmql, nil)
	if err != nil {
		panic(fmt.Errorf("MustQuery(%s): %w", mmql, err))
	}
	return res
}
