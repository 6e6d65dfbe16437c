// Package core assembles unidb: one storage backend, seven model layers, a
// unified catalog, cross-model transactions, and the two query front-ends.
// It is the paper's "multi-model database … multiple data models against a
// single, integrated backend" as a concrete object. Every index, GIN and
// full-text included, is a keyspace on that backend, written inside the
// transaction that writes its documents.
package core

import (
	"errors"

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
	// Shards hash-partitions every keyspace across this many in-process
	// engine shards (internal/shard): point operations route by key hash,
	// scans fan out and merge, and transactions spanning shards commit via
	// two-phase commit over the group-commit WAL. 0 or 1 keeps today's
	// single-engine path with zero added overhead. The count is fixed at
	// first open of a directory.
	Shards int
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

	// plans caches parsed pipelines keyed by (dialect, text); a WAL
	// subscriber bumps its epoch on every committed DDL (see
	// invalidatePlans and plancache.go for the contract).
	plans *planCache

	sources *query.Sources
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
		plans:  newPlanCache(defaultPlanCacheCap),
	}
	db.sources = &query.Sources{
		Cols:    db.Cols,
		Docs:    db.Docs,
		Rels:    db.Rels,
		KV:      db.KV,
		Graphs:  db.Graphs,
		XML:     db.XML,
		RDF:     db.RDF,
		Resolve: db.resolve,
	}
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
func (db *DB) NewReplica(lagTxns int) *shard.Replica { return db.be.NewReplica(lagTxns) }

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

// ResultCacheStats is the counter pair of a cross-query result cache.
// unidb has none, so both fields always read zero; the type and its getter
// stay only for callers that still report a result-cache hit ratio.
type ResultCacheStats struct {
	Hits   uint64
	Misses uint64
}

// ResultCacheStats returns zeros: there is no result cache.
func (db *DB) ResultCacheStats() ResultCacheStats { return ResultCacheStats{} }

// CSRStats re-exports the CSR adjacency-snapshot cache counters type.
type CSRStats = csr.Stats

// CSRStats snapshots the graph store's CSR cache counters: builds,
// version-mismatch rebuilds, reuses, and resident size.
func (db *DB) CSRStats() CSRStats { return db.Graphs.CSRStats() }

// Close shuts the database down.
func (db *DB) Close() error { return db.be.Close() }

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

// --- GIN and full-text indexes ---
//
// Both are docstore secondary indexes (see docstore.IndexKind), built and
// maintained inside writing transactions like any path index.

// The names of the indexes CreateGIN and CreateFullText add.
const (
	ginIndexName      = "gin"
	fullTextIndexName = "fulltext"
)

// CreateGIN builds a GIN index over a collection in the given mode, in one
// transaction ordered by 2PL against concurrent writers. `@>` filters on
// the collection then read candidates from it, on snapshots too.
func (db *DB) CreateGIN(coll string, mode inverted.Mode) error {
	return db.be.Update(func(tx engine.Tx) error {
		return db.Docs.CreateIndex(tx, coll, docstore.IndexDef{Name: ginIndexName, Kind: docstore.GINIndex, Mode: mode})
	})
}

// CreateFullText builds a full-text index over a collection: the distinct
// tokens of every string leaf of every document.
func (db *DB) CreateFullText(coll string) error {
	return db.be.Update(func(tx engine.Tx) error {
		return db.Docs.CreateIndex(tx, coll, docstore.IndexDef{Name: fullTextIndexName, Kind: docstore.FullTextIndex})
	})
}

// FullTextSearch runs a boolean-AND term query against a collection's
// full-text index on a snapshot, returning matching document keys in key
// order (none when the collection has no full-text index).
func (db *DB) FullTextSearch(coll, terms string) []string {
	var keys []string
	if err := db.be.SnapshotView(func(tx engine.Tx) error {
		var err error
		keys, err = db.Docs.SearchText(tx, coll, terms)
		return err
	}); err != nil {
		return nil
	}
	return keys
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
	return db.execPipeline(pipe, opts)
}

// execPipeline is the shared execution tail behind Query/SQL (and their
// Opts variants) and prepared-statement Exec: a lock-free MVCC snapshot for
// every proven read-only statement, the 2PL auto-commit path for DML.
func (db *DB) execPipeline(pipe *query.Pipeline, opts query.Options) (*query.Result, error) {
	var res *query.Result
	exec := func(tx engine.Tx) error {
		var qerr error
		res, qerr = query.Execute(tx, db.sources, pipe, opts)
		return qerr
	}
	var err error
	if pipe.ReadOnly() {
		// Proven read-only: no locks are taken, so the statement neither
		// waits for nor delays a writer, no deadlock retry loop is needed,
		// and nothing is committed.
		err = db.be.SnapshotView(exec)
	} else {
		err = db.be.Update(exec)
	}
	return res, err
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
