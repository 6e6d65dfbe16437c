// Package unidb is the public API of the unidb multi-model database — a Go
// reproduction of the system described in Lu & Holubová, "Multi-model Data
// Management: What's New and What's Next?" (EDBT 2017).
//
// One Database stores relational tables, JSON document collections,
// key/value buckets, property graphs, XML/JSON trees, and RDF triples
// against a single integrated backend, and queries all of them with two
// unified front-ends: MMQL (AQL-flavored FOR/FILTER/RETURN) and MSQL
// (SQL-flavored SELECT with PostgreSQL JSON operators and OrientDB-style
// graph navigation). Transactions span every model.
//
// Quickstart:
//
//	db, _ := unidb.Open(unidb.Options{})           // in-memory
//	defer db.Close()
//	db.Execute(`INSERT {_key: "p1", name: "Toy", price: 66} INTO products`, nil)
//	res, _ := db.Query(`FOR p IN products FILTER p.price > 50 RETURN p.name`, nil)
package unidb

import (
	"repro/internal/binenc"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/docstore"
	"repro/internal/engine"
	"repro/internal/graphstore"
	"repro/internal/inverted"
	"repro/internal/mmvalue"
	"repro/internal/query"
	"repro/internal/rdfstore"
	"repro/internal/relstore"
	"repro/internal/shard"
	"repro/internal/wal"
)

// Value is the unified typed value every model exchanges.
type Value = mmvalue.Value

// Result is a completed query: values plus optimizer statistics.
type Result = query.Result

// Durability levels for Open.
const (
	// Ephemeral keeps the database in memory only.
	Ephemeral = engine.Ephemeral
	// Buffered persists through a write-ahead log flushed at commit.
	Buffered = engine.Buffered
	// Synced additionally fsyncs the log at every commit.
	Synced = engine.Synced
)

// Options configures Open.
type Options struct {
	// Dir is the data directory. Empty means in-memory (Durability is
	// ignored).
	Dir string
	// Durability selects the commit protocol for durable databases.
	Durability engine.Durability
	// GroupCommitWindow tunes Synced group commit: the maximum number of
	// concurrent committers that share one WAL fsync. 0 selects the default
	// window (wal.DefaultCommitWindow, 128); 1 restores per-commit fsync.
	// Larger windows raise ingest throughput under concurrency at no cost
	// to the durability guarantee — a commit is still never acknowledged
	// before its bytes are fsynced.
	GroupCommitWindow int
	// Shards hash-partitions every keyspace across this many in-process
	// engine shards, each with its own WAL and lock-free snapshot trees.
	// Point reads and writes route to one shard; scans fan out across all
	// shards concurrently and merge back in key order, byte-identical to the
	// unsharded result. Transactions that write several shards commit
	// atomically through a two-phase protocol over the per-shard
	// group-commit WALs. 0 or 1 keeps the single-engine path with zero
	// overhead; the count is fixed at the first open of a directory.
	Shards int
}

// Database is a multi-model database handle.
type Database struct {
	db *core.DB
}

// Open creates or recovers a database.
func Open(opts Options) (*Database, error) {
	db, err := core.Open(core.Options{
		Dir:               opts.Dir,
		Durability:        opts.Durability,
		GroupCommitWindow: opts.GroupCommitWindow,
		Shards:            opts.Shards,
	})
	if err != nil {
		return nil, err
	}
	return &Database{db: db}, nil
}

// Close shuts the database down, flushing the log.
func (d *Database) Close() error { return d.db.Close() }

// Checkpoint snapshots all keyspaces and truncates the WAL (durable
// databases only).
func (d *Database) Checkpoint() error { return d.db.Checkpoint() }

// Query runs an MMQL (AQL-flavored) query. Params bind @name parameters.
// A statement the compiler proves read-only runs on a lock-free MVCC
// snapshot: it takes no locks, so it neither waits for nor delays a
// concurrent writer. DML runs in a locked transaction committed on success.
func (d *Database) Query(mmql string, params map[string]Value) (*Result, error) {
	return d.db.Query(mmql, params)
}

// Execute is Query for statements run for their side effects (INSERT,
// UPDATE, REMOVE).
func (d *Database) Execute(mmql string, params map[string]Value) (*Result, error) {
	return d.db.Query(mmql, params)
}

// SQL runs an MSQL (SQL-flavored) query.
func (d *Database) SQL(msql string, params map[string]Value) (*Result, error) {
	return d.db.SQL(msql, params)
}

// QueryOptions tunes one execution: Params binds @name parameters and
// Ablate switches execution strategies off. The zero value runs every
// strategy the compiled plan makes eligible: index access paths, the
// parallel executor (for stages of 1024 elements or more, on GOMAXPROCS
// workers), batch-at-a-time execution of column-table scans, and CSR
// traversal on snapshots. Every strategy returns the same bytes as the
// serial row path, so Ablate exists for tests and experiments only: the
// bits are query.NoIndexes (full scans; the one bit that can reorder an
// unsorted result), query.NoParallel, query.NoVector, query.NoCSR, and the
// test bit query.Stress. SnapshotReads is ignored.
type QueryOptions = query.Options

// QueryOpts runs MMQL with explicit execution options.
func (d *Database) QueryOpts(mmql string, params map[string]Value, opts QueryOptions) (*Result, error) {
	return d.db.QueryOpts(mmql, params, opts)
}

// SQLOpts runs MSQL with explicit execution options.
func (d *Database) SQLOpts(msql string, params map[string]Value, opts QueryOptions) (*Result, error) {
	return d.db.SQLOpts(msql, params, opts)
}

// --- Prepared statements and the compiled-plan cache ---
//
// Query and SQL already serve repeated statements from an LRU plan cache;
// Prepare additionally surfaces parse errors up front and pins the plan on
// the statement so re-execution skips even the cache lookup. Cached plans
// and prepared statements are invalidated by DDL: any committed
// collection/table/graph create or drop and any index create or drop
// advances a generation counter, and stale plans recompile transparently on
// their next use.

// Statement is a prepared query: parsed once, re-executed with fresh
// parameter bindings. Safe for concurrent use.
type Statement struct {
	s *core.Stmt
}

// Prepare compiles an MMQL statement for repeated execution.
func (d *Database) Prepare(mmql string) (*Statement, error) {
	s, err := d.db.Prepare(mmql)
	if err != nil {
		return nil, err
	}
	return &Statement{s: s}, nil
}

// PrepareSQL compiles an MSQL statement for repeated execution.
func (d *Database) PrepareSQL(msql string) (*Statement, error) {
	s, err := d.db.PrepareSQL(msql)
	if err != nil {
		return nil, err
	}
	return &Statement{s: s}, nil
}

// Exec runs the statement in its own transaction, binding params to @name
// parameters.
func (st *Statement) Exec(params map[string]Value) (*Result, error) { return st.s.Exec(params) }

// Text returns the statement's query text.
func (st *Statement) Text() string { return st.s.Text() }

// ExecIn runs the statement inside an open cross-model transaction.
func (st *Statement) ExecIn(t *Txn, params map[string]Value) (*Result, error) {
	return st.s.ExecTx(t.tx, params)
}

// PlanCacheStats re-exports the plan cache snapshot type.
type PlanCacheStats = core.PlanCacheStats

// PlanCacheStats reports hits, misses, size, and the DDL epoch of the
// compiled-plan cache. PlanCacheStats.HitRate summarizes the counters.
func (d *Database) PlanCacheStats() PlanCacheStats { return d.db.PlanCacheStats() }

// WALStats re-exports the WAL's cumulative activity counters.
type WALStats = wal.Stats

// WALStats reports the write-ahead log's counters: per-record appends,
// batched appends, commit windows, group commits, fsyncs issued, and
// fsyncs saved by committers sharing another committer's barrier. All
// zeros for an in-memory database. Under sharding the counters aggregate
// every shard's log plus the 2PC coordinator log.
func (d *Database) WALStats() WALStats { return d.db.WALStats() }

// ShardStats re-exports the shard router's activity snapshot.
type ShardStats = shard.Stats

// ShardStats reports the partition count, scatter-gather fan-outs,
// cross-shard (two-phase) commits, cumulative prepares, and each shard's
// per-keyspace data versions. For an unsharded database Shards is 1 and the
// cross-shard counters are structurally zero.
func (d *Database) ShardStats() ShardStats { return d.db.ShardStats() }

// CSRStats re-exports the CSR adjacency-snapshot cache counters.
type CSRStats = core.CSRStats

// CSRStats reports the graph CSR cache's counters: cold builds,
// version-mismatch rebuilds, cache reuses, graphs held, and approximate
// resident bytes. Rebuilds staying at zero across repeated traversals of
// an unchanged graph is the cache's design invariant.
func (d *Database) CSRStats() CSRStats { return d.db.CSRStats() }

// Txn is a cross-model transaction: every operation performed through it —
// on any model — commits or aborts atomically.
type Txn struct {
	tx engine.Tx
	db *core.DB
}

// Begin starts a cross-model transaction.
func (d *Database) Begin() (*Txn, error) {
	tx, err := d.db.BeginTx()
	if err != nil {
		return nil, err
	}
	return &Txn{tx: tx, db: d.db}, nil
}

// Commit makes the transaction durable and visible.
func (t *Txn) Commit() error { return t.tx.Commit() }

// Abort rolls the transaction back. The returned error reports a failure
// to write the informational abort record (the rollback itself always
// succeeds); a finished transaction aborts as a nil no-op.
func (t *Txn) Abort() error { return t.tx.Abort() }

// Query runs MMQL inside the transaction.
func (t *Txn) Query(mmql string, params map[string]Value) (*Result, error) {
	return t.db.QueryTx(t.tx, mmql, params)
}

// SQL runs MSQL inside the transaction.
func (t *Txn) SQL(msql string, params map[string]Value) (*Result, error) {
	return t.db.SQLTx(t.tx, msql, params)
}

// Update runs fn in a transaction with automatic deadlock retry, committing
// on nil error.
func (d *Database) Update(fn func(*Txn) error) error {
	return d.db.Update(func(tx engine.Tx) error {
		return fn(&Txn{tx: tx, db: d.db})
	})
}

// View runs fn read-only (any writes are rolled back).
func (d *Database) View(fn func(*Txn) error) error {
	return d.db.View(func(tx engine.Tx) error {
		return fn(&Txn{tx: tx, db: d.db})
	})
}

// SnapshotView runs fn against an immutable MVCC snapshot of the committed
// state. Reads acquire no locks at all — they cannot block writers, be
// blocked by writers, or deadlock — and keep seeing the same state however
// many transactions commit meanwhile. Any write inside fn fails with the
// engine's read-only-transaction error.
func (d *Database) SnapshotView(fn func(*Txn) error) error {
	return d.db.SnapshotView(func(tx engine.Tx) error {
		return fn(&Txn{tx: tx, db: d.db})
	})
}

// SnapshotReads reports how many lock-free snapshot transactions this
// database has served (SnapshotView calls and read-only queries).
func (d *Database) SnapshotReads() uint64 { return d.db.EngineSnapshotReads() }

// --- Model handles (usable standalone or inside a Txn) ---

// Collections / documents.

// CreateCollection registers a schemaless document collection.
func (t *Txn) CreateCollection(name string) error {
	return t.db.Docs.CreateCollection(t.tx, name, catalog.Schemaless)
}

// InsertDocument inserts a document (JSON text) into a collection and
// returns its key.
func (t *Txn) InsertDocument(coll string, jsonDoc string) (string, error) {
	v, err := mmvalue.ParseJSON([]byte(jsonDoc))
	if err != nil {
		return "", err
	}
	return t.db.Docs.Insert(t.tx, coll, v)
}

// PutDocument upserts a document Value under a key.
func (t *Txn) PutDocument(coll, key string, doc Value) error {
	return t.db.Docs.Put(t.tx, coll, key, doc)
}

// GetDocument fetches a document by key.
func (t *Txn) GetDocument(coll, key string) (Value, bool, error) {
	return t.db.Docs.Get(t.tx, coll, key)
}

// DeleteDocument removes a document, reporting whether it existed.
func (t *Txn) DeleteDocument(coll, key string) (bool, error) {
	return t.db.Docs.Delete(t.tx, coll, key)
}

// Relational tables.

// TableSchema re-exports the relational schema type.
type TableSchema = relstore.TableSchema

// Column re-exports the relational column type.
type Column = relstore.Column

// Relational column types.
const (
	TInt    = relstore.TInt
	TFloat  = relstore.TFloat
	TString = relstore.TString
	TBool   = relstore.TBool
	TBytes  = relstore.TBytes
	TJSONB  = relstore.TJSONB
	TAny    = relstore.TAny
)

// CreateTable registers a typed relational table.
func (t *Txn) CreateTable(name string, schema TableSchema) error {
	return t.db.Rels.CreateTable(t.tx, name, schema)
}

// InsertRow adds a row (an object Value keyed by column name).
func (t *Txn) InsertRow(table string, row Value) error {
	return t.db.Rels.Insert(t.tx, table, row)
}

// GetRow fetches a row by primary key values.
func (t *Txn) GetRow(table string, pk ...Value) (Value, bool, error) {
	return t.db.Rels.Get(t.tx, table, pk...)
}

// Key/value buckets.

// KVSet stores a value in a bucket.
func (t *Txn) KVSet(bucket, key string, v Value) error {
	return t.db.KV.Set(t.tx, bucket, key, v)
}

// KVGet reads a value from a bucket.
func (t *Txn) KVGet(bucket, key string) (Value, bool, error) {
	return t.db.KV.Get(t.tx, bucket, key)
}

// Graphs.

// Direction re-exports graph traversal direction.
type Direction = graphstore.Direction

// Traversal directions.
const (
	Outbound = graphstore.Outbound
	Inbound  = graphstore.Inbound
	Any      = graphstore.Any
)

// CreateGraph registers a named property graph.
func (t *Txn) CreateGraph(name string) error { return t.db.CreateGraph(t.tx, name) }

// AddVertex stores a vertex document, returning its key.
func (t *Txn) AddVertex(graph string, doc Value) (string, error) {
	return t.db.Graphs.AddVertex(t.tx, graph, doc)
}

// PutVertex upserts a vertex under an explicit key.
func (t *Txn) PutVertex(graph, key string, doc Value) error {
	return t.db.Graphs.PutVertex(t.tx, graph, key, doc)
}

// Connect adds a labeled edge between two vertex keys.
func (t *Txn) Connect(graph, from, to, label string) (string, error) {
	return t.db.Graphs.Connect(t.tx, graph, from, to, label, mmvalue.Null)
}

// Neighbors expands one step from a vertex.
func (t *Txn) Neighbors(graph, vertex string, dir Direction, label string) ([]string, error) {
	ns, err := t.db.Graphs.Neighbors(t.tx, graph, vertex, dir, label)
	if err != nil {
		return nil, err
	}
	keys := make([]string, len(ns))
	for i, n := range ns {
		keys[i] = n.VertexKey
	}
	return keys, nil
}

// ShortestPath returns the unweighted shortest path between vertices.
func (t *Txn) ShortestPath(graph, from, to string) ([]string, error) {
	return t.db.Graphs.ShortestPath(t.tx, graph, from, to, graphstore.Outbound, "")
}

// Wide-column tables (Cassandra / DynamoDB model).

// CreateColTable registers a wide-column table addressed by partition and
// sort keys, with per-item attribute sets.
func (t *Txn) CreateColTable(name string) error { return t.db.CreateColTable(t.tx, name) }

// PutItem stores (or extends) the item at (part, sort) with attributes.
func (t *Txn) PutItem(table string, part, sort Value, attrs Value) error {
	return t.db.Cols.PutItem(t.tx, table, part, sort, attrs)
}

// GetItem reconstructs an item as a document.
func (t *Txn) GetItem(table string, part, sort Value) (Value, bool, error) {
	return t.db.Cols.GetItem(t.tx, table, part, sort)
}

// QueryPartition returns all items of a partition in sort-key order as
// documents carrying their attributes.
func (t *Txn) QueryPartition(table string, part Value) ([]Value, error) {
	items, err := t.db.Cols.QueryPartition(t.tx, table, part)
	if err != nil {
		return nil, err
	}
	out := make([]Value, len(items))
	for i, it := range items {
		out[i] = it.Attrs.Set("_sort", it.Sort)
	}
	return out, nil
}

// XML / JSON trees.

// LoadXML parses and stores an XML document under a name.
func (t *Txn) LoadXML(name string, data []byte) error {
	return t.db.XML.LoadXML(t.tx, name, data)
}

// XPath evaluates an XPath-subset expression, returning the typed value of
// each match.
func (t *Txn) XPath(doc, expr string) ([]Value, error) {
	return t.db.XML.XPathValues(t.tx, doc, expr)
}

// RDF triples.

// Triple re-exports the RDF triple type.
type Triple = rdfstore.Triple

// InsertTriple adds an RDF statement to a named graph.
func (t *Txn) InsertTriple(graph string, tr Triple) error {
	return t.db.RDF.Insert(t.tx, graph, tr)
}

// MatchTriples returns triples matching a pattern; empty strings are
// wildcards.
func (t *Txn) MatchTriples(graph, s, p, o string) ([]Triple, error) {
	return t.db.RDF.Match(t.tx, graph, rdfstore.Pattern{S: s, P: p, O: o})
}

// --- Index management ---

// GINMode selects jsonb_ops or jsonb_path_ops extraction.
type GINMode = inverted.Mode

// GIN modes.
const (
	GINOps     = inverted.OpsMode
	GINPathOps = inverted.PathOpsMode
)

// CreateGIN builds a containment (@>) index over a collection. Like every
// document index it is a keyspace written by each transaction that writes
// the collection, so it is durable and snapshot-consistent.
func (d *Database) CreateGIN(coll string, mode GINMode) error {
	return d.db.CreateGIN(coll, mode)
}

// CreateFullText builds a full-text index over every string leaf of a
// collection's documents.
func (d *Database) CreateFullText(coll string) error { return d.db.CreateFullText(coll) }

// FullTextSearch finds documents containing every term, reading the
// collection's full-text index on a snapshot; none without one.
func (d *Database) FullTextSearch(coll, terms string) []string {
	return d.db.FullTextSearch(coll, terms)
}

// IndexDef re-exports the document secondary index definition.
type IndexDef = docstore.IndexDef

// CreateDocIndex builds a B+tree secondary index over a document path.
func (t *Txn) CreateDocIndex(coll string, def IndexDef) error {
	return t.db.Docs.CreateIndex(t.tx, coll, def)
}

// CreateTableIndex builds a B+tree secondary index over a table column.
func (t *Txn) CreateTableIndex(table, name, column string) error {
	return t.db.Rels.CreateIndex(t.tx, table, name, column)
}

// --- Consistency (hybrid consistency models, paper challenge #6) ---

// Replica is an eventually-consistent read endpoint fed by WAL shipping
// with a configurable lag (measured in committed transactions).
type Replica struct {
	r *shard.Replica
}

// NewReplica attaches a replica lagging the primary by lagTxns commits.
func (d *Database) NewReplica(lagTxns int) *Replica {
	return &Replica{r: d.db.NewReplica(lagTxns)}
}

// KVGet reads a key/value pair at EVENTUAL consistency (no locks, possibly
// stale).
func (r *Replica) KVGet(bucket, key string) (Value, bool) {
	raw, ok := r.r.Get("kv:"+bucket, []byte(key))
	if !ok {
		return mmvalue.Null, false
	}
	v, err := decodeBin(raw)
	if err != nil {
		return mmvalue.Null, false
	}
	return v, true
}

// Lag reports committed-but-unapplied transactions.
func (r *Replica) Lag() int { return r.r.Lag() }

// CatchUp applies everything pending.
func (r *Replica) CatchUp() { r.r.CatchUp() }

// Core exposes the full internal core object, for the benchmark in bench/,
// the cmd/unidb shell and examples that drive a model store directly;
// applications should not need it.
func (d *Database) Core() *core.DB { return d.db }

// ParseJSON decodes JSON text into a Value.
func ParseJSON(s string) (Value, error) { return mmvalue.ParseJSON([]byte(s)) }

// MustParseJSON is ParseJSON that panics on error.
func MustParseJSON(s string) Value { return mmvalue.MustParseJSON(s) }

// Scalar Value constructors, mainly for binding statement parameters.

// Int returns an integer Value.
func Int(i int64) Value { return mmvalue.Int(i) }

// Float returns a float Value.
func Float(f float64) Value { return mmvalue.Float(f) }

// Str returns a string Value.
func Str(s string) Value { return mmvalue.String(s) }

// Bool returns a boolean Value.
func Bool(b bool) Value { return mmvalue.Bool(b) }

// Strings extracts string results from a query result.
func Strings(res *Result) []string { return core.Strings(res) }

func decodeBin(raw []byte) (Value, error) { return binenc.Decode(raw) }
