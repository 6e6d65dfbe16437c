package lint

// This file pins the analyzer suite to this repository's invariants. The
// analyzers themselves are generic (and fixture-tested against synthetic
// packages); the configuration below is where the engine's actual contracts
// are written down.

// DefaultAnalyzers returns the suite configured for unidb:
//
//	lockcheck    — all packages; the engine/lock-manager/WAL mutexes are the
//	               backbone of every model's consistency.
//	errdrop      — wal, engine, catalog: a dropped error there is a commit
//	               that lied about durability.
//	exhaustive   — query AST (Expr, Clause) and the closed value/op/source
//	               vocabularies: a new kind must be wired everywhere before
//	               the lint passes.
//	determinism  — query executor merge/exec paths: the parallel executor
//	               must stay byte-identical to the serial one.
//	parallel-merge — the parallel executor's partial-result merge paths must
//	               iterate recorded chunk/group order, never a map range.
//	txnend       — core and query: a Begin without Commit/Abort wedges 2PL.
//	syncbarrier  — the WAL group-commit window: no path may acknowledge a
//	               committer (finishWindow, close of a done channel) before
//	               the durability barrier (durableBarrier) has run.
//	cowsafe      — the COW B+tree: a node marked shared is referenced by
//	               snapshots and must never be mutated in place; every
//	               writer path goes through mutable(), and the shared flag
//	               only ever moves false→true.
//	cachekey     — the result cache's key construction and the compiler's
//	               read-set computation: both must be pure (no map ranges,
//	               wall-clock reads, or randomness), or identical queries
//	               silently stop sharing cache entries.
func DefaultAnalyzers() []Analyzer {
	return []Analyzer{
		LockCheck{},
		ErrDrop{Packages: []string{
			"repro/internal/wal",
			"repro/internal/engine",
			"repro/internal/catalog",
		}},
		Exhaustive{
			Interfaces: []TypeRef{
				{Pkg: "repro/internal/query", Name: "Expr"},
				{Pkg: "repro/internal/query", Name: "Clause"},
			},
			Enums: []TypeRef{
				{Pkg: "repro/internal/mmvalue", Name: "Kind"},
				{Pkg: "repro/internal/query", Name: "SourceKind"},
				{Pkg: "repro/internal/wal", Name: "Op"},
			},
		},
		Determinism{Scope: []ScopeRef{
			{Pkg: "repro/internal/query", Files: []string{
				"exec.go", "eval.go", "parallel.go", "compile.go", "optimize.go",
				"vector.go", "csrroute.go",
			}},
			// The whole CSR package: its parallel frontier expansion must be
			// byte-identical to the serial walk, and its build scans feed a
			// cache keyed by version vectors.
			{Pkg: "repro/internal/csr"},
		}},
		ParallelMerge{Scope: []ScopeRef{
			{Pkg: "repro/internal/query", Files: []string{"parallel.go"}},
		}},
		TxnEnd{
			Packages:   []string{"repro/internal/core", "repro/internal/query"},
			BeginNames: []string{"Begin", "BeginSnapshot", "BeginSnapshotAt"},
			EndNames:   []string{"Commit", "Abort"},
		},
		SyncBarrier{
			Scope:    []ScopeRef{{Pkg: "repro/internal/wal", Files: []string{"committer.go"}}},
			Barriers: []string{"durableBarrier"},
			Acks:     []string{"finishWindow"},
		},
		CowSafe{
			Packages:    []string{"repro/internal/btree"},
			NodeType:    "node",
			SharedField: "shared",
			MintFuncs:   []string{"mutable"},
			WriterFuncs: []string{"insert", "split", "remove"},
		},
		CacheKey{Scope: []ScopeRef{
			{Pkg: "repro/internal/core", Files: []string{"resultcache.go"}},
			{Pkg: "repro/internal/query", Files: []string{"readset.go", "vector.go"}},
			// The CSR cache's validity token (drop epoch + version vector)
			// must be constructed purely, like the result cache's key.
			{Pkg: "repro/internal/csr", Files: []string{"cache.go"}},
		}},
	}
}

// DefaultLockClasses is the one table naming every mutex the engine cares
// about. A lock that participates in nesting but is missing here gets a
// lockorder diagnostic telling you to add it — declaring a new lock means
// adding a row here and ranking its class in DefaultLockOrder.
func DefaultLockClasses() LockClasses {
	return LockClasses{Refs: []LockClassRef{
		{Pkg: "repro/internal/shard", Type: "Router", Field: "cutMu", Class: "shard.cutMu"},
		{Pkg: "repro/internal/engine", Type: "Engine", Field: "cpMu", Class: "engine.cpMu"},
		{Pkg: "repro/internal/engine", Type: "Engine", Field: "stateMu", Class: "engine.stateMu"},
		{Pkg: "repro/internal/engine", Type: "Engine", Field: "commitMu", Class: "engine.commitMu"},
		{Pkg: "repro/internal/engine", Type: "Engine", Field: "mu", Class: "engine.mu"},
		{Pkg: "repro/internal/engine", Type: "Engine", Field: "subMu", Class: "engine.subMu"},
		{Pkg: "repro/internal/engine", Type: "lockManager", Field: "mu", Class: "engine.lockmgr.mu"},
		{Pkg: "repro/internal/engine", Type: "Replica", Field: "mu", Class: "engine.replica.mu"},
		{Pkg: "repro/internal/wal", Type: "committer", Field: "mu", Class: "wal.commit.mu"},
		{Pkg: "repro/internal/wal", Type: "Log", Field: "mu", Class: "wal.log.mu"},
		{Pkg: "repro/internal/core", Type: "DB", Field: "viewMu", Class: "core.viewMu"},
		{Pkg: "repro/internal/core", Type: "planCache", Field: "mu", Class: "core.plans.mu"},
		{Pkg: "repro/internal/core", Type: "resultCache", Field: "mu", Class: "core.results.mu"},
		{Pkg: "repro/internal/csr", Type: "Cache", Field: "mu", Class: "csr.cache.mu"},
		{Pkg: "repro/internal/binenc", Type: "dcShard", Field: "mu", Class: "binenc.deccache.mu"},
		{Pkg: "repro/internal/mmindex", Type: "JoinIndex", Field: "mu", Class: "mmindex.join.mu"},
		{Pkg: "repro/internal/sinew", Type: "Relation", Field: "mu", Class: "sinew.rel.mu"},
	}}
}

// DefaultLockOrder is the canonical global acquisition order, outermost lock
// first: every nesting edge in the whole program must go strictly downward
// in this list. The shard router's cut barrier is outermost — it is held
// (shared) across the whole second phase of a cross-shard commit, which
// reaches every engine-side lock below it, and held exclusively while a
// consistent cut snapshots each shard. Below it sits the checkpoint
// serialization chain
// (cpMu cuts while holding commitMu; commit publication holds commitMu
// across the WAL append and the tree apply under engine.mu), the middle is
// the WAL group-commit pair and the 2PL lock manager, and the tail is the
// read-side cache/view mutexes, which are leaves that never hold anything
// engine-side.
func DefaultLockOrder() []string {
	return []string{
		"shard.cutMu",
		"engine.cpMu",
		"engine.stateMu",
		"engine.commitMu",
		"engine.mu",
		"wal.commit.mu",
		"wal.log.mu",
		"engine.lockmgr.mu",
		"engine.subMu",
		"engine.replica.mu",
		"core.viewMu",
		"core.plans.mu",
		"core.results.mu",
		"csr.cache.mu",
		"binenc.deccache.mu",
		"mmindex.join.mu",
		"sinew.rel.mu",
	}
}

// DefaultSnapshotRoots lists the entry points of the snapshot read path:
// every Engine/Txn/Snapshot method a snapshot-mode caller can reach. Txn
// mutators are included deliberately — their locked-path lock traffic sits
// behind `t.snap == nil` guards the summary walker proves, so what remains
// reachable is exactly what a snapshot transaction can execute.
func DefaultSnapshotRoots() []FuncRef {
	const eng = "repro/internal/engine"
	names := []string{
		"Engine.BeginSnapshot", "Engine.BeginSnapshotAt",
		"Engine.SnapshotView", "Engine.SnapshotViewAt",
		"Engine.Snapshot", "Engine.VersionedSnapshot",
		"Txn.Get", "Txn.Scan", "Txn.ScanReverse", "Txn.scan",
		"Txn.KeyspaceNonEmpty", "Txn.Commit", "Txn.Abort", "Txn.finish",
		"Snapshot.Get", "Snapshot.Len", "Snapshot.Keyspaces",
		"Snapshot.Scan", "Snapshot.ScanReverse",
		"Txn.SnapshotVersionsFor", "Txn.SnapshotDropEpoch",
		"Snapshot.VersionsFor", "Snapshot.DropEpoch",
	}
	refs := make([]FuncRef, len(names))
	for i, n := range names {
		refs[i] = FuncRef{Pkg: eng, Name: n}
	}
	return refs
}

// DefaultProgramAnalyzers returns the whole-program suite:
//
//	lockorder    — the interprocedural lock-nesting graph must follow
//	               DefaultLockOrder and be acyclic (no potential deadlock).
//	snapshotpure — nothing reachable from the snapshot read roots touches
//	               the lock manager or a write-side mutex; PR 5's "zero
//	               lock-manager traffic for readers" as a checked invariant.
func DefaultProgramAnalyzers() []ProgramAnalyzer {
	return []ProgramAnalyzer{
		LockOrder{Order: DefaultLockOrder()},
		SnapshotPure{
			Roots: DefaultSnapshotRoots(),
			Forbidden: []string{
				"engine.lockmgr.mu",
				"engine.commitMu",
				"engine.cpMu",
				"wal.commit.mu",
				"wal.log.mu",
			},
			ForbiddenRecv: []TypeRef{
				{Pkg: "repro/internal/engine", Name: "lockManager"},
			},
		},
	}
}

// DefaultRunner returns the suite plus the repository's path suppressions.
func DefaultRunner() *Runner {
	return &Runner{
		Analyzers:        DefaultAnalyzers(),
		ProgramAnalyzers: DefaultProgramAnalyzers(),
		LockClasses:      DefaultLockClasses(),
		GuardField:       "snap",
		SuppressPaths: map[string][]string{
			// Examples are narrative code; they share the binary's module
			// but not the engine's invariants.
			"*": {"/examples/"},
		},
	}
}
