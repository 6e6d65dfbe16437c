package core

import (
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/mmvalue"
	"repro/internal/query"
)

// Stmt is a prepared statement: a query compiled once and re-executed with
// fresh parameter bindings, skipping the parser on the hot path. A Stmt
// revalidates itself against the plan cache's DDL epoch on every execution,
// so it follows the same invalidation contract as the cache — a plan
// compiled before an index or collection change is recompiled transparently
// on the next Exec. Stmts are safe for concurrent use.
type Stmt struct {
	db      *DB
	dialect string
	text    string
	plan    atomic.Pointer[stmtPlan]
}

// stmtPlan pins a pipeline to the DDL epoch it was compiled under.
type stmtPlan struct {
	pipe  *query.Pipeline
	epoch uint64
}

// Prepare compiles an MMQL statement. Parse errors surface here rather than
// at execution time.
func (db *DB) Prepare(mmql string) (*Stmt, error) { return db.prepare(dialectMMQL, mmql) }

// PrepareSQL compiles an MSQL statement.
func (db *DB) PrepareSQL(msql string) (*Stmt, error) { return db.prepare(dialectMSQL, msql) }

func (db *DB) prepare(dialect, text string) (*Stmt, error) {
	s := &Stmt{db: db, dialect: dialect, text: text}
	if _, err := s.pipeline(); err != nil {
		return nil, err
	}
	return s, nil
}

// Text returns the statement's query text.
func (s *Stmt) Text() string { return s.text }

// pipeline returns the current plan, recompiling (through the shared plan
// cache) when DDL has advanced the epoch since the last execution.
func (s *Stmt) pipeline() (*query.Pipeline, error) {
	cur := s.db.plans.epoch.Load()
	if p := s.plan.Load(); p != nil && p.epoch == cur {
		return p.pipe, nil
	}
	pipe, err := s.db.parseCached(s.dialect, s.text)
	if err != nil {
		return nil, err
	}
	s.plan.Store(&stmtPlan{pipe: pipe, epoch: cur})
	return pipe, nil
}

// Exec runs the statement in its own transaction (committed on success, so
// DML sticks), binding params to @name parameters.
func (s *Stmt) Exec(params map[string]mmvalue.Value) (*query.Result, error) {
	return s.ExecOpts(params, query.Options{})
}

// ExecOpts is Exec with explicit executor options. It runs through the same
// execution tail as ad-hoc queries: a snapshot for a read-only statement,
// the 2PL auto-commit path for DML.
func (s *Stmt) ExecOpts(params map[string]mmvalue.Value, opts query.Options) (*query.Result, error) {
	pipe, err := s.pipeline()
	if err != nil {
		return nil, err
	}
	if opts.Params == nil {
		opts.Params = params
	}
	return s.db.execPipeline(pipe, opts)
}

// ExecTx runs the statement inside an existing transaction.
func (s *Stmt) ExecTx(tx engine.Tx, params map[string]mmvalue.Value) (*query.Result, error) {
	pipe, err := s.pipeline()
	if err != nil {
		return nil, err
	}
	return query.Execute(tx, s.db.sources, pipe, query.Options{Params: params})
}
