package core_test

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/mmvalue"
	"repro/internal/query"
	"repro/internal/rdfstore"
)

func catalogSchemaless() catalog.Schema { return catalog.Schemaless }

func queryOptsNoIndex() query.Options { return query.Options{Ablate: query.NoIndexes} }

var (
	// serialOpts is the equivalence corpora's reference arm: the serial row
	// path, with the parallel and vectorized executors ablated.
	serialOpts = query.Options{Ablate: query.NoParallel | query.NoVector}
	// stressOpts runs every strategy the plan makes eligible, with the
	// parallel executor forced from one element on four workers (even on a
	// one-CPU host) and 7-row column batches, so chunk merges and batch
	// boundaries are exercised on small fixtures.
	stressOpts = query.Options{Ablate: query.Stress}
)

func tripleOf(s, p, o string) rdfstore.Triple { return rdfstore.Triple{S: s, P: p, O: o} }

// runCorpusQuery runs q through the default entry points (QueryOpts /
// SQLOpts), where a read-only statement runs on an MVCC snapshot.
func runCorpusQuery(t testing.TB, db *core.DB, dialect, q string, params map[string]mmvalue.Value, opts query.Options) *query.Result {
	t.Helper()
	var res *query.Result
	var err error
	if dialect == "msql" {
		res, err = db.SQLOpts(q, params, opts)
	} else {
		res, err = db.QueryOpts(q, params, opts)
	}
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return res
}

// runLockedQuery runs q on the explicit 2PL read path: inside db.View, whose
// transaction the executor uses as given, so every read takes an S lock.
// It is QueryTx/SQLTx with executor options, which the equivalence corpora
// need on both arms.
func runLockedQuery(t testing.TB, db *core.DB, dialect, q string, params map[string]mmvalue.Value, opts query.Options) *query.Result {
	t.Helper()
	parse := query.ParseMMQL
	if dialect == "msql" {
		parse = query.ParseMSQL
	}
	pipe, err := parse(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	opts.Params = params
	var res *query.Result
	err = db.View(func(tx engine.Tx) error {
		var qerr error
		res, qerr = query.Execute(tx, db.Sources(), pipe, opts)
		return qerr
	})
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	if res.Stats.SnapshotReads != 0 {
		t.Fatalf("locked run of %q reported a snapshot read", q)
	}
	return res
}
