package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"repro/internal/binenc"
	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/csr"
	"repro/internal/docstore"
	"repro/internal/engine"
	"repro/internal/graphstore"
	"repro/internal/keyenc"
	"repro/internal/kvstore"
	"repro/internal/mmvalue"
	"repro/internal/query"
	"repro/internal/rdfstore"
	"repro/internal/wal"
	"repro/unidb"
)

// The traced run. It replays a seeded, fixed-count sample of every workload's
// operations single-threaded and in-process, as a ladder: the same logical
// operation is entered at each layer's public function, outermost first, with
// a span around the call. A layer's self time is its rung minus the rung
// below. Spans are recorded from these files only; spans inside the program
// are a later change (ROADMAP open item 3). After the ladder come short
// concurrent windows for the numbers that only exist under load.

// Ladder sample sizes: frozen, so every traced run replays the same count.
const (
	ladderPointReads  = 2000
	ladderPointWrites = 400
	ladderNavBindings = 16
	ladderScanBinding = 6
	ladderTxns        = 2000
	ladderMicroN      = 20000
	openLoopPerSec    = 10000 // point_mix open-loop phase: about half the seed's closed-loop rate
	openLoopPhase     = 3 * time.Second
	diagWarmup        = 500 * time.Millisecond
)

type ladder struct {
	rc *runCtx
	db *core.DB
	h  http.Handler
	tr *tracer
	// dur collects span durations (ns, per call) by span name.
	dur     map[string][]float64
	out     map[string]measured
	checked int
	wrong   int
	replays int
}

func (l *ladder) expect(ok bool) {
	l.checked++
	if !ok {
		l.wrong++
	}
}

func (l *ladder) set(name string, v float64, unit string, n int) {
	l.out[name] = measured{Value: v, Unit: unit, Samples: n}
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// timed runs fn under a span and returns its duration in ns.
func (l *ladder) timed(name string, fn func()) float64 {
	id := l.tr.begin(name)
	t0 := time.Now()
	fn()
	d := float64(time.Since(t0))
	l.tr.end(id)
	l.dur[name] = append(l.dur[name], d)
	return d
}

// serve enters the server rung: the real handler, a recorded response.
func (l *ladder) serve(span, method, path string, body []byte) (int, []byte, float64) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	d := l.timed(span, func() { l.h.ServeHTTP(rec, req) })
	return rec.Code, rec.Body.Bytes(), d
}

// runTraced is --trace 1: the ladder, then the concurrent diagnostics. Every
// per-layer metric is produced in every traced run; the workload argument
// selects the operation sample behind trace_overhead_ratio. Its counts and
// window lengths are frozen, so --seconds does not apply to it.
func runTraced(spec workloadSpec, seed int64) (*runResult, error) {
	root, err := scratchRoot()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	m := generate(seed)
	p, err := prepare(root, m, 1, 1)
	if err != nil {
		return nil, err
	}
	e := p.e
	defer e.close()
	runtime.GC() // the loader's garbage is not the first rung's to collect
	rc := newRunCtx(e, m)
	l := &ladder{
		rc: rc, db: e.db.Core(), h: e.srv.Handler, tr: newTracer(),
		dur: map[string][]float64{}, out: map[string]measured{},
		checked: p.checked, wrong: p.wrong,
	}
	// Order matters: queries and the scan diagnostics need the loaded orders;
	// the new-order rungs change them.
	l.queryRungs()
	l.csrRungs()
	if err := l.blockRatios(); err != nil {
		return nil, err
	}
	if err := l.navLoad(); err != nil {
		return nil, err
	}
	l.pointRungs()
	if err := l.pointLoad(); err != nil {
		return nil, err
	}
	l.storeRungs()
	l.txnRungs()
	if err := l.walRung(root); err != nil {
		return nil, err
	}
	if err := l.txnLoad(); err != nil {
		return nil, err
	}
	l.microRungs()
	if err := l.shardRungs(root); err != nil {
		return nil, err
	}
	l.traceOverhead(spec)
	l.report(os.Stderr)
	if err := l.tr.flush(tracePath); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	res := &runResult{Workload: spec.name, Seed: seed, Attempted: l.checked, Failed: l.wrong, Metrics: l.out}
	res.Correct = res.Failed == 0
	return res, nil
}

// --- query classes: server -> core -> query ---

func (l *ladder) queryRungs() {
	plan0, rcache0 := l.db.PlanCacheStats(), l.db.ResultCacheStats()
	var serverSelf, coreSelf []float64
	queries, snapReads := 0, uint64(0)
	for class := opClass(0); class < nQueryClasses; class++ {
		name := class.String()
		n := ladderNavBindings
		if class >= clsQ2 {
			n = ladderScanBinding
		}
		path, run, parse := "/query", l.db.Query, query.ParseMMQL
		if class.isSQL() {
			path, run, parse = "/sql", l.db.SQL, query.ParseMSQL
		}
		// Allocations of one execution at the core rung, from a Mallocs delta.
		// This pass comes first so that it also warms the plan and decode
		// caches: otherwise the first rung timed would pay for the others.
		m0 := mallocs()
		for i := 0; i < n; i++ {
			run(queryText[class], l.rc.ps[class][i].vals) //nolint:errcheck — checked below
		}
		l.set("query.allocs."+name, float64(mallocs()-m0)/float64(n), "count", n)
		var rows, results, fullScans, csrTrav int
		for i := 0; i < n; i++ {
			l.tr.nextOp()
			qp := l.rc.ps[class][i]
			snap0 := l.db.EngineSnapshotReads()
			status, body, tServer := l.serve("server.query."+name, http.MethodPost, path, qp.body)
			var resp queryResponse
			l.expect(status == http.StatusOK && json.Unmarshal(body, &resp) == nil && l.rc.or.check(l.rc.ps, class, i, resp.Results))

			var res *query.Result
			var err error
			tCore := l.timed("core.query."+name, func() { res, err = run(queryText[class], qp.vals) })
			l.expect(err == nil && l.rc.or.check(l.rc.ps, class, i, res.Values))
			snapReads += l.db.EngineSnapshotReads() - snap0
			if err == nil {
				rows += res.Stats.RowsRead
				results += max(len(res.Values), 1)
				fullScans += res.Stats.FullScans
				csrTrav += res.Stats.CSRTraversals
			}

			var pipe *query.Pipeline
			l.timed("query.parse."+name, func() { pipe, err = parse(queryText[class]) })
			l.expect(err == nil)
			if err != nil {
				continue
			}
			var tExec float64
			id := l.tr.begin("core.update." + name)
			err = l.db.Update(func(tx engine.Tx) error {
				var qerr error
				tExec = l.timed("query.execute."+name, func() {
					res, qerr = query.Execute(tx, l.db.Sources(), pipe, query.Options{Params: qp.vals})
				})
				return qerr
			})
			l.tr.end(id)
			l.expect(err == nil && l.rc.or.check(l.rc.ps, class, i, res.Values))
			serverSelf = append(serverSelf, max(tServer-tCore, 0))
			coreSelf = append(coreSelf, max(tCore-tExec, 0))
			queries++
		}
		l.set("query.parse_us."+name, median(l.dur["query.parse."+name])/1e3, "us", n)
		l.set("query.exec_ms."+name, median(l.dur["query.execute."+name])/1e6, "ms", n)
		l.set("query.rows_read_per_result."+name, float64(rows)/float64(max(results, 1)), "ratio", n)
		l.set("query.full_scans."+name, float64(fullScans)/float64(n), "count", n)
		if class == clsTrav3 {
			l.set("query.csr_traversals.trav3", float64(csrTrav)/float64(n), "count", n)
		}
	}
	l.set("server.query_self_us", median(serverSelf)/1e3, "us", len(serverSelf))
	l.set("core.query_self_us", median(coreSelf)/1e3, "us", len(coreSelf))
	plan, rcache := l.db.PlanCacheStats(), l.db.ResultCacheStats()
	l.set("core.plan_cache_hit_ratio", ratio(float64(plan.Hits-plan0.Hits), float64(plan.Hits-plan0.Hits+plan.Misses-plan0.Misses)), "ratio", queries)
	l.set("core.result_cache_hit_ratio", ratio(float64(rcache.Hits-rcache0.Hits), float64(rcache.Hits-rcache0.Hits+rcache.Misses-rcache0.Misses)), "ratio", queries)
	// Of the server- and core-rung executions, all under defaults, the share
	// that ran on a lock-free snapshot.
	l.set("engine.snapshot_read_ratio", ratio(float64(snapReads), float64(2*queries)), "ratio", 2*queries)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// --- CSR: build, traverse and path on the snapshot image, against the oracle ---

func (l *ladder) csrRungs() {
	var g *csr.Graph
	err := l.db.SnapshotView(func(tx engine.Tx) error {
		var berr error
		l.timed("csr.build", func() { g, berr = csr.Build(tx, graphstore.CSRSpec("social")) })
		return berr
	})
	l.expect(err == nil)
	if err != nil {
		return
	}
	strs := func(keys []string) []mmvalue.Value {
		vs := make([]mmvalue.Value, len(keys))
		for i, k := range keys {
			vs[i] = mmvalue.String(k)
		}
		return vs
	}
	for i := 0; i < nParamSets; i++ {
		l.tr.nextOp()
		var keys []string
		start := custKey(l.rc.ps[clsTrav3][i].a)
		l.timed("csr.traverse_d3", func() { keys, err = g.Traverse(start, 1, 3, csr.Out, "knows", 1) })
		l.expect(err == nil && l.rc.or.check(l.rc.ps, clsTrav3, i, strs(keys)))
		sp := l.rc.ps[clsSPath][i]
		l.timed("csr.spath", func() { keys, err = g.ShortestPath(custKey(sp.a), custKey(sp.b), csr.Out, "") })
		l.expect(l.rc.or.checkSPath(sp.a, sp.b, []mmvalue.Value{mmvalue.ArrayOf(strs(keys))}))
	}
	l.set("csr.build_ms", median(l.dur["csr.build"])/1e6, "ms", 1)
	l.set("csr.traverse_d3_us", median(l.dur["csr.traverse_d3"])/1e3, "us", nParamSets)
	l.set("csr.spath_us", median(l.dur["csr.spath"])/1e3, "us", nParamSets)
	// Reuse: the same traversal query, asked to read a snapshot, 16 times.
	c0 := l.db.CSRStats()
	for i := 0; i < ladderNavBindings; i++ {
		res, err := l.db.QueryOpts(queryText[clsTrav3], l.rc.ps[clsTrav3][i].vals, query.Options{SnapshotReads: true})
		l.expect(err == nil && l.rc.or.check(l.rc.ps, clsTrav3, i, res.Values))
	}
	c1 := l.db.CSRStats()
	reuses := float64(c1.Reuses - c0.Reuses)
	l.set("csr.reuse_ratio", ratio(reuses, reuses+float64(c1.Builds-c0.Builds+c1.Rebuilds-c0.Rebuilds)), "ratio", ladderNavBindings)
}

// --- point operations: server -> core/engine txn -> store -> engine get -> decode ---

func (l *ladder) pointRungs() {
	s := newStream(cyclePointMix, l.rc.m, 0)
	sessVer, profVer := l.rc.sessVer[0], l.rc.profVer[0]
	counts := map[opClass]int{}
	want := map[opClass]int{clsKVGet: ladderPointReads, clsDocGet: ladderPointReads, clsKVPut: ladderPointWrites, clsDocPut: ladderPointWrites}
	var serverSelf []float64
	for done := 0; done < 2*ladderPointReads+2*ladderPointWrites; {
		o := s.next()
		if counts[o.class] >= want[o.class] {
			continue
		}
		counts[o.class]++
		done++
		l.tr.nextOp()
		var tServer, tCore float64
		switch o.class {
		case clsKVGet:
			key, wantBody := sessionKey(o.key), sessionJSON(o.key, sessVer[o.key])
			status, body, d := l.serve("server.kvget", http.MethodGet, "/kv/session/"+key, nil)
			l.expect(status == http.StatusOK && sameJSON(body, wantBody))
			tServer = d
			var v mmvalue.Value
			var raw []byte
			var err error
			tCore = l.timed("core.view.kvget", func() {
				err = l.db.View(func(tx engine.Tx) error {
					var gerr error
					l.timed("kvstore.get", func() { v, _, gerr = l.db.KV.Get(tx, "session", key) })
					return gerr
				})
			})
			l.expect(err == nil && v.String() == wantBody)
			err = l.db.View(func(tx engine.Tx) error {
				var gerr error
				l.timed("engine.get", func() { raw, _, gerr = tx.Get(kvstore.Keyspace("session"), []byte(key)) })
				return gerr
			})
			l.timed("binenc.decode.point", func() { v, err = binenc.Decode(raw) })
			l.expect(err == nil && v.String() == wantBody)
		case clsDocGet:
			key, wantBody := profileKey(o.key), profileJSON(o.key, profVer[o.key])
			status, body, d := l.serve("server.docget", http.MethodGet, "/collections/profiles/"+key, nil)
			l.expect(status == http.StatusOK && sameJSON(body, wantBody))
			tServer = d
			var v mmvalue.Value
			var err error
			tCore = l.timed("core.view.docget", func() {
				err = l.db.View(func(tx engine.Tx) error {
					var gerr error
					l.timed("docstore.get", func() { v, _, gerr = l.db.Docs.Get(tx, "profiles", key) })
					return gerr
				})
			})
			l.expect(err == nil && v.String() == wantBody)
		case clsKVPut:
			key := sessionKey(o.key)
			sessVer[o.key]++
			status, _, d := l.serve("server.kvput", http.MethodPut, "/kv/session/"+key, []byte(sessionJSON(o.key, sessVer[o.key])))
			l.expect(status == http.StatusOK)
			tServer = d
			sessVer[o.key]++
			val := mmvalue.MustParseJSON(sessionJSON(o.key, sessVer[o.key]))
			var err error
			tCore = l.timed("core.update.kvput", func() {
				err = l.db.Update(func(tx engine.Tx) error {
					var serr error
					l.timed("kvstore.set", func() { serr = l.db.KV.Set(tx, "session", key, val) })
					return serr
				})
			})
			l.expect(err == nil)
			// The engine rung of the same write: begin, put, commit.
			raw := binenc.Encode(val)
			l.timed("engine.put_commit", func() {
				err = l.db.Update(func(tx engine.Tx) error { return tx.Put(kvstore.Keyspace("session"), []byte(key), raw) })
			})
			l.expect(err == nil)
		case clsDocPut:
			key := profileKey(o.key)
			profVer[o.key]++
			status, _, d := l.serve("server.docput", http.MethodPut, "/collections/profiles/"+key, []byte(profileJSON(o.key, profVer[o.key])))
			l.expect(status == http.StatusOK)
			tServer = d
			profVer[o.key]++
			val := mmvalue.MustParseJSON(profileJSON(o.key, profVer[o.key]))
			var err error
			tCore = l.timed("core.update.docput", func() {
				err = l.db.Update(func(tx engine.Tx) error {
					var serr error
					l.timed("docstore.put", func() { serr = l.db.Docs.Put(tx, "profiles", key, val) })
					return serr
				})
			})
			l.expect(err == nil)
		}
		serverSelf = append(serverSelf, max(tServer-tCore, 0))
	}
	l.set("server.point_self_us", median(serverSelf)/1e3, "us", len(serverSelf))
	l.set("kvstore.get_us", median(l.dur["kvstore.get"])/1e3, "us", ladderPointReads)
	l.set("kvstore.set_us", median(l.dur["kvstore.set"])/1e3, "us", ladderPointWrites)
	l.set("docstore.get_us", median(l.dur["docstore.get"])/1e3, "us", ladderPointReads)
	l.set("docstore.put_us", median(l.dur["docstore.put"])/1e3, "us", ladderPointWrites)
	l.set("engine.get_us", median(l.dur["engine.get"])/1e3, "us", ladderPointReads)
	l.set("engine.put_commit_us", median(l.dur["engine.put_commit"])/1e3, "us", ladderPointWrites)

	// Empty transactions: what a point read pays before it reads anything.
	for i := 0; i < ladderPointReads; i++ {
		l.timed("engine.view", func() { l.db.View(func(engine.Tx) error { return nil }) })                  //nolint:errcheck — empty closure
		l.timed("engine.snapshot_view", func() { l.db.SnapshotView(func(engine.Tx) error { return nil }) }) //nolint:errcheck — empty closure
	}
	l.set("engine.view_us", median(l.dur["engine.view"])/1e3, "us", ladderPointReads)
	l.set("engine.snapshot_view_us", median(l.dur["engine.snapshot_view"])/1e3, "us", ladderPointReads)

	// Allocations of one point read at the server rung: requests and
	// recorders are built first so only the handler's allocations count.
	reqs := make([]*http.Request, ladderPointReads)
	recs := make([]*httptest.ResponseRecorder, ladderPointReads)
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodGet, "/kv/session/"+sessionKey(scatter(i, nSessions)), nil)
		recs[i] = httptest.NewRecorder()
	}
	m0 := mallocs()
	for i := range reqs {
		l.h.ServeHTTP(recs[i], reqs[i])
	}
	l.set("server.allocs_per_point_op", float64(mallocs()-m0)/ladderPointReads, "count", ladderPointReads)
}

// --- store calls the point and new-order rungs do not reach ---

func (l *ladder) storeRungs() {
	r, z := rand.New(rand.NewSource(l.rc.m.Seed)), l.rc.m.zipf(nCustomers)
	err := l.db.View(func(tx engine.Tx) error {
		for i := 0; i < 256; i++ {
			c := scatter(z.rank(r), nCustomers)
			var ts []rdfstore.Triple
			var ns []graphstore.Neighbor
			var err error
			l.timed("rdfstore.match", func() {
				ts, err = l.db.RDF.Match(tx, "feedback", rdfstore.Pattern{S: custTerm(c), P: "<rated>"})
			})
			l.expect(err == nil && len(ts) == len(l.rc.m.Rated[c]))
			l.timed("graphstore.neighbors", func() {
				ns, err = l.db.Graphs.Neighbors(tx, "social", custKey(c), graphstore.Outbound, "knows")
			})
			l.expect(err == nil && len(ns) == len(l.rc.m.Knows[c]))
		}
		for i := 0; i < 5; i++ {
			rows := 0
			d := l.timed("docstore.scan", func() {
				l.db.Docs.Scan(tx, "orders", func(string, mmvalue.Value) bool { rows++; return true }) //nolint:errcheck — row count checked
			})
			l.expect(rows == len(l.rc.m.Orders))
			l.dur["docstore.scan_per_row"] = append(l.dur["docstore.scan_per_row"], d/float64(max(rows, 1)))
			rows = 0
			d = l.timed("colstore.scan", func() {
				l.db.Cols.ScanJSON(tx, "events", func(mmvalue.Value) bool { rows++; return true }) //nolint:errcheck — row count checked
			})
			l.expect(rows == nEvents)
			l.dur["colstore.scan_per_row"] = append(l.dur["colstore.scan_per_row"], d/float64(max(rows, 1)))
			rows = 0
			d = l.timed("engine.scan", func() {
				tx.Scan(docstore.Keyspace("orders"), nil, nil, func(_, _ []byte) bool { rows++; return true }) //nolint:errcheck — row count checked
			})
			l.expect(rows == len(l.rc.m.Orders))
			l.dur["engine.scan_per_row"] = append(l.dur["engine.scan_per_row"], d/float64(max(rows, 1)))
		}
		return nil
	})
	l.expect(err == nil)
	// Column writes go to a table of their own, so colagg's answers hold.
	err = l.db.Update(func(tx engine.Tx) error { return l.db.CreateColTable(tx, "events_scratch") })
	l.expect(err == nil)
	for i := 0; i < ladderPointWrites; i++ {
		err := l.db.Update(func(tx engine.Tx) error {
			var perr error
			l.timed("colstore.put_item", func() {
				perr = l.db.Cols.PutItem(tx, "events_scratch", mmvalue.String("p0"), mmvalue.Int(int64(i)),
					mmvalue.Object(mmvalue.F("v", mmvalue.Int(int64(i))), mmvalue.F("pos", mmvalue.Int(int64(i%1000)))))
			})
			return perr
		})
		l.expect(err == nil)
	}
	l.set("rdfstore.match_us", median(l.dur["rdfstore.match"])/1e3, "us", 256)
	l.set("graphstore.neighbors_us", median(l.dur["graphstore.neighbors"])/1e3, "us", 256)
	l.set("docstore.scan_us_per_row", median(l.dur["docstore.scan_per_row"])/1e3, "us", 5)
	l.set("colstore.scan_us_per_row", median(l.dur["colstore.scan_per_row"])/1e3, "us", 5)
	l.set("engine.scan_us_per_row", median(l.dur["engine.scan_per_row"])/1e3, "us", 5)
	l.set("colstore.put_item_us", median(l.dur["colstore.put_item"])/1e3, "us", ladderPointWrites)
}

// --- new-order: core.Update with the four store calls as child spans ---

func (l *ladder) txnRungs() {
	s := newStream(cycleNewOrder, l.rc.m, 0)
	var committed []committedOrder
	first := len(l.tr.spans)
	var updates []int
	for n := 0; n < ladderTxns; {
		o := s.next()
		if o.class != clsNewOrder {
			continue
		}
		l.tr.nextOp()
		key := "l-" + strconv.Itoa(n)
		n++
		calls := 0
		id := l.tr.begin("core.update.neworder")
		err := newOrder(l.db, key, o.key, o.param, int64(o.aux), &calls, l.tr)
		l.tr.end(id)
		updates = append(updates, id)
		l.expect(err == nil)
		if err == nil {
			committed = append(committed, committedOrder{key: key, cust: o.key, prod: o.param, price: int64(o.aux)})
		}
	}
	l.rc.committed = append(l.rc.committed, &committed)
	self := selfTimes(l.tr.spans[first:])
	var commitSelf []float64
	for _, id := range updates {
		commitSelf = append(commitSelf, float64(self[id]))
	}
	// Child spans of the Update span; kept apart from the point rungs' spans
	// of the same name.
	for _, sp := range l.tr.spans[first:] {
		if sp.Parent != 0 {
			l.dur["neworder/"+sp.Name] = append(l.dur["neworder/"+sp.Name], float64(sp.End-sp.Start))
		} else {
			l.dur[sp.Name] = append(l.dur[sp.Name], float64(sp.End-sp.Start))
		}
	}
	l.dur["neworder/commit"] = commitSelf
	l.set("engine.txn_commit_us", median(commitSelf)/1e3, "us", len(commitSelf))
	l.set("docstore.insert_us", median(l.dur["neworder/docstore.insert"])/1e3, "us", ladderTxns)
	l.set("relstore.get_us", median(l.dur["neworder/relstore.get"])/1e3, "us", ladderTxns)
	l.set("relstore.update_us", median(l.dur["neworder/relstore.update"])/1e3, "us", ladderTxns)
	l.set("rdfstore.insert_us", median(l.dur["neworder/rdfstore.insert"])/1e3, "us", ladderTxns)
}

// --- WAL: the batch a new-order commit logged, appended to a scratch log ---

func (l *ladder) walRung(root string) error {
	recs, err := wal.ReadAll(wal.LogPath(l.rc.e.dir))
	if err != nil {
		return fmt.Errorf("read wal: %w", err)
	}
	// The last committed transaction is txnRungs' last new-order.
	var batch []wal.Record
	for i := len(recs) - 1; i >= 0 && batch == nil; i-- {
		if recs[i].Op == wal.OpCommit {
			for _, r := range recs {
				if r.Txn == recs[i].Txn {
					batch = append(batch, r)
				}
			}
		}
	}
	if len(batch) < 2 {
		return fmt.Errorf("no committed batch in the log")
	}
	user := 0
	for _, r := range batch {
		user += len(r.Key) + len(r.Value)
	}
	path := filepath.Join(root, "scratch-wal.log")
	log, err := wal.OpenOptions(path, wal.Options{})
	if err != nil {
		return err
	}
	for i := 0; i < ladderTxns; i++ {
		l.timed("wal.append_batch", func() { _, err = log.AppendBatch(batch) })
		if err != nil {
			log.Close()
			return fmt.Errorf("append batch: %w", err)
		}
	}
	st := log.Stats()
	if err := log.Close(); err != nil {
		return err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	perTxn := float64(fi.Size()) / ladderTxns
	l.set("wal.append_batch_us", median(l.dur["wal.append_batch"])/1e3, "us", ladderTxns)
	l.set("wal.records_per_batch", float64(len(batch)), "count", 1)
	l.set("wal.bytes_per_txn", perTxn, "bytes", ladderTxns)
	l.set("wal.bytes_per_user_byte", perTxn/float64(user), "ratio", ladderTxns)
	l.set("wal.fsyncs_per_commit", float64(st.Fsyncs)/ladderTxns, "count", ladderTxns)
	return os.Remove(path)
}

// --- btree, binenc, keyenc: batch spans over the session keys and an order ---

func (l *ladder) microRungs() {
	keys := make([][]byte, nSessions)
	vals := make([][]byte, nSessions)
	t := btree.New()
	for i := range keys {
		keys[i] = []byte(sessionKey(i))
		vals[i] = binenc.Encode(mmvalue.MustParseJSON(sessionJSON(i, 0)))
		t.Put(keys[i], vals[i])
	}
	pick := func(i int) int { return scatter(i, nSessions) }
	batch := func(name string, n int, fn func(i int)) (nsPerOp, allocsPerOp float64) {
		m0 := mallocs()
		id := l.tr.begin(name)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		d := time.Since(t0)
		l.tr.endN(id, n)
		return float64(d) / float64(n), float64(mallocs()-m0) / float64(n)
	}
	hits := 0
	ns, _ := batch("btree.get", ladderMicroN, func(i int) {
		if _, ok := t.Get(keys[pick(i)]); ok {
			hits++
		}
	})
	l.expect(hits == ladderMicroN)
	l.set("btree.get_ns", ns, "ns", ladderMicroN)
	ns, _ = batch("btree.put", ladderMicroN, func(i int) { t.Put(keys[pick(i)], vals[pick(i)]) })
	l.set("btree.put_ns", ns, "ns", ladderMicroN)
	// A put while a snapshot is held must copy the path it touches.
	var snaps *btree.Tree
	ns, _ = batch("btree.cow_put", ladderMicroN, func(i int) {
		snaps = t.Snapshot()
		t.Put(keys[pick(i)], vals[pick(i)])
	})
	l.expect(snaps.Len() == nSessions)
	l.set("btree.cow_put_ns", ns, "ns", ladderMicroN)
	rows := 0
	ns, _ = batch("btree.scan", 1, func(int) { t.Scan(nil, nil, func(_, _ []byte) bool { rows++; return true }) })
	l.expect(rows == nSessions)
	l.set("btree.scan_ns_per_row", ns/float64(max(rows, 1)), "ns", rows)

	doc := l.rc.m.Orders[0].value(0)
	raw := binenc.Encode(doc)
	var sink []byte
	ns, al := batch("binenc.encode", ladderMicroN, func(int) { sink = binenc.Encode(doc) })
	l.expect(bytes.Equal(sink, raw))
	l.set("binenc.encode_ns", ns, "ns", ladderMicroN)
	l.set("binenc.encode_allocs", al, "count", ladderMicroN)
	var back mmvalue.Value
	var err error
	ns, al = batch("binenc.decode", ladderMicroN, func(int) { back, err = binenc.Decode(raw) })
	l.expect(err == nil && mmvalue.Equal(back, doc))
	l.set("binenc.decode_ns", ns, "ns", ladderMicroN)
	l.set("binenc.decode_allocs", al, "count", ladderMicroN)
	kv := []mmvalue.Value{mmvalue.Int(1234), mmvalue.String(l.rc.m.Orders[0].Key)}
	ns, al = batch("keyenc.encode", ladderMicroN, func(int) { sink = keyenc.Encode(kv...) })
	l.set("keyenc.encode_ns", ns, "ns", ladderMicroN)
	l.set("keyenc.encode_allocs", al, "count", ladderMicroN)
	var parts []mmvalue.Value
	ns, al = batch("keyenc.decode", ladderMicroN, func(int) { parts, err = keyenc.Decode(sink) })
	l.expect(err == nil && len(parts) == 2 && mmvalue.Equal(parts[1], kv[1]))
	l.set("keyenc.decode_ns", ns, "ns", ladderMicroN)
	l.set("keyenc.decode_allocs", al, "count", ladderMicroN)
}

// --- shards: the same scan and the same commit on 4 shards and on 1 ---

func (l *ladder) shardRungs(root string) error {
	var scan, commit [2]float64
	for i, shards := range []int{1, 4} {
		dir, err := os.MkdirTemp(root, "shard-")
		if err != nil {
			return err
		}
		db, err := unidb.Open(unidb.Options{Dir: dir, Durability: unidb.Buffered, Shards: shards})
		if err != nil {
			return fmt.Errorf("open %d shards: %w", shards, err)
		}
		if err := l.rc.m.loadCore(db); err != nil {
			db.Close()
			return fmt.Errorf("load %d shards: %w", shards, err)
		}
		tag := strconv.Itoa(shards)
		for k := 0; k < 5; k++ {
			rows := 0
			err := db.Core().View(func(tx engine.Tx) error {
				l.timed("shard.scan."+tag, func() {
					db.Core().Docs.Scan(tx, "orders", func(string, mmvalue.Value) bool { rows++; return true }) //nolint:errcheck — row count checked
				})
				return nil
			})
			l.expect(err == nil && rows == len(l.rc.m.Orders))
		}
		s := newStream(cycleNewOrder, l.rc.m, 0)
		for n := 0; n < ladderPointWrites; {
			o := s.next()
			if o.class != clsNewOrder {
				continue
			}
			n++
			calls := 0
			var err error
			l.timed("shard.commit."+tag, func() {
				err = newOrder(db.Core(), "s-"+strconv.Itoa(n), o.key, o.param, int64(o.aux), &calls, nil)
			})
			l.expect(err == nil)
		}
		scan[i], commit[i] = median(l.dur["shard.scan."+tag]), median(l.dur["shard.commit."+tag])
		if err := db.Close(); err != nil {
			return err
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	l.set("shard.scan_ratio_4v1", ratio(scan[1], scan[0]), "ratio", 5)
	l.set("shard.commit_ratio_4v1", ratio(commit[1], commit[0]), "ratio", ladderPointWrites)
	return nil
}

// --- concurrent windows: numbers that only exist under load ---

// window runs workers for a short measured window and verifies what their
// acknowledged writes left behind.
func (l *ladder) window(ws []*worker, length time.Duration) (*window, error) {
	win, err := measure(l.rc.e, ws, diagWarmup, length)
	for _, w := range ws {
		w.close()
		c, x := w.verify(l.rc.e.db)
		l.checked, l.wrong = l.checked+c, l.wrong+x
	}
	if err != nil {
		return nil, err
	}
	l.checked += win.attempted
	l.wrong += win.failed
	return win, nil
}

// allLatencies merges the window's read and write latencies, sorted.
func (w *window) allLatencies() []float64 {
	all := append(append([]float64(nil), w.read...), w.write...)
	sort.Float64s(all)
	return all
}

// pct is percentile for diagnostics: 0 where the samples do not support it.
func pct(xs []float64, q float64) float64 {
	v, err := percentile(xs, q)
	if err != nil {
		return 0
	}
	return v
}

// blockRatios runs scan_under_write's reader and writer apart and together.
func (l *ladder) blockRatios() error {
	reader := func() *worker { return l.rc.httpWorker(cycleScan, 0, true, 0) }
	writer := func() *worker { return l.rc.httpWorker(cycleWriter, 1, false, writerPacePerSec) }
	alone, err := l.window([]*worker{reader()}, 3*time.Second)
	if err != nil {
		return err
	}
	walone, err := l.window([]*worker{writer()}, 3*time.Second)
	if err != nil {
		return err
	}
	both, err := l.window([]*worker{reader(), writer()}, 4*time.Second)
	if err != nil {
		return err
	}
	l.set("engine.reader_block_ratio", ratio(median(both.read), median(alone.read)), "ratio", len(both.read))
	l.set("engine.writer_block_ratio", ratio(pct(both.write, 0.95), pct(walone.write, 0.95)), "ratio", len(both.write))
	l.set("scan_under_write.write_p90_ms", pct(both.write, 0.90), "ms", len(both.write))
	return nil
}

// navLoad runs xmodel_nav closed-loop for the tail of its cart writes, which
// wait behind the other client's queries.
func (l *ladder) navLoad() error {
	ws := make([]*worker, nClients)
	for c := range ws {
		ws[c] = l.rc.httpWorker(cycleXModelNav, c, true, 0)
	}
	win, err := l.window(ws, 4*time.Second)
	if err != nil {
		return err
	}
	l.set("xmodel_nav.write_p90_ms", pct(win.write, 0.90), "ms", len(win.write))
	return nil
}

// pointLoad runs point_mix closed-loop for its p99 and the HTTP stack's cost,
// then open-loop at one frozen rate.
func (l *ladder) pointLoad() error {
	closed := make([]*worker, nClients)
	open := make([]*worker, nClients)
	for c := range closed {
		closed[c] = l.rc.httpWorker(cyclePointMix, c, true, 0)
		open[c] = l.rc.httpWorker(cyclePointMix, c, true, openLoopPerSec/nClients)
	}
	win, err := l.window(closed, 2*time.Second)
	if err != nil {
		return err
	}
	all := win.allLatencies()
	l.set("point_mix.p99_ms", pct(all, 0.99), "ms", len(all))
	l.set("point_mix.write_p90_ms", pct(win.write, 0.90), "ms", len(win.write))
	handler := median(append(append([]float64(nil), l.dur["server.kvget"]...), l.dur["server.docget"]...)) / 1e3
	l.set("server.http_stack_us", median(win.read)*1e3-handler, "us", len(win.read))

	win, err = l.window(open, openLoopPhase)
	if err != nil {
		return err
	}
	all = win.allLatencies()
	l.set("server.open_p99_ms", pct(all, 0.99), "ms", len(all))
	l.set("server.open_lag_p99_ms", pct(win.lateness, 0.99), "ms", len(win.lateness))
	// Backlog growth: how much later the generator ran at the end of the
	// phase than at its start, per second of phase. About zero when the
	// server keeps up with the rate.
	var growth float64
	for _, w := range open {
		if n := len(w.lateness) / 10; n > 0 {
			head, tail := make([]float64, n), make([]float64, n)
			for i := 0; i < n; i++ {
				head[i], tail[i] = float64(w.lateness[i]), float64(w.lateness[len(w.lateness)-n+i])
			}
			growth += (median(tail) - median(head)) / 1e6 / (diagWarmup + openLoopPhase).Seconds() / nClients
		}
	}
	l.set("server.open_backlog_growth", growth, "ms/s", len(win.lateness))
	return nil
}

// txnLoad runs neworder_txn closed-loop for its p99, then a deliberately
// contended probe: two workers whose every transaction allocates a new RDF
// dictionary term, so both read then write one counter key — the
// read-then-upgrade collision behind ROADMAP open item 0.
func (l *ladder) txnLoad() error {
	ws := make([]*worker, nClients)
	for c := range ws {
		ws[c] = l.rc.txnWorker(c)
	}
	win, err := l.window(ws, 2*time.Second)
	if err != nil {
		return err
	}
	c, x := l.rc.verifyNewOrders(l.rc.e.db)
	l.checked, l.wrong = l.checked+c, l.wrong+x
	all := win.allLatencies()
	l.set("neworder_txn.p99_ms", pct(all, 0.99), "ms", len(all))
	l.set("neworder_txn.write_p90_ms", pct(win.write, 0.90), "ms", len(win.write))

	type probe struct{ calls, commits, fails int }
	probes := make([]probe, nClients)
	for c := range ws {
		p := &probes[c]
		n := 0
		ws[c] = &worker{close: func() {}, verify: func(*unidb.Database) (int, int) { return 0, 0 }}
		ws[c].step = func() (time.Time, opClass, bool) {
			start := time.Now()
			n++
			t := rdfstore.Triple{S: "<probe-" + strconv.Itoa(c) + "-" + strconv.Itoa(n) + ">", P: "<rated>", O: prodTerm(0)}
			err := l.db.Update(func(tx engine.Tx) error {
				p.calls++
				return l.db.RDF.Insert(tx, "feedback", t)
			})
			if err != nil {
				p.fails++
				return start, clsNewOrder, true // counted below, not as a wrong answer
			}
			p.commits++
			return start, clsNewOrder, true
		}
	}
	if _, err := measure(l.rc.e, ws, 0, 1500*time.Millisecond); err != nil {
		return err
	}
	var calls, commits, fails int
	for _, p := range probes {
		calls, commits, fails = calls+p.calls, commits+p.commits, fails+p.fails
	}
	// A failed Update made up to eight calls; only calls beyond one per
	// attempt are retries.
	l.set("engine.txn_retries_per_commit", ratio(float64(calls-commits-fails), float64(commits)), "ratio", commits)
	l.set("engine.txn_fail_ratio", ratio(float64(fails), float64(commits+fails)), "ratio", commits+fails)
	return nil
}

// traceOverhead replays the chosen workload's operation sample at its top
// rung with spans on and with spans off.
func (l *ladder) traceOverhead(spec workloadSpec) {
	replay := func(tr *tracer) time.Duration {
		l.replays++
		saved := l.tr
		l.tr = tr
		defer func() { l.tr = saved }()
		t0 := time.Now()
		switch spec.name {
		case "point_mix":
			s := newStream(cyclePointMix, l.rc.m, 1)
			for i := 0; i < 2*ladderPointReads; i++ {
				if o := s.next(); o.class == clsKVGet {
					l.serve("server.kvget", http.MethodGet, "/kv/session/"+sessionKey(o.key), nil)
				} else if o.class == clsDocGet {
					l.serve("server.docget", http.MethodGet, "/collections/profiles/"+profileKey(o.key), nil)
				}
			}
		case "neworder_txn":
			s := newStream(cycleNewOrder, l.rc.m, 1)
			for i := 0; i < ladderTxns; i++ {
				o := s.next()
				if o.class != clsNewOrder {
					continue
				}
				calls := 0
				id := l.tr.begin("core.update.neworder")
				newOrder(l.db, "t"+strconv.Itoa(l.replays)+"-"+strconv.Itoa(i), o.key, o.param, int64(o.aux), &calls, l.tr) //nolint:errcheck — timing only
				l.tr.end(id)
			}
		default:
			cycle, n := cycleXModelNav, 4*ladderNavBindings
			if spec.name == "scan_under_write" {
				cycle, n = cycleScan, 2*len(cycleScan)
			}
			s := newStream(cycle, l.rc.m, 1)
			for i := 0; i < n; i++ {
				o := s.next()
				if o.class >= nQueryClasses {
					continue
				}
				path := "/query"
				if o.class.isSQL() {
					path = "/sql"
				}
				l.serve("server.query."+o.class.String(), http.MethodPost, path, l.rc.ps[o.class][o.param].body)
			}
		}
		return time.Since(t0)
	}
	replay(nil) // warm
	off := replay(nil)
	on := replay(l.tr)
	l.set("trace_overhead_ratio", float64(on-off)/float64(off), "ratio", 1)
}

// report prints, for each operation class, the top rung's median and every
// layer's self time (rung minus the rung below) as a share of it. The shares
// are differences of medians of a few dozen calls: a share within the noise of
// the rungs around it can read 0, and the sum need not be exactly 100 %.
func (l *ladder) report(w io.Writer) {
	type part struct {
		layer string
		ns    float64
	}
	d := func(name string) float64 { return median(l.dur[name]) }
	row := func(class string, top float64, parts ...part) {
		fmt.Fprintf(w, "ladder %-9s top %9.1fus |", class, top/1e3)
		sum := 0.0
		for _, p := range parts {
			p.ns = max(p.ns, 0)
			fmt.Fprintf(w, " %s %.0f%%", p.layer, 100*p.ns/top)
			sum += p.ns
		}
		fmt.Fprintf(w, " | sum %.0f%%\n", 100*sum/top)
	}
	btreeGet := l.out["btree.get_ns"].Value
	row("kvget", d("server.kvget"),
		part{"server", d("server.kvget") - d("core.view.kvget")},
		part{"engine-txn", d("core.view.kvget") - d("kvstore.get")},
		part{"kvstore", d("kvstore.get") - d("engine.get") - d("binenc.decode.point")},
		part{"engine.get", d("engine.get") - btreeGet},
		part{"btree", btreeGet},
		part{"binenc", d("binenc.decode.point")})
	row("docget", d("server.docget"),
		part{"server", d("server.docget") - d("core.view.docget")},
		part{"engine-txn", d("core.view.docget") - d("docstore.get")},
		part{"docstore+below", d("docstore.get")})
	row("kvput", d("server.kvput"),
		part{"server", d("server.kvput") - d("core.update.kvput")},
		part{"engine-txn+wal", d("core.update.kvput") - d("kvstore.set")},
		part{"kvstore+below", d("kvstore.set")})
	row("docput", d("server.docput"),
		part{"server", d("server.docput") - d("core.update.docput")},
		part{"engine-txn+wal", d("core.update.docput") - d("docstore.put")},
		part{"docstore+below", d("docstore.put")})
	for class := opClass(0); class < nQueryClasses; class++ {
		n := class.String()
		row(n, d("server.query."+n),
			part{"server", d("server.query."+n) - d("core.query."+n)},
			part{"core", d("core.query."+n) - d("query.execute."+n)},
			part{"query+stores", d("query.execute." + n)})
	}
	row("neworder", d("core.update.neworder"),
		part{"engine-txn+wal", d("neworder/commit")},
		part{"docstore", d("neworder/docstore.insert")},
		part{"kvstore", d("neworder/kvstore.set")},
		part{"relstore", d("neworder/relstore.get") + d("neworder/relstore.update")},
		part{"rdfstore", d("neworder/rdfstore.insert")})
}
