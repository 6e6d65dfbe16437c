package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/mmvalue"
	"repro/internal/rdfstore"
	"repro/unidb"
)

// workloadSpec is one workload: what it is called, why it exists, and the
// workers that generate its load.
type workloadSpec struct {
	name string
	why  string
	// workers builds the load generators over a set-up environment. Workers
	// marked primary are the closed loop whose operations ops_per_s,
	// cpu_ms_per_op and allocs_per_op are counted in.
	workers func(rc *runCtx) []*worker
}

var workloads = []workloadSpec{
	{
		name: "point_mix",
		why:  "UniBench A over REST, 90/10 point reads/writes on cache-exceeding keyspaces: server, engine, btree, binenc, wal do the work and query does none",
		workers: func(rc *runCtx) []*worker {
			ws := make([]*worker, nClients)
			for c := range ws {
				ws[c] = rc.httpWorker(cyclePointMix, c, true, 0)
			}
			return ws
		},
	},
	{
		name: "xmodel_nav",
		why:  "navigational cross-model queries (q1, q1sql, q5, trav3) with 1 cart write in 9 ops: plan cache, query operators and store point access dominate; no scans",
		workers: func(rc *runCtx) []*worker {
			ws := make([]*worker, nClients)
			for c := range ws {
				ws[c] = rc.httpWorker(cycleXModelNav, c, true, 0)
			}
			return ws
		},
	},
	{
		name: "scan_under_write",
		why:  "one reader looping scan queries (q2, q3, q4, colagg, spath) beside one open-loop writer at 100 order PUTs/s: readers and writers share the keyspace locks",
		workers: func(rc *runCtx) []*worker {
			return []*worker{
				rc.httpWorker(cycleScan, 0, true, 0),
				rc.httpWorker(cycleWriter, 1, false, writerPacePerSec),
			}
		},
	},
	{
		name: "neworder_txn",
		why:  "UniBench C through the embedded API: 4-model new-order transactions (4 in 5) and read-only order-status (1 in 5), 2 workers, Zipfian customers: 2PL, WAL and four stores' write paths",
		workers: func(rc *runCtx) []*worker {
			ws := make([]*worker, nClients)
			for c := range ws {
				ws[c] = rc.txnWorker(c)
			}
			return ws
		},
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// runCtx is what a workload's workers share: the environment, the model, the
// bindings and the oracle.
type runCtx struct {
	e  *env
	m  *model
	ps *paramSets
	or *oracle
	// committed points at each txn worker's list of acknowledged new orders.
	committed []*[]committedOrder
	// sessVer[c] and profVer[c] hold the version client c last wrote to each
	// key it owns, and orderRev the revision the one writer last PUT (absent:
	// the loaded version 0). They outlive a worker so that successive windows
	// of one traced run agree on what the database holds; only one goroutine
	// uses a client's maps at a time.
	sessVer, profVer [nClients]map[int]int
	orderRev         map[int]int
}

func newRunCtx(e *env, m *model) *runCtx {
	ps := makeParams(m)
	rc := &runCtx{e: e, m: m, ps: ps, or: newOracle(m, ps), orderRev: map[int]int{}}
	for c := 0; c < nClients; c++ {
		rc.sessVer[c], rc.profVer[c] = map[int]int{}, map[int]int{}
	}
	return rc
}

// sample is one completed operation. done is nanoseconds since the run began.
type sample struct {
	done  int64
	lat   int64
	class opClass
	ok    bool
}

// worker is one load-generating goroutine and what it learned.
type worker struct {
	primary bool
	// step performs one operation and reports when its clock started (the
	// due time for a paced worker), its class and whether it succeeded.
	step    func() (start time.Time, class opClass, ok bool)
	samples []sample
	// verify checks, after the run, the state this worker's acknowledged
	// writes must have left behind.
	verify func(db *unidb.Database) (checked, wrong int)
	// lateness is how late a paced worker sent each request (ns).
	lateness []int64
	pace     *pacer // a paced worker's schedule; begins anew with each run
	close    func()
}

// run generates load until stop is set. Samples and the pacing schedule
// start afresh, so a worker can run a warm-up phase and then a measured one.
func (w *worker) run(t0 time.Time, stop *atomic.Bool) {
	w.samples, w.lateness, w.pace = w.samples[:0], w.lateness[:0], nil
	for !stop.Load() {
		start, class, ok := w.step()
		now := time.Now()
		w.samples = append(w.samples, sample{done: int64(now.Sub(t0)), lat: int64(now.Sub(start)), class: class, ok: ok})
	}
}

type queryResponse struct {
	Results []mmvalue.Value `json:"results"`
}

// httpWorker drives the server over one keep-alive connection. perSecond > 0
// makes it open-loop at that rate; otherwise it is a closed loop.
func (rc *runCtx) httpWorker(cycle []opClass, client int, primary bool, perSecond float64) *worker {
	s := newStream(cycle, rc.m, client)
	c := newHTTPClient(rc.e.base)
	sessVer, profVer, orderRev := rc.sessVer[client], rc.profVer[client], rc.orderRev
	w := &worker{primary: primary, samples: make([]sample, 0, 1<<16), close: c.close}
	exec := func(o op) bool {
		switch o.class {
		case clsKVGet:
			status, body, err := c.do(http.MethodGet, "/kv/session/"+sessionKey(o.key), nil)
			return err == nil && status == http.StatusOK && sameJSON(body, sessionJSON(o.key, sessVer[o.key]))
		case clsDocGet:
			status, body, err := c.do(http.MethodGet, "/collections/profiles/"+profileKey(o.key), nil)
			return err == nil && status == http.StatusOK && sameJSON(body, profileJSON(o.key, profVer[o.key]))
		case clsKVPut:
			status, _, err := c.do(http.MethodPut, "/kv/session/"+sessionKey(o.key), []byte(sessionJSON(o.key, sessVer[o.key]+1)))
			if err != nil || status != http.StatusOK {
				return false
			}
			sessVer[o.key]++
			return true
		case clsDocPut:
			status, _, err := c.do(http.MethodPut, "/collections/profiles/"+profileKey(o.key), []byte(profileJSON(o.key, profVer[o.key]+1)))
			if err != nil || status != http.StatusOK {
				return false
			}
			profVer[o.key]++
			return true
		case clsCartPut:
			// The cart is re-PUT with the value it already has: the write
			// path runs in full and every golden answer stays valid.
			status, _, err := c.do(http.MethodPut, "/kv/cart/"+custKey(o.key), []byte(strconv.Quote(rc.m.Orders[rc.m.Cart[o.key]].Key)))
			return err == nil && status == http.StatusOK
		case clsOrderPut:
			ord := rc.m.Orders[o.key]
			status, _, err := c.do(http.MethodPut, "/collections/orders/"+ord.Key, []byte(ord.value(orderRev[o.key]+1).String()))
			if err != nil || status != http.StatusOK {
				return false
			}
			orderRev[o.key]++
			return true
		}
		path := "/query"
		if o.class.isSQL() {
			path = "/sql"
		}
		status, body, err := c.do(http.MethodPost, path, rc.ps[o.class][o.param].body)
		if err != nil || status != http.StatusOK {
			return false
		}
		var resp queryResponse
		if json.Unmarshal(body, &resp) != nil {
			return false
		}
		return rc.or.check(rc.ps, o.class, o.param, resp.Results)
	}
	w.step = func() (time.Time, opClass, bool) {
		o := s.next()
		start := time.Now()
		if perSecond > 0 {
			if w.pace == nil {
				w.pace = newPacer(start, perSecond)
			}
			var late time.Duration
			start, late = w.pace.next()
			w.lateness = append(w.lateness, int64(late))
		}
		return start, o.class, exec(o)
	}
	w.verify = func(db *unidb.Database) (checked, wrong int) {
		err := db.SnapshotView(func(tx *unidb.Txn) error {
			for k, ver := range sessVer {
				v, ok, err := tx.KVGet("session", sessionKey(k))
				checked++
				if err != nil || !ok || v.String() != sessionJSON(k, ver) {
					wrong++
				}
			}
			for k, ver := range profVer {
				v, ok, err := tx.GetDocument("profiles", profileKey(k))
				checked++
				if err != nil || !ok || v.String() != profileJSON(k, ver) {
					wrong++
				}
			}
			for k, rev := range orderRev {
				v, ok, err := tx.GetDocument("orders", rc.m.Orders[k].Key)
				checked++
				if err != nil || !ok || !mmvalue.Equal(v, rc.m.Orders[k].value(rev)) {
					wrong++
				}
			}
			return nil
		})
		if err != nil {
			wrong++
		}
		return checked + 1, wrong
	}
	return w
}

// committedOrder is one acknowledged new-order transaction.
type committedOrder struct {
	key        string
	cust, prod int
	price      int64
}

// newOrder runs the UniBench C transaction: insert the order document, point
// the customer's cart at it, read then lower the customer's credit, record a
// feedback triple — four models, one commit. The public unidb.Txn has no row
// update, so the transaction enters one call below Database.Update, at
// core.DB.Update with the stores Database wraps. calls counts closure
// invocations (deadlock retries re-run the closure). tr may be nil.
func newOrder(db *core.DB, key string, cust, prod int, price int64, calls *int, tr *tracer) error {
	doc := mmvalue.Object(
		mmvalue.F("_key", mmvalue.String(key)),
		mmvalue.F("Order_no", mmvalue.String(key)),
		mmvalue.F("customer_id", mmvalue.Int(int64(cust))),
		mmvalue.F("total", mmvalue.Int(price)),
		mmvalue.F("rev", mmvalue.Int(0)),
		mmvalue.F("Orderlines", mmvalue.Array(mmvalue.Object(
			mmvalue.F("Product_no", mmvalue.String(prodKey(prod))),
			mmvalue.F("Price", mmvalue.Int(price)),
			mmvalue.F("Qty", mmvalue.Int(1)),
		))),
	)
	pk := mmvalue.Int(int64(cust))
	return db.Update(func(tx engine.Tx) error {
		*calls++
		sp := tr.begin("docstore.insert")
		_, err := db.Docs.Insert(tx, "orders", doc)
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.begin("kvstore.set")
		err = db.KV.Set(tx, "cart", custKey(cust), mmvalue.String(key))
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.begin("relstore.get")
		row, ok, err := db.Rels.Get(tx, "customers", pk)
		tr.end(sp)
		if err != nil || !ok {
			return fmt.Errorf("customer %d: found %v: %w", cust, ok, err)
		}
		sp = tr.begin("relstore.update")
		err = db.Rels.Update(tx, "customers",
			mmvalue.Object(mmvalue.F("credit_limit", mmvalue.Int(row.GetOr("credit_limit").AsInt()-price))), pk)
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.begin("rdfstore.insert")
		err = db.RDF.Insert(tx, "feedback", rdfstore.Triple{S: custTerm(cust), P: "<rated>", O: prodTerm(prod)})
		tr.end(sp)
		return err
	})
}

// orderStatus is the read-only transaction beside newOrder: the customer's
// cart, row and the order the cart points at, under one View. It reads in the
// order newOrder writes (cart first), so the two cannot deadlock. It succeeds
// only if the three are mutually consistent.
func orderStatus(db *core.DB, cust int) bool {
	ok := false
	err := db.View(func(tx engine.Tx) error {
		cart, found, err := db.KV.Get(tx, "cart", custKey(cust))
		if err != nil || !found {
			return err
		}
		row, found, err := db.Rels.Get(tx, "customers", mmvalue.Int(int64(cust)))
		if err != nil || !found {
			return err
		}
		doc, found, err := db.Docs.Get(tx, "orders", cart.AsString())
		if err != nil || !found {
			return err
		}
		ok = row.GetOr("id").AsInt() == int64(cust) && doc.GetOr("customer_id").AsInt() == int64(cust)
		return nil
	})
	return ok && err == nil
}

// txnWorker runs neworder_txn's closed loop through the embedded API.
func (rc *runCtx) txnWorker(client int) *worker {
	s := newStream(cycleNewOrder, rc.m, client)
	db := rc.e.db.Core()
	var committed []committedOrder
	w := &worker{primary: true, samples: make([]sample, 0, 1<<19), close: func() {}}
	n := 0
	w.step = func() (time.Time, opClass, bool) {
		o := s.next()
		start := time.Now()
		if o.class == clsOrderStatus {
			return start, o.class, orderStatus(db, o.key)
		}
		key := "n" + strconv.Itoa(client) + "-" + strconv.Itoa(n)
		n++
		calls := 0
		if err := newOrder(db, key, o.key, o.param, int64(o.aux), &calls, nil); err != nil {
			return start, o.class, false
		}
		committed = append(committed, committedOrder{key: key, cust: o.key, prod: o.param, price: int64(o.aux)})
		return start, o.class, true
	}
	// The per-worker half of the end-state check; credits and carts span
	// both workers and are checked by verifyNewOrders.
	w.verify = func(db *unidb.Database) (checked, wrong int) {
		return verifyOrders(db, committed)
	}
	rc.committed = append(rc.committed, &committed)
	return w
}

// verifyOrders checks that every acknowledged order document is present and
// says what was committed.
func verifyOrders(db *unidb.Database, committed []committedOrder) (checked, wrong int) {
	err := db.SnapshotView(func(tx *unidb.Txn) error {
		for _, co := range committed {
			doc, ok, err := tx.GetDocument("orders", co.key)
			checked++
			if err != nil || !ok || doc.GetOr("customer_id").AsInt() != int64(co.cust) || doc.GetOr("total").AsInt() != co.price {
				wrong++
			}
		}
		return nil
	})
	if err != nil {
		wrong++
	}
	return checked + 1, wrong
}

// verifyNewOrders checks the cross-worker end state of neworder_txn: every
// customer's credit fell by exactly the sum of their committed order totals,
// their cart names their last committed order by one of the workers, and
// every committed rating is a triple.
func (rc *runCtx) verifyNewOrders(db *unidb.Database) (checked, wrong int) {
	spent := make([]int64, nCustomers)
	last := make([][]string, nCustomers)
	rated := make([]map[int]bool, nCustomers)
	for _, list := range rc.committed {
		seen := map[int]bool{}
		for i := len(*list) - 1; i >= 0; i-- {
			co := (*list)[i]
			spent[co.cust] += co.price
			if rated[co.cust] == nil {
				rated[co.cust] = map[int]bool{}
			}
			rated[co.cust][co.prod] = true
			if !seen[co.cust] {
				seen[co.cust] = true
				last[co.cust] = append(last[co.cust], co.key)
			}
		}
	}
	expect := func(ok bool) {
		checked++
		if !ok {
			wrong++
		}
	}
	err := db.SnapshotView(func(tx *unidb.Txn) error {
		for c := 0; c < nCustomers; c++ {
			row, ok, err := tx.GetRow("customers", mmvalue.Int(int64(c)))
			expect(err == nil && ok && row.GetOr("credit_limit").AsInt() == rc.m.Customers[c].Credit-spent[c])
			cart, ok, err := tx.KVGet("cart", custKey(c))
			want := last[c]
			if want == nil {
				want = []string{rc.m.Orders[rc.m.Cart[c]].Key}
			}
			expect(err == nil && ok && slices.Contains(want, cart.AsString()))
			if rated[c] == nil {
				continue
			}
			ts, err := tx.MatchTriples("feedback", custTerm(c), "<rated>", "")
			have := map[string]bool{}
			for _, t := range ts {
				have[t.O] = true
			}
			all := err == nil
			for p := range rated[c] {
				all = all && have[prodTerm(p)]
			}
			for p := range rc.m.Rated[c] {
				all = all && have[prodTerm(p)]
			}
			expect(all)
		}
		return nil
	})
	expect(err == nil)
	return checked, wrong
}

// window is what happened between two snapshots of a run.
type window struct {
	seconds           float64
	ops               int // successful primary operations
	attempted, failed int
	writesOK          int
	read, write       []float64 // latencies in ms, sorted
	cpuMs             float64
	mallocs           float64
	walBytes          float64
	lateness          []float64 // ms, sorted; paced workers only, whole run
}

// measure runs the workers for warm-up plus length and returns what happened
// in the measured window. CPU, allocations and log growth are read at its two
// edges; an operation belongs to the window it completed in.
//
// Every statistic is taken over the whole window. Medians over slices of the
// window were tried and are worse on this kind of host, whose speed switches
// between two levels for seconds at a time: a median flips between the levels
// where a whole-window figure moves smoothly with the share of slow seconds.
func measure(e *env, ws []*worker, warmup, length time.Duration) (*window, error) {
	var stop atomic.Bool
	var wg sync.WaitGroup
	t0 := time.Now()
	for _, w := range ws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.run(t0, &stop)
		}()
	}
	time.Sleep(warmup)
	a, errA := takeSnap(e.dir)
	time.Sleep(length)
	b, errB := takeSnap(e.dir)
	stop.Store(true)
	wg.Wait()
	if err := errors.Join(errA, errB); err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	win := cut(ws, t0, a, b)
	for _, w := range ws {
		for _, l := range w.lateness {
			win.lateness = append(win.lateness, float64(l)/1e6)
		}
	}
	sort.Float64s(win.lateness)
	return win, nil
}

// cut gathers the operations that completed between snapshots a and b.
func cut(ws []*worker, t0 time.Time, a, b snap) *window {
	lo, hi := int64(a.at.Sub(t0)), int64(b.at.Sub(t0))
	win := &window{
		seconds:  b.at.Sub(a.at).Seconds(),
		cpuMs:    float64(b.cpu-a.cpu) / 1e6,
		mallocs:  float64(b.mallocs - a.mallocs),
		walBytes: float64(b.wal - a.wal),
	}
	for _, w := range ws {
		for _, s := range w.samples {
			if s.done < lo || s.done >= hi {
				continue
			}
			win.attempted++
			if !s.ok {
				win.failed++
				continue
			}
			ms := float64(s.lat) / 1e6
			if s.class.isWrite() {
				win.write = append(win.write, ms)
				win.writesOK++
			} else {
				win.read = append(win.read, ms)
			}
			if w.primary {
				win.ops++
			}
		}
	}
	sort.Float64s(win.read)
	sort.Float64s(win.write)
	return win
}
