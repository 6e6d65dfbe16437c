package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strconv"

	"repro/internal/mmvalue"
)

// opClass names one kind of operation. Query classes come first so that
// class < nQueryClasses selects them.
type opClass uint8

const (
	clsQ1 opClass = iota
	clsQ1SQL
	clsQ5
	clsTrav3
	clsQ2
	clsQ3
	clsQ4
	clsColAgg
	clsSPath
	nQueryClasses
)

const (
	clsKVGet opClass = nQueryClasses + iota
	clsDocGet
	clsKVPut
	clsDocPut
	clsCartPut
	clsOrderPut
	clsNewOrder
	clsOrderStatus
	nClasses
)

var classNames = [nClasses]string{
	"q1", "q1sql", "q5", "trav3", "q2", "q3", "q4", "colagg", "spath",
	"kvget", "docget", "kvput", "docput", "cartput", "orderput", "neworder", "orderstatus",
}

func (c opClass) String() string { return classNames[c] }

// isWrite says which latency group (read_* or write_*) a class reports into.
func (c opClass) isWrite() bool {
	switch c {
	case clsKVPut, clsDocPut, clsCartPut, clsOrderPut, clsNewOrder:
		return true
	}
	return false
}

// The nine query classes. q1 is the paper's recommendation query (relational
// ⋈ graph ⋈ key/value ⋈ document) and q1sql its OrientDB-style MSQL form;
// q2–q5 are UniBench workload B; trav3, spath and colagg add the traversal,
// path and column-scan shapes the later execution paths were built for.
var queryText = [nQueryClasses]string{
	clsQ1: `FOR c IN customers
  FILTER c.credit_limit > @minCredit
  LIMIT 20
  FOR friend IN 1..1 OUTBOUND CONCAT('c', TO_STRING(c.id)) social.knows
    LET order = DOCUMENT('orders', KV('cart', CONCAT('c', TO_STRING(friend.customer_id))))
    FILTER order != null
    FOR line IN order.Orderlines
      RETURN DISTINCT line.Product_no`,
	clsQ1SQL: `SELECT DISTINCT EXPAND(
  DOCUMENT('orders', KV('cart', OUT('social','knows', CONCAT('c', TO_STRING(c.id)))._key[0]))
    .Orderlines[*].Product_no)
FROM customers c
WHERE credit_limit > @minCredit AND id >= @lo AND id < @hi`,
	clsQ5: `FOR friend IN 1..1 OUTBOUND @start social.knows
  FOR t IN TRIPLES('feedback', CONCAT('<c', TO_STRING(friend.customer_id), '>'), '<rated>', null)
    RETURN DISTINCT t.o`,
	clsTrav3: `FOR v IN 1..3 OUTBOUND @start social.knows RETURN v._key`,
	clsQ2: `FOR c IN customers
  FILTER c.country == @country
  LET orders = (FOR o IN orders FILTER o.customer_id == c.id RETURN o.total)
  FILTER LENGTH(orders) > 0
  RETURN {customer: c.id, spend: SUM(orders)}`,
	clsQ3: `FOR o IN orders
  FOR line IN o.Orderlines
    COLLECT product = line.Product_no INTO g
    LET revenue = SUM(g[*].line.Price)
    SORT revenue DESC
    LIMIT 10
    RETURN {product: product, revenue: revenue}`,
	clsQ4:     `FOR o IN orders FILTER o @> @pattern RETURN o.Order_no`,
	clsColAgg: `SELECT COUNT(*) AS n, SUM(v) AS s FROM events WHERE v < @lim`,
	clsSPath:  `RETURN SHORTEST_PATH('social', @from, @to)`,
}

// isSQL says which endpoint (/sql or /query) a query class goes to.
func (c opClass) isSQL() bool { return c == clsQ1SQL || c == clsColAgg }

// queryParam is one binding of a query class: the values as the engine takes
// them, the same as a JSON request body, and the integers the oracle needs.
type queryParam struct {
	vals map[string]mmvalue.Value
	body []byte // {"query":..., "params":...}
	a, b int    // class-specific: minCredit/lo, start, country index, product, lim, from/to
}

// paramSets holds nParamSets bindings per query class, drawn from the seed.
type paramSets [nQueryClasses][]queryParam

func makeParams(m *model) *paramSets {
	r := rand.New(rand.NewSource(m.Seed ^ 0x5eed))
	zc := m.zipf(nCustomers)
	zipfCust := func() int { return scatter(zc.rank(r), nCustomers) }
	var ps paramSets
	for i := 0; i < nParamSets; i++ {
		minCredit := 8000 + r.Intn(1500)
		lo := r.Intn(nCustomers - q1sqlWindow)
		from, to := zipfCust(), r.Intn(nCustomers)
		ps[clsQ1] = append(ps[clsQ1], queryParam{a: minCredit,
			vals: map[string]mmvalue.Value{"minCredit": mmvalue.Int(int64(minCredit))}})
		ps[clsQ1SQL] = append(ps[clsQ1SQL], queryParam{a: minCredit, b: lo,
			vals: map[string]mmvalue.Value{"minCredit": mmvalue.Int(int64(minCredit)),
				"lo": mmvalue.Int(int64(lo)), "hi": mmvalue.Int(int64(lo + q1sqlWindow))}})
		start := zipfCust()
		ps[clsQ5] = append(ps[clsQ5], queryParam{a: start,
			vals: map[string]mmvalue.Value{"start": mmvalue.String(custKey(start))}})
		start = zipfCust()
		ps[clsTrav3] = append(ps[clsTrav3], queryParam{a: start,
			vals: map[string]mmvalue.Value{"start": mmvalue.String(custKey(start))}})
		ps[clsQ2] = append(ps[clsQ2], queryParam{a: i % len(countries),
			vals: map[string]mmvalue.Value{"country": mmvalue.String(countries[i%len(countries)])}})
		ps[clsQ3] = append(ps[clsQ3], queryParam{})
		prod := r.Intn(nProducts)
		ps[clsQ4] = append(ps[clsQ4], queryParam{a: prod,
			vals: map[string]mmvalue.Value{"pattern": mmvalue.MustParseJSON(
				`{"Orderlines":[{"Product_no":"` + prodKey(prod) + `"}]}`)}})
		lim := 1000 + r.Intn(nEvents-1000)
		ps[clsColAgg] = append(ps[clsColAgg], queryParam{a: lim,
			vals: map[string]mmvalue.Value{"lim": mmvalue.Int(int64(lim))}})
		ps[clsSPath] = append(ps[clsSPath], queryParam{a: from, b: to,
			vals: map[string]mmvalue.Value{"from": mmvalue.String(custKey(from)), "to": mmvalue.String(custKey(to))}})
	}
	for c := opClass(0); c < nQueryClasses; c++ {
		for i := range ps[c] {
			p := &ps[c][i]
			params := mmvalue.Object()
			for name, v := range p.vals {
				params = params.Set(name, v)
			}
			p.body = []byte(`{"query":` + strconv.Quote(queryText[c]) + `,"params":` + params.String() + `}`)
		}
	}
	return &ps
}

// op is one generated operation. key is a key index, customer or order index
// depending on the class; param indexes the class's paramSets row; aux carries
// the product and price of a neworder.
type op struct {
	class opClass
	key   int
	param int
	aux   int
}

// Each workload interleaves its classes round-robin in a fixed cycle, so
// class shares are exact rather than sampled.
var (
	// 90 % reads / 10 % writes, split evenly over the KV and document stores.
	cyclePointMix = []opClass{
		clsKVGet, clsDocGet, clsKVGet, clsDocGet, clsKVGet, clsDocGet, clsKVGet, clsDocGet, clsKVGet, clsKVPut,
		clsDocGet, clsKVGet, clsDocGet, clsKVGet, clsDocGet, clsKVGet, clsDocGet, clsKVGet, clsDocGet, clsDocPut,
	}
	// Four navigational classes in equal shares, and one cart write in nine
	// operations (see README: why xmodel_nav is read-mostly, not read-only).
	cycleXModelNav = []opClass{clsQ1, clsQ1SQL, clsQ5, clsTrav3, clsQ1, clsQ1SQL, clsQ5, clsTrav3, clsCartPut}
	cycleScan      = []opClass{clsQ2, clsQ3, clsQ4, clsColAgg, clsSPath}
	cycleWriter    = []opClass{clsOrderPut}
	// Four new-order transactions to one read-only order-status transaction.
	cycleNewOrder = []opClass{clsNewOrder, clsNewOrder, clsOrderStatus, clsNewOrder, clsNewOrder}
)

// stream generates one client's operations: a pure function of (cycle, seed,
// client), so two runs with one seed offer the program identical inputs.
type stream struct {
	cycle  []opClass
	client int
	n      int
	r      *rand.Rand
	m      *model
	zHalf  *zipf // over one client's half of a point keyspace
	zCust  *zipf
	zOrder *zipf
	rot    [nQueryClasses]int
}

func newStream(cycle []opClass, m *model, client int) *stream {
	s := &stream{
		cycle:  cycle,
		client: client,
		r:      rand.New(rand.NewSource(m.Seed*1000003 + int64(client)*7919 + int64(cycle[0]))),
		m:      m,
		zHalf:  m.zipf(nSessions / nClients),
		zCust:  m.zipf(nCustomers),
		zOrder: m.zipf(nCustomers * ordersPerCustomer),
	}
	// Clients start half a rotation apart so they do not run the same
	// binding at the same moment.
	for c := range s.rot {
		s.rot[c] = client * nParamSets / nClients
	}
	return s
}

func (s *stream) next() op {
	o := op{class: s.cycle[s.n%len(s.cycle)]}
	s.n++
	switch {
	case o.class < nQueryClasses:
		o.param = s.rot[o.class] % nParamSets
		s.rot[o.class]++
	case o.class == clsKVGet, o.class == clsDocGet, o.class == clsKVPut, o.class == clsDocPut:
		// Each client owns the keys congruent to its number, so it can
		// predict every byte it reads back (read-your-own-write).
		o.key = scatter(s.zHalf.rank(s.r), nSessions/nClients)*nClients + s.client
	case o.class == clsCartPut, o.class == clsOrderStatus:
		o.key = scatter(s.zCust.rank(s.r), nCustomers)
	case o.class == clsOrderPut:
		o.key = scatter(s.zOrder.rank(s.r), len(s.m.Orders))
	case o.class == clsNewOrder:
		o.key = scatter(s.zCust.rank(s.r), nCustomers)
		o.param = s.m.RatedProducts[s.r.Intn(len(s.m.RatedProducts))]
		o.aux = 1 + s.r.Intn(100)
	}
	return o
}

// streamDigest hashes the first n operations of a stream.
func streamDigest(s *stream, n int) string {
	h := sha256.New()
	for i := 0; i < n; i++ {
		o := s.next()
		fmt.Fprintln(h, o.class, o.key, o.param, o.aux)
	}
	return hex.EncodeToString(h.Sum(nil))
}
