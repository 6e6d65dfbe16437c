package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"repro/internal/mmvalue"
	"repro/unidb"
)

// The dataset is a plain-Go model first and a database second: model holds
// everything the oracle needs to answer the nine query classes without
// asking unidb, and load writes exactly that model through the public API.

type customer struct {
	ID      int
	Name    string
	Credit  int64
	Country string
}

type product struct {
	Key      string
	Name     string
	Price    int64
	Category string
}

type orderLine struct {
	Product int
	Price   int64
	Qty     int64
}

type order struct {
	Key   string
	Cust  int
	Total int64
	Lines []orderLine
}

type model struct {
	Seed      int64
	Customers []customer
	Products  []product
	Orders    []order
	ByCust    [][]int // customer -> indexes into Orders
	Knows     [][]int // customer -> outbound friends, insertion order
	// EdgeKeys[c][j] is the key the database gave the edge to Knows[c][j];
	// load records it, since OUT()/[0] yields neighbours in edge-key order.
	EdgeKeys [][]string
	Cart     []int          // customer -> index into Orders
	Rated    []map[int]bool // customer -> products rated
	// RatedProducts lists every product that is the object of at least one
	// triple, so a neworder transaction can pick one without allocating a
	// new dictionary term (see README, neworder_txn).
	RatedProducts []int
	Triples       int
	Edges         int

	zipfs map[int]*zipf // by keyspace size; a table depends on nothing else
}

// zipf returns the sampler over n items, building it on first use. Not for
// concurrent use: streams are created before the clients start.
func (m *model) zipf(n int) *zipf {
	z, ok := m.zipfs[n]
	if !ok {
		z = newZipf(n, zipfTheta)
		m.zipfs[n] = z
	}
	return z
}

var (
	adjectives = []string{"Red", "Fast", "Tiny", "Grand", "Silent", "Lucky", "Solar", "Iron"}
	nouns      = []string{"Toy", "Book", "Computer", "Pen", "Lamp", "Chair", "Phone", "Camera"}
	countries  = []string{"FI", "CZ", "DE", "US", "JP", "BR"}
)

func custKey(i int) string    { return "c" + strconv.Itoa(i) }
func prodKey(i int) string    { return "p" + strconv.Itoa(i) }
func sessionKey(i int) string { return "s" + strconv.Itoa(i) }
func profileKey(i int) string { return "u" + strconv.Itoa(i) }
func custTerm(i int) string   { return "<" + custKey(i) + ">" }
func prodTerm(i int) string   { return "<" + prodKey(i) + ">" }

// eventV is the value column of events row i: a permutation of 0..nEvents-1
// (7919 is coprime to nEvents), so `v < lim` selects exactly lim rows whose
// sum is lim(lim-1)/2 whatever the seed.
func eventV(i int) int64 { return int64(i) * 7919 % nEvents }

const pad64 = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ-_"

// sessionJSON and profileJSON are the point-op values: a function of key
// index and version only, so a client can predict every byte of a read.
func sessionJSON(i int, ver int) string {
	return `{"k":"` + sessionKey(i) + `","pad":"` + pad64 + `","v":` + strconv.Itoa(ver) + `}`
}

func profileJSON(i int, ver int) string {
	k := profileKey(i)
	return `{"_key":"` + k + `","k":"` + k + `","name":"User ` + strconv.Itoa(i) +
		`","pad":"` + pad64 + `","tags":["t` + strconv.Itoa(i%17) + `","t` + strconv.Itoa(i%5) + `"],"v":` + strconv.Itoa(ver) + `}`
}

func generate(seed int64) *model {
	r := rand.New(rand.NewSource(seed))
	m := &model{
		Seed:      seed,
		Customers: make([]customer, nCustomers),
		Products:  make([]product, nProducts),
		ByCust:    make([][]int, nCustomers),
		Knows:     make([][]int, nCustomers),
		EdgeKeys:  make([][]string, nCustomers),
		Cart:      make([]int, nCustomers),
		Rated:     make([]map[int]bool, nCustomers),
		zipfs:     map[int]*zipf{},
	}
	for p := range m.Products {
		m.Products[p] = product{
			Key:      prodKey(p),
			Name:     adjectives[r.Intn(len(adjectives))] + " " + nouns[r.Intn(len(nouns))],
			Price:    int64(1 + r.Intn(200)),
			Category: nouns[r.Intn(len(nouns))],
		}
	}
	for c := range m.Customers {
		m.Customers[c] = customer{
			ID:      c,
			Name:    "Customer " + strconv.Itoa(c),
			Credit:  int64(r.Intn(10000)),
			Country: countries[r.Intn(len(countries))],
		}
	}
	rated := map[int]bool{}
	for c := 0; c < nCustomers; c++ {
		for f := 0; f < friendsPerCustomer; f++ {
			if other := r.Intn(nCustomers); other != c {
				m.Knows[c] = append(m.Knows[c], other)
				m.Edges++
			}
		}
		m.Rated[c] = map[int]bool{}
		for o := 0; o < ordersPerCustomer; o++ {
			ord := order{Key: "o" + strconv.Itoa(c) + "-" + strconv.Itoa(o), Cust: c}
			for l, n := 0, 1+r.Intn(maxLinesPerOrder); l < n; l++ {
				line := orderLine{Product: r.Intn(nProducts), Price: int64(1 + r.Intn(200)), Qty: int64(1 + r.Intn(3))}
				ord.Total += line.Price
				ord.Lines = append(ord.Lines, line)
			}
			// Every customer rates the first product of their first order
			// (so each customer term exists) and, half the time, of the others.
			if o == 0 || r.Intn(2) == 0 {
				p := ord.Lines[0].Product
				if !m.Rated[c][p] {
					m.Rated[c][p] = true
					m.Triples++
				}
				rated[p] = true
			}
			m.ByCust[c] = append(m.ByCust[c], len(m.Orders))
			m.Cart[c] = len(m.Orders)
			m.Orders = append(m.Orders, ord)
		}
	}
	for p := range rated {
		m.RatedProducts = append(m.RatedProducts, p)
	}
	sort.Ints(m.RatedProducts)
	return m
}

func (p product) value() mmvalue.Value {
	return mmvalue.Object(
		mmvalue.F("_key", mmvalue.String(p.Key)),
		mmvalue.F("name", mmvalue.String(p.Name)),
		mmvalue.F("price", mmvalue.Int(p.Price)),
		mmvalue.F("category", mmvalue.String(p.Category)),
		mmvalue.F("description", mmvalue.String("The "+strings.ToLower(p.Name)+" is a product")),
	)
}

func (c customer) value() mmvalue.Value {
	return mmvalue.Object(
		mmvalue.F("id", mmvalue.Int(int64(c.ID))),
		mmvalue.F("name", mmvalue.String(c.Name)),
		mmvalue.F("credit_limit", mmvalue.Int(c.Credit)),
		mmvalue.F("country", mmvalue.String(c.Country)),
	)
}

// value renders the order document at revision rev. Only rev changes when
// the scan_under_write writer re-PUTs an order, so every query answer over
// orders holds before, during and after the writes.
func (o order) value(rev int) mmvalue.Value {
	lines := make([]mmvalue.Value, len(o.Lines))
	for i, l := range o.Lines {
		lines[i] = mmvalue.Object(
			mmvalue.F("Product_no", mmvalue.String(prodKey(l.Product))),
			mmvalue.F("Price", mmvalue.Int(l.Price)),
			mmvalue.F("Qty", mmvalue.Int(l.Qty)),
		)
	}
	return mmvalue.Object(
		mmvalue.F("_key", mmvalue.String(o.Key)),
		mmvalue.F("Order_no", mmvalue.String(o.Key)),
		mmvalue.F("customer_id", mmvalue.Int(int64(o.Cust))),
		mmvalue.F("total", mmvalue.Int(o.Total)),
		mmvalue.F("rev", mmvalue.Int(int64(rev))),
		mmvalue.F("Orderlines", mmvalue.ArrayOf(lines)),
	)
}

// ratedSorted lists the products customer c rated, ascending.
func (m *model) ratedSorted(c int) []int {
	ps := make([]int, 0, len(m.Rated[c]))
	for p := range m.Rated[c] {
		ps = append(ps, p)
	}
	sort.Ints(ps)
	return ps
}

// writeTo streams the canonical text of everything load would store; digest
// hashes it. One seed must give one byte stream.
func (m *model) writeTo(w io.Writer) {
	for _, p := range m.Products {
		fmt.Fprintln(w, "product", p.value())
	}
	for c, cu := range m.Customers {
		fmt.Fprintln(w, "customer", cu.value())
		fmt.Fprintln(w, "knows", c, m.Knows[c])
		fmt.Fprintln(w, "cart", c, m.Orders[m.Cart[c]].Key)
		fmt.Fprintln(w, "rated", c, m.ratedSorted(c))
	}
	for _, o := range m.Orders {
		fmt.Fprintln(w, "order", o.value(0))
	}
	// events, sessions and profiles do not depend on the seed; their sizes
	// stand in for them.
	fmt.Fprintln(w, "events", nEvents, "sessions", nSessions, "profiles", nProfiles)
}

func (m *model) digest() string {
	h := sha256.New()
	m.writeTo(h)
	return hex.EncodeToString(h.Sum(nil))
}

// batched runs fn(lo,hi) inside one Update per batch of size step.
func batched(db *unidb.Database, n, step int, fn func(tx *unidb.Txn, i int) error) error {
	for lo := 0; lo < n; lo += step {
		hi := min(lo+step, n)
		err := db.Update(func(tx *unidb.Txn) error {
			for i := lo; i < hi; i++ {
				if err := fn(tx, i); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// load writes the model into db through the public unidb API only.
func (m *model) load(db *unidb.Database) error {
	if err := m.loadCore(db); err != nil {
		return err
	}
	return m.loadPoint(db)
}

// loadCore loads the UniBench e-commerce data: every keyspace fits the
// stores' 8 192-entry decode caches.
func (m *model) loadCore(db *unidb.Database) error {
	err := db.Update(func(tx *unidb.Txn) error {
		if err := tx.CreateTable("customers", unidb.TableSchema{
			Columns: []unidb.Column{
				{Name: "id", Type: unidb.TInt, NotNull: true},
				{Name: "name", Type: unidb.TString, NotNull: true},
				{Name: "credit_limit", Type: unidb.TInt},
				{Name: "country", Type: unidb.TString},
			},
			PrimaryKey: []string{"id"},
		}); err != nil {
			return err
		}
		for _, coll := range []string{"products", "orders"} {
			if err := tx.CreateCollection(coll); err != nil {
				return err
			}
		}
		if err := tx.CreateDocIndex("orders", unidb.IndexDef{Name: "by_customer", Path: "customer_id"}); err != nil {
			return err
		}
		return tx.CreateGraph("social")
	})
	if err != nil {
		return fmt.Errorf("load ddl: %w", err)
	}
	if err := batched(db, nProducts, nProducts, func(tx *unidb.Txn, p int) error {
		return tx.PutDocument("products", m.Products[p].Key, m.Products[p].value())
	}); err != nil {
		return fmt.Errorf("load products: %w", err)
	}
	if err := batched(db, nCustomers, 500, func(tx *unidb.Txn, c int) error {
		if err := tx.InsertRow("customers", m.Customers[c].value()); err != nil {
			return err
		}
		return tx.PutVertex("social", custKey(c), mmvalue.Object(mmvalue.F("customer_id", mmvalue.Int(int64(c)))))
	}); err != nil {
		return fmt.Errorf("load customers: %w", err)
	}
	if err := batched(db, nCustomers, 500, func(tx *unidb.Txn, c int) error {
		m.EdgeKeys[c] = m.EdgeKeys[c][:0]
		for _, f := range m.Knows[c] {
			key, err := tx.Connect("social", custKey(c), custKey(f), "knows")
			if err != nil {
				return err
			}
			m.EdgeKeys[c] = append(m.EdgeKeys[c], key)
		}
		for _, oi := range m.ByCust[c] {
			if err := tx.PutDocument("orders", m.Orders[oi].Key, m.Orders[oi].value(0)); err != nil {
				return err
			}
		}
		for _, p := range m.ratedSorted(c) {
			if err := tx.InsertTriple("feedback", unidb.Triple{S: custTerm(c), P: "<rated>", O: prodTerm(p)}); err != nil {
				return err
			}
		}
		return tx.KVSet("cart", custKey(c), mmvalue.String(m.Orders[m.Cart[c]].Key))
	}); err != nil {
		return fmt.Errorf("load orders: %w", err)
	}
	return nil
}

// loadPoint loads the events column table and the two point-op keyspaces,
// which exceed the decode caches.
func (m *model) loadPoint(db *unidb.Database) error {
	err := db.Update(func(tx *unidb.Txn) error {
		if err := tx.CreateCollection("profiles"); err != nil {
			return err
		}
		return tx.CreateColTable("events")
	})
	if err != nil {
		return fmt.Errorf("load ddl: %w", err)
	}
	if err := batched(db, nEvents, 2000, func(tx *unidb.Txn, i int) error {
		return tx.PutItem("events", mmvalue.String("p"+strconv.Itoa(i%8)), mmvalue.Int(int64(i)),
			mmvalue.Object(mmvalue.F("v", mmvalue.Int(eventV(i))), mmvalue.F("pos", mmvalue.Int(int64(i%1000)))))
	}); err != nil {
		return fmt.Errorf("load events: %w", err)
	}
	if err := batched(db, nSessions, 5000, func(tx *unidb.Txn, i int) error {
		return tx.KVSet("session", sessionKey(i), mmvalue.MustParseJSON(sessionJSON(i, 0)))
	}); err != nil {
		return fmt.Errorf("load sessions: %w", err)
	}
	if err := batched(db, nProfiles, 5000, func(tx *unidb.Txn, i int) error {
		return tx.PutDocument("profiles", profileKey(i), mmvalue.MustParseJSON(profileJSON(i, 0)))
	}); err != nil {
		return fmt.Errorf("load profiles: %w", err)
	}
	return nil
}
