package core_test

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/binenc"
	"repro/internal/core"
	"repro/internal/docstore"
	"repro/internal/engine"
	"repro/internal/keyenc"
	"repro/internal/mmvalue"
	"repro/internal/query"
)

// Document scans read through the document store's decode cache, so
// every reader of one stored record gets the same decoded value. The
// statements below build new values from scanned documents — MERGE,
// UNIQUE, FLATTEN, KEYS, a SORT over each order's lines, COLLECT … INTO
// over lines and orders — and the q3/q4 shapes of the benchmark. If
// any of them wrote into a shared document, a later scan would hand out
// the altered value, and -race would see the write.
const (
	sharedScanDocs    = 200
	sharedScanGens    = 3 // rev cycles, so cached records recur across commits
	sharedScanReaders = 2
	sharedScanRounds  = 20 // per reader
)

var sharedScanStatements = []string{
	`FOR o IN orders FOR line IN o.Orderlines
	   COLLECT product = line.Product_no INTO g
	   LET revenue = SUM(g[*].line.Price)
	   SORT revenue DESC, product LIMIT 10
	   RETURN {product: product, revenue: revenue, revs: UNIQUE(g[*].o.rev)}`,
	`FOR o IN orders FILTER o @> @pattern RETURN {no: o.Order_no, rev: o.rev}`,
	`FOR o IN orders RETURN MERGE(o, {extra: o.rev, Orderlines: FLATTEN([o.Orderlines, [{Product_no: "x"}]])})`,
	`FOR o IN orders
	   LET lines = (FOR l IN o.Orderlines SORT l.Price DESC, l.Product_no RETURN MERGE(l, {Qty: 0}))
	   RETURN {rev: o.rev, keys: KEYS(o), lines: lines}`,
	`FOR o IN orders COLLECT c = o.customer_id INTO g RETURN {c: c, revs: UNIQUE(g[*].o.rev), n: LENGTH(g)}`,
	`FOR o IN orders RETURN o`,
}

func sharedScanDoc(i, gen int) mmvalue.Value {
	return mmvalue.MustParseJSON(fmt.Sprintf(`{"Order_no":"o%03d","customer_id":%d,"rev":%d,"total":%d,
		"Orderlines":[{"Product_no":"p%d","Price":%d,"Qty":1},{"Product_no":"p%d","Price":20,"Qty":2}]}`,
		i, i%13, gen, 100+gen, i%7, 10+gen, i%5))
}

// revsOf gathers the generations a result reports: every "rev" field and
// every element of every "revs" field, at any depth.
func revsOf(v mmvalue.Value, into map[int64]bool) {
	switch v.Kind() {
	case mmvalue.KindObject:
		for _, f := range v.Fields() {
			switch f.Name {
			case "rev":
				into[f.Value.AsInt()] = true
			case "revs":
				for _, r := range f.Value.AsArray() {
					into[r.AsInt()] = true
				}
			default:
				revsOf(f.Value, into)
			}
		}
	case mmvalue.KindArray:
		for _, el := range v.AsArray() {
			revsOf(el, into)
		}
	}
}

// TestScannedDocumentsStayShared runs snapshot readers over a collection
// that fits the decode cache, so its records stay cached, while a writer
// re-PUTs every document in each commit, on one engine and on two shards.
// Each statement's scan must see a single generation, and every document a
// scan hands out — through the query layer and through docstore.Scan —
// must equal a fresh decode of its stored bytes and re-encode to them byte
// for byte.
func TestScannedDocumentsStayShared(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("Shards=%d", shards), func(t *testing.T) {
			db, err := core.Open(core.Options{Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { db.Close() })
			write := func(gen int) error {
				return db.Update(func(tx engine.Tx) error {
					for i := 0; i < sharedScanDocs; i++ {
						if err := db.Docs.Put(tx, "orders", fmt.Sprintf("o%03d", i), sharedScanDoc(i, gen)); err != nil {
							return err
						}
					}
					return nil
				})
			}
			if err := db.Update(func(tx engine.Tx) error {
				return db.Docs.CreateCollection(tx, "orders", catalogSchemaless())
			}); err != nil {
				t.Fatal(err)
			}
			if err := write(0); err != nil {
				t.Fatal(err)
			}
			pipes := make([]*query.Pipeline, len(sharedScanStatements))
			for i, q := range sharedScanStatements {
				if pipes[i], err = query.ParseMMQL(q); err != nil {
					t.Fatalf("%s: %v", q, err)
				}
			}
			params := map[string]mmvalue.Value{"pattern": mmvalue.MustParseJSON(`{"Orderlines":[{"Product_no":"p3"}]}`)}

			var stop atomic.Bool
			var writer sync.WaitGroup
			writer.Add(1)
			go func() {
				defer writer.Done()
				for gen := 1; !stop.Load(); gen++ {
					if err := write(gen % sharedScanGens); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			// checkDoc compares a scanned document with a fresh decode of
			// the bytes stored under its key in the reader's snapshot.
			checkDoc := func(tx engine.Tx, key string, doc mmvalue.Value) error {
				raw, ok, err := tx.Get(docstore.Keyspace("orders"), keyenc.AppendString(nil, key))
				if err != nil || !ok {
					return fmt.Errorf("stored %s: ok %v, %v", key, ok, err)
				}
				fresh, err := binenc.Decode(raw)
				if err != nil {
					return err
				}
				if !mmvalue.Equal(doc, fresh) || !bytes.Equal(binenc.Encode(doc), raw) {
					return fmt.Errorf("scanned %s = %v, stored %v", key, doc, fresh)
				}
				return nil
			}
			read := func(round int) error {
				opts := query.Options{Params: params}
				if round%2 == 1 {
					opts.Ablate = query.Stress
				}
				return db.SnapshotView(func(tx engine.Tx) error {
					for i, pipe := range pipes {
						res, err := query.Execute(tx, db.Sources(), pipe, opts)
						if err != nil {
							return fmt.Errorf("%s: %w", sharedScanStatements[i], err)
						}
						revs := map[int64]bool{}
						for _, v := range res.Values {
							revsOf(v, revs)
						}
						if len(revs) != 1 {
							return fmt.Errorf("%s saw generations %v", sharedScanStatements[i], revs)
						}
						if i == len(pipes)-1 {
							for _, doc := range res.Values {
								if err := checkDoc(tx, doc.GetOr(docstore.KeyField).AsString(), doc); err != nil {
									return err
								}
							}
						}
					}
					var checkErr error
					revs := map[int64]bool{}
					err := db.Docs.Scan(tx, "orders", func(key string, doc mmvalue.Value) bool {
						revs[doc.GetOr("rev").AsInt()] = true
						checkErr = checkDoc(tx, key, doc)
						return checkErr == nil
					})
					if err == nil && len(revs) != 1 {
						err = fmt.Errorf("docstore.Scan saw generations %v", revs)
					}
					if err != nil {
						return err
					}
					return checkErr
				})
			}
			var readers sync.WaitGroup
			for r := 0; r < sharedScanReaders; r++ {
				readers.Add(1)
				go func(r int) {
					defer readers.Done()
					for round := r; round < r+sharedScanRounds && !t.Failed(); round++ {
						if err := read(round); err != nil {
							t.Error(err)
						}
					}
				}(r)
			}
			readers.Wait()
			stop.Store(true)
			writer.Wait()
		})
	}
}
