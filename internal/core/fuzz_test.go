package core_test

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/docstore"
	"repro/internal/engine"
	"repro/internal/inverted"
	"repro/internal/mmvalue"
	"repro/internal/query"
)

// paramStatements are the parameterized statements FuzzQueryParams binds
// fuzzed values into: an index range, the LIMIT forms (a bounded scan and a
// LIMIT after SORT), COLLECT, SORT, a standalone FILTER after LET, RETURN
// DISTINCT, and the column table's aggregate and scan paths. @v takes an
// int, a float and a string in turn; @off and @n are ints.
var paramStatements = []struct{ dialect, q string }{
	{"mmql", `FOR e IN events FILTER e.v > @v RETURN e._key`},
	{"mmql", `FOR e IN events FILTER e.tag >= @v SORT e.v % 7 DESC, e._key RETURN e.v`},
	{"mmql", `FOR e IN events LIMIT @off, @n RETURN e._key`},
	{"mmql", `FOR e IN events FILTER e.v > @v LIMIT @off, @n RETURN e.v`},
	{"mmql", `FOR e IN events SORT e.v DESC LIMIT @off, @n RETURN e._key`},
	{"mmql", `FOR e IN events FILTER e.v < @v COLLECT t = e.tag INTO g SORT t
		RETURN {t: t, n: LENGTH(g), s: SUM(g[*].e.v), hi: MAX(g[*].e.v)}`},
	{"mmql", `FOR e IN events LET x = e.v * @v FILTER x > 100 RETURN x`},
	{"mmql", `FOR e IN events FILTER e.v >= @v RETURN DISTINCT e.tag`},
	{"msql", `SELECT product, qty FROM sales WHERE qty > @v ORDER BY id LIMIT @n OFFSET @off`},
	{"msql", `SELECT region, COUNT(*) AS n, SUM(qty) AS total FROM sales WHERE qty >= @v GROUP BY region ORDER BY region`},
	{"msql", `SELECT COUNT(*) AS n, SUM(pos) AS s, MIN(v) AS lo, MAX(v) AS hi, AVG(v) AS m FROM metrics WHERE v < @v`},
	{"msql", `SELECT v, tag FROM metrics WHERE v > @v AND pos < @n`},
}

// FuzzQueryParams is a differential fuzz of parameter values through the
// executor: every statement runs under stressOpts (parallel stages from one
// element, 7-row column batches) and under serialOpts, on one fixture with
// an indexed collection, a table and a column table. Neither arm may panic;
// both must fail, or both succeed with equal values in equal order.
func FuzzQueryParams(f *testing.F) {
	f.Add(int64(100), 2.5, "t3", int64(0), int64(5))
	f.Add(int64(-1), math.NaN(), "", int64(-1), int64(3))
	f.Add(int64(math.MaxInt64), math.Inf(1), "\xff", int64(3), int64(-2))
	f.Add(int64(0), -0.0, "t", int64(math.MaxInt64), int64(math.MaxInt64))

	db := openDB(f)
	seedStore(f, db)
	seedEvents(f, db, 300)
	seedMetrics(f, db, 200)
	if err := db.Update(func(tx engine.Tx) error {
		return db.Docs.CreateIndex(tx, "events", docstore.IndexDef{Name: "by_v", Path: "v"})
	}); err != nil {
		f.Fatal(err)
	}
	pipes := make([]*query.Pipeline, len(paramStatements))
	for i, st := range paramStatements {
		parse := query.ParseMMQL
		if st.dialect == "msql" {
			parse = query.ParseMSQL
		}
		pipe, err := parse(st.q)
		if err != nil {
			f.Fatalf("%s: %v", st.q, err)
		}
		pipes[i] = pipe
	}
	// run executes on a snapshot through query.Execute, not the result
	// cache, which would serve the second arm the first arm's result.
	run := func(pipe *query.Pipeline, params map[string]mmvalue.Value, opts query.Options) (*query.Result, error) {
		opts.Params = params
		var res *query.Result
		err := db.SnapshotView(func(tx engine.Tx) error {
			var qerr error
			res, qerr = query.Execute(tx, db.Sources(), pipe, opts)
			return qerr
		})
		return res, err
	}

	f.Fuzz(func(t *testing.T, i int64, fl float64, s string, off, n int64) {
		for _, v := range []mmvalue.Value{mmvalue.Int(i), mmvalue.Float(fl), mmvalue.String(s)} {
			params := map[string]mmvalue.Value{"v": v, "off": mmvalue.Int(off), "n": mmvalue.Int(n)}
			for pi, pipe := range pipes {
				q := paramStatements[pi].q
				ser, serErr := run(pipe, params, serialOpts)
				str, strErr := run(pipe, params, stressOpts)
				if (serErr == nil) != (strErr == nil) {
					t.Fatalf("%s with %v: serial err = %v, stress err = %v", q, params, serErr, strErr)
				}
				if serErr != nil {
					continue
				}
				if len(ser.Values) != len(str.Values) {
					t.Fatalf("%s with %v: serial %d values, stress %d", q, params, len(ser.Values), len(str.Values))
				}
				for vi := range ser.Values {
					if a, b := ser.Values[vi].String(), str.Values[vi].String(); a != b {
						t.Fatalf("%s with %v: value %d: serial %s, stress %s", q, params, vi, a, b)
					}
				}
			}
		}
	})
}

// ginBytes hands out a fuzz input one byte at a time, zero once exhausted.
type ginBytes []byte

func (b *ginBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return c
}

// ginScalars and ginWords are FuzzGINContains' value domain: numbers that
// are Equal across kinds (1 and 1.0, 2^53+1 and its float), strings whose
// tokens overlap, and the other scalar kinds.
var (
	ginScalars = []mmvalue.Value{
		mmvalue.Int(0), mmvalue.Int(1), mmvalue.Float(1), mmvalue.Float(1.5),
		mmvalue.Int(1<<53 + 1), mmvalue.Float(1 << 53), mmvalue.True, mmvalue.Null,
		mmvalue.String("x"), mmvalue.String("y"), mmvalue.String("X y-z"), mmvalue.String(""),
	}
	ginWords = []string{"x", "Y", "z", "k1", "", "x-y", "1"}
)

// ginValue decodes a value of at most three levels from b: an object over
// the names a, b, c, an array (either possibly empty), or a scalar.
func ginValue(b *ginBytes, depth int, object bool) mmvalue.Value {
	c := b.next()
	kind := int(c % 8)
	if object {
		kind = 0
	}
	switch {
	case kind == 0 && depth < 3:
		n := int(c/8) % 4
		fields := make([]mmvalue.Field, 0, n)
		for i := 0; i < n; i++ {
			fields = append(fields, mmvalue.F(string(rune('a'+b.next()%3)), ginValue(b, depth+1, false)))
		}
		return mmvalue.ObjectOf(fields)
	case kind == 1 && depth < 3:
		n := int(c/8) % 4
		elems := make([]mmvalue.Value, n)
		for i := range elems {
			elems[i] = ginValue(b, depth+1, false)
		}
		return mmvalue.ArrayOf(elems)
	}
	return ginScalars[int(c/8)%len(ginScalars)]
}

// ginTokens is the token set of every string leaf of v.
func ginTokens(v mmvalue.Value, into map[string]bool) {
	switch v.Kind() {
	case mmvalue.KindObject:
		for _, f := range v.Fields() {
			ginTokens(f.Value, into)
		}
	case mmvalue.KindArray:
		for _, e := range v.AsArray() {
			ginTokens(e, into)
		}
	case mmvalue.KindString:
		for _, tok := range inverted.Tokenize(v.AsString()) {
			into[tok] = true
		}
	default:
	}
}

// FuzzGINContains checks the keyspace-backed GIN and full-text indexes
// against scans. Fuzzed documents go into two collections, one with a GIN
// in each mode and a full-text index; some are written before the index
// builds (backfill) and the rest after (maintenance), then one is updated
// and one deleted. A `@>` pattern decoded from its own input must select the same documents
// through the GIN and its recheck as through a NoIndexes scan, reading the
// GIN whenever the pattern has items, and FTSEARCH with fuzzed terms must
// select exactly the documents whose string leaves hold every term's token.
func FuzzGINContains(f *testing.F) {
	// k2 = {b: [{a: 0}]} contains {b: []}, which has no jsonb_path_ops item.
	f.Add([]byte{0, 0, 0, 0, 0, 8, 1, 9, 8, 0, 2}, []byte{8, 1, 1}, []byte{0, 3})
	// k2 = {a: 2^53+1} contains {a: 2^53 as a float}.
	f.Add([]byte{0, 0, 0, 0, 0, 8, 0, 34, 1, 1}, []byte{8, 0, 42}, []byte{1, 2})
	f.Add([]byte{1, 0, 24, 1, 66, 2, 74, 0, 16, 2, 1, 0, 8, 1, 9}, []byte{0}, []byte{5, 6, 3})
	f.Fuzz(func(t *testing.T, data, pat, terms []byte) {
		db, err := core.Open(core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		b := ginBytes(data)
		docs := map[string]mmvalue.Value{}
		var later []string // keys written after the builds
		colls := map[string]inverted.Mode{"ops": inverted.OpsMode, "path": inverted.PathOpsMode}
		put := func(key string, doc mmvalue.Value) {
			t.Helper()
			if err := db.Update(func(tx engine.Tx) error {
				for coll := range colls {
					if err := db.Docs.Put(tx, coll, key, doc); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			docs[key] = doc.Set("_key", mmvalue.String(key))
		}
		if err := db.Update(func(tx engine.Tx) error {
			for coll := range colls {
				if err := db.Docs.CreateCollection(tx, coll, catalogSchemaless()); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8 && len(b) > 0; i++ {
			key := fmt.Sprintf("k%d", i)
			if b.next()%2 == 0 {
				put(key, ginValue(&b, 0, true))
			} else {
				later = append(later, key)
			}
		}
		for coll, mode := range colls {
			if err := db.CreateGIN(coll, mode); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.CreateFullText("ops"); err != nil {
			t.Fatal(err)
		}
		for _, key := range later {
			put(key, ginValue(&b, 0, true))
		}
		if len(docs) > 1 {
			put("k0", ginValue(&b, 0, true))
			if err := db.Update(func(tx engine.Tx) error {
				for coll := range colls {
					if _, err := db.Docs.Delete(tx, coll, "k1"); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			delete(docs, "k1")
		}
		pb := ginBytes(pat)
		pattern := ginValue(&pb, 0, false)

		for coll, mode := range colls {
			q := `FOR d IN ` + coll + ` FILTER d @> @p SORT d._key RETURN d._key`
			params := map[string]mmvalue.Value{"p": pattern}
			gin, err := db.QueryOpts(q, params, query.Options{})
			if err != nil {
				t.Fatal(err)
			}
			scan, err := db.QueryOpts(q, params, queryOptsNoIndex())
			if err != nil {
				t.Fatal(err)
			}
			if g, s := fmt.Sprint(core.Strings(gin)), fmt.Sprint(core.Strings(scan)); g != s {
				t.Fatalf("%s @> %v: GIN %s, scan %s (docs %v)", coll, pattern, g, s, docs)
			}
			if used := len(gin.Stats.IndexUsed) > 0; used != (len(inverted.Items(mode, pattern)) > 0) {
				t.Fatalf("%s @> %v: GIN used = %v with %d pattern items", coll, pattern, used, len(inverted.Items(mode, pattern)))
			}
		}

		var words []string
		for _, c := range terms {
			words = append(words, ginWords[int(c)%len(ginWords)])
		}
		text := strings.Join(words, " ")
		want := []string{}
		if toks := inverted.Tokenize(text); len(toks) > 0 {
			for key, doc := range docs {
				have := map[string]bool{}
				ginTokens(doc, have)
				if !slices.ContainsFunc(toks, func(tok string) bool { return !have[tok] }) {
					want = append(want, key)
				}
			}
		}
		slices.Sort(want)
		res, err := db.Query(`RETURN FTSEARCH("ops", @terms)`, map[string]mmvalue.Value{"terms": mmvalue.String(text)})
		if err != nil {
			t.Fatal(err)
		}
		got := []string{}
		for _, v := range res.Values[0].AsArray() {
			got = append(got, v.AsString())
		}
		if !slices.Equal(got, want) {
			t.Fatalf("FTSEARCH(%q) = %v, token-set filter %v (docs %v)", text, got, want, docs)
		}
	})
}
