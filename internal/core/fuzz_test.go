package core_test

import (
	"math"
	"testing"

	"repro/internal/docstore"
	"repro/internal/engine"
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
