package engine_test

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/catalog"
	"repro/internal/colstore"
	"repro/internal/docstore"
	"repro/internal/engine"
	"repro/internal/engine/scantest"
	"repro/internal/keyenc"
	"repro/internal/mmvalue"
	"repro/internal/relstore"
)

func openEphemeral(t *testing.T) *engine.Engine {
	t.Helper()
	e, err := engine.Open(engine.Options{Durability: engine.Ephemeral})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// TestScanMatchesSortedMapModel runs the shared range-read property check on
// the engine's locked and snapshot transactions.
func TestScanMatchesSortedMapModel(t *testing.T) {
	for _, seed := range []int64{1, 2, 20170321} {
		e := openEphemeral(t)
		scantest.Run(t, scantest.DB{
			Update: func(fn func(engine.Tx) error) error { return e.Update(func(tx *engine.Txn) error { return fn(tx) }) },
			Begin:  func() (engine.Tx, error) { return e.Begin() },
			SnapshotView: func(fn func(engine.Tx) error) error {
				return e.SnapshotView(func(tx *engine.Txn) error { return fn(tx) })
			},
		}, seed)
	}
}

// loadGroups commits n keys shaped like an edge index: groups of three
// members under a common keyenc prefix.
func loadGroups(t *testing.T, e *engine.Engine, ks string, n int) {
	t.Helper()
	err := e.Update(func(tx *engine.Txn) error {
		for i := 0; i < n; i++ {
			k := keyenc.AppendString(keyenc.AppendString(nil, fmt.Sprintf("v%06d", i/3)), fmt.Sprintf("e%d", i%3))
			if err := tx.Put(ks, k, []byte{1}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestScanAllocsIndependentOfKeyspaceSize is the guard against a per-scan
// O(keyspace) buffer: a 3-row prefix scan allocates the same — in count and
// in bytes — on a keyspace of a thousand keys and on one of a hundred
// thousand.
func TestScanAllocsIndependentOfKeyspaceSize(t *testing.T) {
	e := openEphemeral(t)
	loadGroups(t, e, "small", 1_000)
	loadGroups(t, e, "large", 100_000)
	lo := keyenc.AppendString(nil, "v000123")
	hi := keyenc.AppendMax(keyenc.AppendString(nil, "v000123"))
	// The three transactions run one after another: the staged writes of the
	// last would otherwise block the locked scans of the second.
	for _, c := range []struct {
		name   string
		begin  func() (*engine.Txn, error)
		staged bool
	}{{"snapshot", e.BeginSnapshot, false}, {"locked", e.Begin, false}, {"locked with staged writes", e.Begin, true}} {
		tx, err := c.begin()
		if err != nil {
			t.Fatal(err)
		}
		defer tx.Abort()
		for _, ks := range []string{"small", "large"} {
			if !c.staged {
				break
			}
			// A staged write in range puts the scans on the merge path.
			if err := tx.Put(ks, keyenc.AppendString(keyenc.AppendString(nil, "v000123"), "e9"), []byte{2}); err != nil {
				t.Fatal(err)
			}
		}
		measure := func(ks string) (allocs float64, bytes uint64) {
			scan := func() {
				rows := 0
				if err := tx.Scan(ks, lo, hi, func(_, _ []byte) bool { rows++; return true }); err != nil || rows < 3 {
					t.Fatalf("%s scan of %s: %d rows, %v", c.name, ks, rows, err)
				}
			}
			allocs = testing.AllocsPerRun(50, scan)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < 50; i++ {
				scan()
			}
			runtime.ReadMemStats(&after)
			return allocs, (after.TotalAlloc - before.TotalAlloc) / 50
		}
		smallAllocs, smallBytes := measure("small")
		largeAllocs, largeBytes := measure("large")
		if smallAllocs != largeAllocs || largeBytes > smallBytes+smallBytes/4 {
			t.Errorf("%s: a 3-row prefix scan costs %.0f allocs / %d B on 1 000 keys but %.0f allocs / %d B on 100 000",
				c.name, smallAllocs, smallBytes, largeAllocs, largeBytes)
		}
		if err := tx.Abort(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStoreScanAllocsPerRowIndependentOfSize is the guard on the per-row
// cost of the store scans the query layer iterates: a document scan and a
// table scan, each of collections that fit the store's decode cache and of
// ones that exceed it, a wide-column item scan and the vectorized
// executor's column-batch read (of a dense table, of the same table
// projected to one attribute, and of a sparse one with as many attributes
// as rows). Each allocates the same per row, in count and in bytes, from
// its smallest to its middle size as from its middle to its largest, and
// stays within a fixed per-row allocation budget.
//
// The per-row cost is the slope between two table sizes, which leaves out a
// scan's fixed cost: a dense column-batch read allocates about 0.03 times
// per row, so its dozen allocations per call (the reader, the keyspace
// name, the growing batch list) would move a per-row quotient by a third
// between a thousand rows and ten thousand. The column sizes are whole
// multiples of colstore.DefaultBatchSize, so both slopes cover whole
// batches. The document and table sizes keep each regime on one side of
// the 8 192-entry decode cache: three that together fit it, read warm, and
// three that each exceed it, so every record misses, is decoded and is
// inserted again into a shard the scan keeps clearing.
func TestStoreScanAllocsPerRowIndependentOfSize(t *testing.T) {
	e := openEphemeral(t)
	cat := catalog.New(e)
	docs := docstore.New(e, cat)
	rels := relstore.New(e, cat)
	cols := colstore.New(e)
	update := func(fn func(tx *engine.Txn) error) {
		if err := e.Update(fn); err != nil {
			t.Fatal(err)
		}
	}
	loadDocs := func(name string, n int) {
		update(func(tx *engine.Txn) error {
			if err := docs.CreateCollection(tx, name, catalog.Schemaless); err != nil {
				return err
			}
			for i := 0; i < n; i++ {
				key := fmt.Sprintf("o%06d", i)
				doc := mmvalue.MustParseJSON(fmt.Sprintf(`{"Order_no":%q,"customer_id":%d,"total":%d,"rev":0,
					"Orderlines":[{"Product_no":"p%d","Price":66,"Qty":1},{"Product_no":"p%d","Price":40,"Qty":2}]}`,
					key, i%97, 106+i%13, i%31, i%37))
				if err := docs.Put(tx, name, key, doc); err != nil {
					return err
				}
			}
			return nil
		})
	}
	loadRows := func(name string, n int) {
		update(func(tx *engine.Txn) error {
			if err := rels.CreateTable(tx, name, relstore.TableSchema{
				Columns: []relstore.Column{
					{Name: "id", Type: relstore.TInt, NotNull: true},
					{Name: "name", Type: relstore.TString},
					{Name: "country", Type: relstore.TString},
					{Name: "credit_limit", Type: relstore.TInt},
				},
				PrimaryKey: []string{"id"},
			}); err != nil {
				return err
			}
			for i := 0; i < n; i++ {
				row := mmvalue.Object(mmvalue.F("id", mmvalue.Int(int64(i))), mmvalue.F("name", mmvalue.String(fmt.Sprintf("c%06d", i))),
					mmvalue.F("country", mmvalue.String(fmt.Sprintf("country%d", i%7))), mmvalue.F("credit_limit", mmvalue.Int(int64(i%10000))))
				if err := rels.Insert(tx, name, row); err != nil {
					return err
				}
			}
			return nil
		})
	}
	loadCols := func(name string, n int) {
		update(func(tx *engine.Txn) error {
			for i := 0; i < n; i++ {
				attrs := mmvalue.Object(mmvalue.F("v", mmvalue.Int(int64(i))), mmvalue.F("pos", mmvalue.Int(int64(i%1000))))
				if err := cols.PutItem(tx, name, mmvalue.Int(int64(i%10)), mmvalue.Int(int64(i)), attrs); err != nil {
					return err
				}
				// A wide sparse table: every item carries v and one attribute
				// no other item has, so the table has as many attributes as rows.
				attrs = mmvalue.Object(mmvalue.F("v", mmvalue.Int(int64(i))), mmvalue.F(fmt.Sprintf("a%06d", i), mmvalue.Int(1)))
				if err := cols.PutItem(tx, name+"_sparse", mmvalue.Int(int64(i%10)), mmvalue.Int(int64(i)), attrs); err != nil {
					return err
				}
			}
			return nil
		})
	}
	fits := [3]int{512, 1024, 2048}
	exceeds := [3]int{10240, 15360, 20480}
	batches := [3]int{1 * colstore.DefaultBatchSize, 5 * colstore.DefaultBatchSize, 10 * colstore.DefaultBatchSize}
	// Every name is as long as the others, so a scan's fixed cost (its
	// keyspace name among it) is the same at every size.
	tableName := func(prefix string, n int) string { return fmt.Sprintf("%s%05d", prefix, n) }
	for _, n := range append(fits[:], exceeds[:]...) {
		loadDocs(tableName("d", n), n)
		loadRows(tableName("r", n), n)
	}
	for _, n := range batches {
		loadCols(tableName("c", n), n)
	}
	// cost returns what one scan of the named table allocates, in count and
	// in bytes, and the rows it read. AllocsPerRun's warm-up run fills the
	// decode cache for a table that fits it.
	cost := func(scan func(tx engine.Tx, name string) (rows int, err error), name string) (allocs, bytes float64, rows int) {
		err := e.SnapshotView(func(tx *engine.Txn) error {
			run := func() {
				var err error
				if rows, err = scan(tx, name); err != nil {
					t.Fatal(err)
				}
			}
			allocs = testing.AllocsPerRun(5, run)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			run()
			runtime.ReadMemStats(&after)
			bytes = float64(after.TotalAlloc - before.TotalAlloc)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return allocs, bytes, rows
	}
	docScan := func(tx engine.Tx, name string) (rows int, err error) {
		err = docs.Scan(tx, name, func(string, mmvalue.Value) bool { rows++; return true })
		return rows, err
	}
	relScan := func(tx engine.Tx, name string) (rows int, err error) {
		err = rels.Scan(tx, name, func(mmvalue.Value) bool { rows++; return true })
		return rows, err
	}
	readBatches := func(suffix string, project []string) func(tx engine.Tx, name string) (rows int, err error) {
		return func(tx engine.Tx, name string) (rows int, err error) {
			batches, err := cols.ReadBatches(tx, name+suffix, 0, project)
			for _, b := range batches {
				rows += b.Len()
			}
			return rows, err
		}
	}
	for _, c := range []struct {
		name      string
		prefix    string // of the tableName of each size
		sizes     [3]int
		scan      func(tx engine.Tx, name string) (rows int, err error)
		maxAllocs float64 // per row, plus a hundredth
	}{
		// Warm: every record is a cache hit and its key the document's own _key.
		{"docstore.Scan (fits the cache)", "d", fits, docScan, 0},
		// Cold: a shard cleared in place keeps its map, so a miss costs
		// what a plain decode does.
		{"docstore.Scan (exceeds the cache)", "d", exceeds, docScan, 3}, // the record's string and two arenas
		{"relstore.Scan (fits the cache)", "r", fits, relScan, 0},
		{"relstore.Scan (exceeds the cache)", "r", exceeds, relScan, 2}, // the row's string and field arena
		{"colstore.ScanJSON", "c", batches, func(tx engine.Tx, name string) (rows int, err error) {
			err = cols.ScanJSON(tx, name, func(mmvalue.Value) bool { rows++; return true })
			return rows, err
		}, 2}, // the item's field slice and its one multi-byte attribute name
		// Per batch its vectors, bitmaps and column names; a key allocates nothing.
		{"colstore.ReadBatches", "c", batches, readBatches("", nil), 0.03},
		// The same for one column; other attributes are skipped by their encoded name.
		{"colstore.ReadBatches (projected)", "c", batches, readBatches("", []string{"v"}), 0.02},
		// The item's attribute name, plus per batch of ~12 items (cut where it
		// stops being Dense) its map and one vector and bitmap per column.
		{"colstore.ReadBatches (sparse)", "c", batches, readBatches("_sparse", nil), 5.4},
	} {
		var allocs, bytes [3]float64
		var rows [3]int
		for i, n := range c.sizes {
			allocs[i], bytes[i], rows[i] = cost(c.scan, tableName(c.prefix, n))
			if rows[i] != n {
				t.Fatalf("%s read %d rows of %s, want %d", c.name, rows[i], tableName(c.prefix, n), n)
			}
		}
		slope := func(i int) (perRowAllocs, perRowBytes float64) {
			d := float64(rows[i+1] - rows[i])
			return (allocs[i+1] - allocs[i]) / d, (bytes[i+1] - bytes[i]) / d
		}
		lowAllocs, lowBytes := slope(0)
		highAllocs, highBytes := slope(1)
		t.Logf("%s per row: %.3f allocs / %.0f B from %d to %d rows, %.3f allocs / %.0f B from %d to %d (fixed ≈ %.0f allocs)",
			c.name, lowAllocs, lowBytes, rows[0], rows[1], highAllocs, highBytes, rows[1], rows[2], allocs[0]-lowAllocs*float64(rows[0]))
		if math.Abs(highAllocs-lowAllocs) > lowAllocs/20 || math.Abs(highBytes-lowBytes) > lowBytes/20 {
			t.Errorf("%s costs %.3f allocs / %.0f B per row from %d to %d rows but %.3f / %.0f from %d to %d",
				c.name, lowAllocs, lowBytes, rows[0], rows[1], highAllocs, highBytes, rows[1], rows[2])
		}
		if highAllocs > c.maxAllocs+0.01 {
			t.Errorf("%s costs %.3f allocations per row, want %g", c.name, highAllocs, c.maxAllocs)
		}
	}
}

// TestScanUnderLiveWriter streams locked and snapshot scans of a keyspace
// while a writer keeps committing to it. Every commit rewrites all keys to
// one generation, so a scan that saw two generations read a torn state; under
// -race it also shows that walking a cut outside the engine mutex does not
// race with the writer's tree mutation.
func TestScanUnderLiveWriter(t *testing.T) {
	e := openEphemeral(t)
	const keys = 200
	write := func(gen byte) error {
		return e.Update(func(tx *engine.Txn) error {
			for i := 0; i < keys; i++ {
				if err := tx.Put("live", []byte(fmt.Sprintf("k%03d", i)), []byte{gen}); err != nil {
					return err
				}
			}
			return nil
		})
	}
	if err := write(0); err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for gen := byte(1); !stop.Load(); gen++ {
			if err := write(gen); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	scanOnce := func(tx *engine.Txn) error {
		n, gen := 0, -1
		err := tx.Scan("live", nil, nil, func(_, v []byte) bool {
			if gen >= 0 && int(v[0]) != gen {
				t.Errorf("scan saw generations %d and %d", gen, v[0])
				return false
			}
			n, gen = n+1, int(v[0])
			return true
		})
		if err == nil && n != keys {
			t.Errorf("scan saw %d keys, want %d", n, keys)
		}
		return err
	}
	for i := 0; i < 200 && !t.Failed(); i++ {
		view := e.View
		if i%2 == 1 {
			view = e.SnapshotView
		}
		if err := view(scanOnce); err != nil {
			t.Error(err)
		}
	}
	stop.Store(true)
	wg.Wait()
}
