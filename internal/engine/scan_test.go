package engine_test

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/engine"
	"repro/internal/engine/scantest"
	"repro/internal/keyenc"
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
