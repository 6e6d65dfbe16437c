package engine

import (
	"fmt"
	"sync"
	"testing"
)

// These tests pin the per-keyspace data version counters that back the CSR
// cache's validity token: one bump per keyspace per committing transaction,
// drops delete the entry, and a Snapshot carries exactly the vector
// describing the state it holds.

func mustUpdate(t *testing.T, e *Engine, fn func(*Txn) error) {
	t.Helper()
	if err := e.Update(fn); err != nil {
		t.Fatal(err)
	}
}

func TestVersionsBumpOncePerTxnPerKeyspace(t *testing.T) {
	e, err := Open(Options{Durability: Ephemeral})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	if vs := e.Versions(); len(vs) != 0 {
		t.Fatalf("fresh engine Versions() = %v, want empty", vs)
	}

	// Many writes to one keyspace plus one write to another, in one txn:
	// each keyspace bumps exactly once.
	mustUpdate(t, e, func(tx *Txn) error {
		for i := 0; i < 5; i++ {
			if err := tx.Put("a", []byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
				return err
			}
		}
		if err := tx.Delete("a", []byte("k0")); err != nil {
			return err
		}
		return tx.Put("b", []byte("k"), []byte("v"))
	})
	vs := e.Versions()
	if vs["a"] != 1 || vs["b"] != 1 {
		t.Fatalf("Versions() = %v, want a=1 b=1", vs)
	}

	// A second txn touching only "a" bumps only "a".
	mustUpdate(t, e, func(tx *Txn) error {
		return tx.Put("a", []byte("x"), []byte("y"))
	})
	vs = e.Versions()
	if vs["a"] != 2 || vs["b"] != 1 {
		t.Fatalf("Versions() = %v, want a=2 b=1", vs)
	}

	// Read-only and aborted transactions bump nothing.
	if err := e.View(func(tx *Txn) error {
		_, _, err := tx.Get("a", []byte("x"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	tx, err := e.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Put("a", []byte("doomed"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if vs := e.Versions(); vs["a"] != 2 || vs["b"] != 1 {
		t.Fatalf("Versions() after view+abort = %v, want a=2 b=1", vs)
	}
}

func TestVersionsDropDeletesEntry(t *testing.T) {
	e, err := Open(Options{Durability: Ephemeral})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	mustUpdate(t, e, func(tx *Txn) error {
		return tx.Put("a", []byte("k"), []byte("v"))
	})
	mustUpdate(t, e, func(tx *Txn) error {
		return tx.Put("a", []byte("k2"), []byte("v"))
	})
	if vs := e.Versions(); vs["a"] != 2 {
		t.Fatalf("Versions() = %v, want a=2", vs)
	}
	mustUpdate(t, e, func(tx *Txn) error {
		return tx.DropKeyspace("a")
	})
	if vs := e.Versions(); len(vs) != 0 {
		t.Fatalf("Versions() after drop = %v, want empty", vs)
	}
	// Re-create: the lineage restarts at 1, not 3.
	mustUpdate(t, e, func(tx *Txn) error {
		return tx.Put("a", []byte("k"), []byte("v"))
	})
	if vs := e.Versions(); vs["a"] != 1 {
		t.Fatalf("Versions() after re-create = %v, want a=1", vs)
	}
}

func TestVersionsWriteThenDropThenWriteSameTxn(t *testing.T) {
	e, err := Open(Options{Durability: Ephemeral})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	// Put, drop, and re-put the same keyspace in one transaction: the drop
	// un-marks the earlier bump, so the re-create lands at version 1.
	mustUpdate(t, e, func(tx *Txn) error {
		if err := tx.Put("a", []byte("k"), []byte("v")); err != nil {
			return err
		}
		if err := tx.DropKeyspace("a"); err != nil {
			return err
		}
		return tx.Put("a", []byte("k2"), []byte("v2"))
	})
	if vs := e.Versions(); vs["a"] != 1 {
		t.Fatalf("Versions() = %v, want a=1", vs)
	}
}

func TestVersionsForAbsentReadsZero(t *testing.T) {
	e, err := Open(Options{Durability: Ephemeral})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	mustUpdate(t, e, func(tx *Txn) error {
		return tx.Put("a", []byte("k"), []byte("v"))
	})
	got := e.Snapshot().VersionsFor([]string{"a", "nope", "a"})
	if got[0] != 1 || got[1] != 0 || got[2] != 1 {
		t.Fatalf("VersionsFor = %v, want [1 0 1]", got)
	}
}

func TestVersionedSnapshotPairsVectorWithState(t *testing.T) {
	e, err := Open(Options{Durability: Ephemeral})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	mustUpdate(t, e, func(tx *Txn) error {
		return tx.Put("a", []byte("k"), []byte("1"))
	})

	// Hammer commits while repeatedly taking snapshots; each snapshot's
	// observed value index must equal the version it carries.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 2; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			v := []byte(fmt.Sprintf("%d", i))
			if err := e.Update(func(tx *Txn) error {
				return tx.Put("a", []byte("k"), v)
			}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 200; i++ {
		snap := e.Snapshot()
		vers := snap.VersionsFor([]string{"a"})
		v, ok := snap.Get("a", []byte("k"))
		if !ok {
			t.Fatal("key missing in snapshot")
		}
		if want := fmt.Sprintf("%d", vers[0]); string(v) != want {
			t.Fatalf("snapshot value %q does not match version %d", v, vers[0])
		}
	}
	close(stop)
	wg.Wait()
}

func TestSnapshotViewAtReadsCapturedState(t *testing.T) {
	e, err := Open(Options{Durability: Ephemeral})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	mustUpdate(t, e, func(tx *Txn) error {
		if err := tx.Put("b", []byte("k"), []byte("v")); err != nil {
			return err
		}
		return tx.Put("a", []byte("k"), []byte("old"))
	})
	snap := e.Snapshot()
	if vers := snap.VersionsFor([]string{"a"}); vers[0] != 1 {
		t.Fatalf("version = %d, want 1", vers[0])
	}
	mustUpdate(t, e, func(tx *Txn) error {
		return tx.DropKeyspace("b")
	})
	mustUpdate(t, e, func(tx *Txn) error {
		return tx.Put("a", []byte("k"), []byte("new"))
	})
	before := e.SnapshotReads()
	tx, err := e.BeginSnapshotAt(snap)
	if err != nil {
		t.Fatal(err)
	}
	v, ok, err := tx.Get("a", []byte("k"))
	if err != nil || !ok || string(v) != "old" {
		t.Fatalf("BeginSnapshotAt txn read %q/%v/%v, want old", v, ok, err)
	}
	if err := tx.Put("a", []byte("k"), []byte("x")); err != ErrReadOnlyTxn {
		t.Fatalf("Put on BeginSnapshotAt txn = %v, want ErrReadOnlyTxn", err)
	}
	// The transaction reports the captured cut's token, not the live one.
	if vers, ok := tx.SnapshotVersionsFor([]string{"a"}); !ok || vers[0] != 1 {
		t.Fatalf("SnapshotVersionsFor = %v, %v, want [1] true", vers, ok)
	}
	if epoch, ok := tx.SnapshotDropEpoch(); !ok || epoch != snap.DropEpoch() || epoch == e.Snapshot().DropEpoch() {
		t.Fatalf("SnapshotDropEpoch = %d, %v; captured %d, live %d", epoch, ok, snap.DropEpoch(), e.Snapshot().DropEpoch())
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if got := e.SnapshotReads(); got != before+1 {
		t.Fatalf("SnapshotReads() = %d, want %d", got, before+1)
	}
}

func TestSnapshotVersionsForDescribeTheCut(t *testing.T) {
	e, err := Open(Options{Durability: Ephemeral})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	mustUpdate(t, e, func(tx *Txn) error {
		if err := tx.Put("a", []byte("k"), []byte("1")); err != nil {
			return err
		}
		return tx.Put("b", []byte("k"), []byte("1"))
	})
	snap := e.Snapshot()
	// Later commits must not move the snapshot's vector.
	mustUpdate(t, e, func(tx *Txn) error {
		return tx.Put("a", []byte("k"), []byte("2"))
	})
	if got := snap.VersionsFor([]string{"a", "b", "absent"}); got[0] != 1 || got[1] != 1 || got[2] != 0 {
		t.Fatalf("snapshot VersionsFor = %v, want [1 1 0]", got)
	}
	if got := e.Versions()["a"]; got != 2 {
		t.Fatalf("live version of a = %d, want 2", got)
	}

	// Txn.SnapshotVersionsFor: snapshot transactions expose the cut's
	// vector; locked transactions expose nothing.
	tx, err := e.BeginSnapshotAt(snap)
	if err != nil {
		t.Fatal(err)
	}
	if vers, ok := tx.SnapshotVersionsFor([]string{"a"}); !ok || vers[0] != 1 {
		t.Fatalf("SnapshotVersionsFor = %v, %v, want [1] true", vers, ok)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	locked, err := e.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := locked.SnapshotVersionsFor([]string{"a"}); ok {
		t.Fatal("locked txn reported snapshot versions")
	}
	if err := locked.Abort(); err != nil {
		t.Fatal(err)
	}
}
