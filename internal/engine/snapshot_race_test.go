package engine

import (
	"fmt"
	"sync"
	"testing"
)

// TestSnapshotViewAtUnderCheckpointAndWriters is the dynamic twin of the
// static lockorder/snapshotpure analyzers: it interleaves, under the race
// detector, the three parties whose lock interaction the canonical order
// pins — snapshot readers (a Snapshot cut, then BeginSnapshotAt on it: zero
// lock traffic), committing writers (commitMu.RLock → WAL append →
// engine.mu apply), and checkpoints (cpMu → commitMu.Lock barrier). Every writer commits an atomic triple of
// equal values; every reader, on a snapshot it pinned itself, must see the
// triple intact — and nothing may deadlock.
func TestSnapshotViewAtUnderCheckpointAndWriters(t *testing.T) {
	e, err := Open(Options{Dir: t.TempDir(), Durability: Buffered})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	keys := []string{"k1", "k2", "k3"}
	seed := func(v string) error {
		return e.Update(func(tx *Txn) error {
			for _, k := range keys {
				if err := tx.Put("ks", []byte(k), []byte(v)); err != nil {
					return err
				}
			}
			return nil
		})
	}
	if err := seed("seed"); err != nil {
		t.Fatal(err)
	}

	const (
		writers    = 4
		readers    = 4
		writeIters = 40
		readIters  = 60
		checkpoint = 12
	)
	errCh := make(chan error, writers+readers+1)
	var wg sync.WaitGroup

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < writeIters; i++ {
				if err := seed(fmt.Sprintf("w%d-i%d", w, i)); err != nil {
					errCh <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
			}
		}(w)
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < checkpoint; i++ {
			if err := e.Checkpoint(); err != nil {
				errCh <- fmt.Errorf("checkpoint: %w", err)
				return
			}
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < readIters; i++ {
				if err := readTriple(e, e.Snapshot(), keys); err != nil {
					errCh <- fmt.Errorf("reader %d: %w", r, err)
					return
				}
			}
		}(r)
	}

	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// readTriple reads keys on a transaction started at snap and requires them
// all present and equal.
func readTriple(e *Engine, snap *Snapshot, keys []string) error {
	tx, err := e.BeginSnapshotAt(snap)
	if err != nil {
		return err
	}
	defer tx.Abort()
	var first []byte
	for j, k := range keys {
		v, ok, err := tx.Get("ks", []byte(k))
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("key %s missing from snapshot", k)
		}
		if j == 0 {
			first = v
		} else if string(v) != string(first) {
			return fmt.Errorf("torn snapshot: %s=%q, %s=%q", keys[0], first, k, v)
		}
	}
	return nil
}
