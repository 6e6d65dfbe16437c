package core_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/mmvalue"
)

// TestConcurrentMixedWorkload hammers one database with concurrent
// cross-model writers, readers, and queries; afterwards every invariant
// must hold: counts match, no dangling references, the full-text index
// agrees with the primary data.
func TestConcurrentMixedWorkload(t *testing.T) {
	db := openDB(t)
	err := db.Update(func(tx engine.Tx) error {
		if err := db.Docs.CreateCollection(tx, "items", catalogSchemaless()); err != nil {
			return err
		}
		return db.CreateGraph(tx, "links")
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateFullText("items"); err != nil {
		t.Fatal(err)
	}

	const writers = 6
	const perWriter = 50
	var wg sync.WaitGroup
	errCh := make(chan error, writers*2)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				key := fmt.Sprintf("w%d-i%d", w, i)
				err := db.Update(func(tx engine.Tx) error {
					if err := db.Docs.Put(tx, "items", key, mmvalue.Object(
						mmvalue.F("writer", mmvalue.Int(int64(w))),
						mmvalue.F("note", mmvalue.String("written by worker")),
					)); err != nil {
						return err
					}
					if err := db.Graphs.PutVertex(tx, "links", key, mmvalue.Object()); err != nil {
						return err
					}
					return db.KV.Set(tx, "mirror", key, mmvalue.String(key))
				})
				if err != nil {
					errCh <- err
					return
				}
			}
		}(w)
		// Concurrent readers running queries.
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, err := db.Query(`FOR d IN items FILTER d.writer == @w RETURN d._key`,
					map[string]mmvalue.Value{"w": mmvalue.Int(int64(w))}); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	total := writers * perWriter
	if got := db.Docs.Count("items"); got != total {
		t.Fatalf("items = %d, want %d", got, total)
	}
	if got := db.Graphs.VertexCount("links"); got != total {
		t.Fatalf("vertices = %d, want %d", got, total)
	}
	// Every document has its KV mirror (cross-model consistency).
	res, err := db.Query(`
		FOR d IN items
		  FILTER KV('mirror', d._key) == null
		  RETURN d._key`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != 0 {
		t.Fatalf("documents without mirrors: %v", res.Values)
	}
	// The full-text index saw every committed write.
	if got := len(db.FullTextSearch("items", "worker")); got != total {
		t.Fatalf("full-text index has %d docs, want %d", got, total)
	}
}
