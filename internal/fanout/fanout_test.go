package fanout

import (
	"errors"
	"testing"
)

// TestRunChunksRecoversPanic checks that a panic in a chunk body becomes
// the run's error, carrying the panic value, whether the chunk runs on a
// worker goroutine or inline as the only chunk.
func TestRunChunksRecoversPanic(t *testing.T) {
	for _, p := range []Partition{{N: 2, K: 2}, {N: 1, K: 1}} {
		ran := make([]bool, p.K)
		err := RunChunks(p, func(ci, lo, hi int) error {
			ran[ci] = true
			if ci == p.K-1 {
				panic("boom")
			}
			return nil
		})
		var cp *ChunkPanic
		if !errors.As(err, &cp) || cp.Value != "boom" {
			t.Fatalf("%d chunks: err = %v, want a ChunkPanic carrying \"boom\"", p.K, err)
		}
		for ci, ok := range ran {
			if !ok {
				t.Fatalf("%d chunks: chunk %d never ran", p.K, ci)
			}
		}
	}
}

// TestRunChunksFirstErrorInChunkOrder checks that the error returned is the
// lowest chunk's, the one a serial pass would hit first.
func TestRunChunksFirstErrorInChunkOrder(t *testing.T) {
	errs := []error{nil, errors.New("second"), errors.New("third")}
	err := RunChunks(Partition{N: 3, K: 3}, func(ci, lo, hi int) error { return errs[ci] })
	if err != errs[1] {
		t.Fatalf("err = %v, want %v", err, errs[1])
	}
}
