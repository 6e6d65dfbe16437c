// Package fanout is the program's one goroutine fan-out. It cuts [0, n)
// into contiguous chunks, runs a body over each chunk on a goroutine of its
// own, returns a panic in a body as an error instead of crashing the
// process, and reports the first error in chunk order. The query
// executor's parallel stages, the CSR frontier expansion and the shard
// scatter all run through it; their merges read the per-chunk results in
// chunk order, which is what keeps a parallel run byte-identical to the
// serial one.
package fanout

import (
	"fmt"
	"sync"
)

// Partition cuts [0, N) into K contiguous chunks of near-equal size, chunk
// i being [i·N/K, (i+1)·N/K). K == 1 is serial execution.
type Partition struct{ N, K int }

// Chunk returns the bounds of chunk i.
func (p Partition) Chunk(i int) (lo, hi int) {
	return i * p.N / p.K, (i + 1) * p.N / p.K
}

// RunChunks runs body over every chunk of p and returns the first error in
// chunk order — the error a serial pass would hit first, since chunks are
// contiguous and each body stops at its first error. A single chunk runs on
// the calling goroutine; more run on one goroutine each.
func RunChunks(p Partition, body func(ci, lo, hi int) error) error {
	if p.K == 1 {
		return runChunk(p, 0, body)
	}
	errs := make([]error, p.K)
	var wg sync.WaitGroup
	for ci := range p.K {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[ci] = runChunk(p, ci, body)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runChunk runs body over chunk ci, returning a panic in it as a
// *ChunkPanic error.
func runChunk(p Partition, ci int, body func(ci, lo, hi int) error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &ChunkPanic{Value: v}
		}
	}()
	lo, hi := p.Chunk(ci)
	return body(ci, lo, hi)
}

// ChunkPanic is a panic recovered from a chunk body, returned as the run's
// error.
type ChunkPanic struct{ Value any }

func (e *ChunkPanic) Error() string { return fmt.Sprintf("panic in a fan-out chunk: %v", e.Value) }

// ConcatChunks joins per-chunk results in chunk order. One chunk's result
// is returned as is, and no results at all as nil, as a serial pass leaves
// them.
func ConcatChunks[T any](per [][]T) []T {
	if len(per) == 1 {
		return per[0]
	}
	total := 0
	for _, s := range per {
		total += len(s)
	}
	if total == 0 {
		return nil
	}
	out := make([]T, 0, total)
	for _, s := range per {
		out = append(out, s...)
	}
	return out
}
