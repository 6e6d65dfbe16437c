package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer. Spans of one logical operation share
// Op; Parent is the ID of the enclosing span (0 for a rung's outermost call).
// Times are nanoseconds since the tracer started. N is how many calls a batch
// span covers (1 for a single call).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int    `json:"n"`
}

// tracer records spans in memory; nothing is written until flush. A nil
// tracer records nothing, which is how the untraced replay runs the same code.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int // IDs of open spans
	op    int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

// nextOp starts a new logical operation.
func (t *tracer) nextOp() {
	if t != nil {
		t.op++
	}
}

func (t *tracer) begin(name string) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	parent := 0
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Name: name, N: 1})
	t.stack = append(t.stack, id)
	t.spans[id-1].Start = int64(time.Since(t.t0))
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.spans[id-1].End = now
	t.stack = t.stack[:len(t.stack)-1]
}

// endN closes a batch span that covered n calls.
func (t *tracer) endN(id, n int) {
	t.end(id)
	if t != nil {
		t.spans[id-1].N = n
	}
}

// selfTimes returns, per span ID, the span's duration minus the part of that
// interval its direct children cover (overlapping children are not counted
// twice).
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, hi := int64(0), s.Start
		for _, k := range kids {
			lo, end := max(k.Start, hi), min(k.End, s.End)
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		out[s.ID] = s.End - s.Start - covered
	}
	return out
}

// flush writes one JSON object per span.
func (t *tracer) flush(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
