package main

import "testing"

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 60},  // overlaps span 2: 30..40 counted once
		{ID: 4, Parent: 1, Start: 80, End: 120}, // runs past its parent: clipped at 100
		{ID: 5, Parent: 2, Start: 15, End: 20},  // a grandchild is its parent's business
	}
	self := selfTimes(spans)
	// Span 1: 100 - (10..60 = 50) - (80..100 = 20) = 30.
	want := map[int]int64{1: 30, 2: 25, 3: 30, 4: 40, 5: 5}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	tr.nextOp()
	a := tr.begin("outer")
	b := tr.begin("inner")
	tr.end(b)
	tr.end(a)
	tr.nextOp()
	c := tr.begin("next")
	tr.endN(c, 7)
	if got := tr.spans[b-1]; got.Parent != a || got.Op != 1 {
		t.Errorf("inner span = %+v, want parent %d op 1", got, a)
	}
	if got := tr.spans[c-1]; got.Parent != 0 || got.Op != 2 || got.N != 7 {
		t.Errorf("next span = %+v, want parent 0 op 2 n 7", got)
	}
	var off *tracer
	off.nextOp()
	off.end(off.begin("nothing")) // a nil tracer records nothing and does not panic
}
