package bitmapidx

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBitsetBasics(t *testing.T) {
	b := NewBitset()
	if b.Count() != 0 || b.Has(0) {
		t.Fatal("empty bitset wrong")
	}
	b.Set(0)
	b.Set(63)
	b.Set(64)
	b.Set(1000)
	if b.Count() != 4 {
		t.Fatalf("Count = %d", b.Count())
	}
	for _, i := range []int{0, 63, 64, 1000} {
		if !b.Has(i) {
			t.Fatalf("Has(%d) = false", i)
		}
	}
	if b.Has(1) || b.Has(999) {
		t.Fatal("spurious bits")
	}
	b.Clear(63)
	if b.Has(63) || b.Count() != 3 {
		t.Fatal("Clear failed")
	}
	b.Clear(99999) // clear beyond words is a no-op
	// Set is idempotent.
	b.Set(0)
	if b.Count() != 3 {
		t.Fatal("double Set changed count")
	}
}

func TestBitsetOps(t *testing.T) {
	a, b := NewBitset(), NewBitset()
	for _, i := range []int{1, 2, 3, 200} {
		a.Set(i)
	}
	for _, i := range []int{2, 3, 4} {
		b.Set(i)
	}
	and := a.And(b)
	if and.Count() != 2 || !and.Has(2) || !and.Has(3) {
		t.Fatalf("And wrong: count=%d", and.Count())
	}
	or := a.Or(b)
	if or.Count() != 5 || !or.Has(200) || !or.Has(4) {
		t.Fatalf("Or wrong: count=%d", or.Count())
	}
	diff := a.AndNot(b)
	if diff.Count() != 2 || !diff.Has(1) || !diff.Has(200) {
		t.Fatalf("AndNot wrong: count=%d", diff.Count())
	}
}

func TestBitsetForEach(t *testing.T) {
	b := NewBitset()
	want := []int{3, 64, 65, 500}
	for _, i := range want {
		b.Set(i)
	}
	var got []int
	b.ForEach(func(i int) bool { got = append(got, i); return true })
	if len(got) != len(want) {
		t.Fatalf("ForEach = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach order = %v", got)
		}
	}
	// Early stop.
	n := 0
	b.ForEach(func(i int) bool { n++; return false })
	if n != 1 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestBitmapIndex(t *testing.T) {
	m := NewBitmap()
	// Rows: country of each customer.
	countries := []string{"CZ", "FI", "CZ", "DE", "FI", "CZ"}
	for i, c := range countries {
		m.Add(c, i)
	}
	if m.Cardinality() != 3 {
		t.Fatalf("Cardinality = %d", m.Cardinality())
	}
	if got := m.Eq("CZ").Count(); got != 3 {
		t.Fatalf("Eq(CZ) = %d", got)
	}
	if got := m.Eq("XX").Count(); got != 0 {
		t.Fatalf("Eq(XX) = %d", got)
	}
	if got := m.In("CZ", "DE").Count(); got != 4 {
		t.Fatalf("In = %d", got)
	}
	if got := m.Not("CZ").Count(); got != 3 {
		t.Fatalf("Not(CZ) = %d", got)
	}
	m.Remove("CZ", 0)
	if got := m.Eq("CZ").Count(); got != 2 {
		t.Fatalf("after Remove Eq(CZ) = %d", got)
	}
	if m.All().Count() != 5 {
		t.Fatalf("All after remove = %d", m.All().Count())
	}
}

func TestBitsliceAggregates(t *testing.T) {
	bs := NewBitslice()
	values := []uint64{66, 40, 34, 5000, 0, 127}
	var wantSum uint64
	for i, v := range values {
		bs.Add(i, v)
		wantSum += v
	}
	if got := bs.Sum(nil); got != wantSum {
		t.Fatalf("Sum = %d, want %d", got, wantSum)
	}
	if got := bs.Count(nil); got != len(values) {
		t.Fatalf("Count = %d", got)
	}
	avg, ok := bs.Avg(nil)
	if !ok || avg != float64(wantSum)/float64(len(values)) {
		t.Fatalf("Avg = %v, %v", avg, ok)
	}
	// Selection: rows 0 and 3 only.
	sel := NewBitset()
	sel.Set(0)
	sel.Set(3)
	if got := bs.Sum(sel); got != 66+5000 {
		t.Fatalf("Sum(sel) = %d", got)
	}
	if got := bs.Count(sel); got != 2 {
		t.Fatalf("Count(sel) = %d", got)
	}
	// Remove a row.
	bs.Remove(3, 5000)
	if got := bs.Sum(nil); got != wantSum-5000 {
		t.Fatalf("Sum after remove = %d", got)
	}
	// Empty selection average.
	if _, ok := bs.Avg(NewBitset()); ok {
		t.Fatal("Avg over empty selection should report not-ok")
	}
}

func TestPropertyBitsliceSumMatchesLoop(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		bs := NewBitslice()
		n := 1 + r.Intn(200)
		vals := make([]uint64, n)
		for i := range vals {
			vals[i] = uint64(r.Intn(1 << 20))
			bs.Add(i, vals[i])
		}
		sel := NewBitset()
		var want uint64
		count := 0
		for i := range vals {
			if r.Intn(2) == 0 {
				sel.Set(i)
				want += vals[i]
				count++
			}
		}
		return bs.Sum(sel) == want && bs.Count(sel) == count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyBitsetAlgebra(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := NewBitset(), NewBitset()
		ref := map[int][2]bool{}
		for i := 0; i < 100; i++ {
			row := r.Intn(300)
			e := ref[row]
			if r.Intn(2) == 0 {
				a.Set(row)
				e[0] = true
			} else {
				b.Set(row)
				e[1] = true
			}
			ref[row] = e
		}
		and, or, diff := a.And(b), a.Or(b), a.AndNot(b)
		for row, e := range ref {
			if and.Has(row) != (e[0] && e[1]) {
				return false
			}
			if or.Has(row) != (e[0] || e[1]) {
				return false
			}
			if diff.Has(row) != (e[0] && !e[1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBitsetInPlaceOps(t *testing.T) {
	mk := func(rows ...int) *Bitset {
		b := NewBitset()
		for _, i := range rows {
			b.Set(i)
		}
		return b
	}
	a := mk(1, 2, 3, 200)
	a.OrWith(mk(2, 4, 500))
	for _, i := range []int{1, 2, 3, 4, 200, 500} {
		if !a.Has(i) {
			t.Fatalf("OrWith missing %d", i)
		}
	}
	if a.Count() != 6 {
		t.Fatalf("OrWith count = %d", a.Count())
	}

	a = mk(1, 2, 3, 200)
	a.AndWith(mk(2, 3, 4))
	if a.Count() != 2 || !a.Has(2) || !a.Has(3) {
		t.Fatalf("AndWith wrong: count=%d", a.Count())
	}
	if a.Has(200) {
		t.Fatal("AndWith must clear bits beyond the shorter operand")
	}

	a = mk(1, 2, 3, 200)
	a.AndNotWith(mk(2, 3, 4))
	if a.Count() != 2 || !a.Has(1) || !a.Has(200) {
		t.Fatalf("AndNotWith wrong: count=%d", a.Count())
	}
	// Bits of other past a's length are ignored.
	a = mk(1)
	a.AndNotWith(mk(1, 900))
	if a.Count() != 0 {
		t.Fatal("AndNotWith over longer operand wrong")
	}
}

// TestBitsetLengthMismatch pins the word-length-mismatch contract: every
// binary op over operands of differing word lengths must behave as if the
// shorter operand were zero-padded, and must never index past either slice.
func TestBitsetLengthMismatch(t *testing.T) {
	short := NewBitset()
	short.Set(3) // 1 word
	long := NewBitset()
	long.Set(3)
	long.Set(700) // 11 words

	if got := short.And(long); got.Count() != 1 || !got.Has(3) {
		t.Fatalf("short.And(long) = %d", got.Count())
	}
	if got := long.And(short); got.Count() != 1 || !got.Has(3) {
		t.Fatalf("long.And(short) = %d", got.Count())
	}
	if got := long.And(short); got.Has(700) {
		t.Fatal("And result leaked a bit beyond the shorter operand")
	}
	if got := short.AndCount(long); got != 1 {
		t.Fatalf("short.AndCount(long) = %d", got)
	}
	if got := long.AndCount(short); got != 1 {
		t.Fatalf("long.AndCount(short) = %d", got)
	}
	if got := long.AndNot(short); got.Count() != 1 || !got.Has(700) {
		t.Fatalf("long.AndNot(short) = %d", got.Count())
	}
	if got := short.AndNot(long); got.Count() != 0 {
		t.Fatalf("short.AndNot(long) = %d", got.Count())
	}
	if got := short.Or(long); got.Count() != 2 || !got.Has(700) {
		t.Fatalf("short.Or(long) = %d", got.Count())
	}

	cp := long.Clone()
	cp.AndWith(short)
	if cp.Count() != 1 || cp.Has(700) {
		t.Fatal("AndWith left bits beyond the shorter operand")
	}
	cp = short.Clone()
	cp.AndWith(long)
	if cp.Count() != 1 || !cp.Has(3) {
		t.Fatal("short.AndWith(long) wrong")
	}
}

func TestBitsetPopcountRange(t *testing.T) {
	b := NewBitset()
	rows := []int{0, 5, 63, 64, 127, 128, 300}
	for _, i := range rows {
		b.Set(i)
	}
	cases := []struct{ lo, hi, want int }{
		{0, 0, 0},
		{0, 1, 1},
		{0, 64, 3},
		{0, 65, 4},
		{5, 64, 2},
		{64, 128, 2},
		{0, 301, 7},
		{0, 1 << 20, 7}, // hi beyond words clamps
		{-5, 6, 2},      // lo below zero clamps
		{301, 300, 0},   // inverted range
		{127, 128, 1},
		{128, 129, 1},
	}
	for _, c := range cases {
		if got := b.PopcountRange(c.lo, c.hi); got != c.want {
			t.Fatalf("PopcountRange(%d,%d) = %d, want %d", c.lo, c.hi, got, c.want)
		}
	}
}

func TestBitsetSetRangeClone(t *testing.T) {
	b := NewBitset()
	b.SetRange(70)
	if b.Count() != 70 || !b.Has(0) || !b.Has(69) || b.Has(70) {
		t.Fatalf("SetRange(70): count=%d", b.Count())
	}
	b = NewBitset()
	b.SetRange(64)
	if b.Count() != 64 || b.Has(64) {
		t.Fatalf("SetRange(64): count=%d", b.Count())
	}
	b.SetRange(0) // no-op
	cp := b.Clone()
	cp.Clear(0)
	if !b.Has(0) {
		t.Fatal("Clone aliased the original's words")
	}
}

func TestBitsliceCompareConst(t *testing.T) {
	bs := NewBitslice()
	vals := []uint64{0, 1, 41, 42, 43, 100, 1 << 40, ^uint64(0)}
	for i, v := range vals {
		bs.Add(i, v)
	}
	for _, c := range []uint64{0, 1, 42, 99, 1 << 40, ^uint64(0)} {
		eq, lt, gt := bs.CompareConst(c)
		for i, v := range vals {
			if eq.Has(i) != (v == c) || lt.Has(i) != (v < c) || gt.Has(i) != (v > c) {
				t.Fatalf("CompareConst(%d) row %d (val %d): eq=%v lt=%v gt=%v",
					c, i, v, eq.Has(i), lt.Has(i), gt.Has(i))
			}
		}
		if eq.Count()+lt.Count()+gt.Count() != len(vals) {
			t.Fatalf("CompareConst(%d) partitions overlap or leak", c)
		}
	}
}

func TestPropertyBitsliceCompareConst(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		bs := NewBitslice()
		n := 1 + r.Intn(200)
		vals := make([]uint64, n)
		for i := range vals {
			vals[i] = uint64(r.Intn(1 << 16))
			bs.Add(i, vals[i])
		}
		c := uint64(r.Intn(1 << 16))
		eq, lt, gt := bs.CompareConst(c)
		for i, v := range vals {
			if eq.Has(i) != (v == c) || lt.Has(i) != (v < c) || gt.Has(i) != (v > c) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// E5 (slide 80): SUM over the rows one bitmap selects, answered from the
// bitslice alone vs a row scan over the same 200 000 values.
func BenchmarkE5Bitslice(b *testing.B) {
	const n = 200000
	r := rand.New(rand.NewSource(5))
	values := make([]uint64, n)
	region := make([]string, n)
	regions := []string{"EU", "US", "APAC"}
	bs, bm := NewBitslice(), NewBitmap()
	for i := range values {
		values[i] = uint64(r.Intn(10000))
		region[i] = regions[r.Intn(3)]
		bs.Add(i, values[i])
		bm.Add(region[i], i)
	}
	sel := bm.Eq("EU")
	var want uint64
	for i, v := range values {
		if region[i] == "EU" {
			want += v
		}
	}
	b.Run("BitsliceSum", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if got := bs.Sum(sel); got != want {
				b.Fatalf("sum = %d, want %d", got, want)
			}
		}
	})
	b.Run("RowScanSum", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var total uint64
			for j, v := range values {
				if region[j] == "EU" {
					total += v
				}
			}
			if total != want {
				b.Fatalf("sum = %d, want %d", total, want)
			}
		}
	})
}
