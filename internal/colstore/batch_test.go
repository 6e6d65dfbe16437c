package colstore

import (
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/mmvalue"
)

// seedWide loads n items across two partitions with sparse attributes: every
// item has "v" (int), even rows have "tag" (string), every third row has
// "extra" (explicit null on some), row 7 carries an array.
func seedWide(t *testing.T, e *engine.Engine, s *Store, n int) {
	t.Helper()
	err := e.Update(func(tx *engine.Txn) error {
		for i := 0; i < n; i++ {
			part := str("p" + fmt.Sprint(i%2))
			attrs := []mmvalue.Field{mmvalue.F("v", mmvalue.Int(int64(i*3-10)))}
			if i%2 == 0 {
				attrs = append(attrs, mmvalue.F("tag", str("even")))
			}
			if i%3 == 0 {
				if i%6 == 0 {
					attrs = append(attrs, mmvalue.F("extra", mmvalue.Null))
				} else {
					attrs = append(attrs, mmvalue.F("extra", mmvalue.Float(1.5)))
				}
			}
			if i == 7 {
				attrs = append(attrs, mmvalue.F("arr", mmvalue.ArrayOf([]mmvalue.Value{mmvalue.Int(1), mmvalue.Int(2)})))
			}
			if err := s.PutItem(tx, "wide", part, mmvalue.Int(int64(i)), mmvalue.ObjectOf(attrs)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestReadBatchesMatchesScanJSON pins the core contract: Doc(i) across all
// batches, in order, is byte-identical to the ScanJSON document stream —
// for every batch size, including odd ones that split mid-partition.
func TestReadBatchesMatchesScanJSON(t *testing.T) {
	e, s := setup(t)
	seedWide(t, e, s, 53)
	var want []mmvalue.Value
	e.View(func(tx *engine.Txn) error {
		return s.ScanJSON(tx, "wide", func(doc mmvalue.Value) bool {
			want = append(want, doc)
			return true
		})
	})
	for _, size := range []int{1, 7, 16, 53, 1000} {
		e.View(func(tx *engine.Txn) error {
			batches, err := s.ReadBatches(tx, "wide", size, nil)
			if err != nil {
				t.Fatal(err)
			}
			var got []mmvalue.Value
			for _, b := range batches {
				if b.Len() > size {
					t.Fatalf("size %d: batch holds %d items", size, b.Len())
				}
				for i := 0; i < b.Len(); i++ {
					got = append(got, b.Doc(i))
				}
			}
			if len(got) != len(want) {
				t.Fatalf("size %d: %d docs, want %d", size, len(got), len(want))
			}
			for i := range want {
				if got[i].String() != want[i].String() {
					t.Fatalf("size %d doc %d:\n got %v\nwant %v", size, i, got[i], want[i])
				}
			}
			return nil
		})
	}
}

// TestReadBatchesCutsSparseTables: on a table whose items each carry an
// attribute no other item has, a batch ends at the first item boundary where
// it is no longer Dense, so no batch holds more than one item past the
// bound; the documents still match ScanJSON, and EachBatch stops when fn
// returns false.
func TestReadBatchesCutsSparseTables(t *testing.T) {
	e, s := setup(t)
	err := e.Update(func(tx *engine.Txn) error {
		for i := 0; i < 100; i++ {
			attrs := mmvalue.Object(mmvalue.F("v", mmvalue.Int(int64(i))), mmvalue.F(fmt.Sprintf("a%03d", i), mmvalue.Int(1)))
			if err := s.PutItem(tx, "sparse", str("p"), mmvalue.Int(int64(i)), attrs); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	e.View(func(tx *engine.Txn) error {
		var want []string
		s.ScanJSON(tx, "sparse", func(doc mmvalue.Value) bool {
			want = append(want, doc.String())
			return true
		})
		batches, err := s.ReadBatches(tx, "sparse", 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for bi, b := range batches {
			// Without its last item the batch was still Dense: r-1 rows of
			// v plus one attribute each.
			if r := b.Len(); (r-1)*r > denseCells*(2*(r-1)+(r-1)) {
				t.Fatalf("batch %d holds %d items over %d columns", bi, r, len(b.Cols))
			}
			if bi < len(batches)-1 && b.Dense() {
				t.Fatalf("batch %d was cut while still Dense", bi)
			}
			for i := 0; i < b.Len(); i++ {
				got = append(got, b.Doc(i).String())
			}
		}
		if len(batches) < 5 || fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%d batches; docs match ScanJSON: %v", len(batches), fmt.Sprint(got) == fmt.Sprint(want))
		}
		calls := 0
		if err := s.EachBatch(tx, "sparse", 0, nil, func(*Batch) bool { calls++; return false }); err != nil || calls != 1 {
			t.Fatalf("EachBatch after fn returned false: %d calls, %v", calls, err)
		}
		return nil
	})
}

func TestBatchColumnStats(t *testing.T) {
	e, s := setup(t)
	seedWide(t, e, s, 30)
	e.View(func(tx *engine.Txn) error {
		batches, err := s.ReadBatches(tx, "wide", 0, nil)
		if err != nil || len(batches) != 1 {
			t.Fatalf("batches = %d, %v", len(batches), err)
		}
		b := batches[0]
		if b.Len() != 30 {
			t.Fatalf("Len = %d", b.Len())
		}

		v := b.Col("v")
		if v == nil || v.NPresent != 30 || !v.AllInt {
			t.Fatalf("v stats: %+v", v)
		}
		// Values are i*3-10 for i in key order; extremes are -10 and 77.
		if v.IntMin != -10 || v.IntMax != 77 {
			t.Fatalf("v range = [%d, %d]", v.IntMin, v.IntMax)
		}
		if v.MinVal.AsInt() != -10 || v.MaxVal.AsInt() != 77 {
			t.Fatalf("v MinVal/MaxVal = %v/%v", v.MinVal, v.MaxVal)
		}

		tag := b.Col("tag")
		if tag == nil || tag.NPresent != 15 || tag.AllInt {
			t.Fatalf("tag stats: %+v", tag)
		}
		extra := b.Col("extra")
		if extra == nil || !extra.HasNull || extra.AllInt {
			t.Fatalf("extra stats: %+v", extra)
		}
		arr := b.Col("arr")
		if arr == nil || !arr.HasArray || arr.NPresent != 1 {
			t.Fatalf("arr stats: %+v", arr)
		}
		if b.Col("absent") != nil {
			t.Fatal("phantom column")
		}

		// The bitslice reproduces per-row values through the bias.
		sl, bias := v.IntSlice()
		var want, got int64
		v.Present.ForEach(func(i int) bool {
			want += v.Vals[i].AsInt()
			return true
		})
		sel := v.Present
		got = int64(sl.Sum(sel)) + bias*int64(v.NPresent)
		if got != want {
			t.Fatalf("bitslice sum = %d, want %d", got, want)
		}
		return nil
	})
}

func TestReadBatchesProjection(t *testing.T) {
	e, s := setup(t)
	seedWide(t, e, s, 20)
	e.View(func(tx *engine.Txn) error {
		batches, err := s.ReadBatches(tx, "wide", 0, []string{"v"})
		if err != nil || len(batches) != 1 {
			t.Fatalf("batches = %d, %v", len(batches), err)
		}
		b := batches[0]
		if b.Len() != 20 {
			t.Fatalf("Len = %d", b.Len())
		}
		if b.Col("v") == nil || b.Col("v").NPresent != 20 {
			t.Fatal("projected column missing")
		}
		if b.Col("tag") != nil {
			t.Fatal("projection leaked a column")
		}
		defer func() {
			if recover() == nil {
				t.Fatal("Doc on projected batch did not panic")
			}
		}()
		b.Doc(0)
		return nil
	})
}

func TestGetItemAppendReusesBuffer(t *testing.T) {
	e, s := setup(t)
	seedUsers(t, e, s)
	e.View(func(tx *engine.Txn) error {
		buf := make([]mmvalue.Field, 0, 8)
		fields, ok, err := s.GetItemAppend(tx, "users", str("Irena"), mmvalue.Int(0), buf)
		if err != nil || !ok || len(fields) != 2 {
			t.Fatalf("GetItemAppend = %v, %v, %v", fields, ok, err)
		}
		if &fields[0] != &buf[:1][0] {
			t.Fatal("buffer was not reused")
		}
		// Reuse for a different item resets the length.
		fields, ok, _ = s.GetItemAppend(tx, "users", str("Jiaheng"), mmvalue.Int(0), fields)
		if !ok || len(fields) != 1 || fields[0].Name != "city" {
			t.Fatalf("second GetItemAppend = %v, %v", fields, ok)
		}
		// Missing item.
		if _, ok, _ := s.GetItemAppend(tx, "users", str("Nobody"), mmvalue.Int(0), nil); ok {
			t.Fatal("phantom item")
		}
		return nil
	})
}
