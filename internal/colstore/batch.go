// Batch reading: the columnar half of the vectorized execution path. A
// Batch is up to ~1k items of one wide-column table materialized column-wise —
// one value vector plus a presence bitmap per attribute — decoded straight
// off the engine snapshot in a single ordered scan. The vectorized
// evaluator in internal/query works on these vectors (and on per-column
// zone stats / lazily built bitslice indexes) instead of reconstructing a
// document per row.
package colstore

import (
	"fmt"

	"repro/internal/binenc"
	"repro/internal/bitmapidx"
	"repro/internal/engine"
	"repro/internal/keyenc"
	"repro/internal/mmvalue"
)

// DefaultBatchSize is the number of items per batch when the caller does
// not choose one.
const DefaultBatchSize = 1024

// Column is one attribute of a batch: a dense value vector (absent rows
// hold Null) plus the presence bitmap and the per-batch zone stats the
// vectorized evaluator prunes with.
type Column struct {
	Name    string
	Vals    []mmvalue.Value
	Present *bitmapidx.Bitset

	NPresent int  // popcount of Present
	AllInt   bool // every present value is KindInt
	HasNull  bool // some present value is explicitly Null
	HasArray bool // some present value is an array

	// Present-value extremes under mmvalue.Compare's total order; valid
	// when NPresent > 0. For AllInt columns IntMin/IntMax duplicate them
	// as native ints for the bitslice path.
	MinVal, MaxVal mmvalue.Value
	IntMin, IntMax int64

	slice *bitmapidx.Bitslice // lazy; built by IntSlice
}

// IntSlice returns a bitslice index over the column's present values,
// biased by IntMin so negatives index cleanly, plus the bias. Only valid
// for AllInt columns with at least one present value. The index is built
// lazily on first use; batches are owned by a single worker at a time, so
// no locking is needed.
func (c *Column) IntSlice() (*bitmapidx.Bitslice, int64) {
	if c.slice == nil {
		bs := bitmapidx.NewBitslice()
		c.Present.ForEach(func(i int) bool {
			// Two's-complement subtraction yields the true non-negative
			// distance from the bias for any IntMin <= v.
			bs.Add(i, uint64(c.Vals[i].AsInt())-uint64(c.IntMin))
			return true
		})
		c.slice = bs
	}
	return c.slice, c.IntMin
}

// Batch is a column-wise slice of a table: rows [0, Len()) with their
// partition/sort keys and one Column per attribute seen in the slice.
type Batch struct {
	rows   int
	Parts  []mmvalue.Value
	Sorts  []mmvalue.Value
	Cols   []Column
	colIdx map[string]int // name -> index in Cols; lookups only

	projected bool // built with a projection; Doc is unavailable
	capHint   int  // expected row count; sizes the vectors (see put)
	values    int  // present values across all columns
}

// Len returns the number of items in the batch.
func (b *Batch) Len() int { return b.rows }

// Col returns the column named name, or nil if no item in the batch
// carries that attribute.
func (b *Batch) Col(name string) *Column {
	if i, ok := b.colIdx[name]; ok {
		return &b.Cols[i]
	}
	return nil
}

// AppendFields appends row i's present attributes to buf in column order,
// reusing buf's capacity.
func (b *Batch) AppendFields(i int, buf []mmvalue.Field) []mmvalue.Field {
	for ci := range b.Cols {
		c := &b.Cols[ci]
		if c.Present.Has(i) {
			buf = append(buf, mmvalue.F(c.Name, c.Vals[i]))
		}
	}
	return buf
}

// Doc reconstructs row i as the same document ScanJSON would produce:
// the item's attributes plus `_part` and `_sort`. The fields slice is
// sized exactly from the presence bitmaps (mmvalue.ObjectOf takes
// ownership, so it cannot be pooled); _part/_sort are appended last so
// ObjectOf's last-wins dedup matches ScanJSON's Set-chain overwrite.
// Doc panics on a projected batch — projected columns are incomplete.
func (b *Batch) Doc(i int) mmvalue.Value {
	if b.projected {
		panic("colstore: Doc on a projected batch")
	}
	n := 2
	for ci := range b.Cols {
		if b.Cols[ci].Present.Has(i) {
			n++
		}
	}
	fields := b.AppendFields(i, make([]mmvalue.Field, 0, n))
	fields = append(fields, mmvalue.F("_part", b.Parts[i]), mmvalue.F("_sort", b.Sorts[i]))
	return mmvalue.ObjectOf(fields)
}

func (b *Batch) addValue(row int, attr string, val mmvalue.Value) {
	ci, ok := b.colIdx[attr]
	if !ok {
		ci = len(b.Cols)
		b.colIdx[attr] = ci
		b.Cols = append(b.Cols, Column{
			Name:    attr,
			Present: bitmapidx.NewBitset(),
			AllInt:  true,
		})
	}
	c := &b.Cols[ci]
	c.Vals = put(c.Vals, row, val, b.capHint)
	c.Present.Set(row)

	switch val.Kind() {
	case mmvalue.KindNull:
		c.HasNull = true
		c.AllInt = false
	case mmvalue.KindArray:
		c.HasArray = true
		c.AllInt = false
	case mmvalue.KindInt:
		iv := val.AsInt()
		if c.NPresent == 0 || iv < c.IntMin {
			c.IntMin = iv
		}
		if c.NPresent == 0 || iv > c.IntMax {
			c.IntMax = iv
		}
	default:
		c.AllInt = false
	}
	if c.NPresent == 0 {
		c.MinVal, c.MaxVal = val, val
	} else if mmvalue.Compare(val, c.MinVal) < 0 {
		c.MinVal = val
	} else if mmvalue.Compare(val, c.MaxVal) > 0 {
		c.MaxVal = val
	}
	c.NPresent++
	b.values++
}

// firstCap caps the first allocation of a batch vector (see put).
const firstCap = 64

// put stores x at v[i], padding v with Null up to i. A vector's first
// allocation holds min(capHint, firstCap) cells and its second jumps to
// capHint, so a dense batch allocates each vector twice while a short
// sparse batch never reserves capHint cells for each of its columns.
func put(v []mmvalue.Value, i int, x mmvalue.Value, capHint int) []mmvalue.Value {
	if i >= cap(v) {
		n := min(capHint, firstCap)
		if cap(v) > 0 {
			n = max(capHint, 2*cap(v))
		}
		grown := make([]mmvalue.Value, len(v), max(n, i+1))
		copy(grown, v)
		v = grown
	}
	for len(v) < i {
		v = append(v, mmvalue.Null)
	}
	return append(v, x)
}

// seal pads every column vector to the batch's row count.
func (b *Batch) seal() {
	for ci := range b.Cols {
		c := &b.Cols[ci]
		for len(c.Vals) < b.rows {
			c.Vals = append(c.Vals, mmvalue.Null)
		}
	}
}

// denseCells bounds a batch's padding: its column vectors may hold at most
// this many cells per stored value or row (see Dense).
const denseCells = 4

// Dense reports whether the batch's column vectors hold at most denseCells
// cells per stored value or row. A dense batch costs a constant factor over
// the values it holds; a sparse one — a wide table whose items each carry a
// few of many attributes — spends most of its vectors on Null padding, and
// Doc walks every column for every row.
func (b *Batch) Dense() bool {
	return b.rows*len(b.Cols) <= denseCells*(b.values+b.rows)
}

// ReadBatches materializes the whole table as column-wise batches; see
// EachBatch for how the table is cut.
func (s *Store) ReadBatches(tx engine.Tx, table string, batchSize int, project []string) ([]*Batch, error) {
	var batches []*Batch
	err := s.EachBatch(tx, table, batchSize, project, func(b *Batch) bool {
		batches = append(batches, b)
		return true
	})
	if err != nil {
		return nil, err
	}
	return batches, nil
}

// EachBatch reads the table as column-wise batches of up to batchSize items
// (<= 0 means DefaultBatchSize) in one ordered scan of the engine snapshot,
// handing each batch to fn as soon as it is complete; fn returns false to
// stop the scan. Items are never split across batches, and a batch also ends
// at the first item boundary where it is no longer Dense, so padding stays
// within a constant factor of the values read (only the item that tipped a
// batch over can exceed it). A non-nil project keeps only the named
// attributes' values (keys are still decoded for item boundaries);
// projected batches cannot reconstruct documents.
func (s *Store) EachBatch(tx engine.Tx, table string, batchSize int, project []string, fn func(*Batch) bool) error {
	if batchSize <= 0 {
		batchSize = DefaultBatchSize
	}
	var keep map[string]bool
	if project != nil {
		keep = make(map[string]bool, len(project))
		for _, a := range project {
			keep[a] = true
		}
	}

	var cur *Batch
	var curPart, curSort mmvalue.Value
	// capHint sizes a batch's vectors (see put): batchSize for the first
	// batch, then the length of the one before.
	capHint := batchSize
	started, stopped := false, false
	row := -1
	var decErr error
	scratch := make([]mmvalue.Value, 0, 4) // reused per entry; copied out below
	err := tx.Scan(Keyspace(table), nil, nil, func(k, v []byte) bool {
		parts, err := keyenc.DecodeAppend(scratch[:0], k)
		if err != nil || len(parts) != 3 {
			decErr = fmt.Errorf("colstore: corrupt entry: %w", err)
			return false
		}
		scratch = parts
		part, sort, attr := parts[0], parts[1], parts[2].AsString()
		if !started || !mmvalue.Equal(part, curPart) || !mmvalue.Equal(sort, curSort) {
			started = true
			curPart, curSort = part, sort
			if cur != nil && (cur.rows >= batchSize || !cur.Dense()) {
				cur.seal()
				if !fn(cur) {
					stopped = true
					return false
				}
				capHint, cur = cur.rows, nil
			}
			if cur == nil {
				cur = &Batch{
					colIdx:    map[string]int{},
					projected: keep != nil,
					capHint:   capHint,
				}
				row = -1
			}
			row++
			cur.rows = row + 1
			cur.Parts = put(cur.Parts, row, part, capHint)
			cur.Sorts = put(cur.Sorts, row, sort, capHint)
		}
		if keep != nil && !keep[attr] {
			return true
		}
		val, err := binenc.Decode(v)
		if err != nil {
			decErr = err
			return false
		}
		cur.addValue(row, attr, val)
		return true
	})
	if err != nil {
		return err
	}
	if decErr != nil {
		return decErr
	}
	if cur != nil && !stopped {
		cur.seal()
		fn(cur)
	}
	return nil
}
