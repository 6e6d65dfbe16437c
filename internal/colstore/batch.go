// Batch reading: the columnar half of the vectorized execution path. A
// Batch is up to ~1k items of one wide-column table materialized column-wise —
// one value vector plus a presence bitmap per attribute — decoded straight
// off the engine snapshot in a single ordered scan. The vectorized
// evaluator in internal/query works on these vectors (and on per-column
// zone stats / lazily built bitslice indexes) instead of reconstructing a
// document per row.
package colstore

import (
	"bytes"
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

// addValue stores row's value of the attribute named attr, opening the
// column (the one place its name is allocated) on the batch's first value.
func (b *Batch) addValue(row int, attr []byte, val mmvalue.Value) {
	ci, ok := b.colIdx[string(attr)]
	if !ok {
		name := string(attr)
		ci = len(b.Cols)
		b.colIdx[name] = ci
		b.Cols = append(b.Cols, Column{
			Name:    name,
			Present: bitmapidx.NewBitset(),
			AllInt:  true,
		})
	}
	c := &b.Cols[ci]
	c.Vals = put(c.Vals, row, val, b.capHint)
	c.Present.Set(row)
	c.observe(val)
	b.values++
}

// observe folds one present value into the column's stats.
func (c *Column) observe(val mmvalue.Value) {
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
// attributes' values (keys are still read for item boundaries); projected
// batches cannot reconstruct documents.
func (s *Store) EachBatch(tx engine.Tx, table string, batchSize int, project []string, fn func(*Batch) bool) error {
	if batchSize <= 0 {
		batchSize = DefaultBatchSize
	}
	r := &batchReader{batchSize: batchSize, capHint: batchSize, fn: fn}
	if project != nil {
		r.keep = make(map[string]bool, len(project))
		for _, a := range project {
			r.keep[a] = true
		}
	}
	if err := tx.Scan(Keyspace(table), nil, nil, r.entry); err != nil {
		return err
	}
	if r.err != nil {
		return r.err
	}
	if r.cur != nil && !r.stopped {
		r.cur.seal()
		fn(r.cur)
	}
	return nil
}

// batchReader is EachBatch's state between entries, one value so that a
// read allocates it once rather than each captured variable. It decodes a
// key's partition and sort key only where the item changes (the partition
// only where its bytes change) and looks attribute names up by their
// encoded bytes, so an entry of a known column and item allocates nothing
// for its key.
type batchReader struct {
	batchSize int
	keep      map[string]bool // the projection; nil keeps every attribute
	fn        func(*Batch) bool

	cur *Batch
	// capHint sizes a batch's vectors (see put): batchSize for the first
	// batch, then the length of the one before.
	capHint          int
	row              int
	started, stopped bool
	err              error

	prefix  []byte        // the current item's encoded (part, sort)
	partLen int           // prefix[:partLen] encodes part
	part    mmvalue.Value // prefix's part, decoded
	scratch []mmvalue.Value
}

// corrupt stops the scan on an entry whose key is not (part, sort, attr).
func (r *batchReader) corrupt(err error) bool {
	r.err = fmt.Errorf("colstore: corrupt entry: %w", err)
	return false
}

// decode decodes the one element b holds, which Skip has measured.
func (r *batchReader) decode(b []byte) (mmvalue.Value, error) {
	vals, err := keyenc.DecodeAppend(r.scratch[:0], b)
	if err != nil || len(vals) != 1 {
		return mmvalue.Null, err
	}
	r.scratch = vals
	return vals[0], nil
}

// entry handles one attribute entry of the scan. Every key is validated as
// ScanJSON's decoding would: part and sort by keyenc.Skip (or by being the
// current item's validated bytes), the attribute by comparison with an
// unescaped string element or by decoding. An entry whose encoded (part,
// sort) differ from the current item's starts the next item, as in
// ScanJSON.
func (r *batchReader) entry(k, v []byte) bool {
	n, samePrefix := len(r.prefix), r.started && bytes.HasPrefix(k, r.prefix)
	partLen := r.partLen
	if !samePrefix {
		var err error
		if partLen, n, err = itemPrefixLen(k); err != nil {
			return r.corrupt(err)
		}
	}
	name, m, plain := keyenc.UnescapedString(k[n:])
	if !plain || m != len(k)-n {
		attr, err := keyenc.Decode(k[n:])
		if err != nil || len(attr) != 1 || attr[0].Kind() != mmvalue.KindString {
			return r.corrupt(err)
		}
		name = []byte(attr[0].AsString())
	}
	if !samePrefix && !r.item(k[:partLen], k[partLen:n]) {
		return false
	}
	if r.keep != nil && !r.keep[string(name)] {
		return true
	}
	val, err := binenc.Decode(v)
	if err != nil {
		r.err = err
		return false
	}
	r.cur.addValue(r.row, name, val)
	return true
}

// item starts the item of an entry whose encoded (part, sort) differ from
// the last entry's: it decodes them and adds the item's row, first handing
// on the batch that is full or no longer Dense.
func (r *batchReader) item(partEnc, sortEnc []byte) bool {
	part := r.part
	if !r.started || !bytes.Equal(partEnc, r.prefix[:r.partLen]) {
		var err error
		if part, err = r.decode(partEnc); err != nil {
			return r.corrupt(err)
		}
	}
	sort, err := r.decode(sortEnc)
	if err != nil {
		return r.corrupt(err)
	}
	r.prefix = append(append(r.prefix[:0], partEnc...), sortEnc...)
	r.partLen, r.part = len(partEnc), part
	r.started = true
	if r.cur != nil && (r.cur.rows >= r.batchSize || !r.cur.Dense()) {
		r.cur.seal()
		if !r.fn(r.cur) {
			r.stopped = true
			return false
		}
		r.capHint, r.cur = r.cur.rows, nil
	}
	if r.cur == nil {
		r.cur = &Batch{
			colIdx:    map[string]int{},
			projected: r.keep != nil,
			capHint:   r.capHint,
		}
		r.row = -1
	}
	r.row++
	r.cur.rows = r.row + 1
	r.cur.Parts = put(r.cur.Parts, r.row, part, r.capHint)
	r.cur.Sorts = put(r.cur.Sorts, r.row, sort, r.capHint)
	return true
}
