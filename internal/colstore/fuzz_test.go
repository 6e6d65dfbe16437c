package colstore

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/binenc"
	"repro/internal/engine"
	"repro/internal/keyenc"
	"repro/internal/mmvalue"
)

// The key and attribute domains FuzzEachBatch draws from: strings whose
// encoding escapes a zero byte, empty strings, and numbers that are Equal
// but encode differently (Int(1) and Float(1)), which name distinct items
// on every path.
var (
	fuzzParts = []mmvalue.Value{str("p"), str("p\x00"), str("\x00"), str(""), mmvalue.Int(1), mmvalue.Float(1), str("p\x00\x00q")}
	fuzzSorts = []mmvalue.Value{mmvalue.Int(0), mmvalue.Int(1), mmvalue.Float(1), str("s\x00"), str(""), mmvalue.Int(-2)}
	fuzzAttrs = []string{"v", "pos", "a\x00b", "", "\x00", "_part", "zz"}
)

// FuzzEachBatch writes items drawn from data (three bytes each: partition,
// sort key, attribute and value) and reads them back as column batches of
// a fuzzed size, with a fuzzed projection or none. The batches must hold
// the rows ScanJSON produces, in order: the same keys, every kept attribute
// with the value ScanJSON's document carries (or, for an attribute named
// like a key column, the value GetAttr reads) and no other, and, unless
// projected, the document itself.
func FuzzEachBatch(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 1, 1, 2, 3, 2, 4, 1, 5, 5, 2, 6}, uint8(2), uint8(0))
	f.Add([]byte{4, 0, 0, 5, 0, 1, 4, 1, 2, 5, 2, 0x85, 1, 3, 4}, uint8(0), uint8(0b1011))
	f.Add([]byte{1, 3, 0x12, 1, 3, 0x13, 2, 4, 0x44, 6, 4, 0x2c}, uint8(1), uint8(0b10000001))
	f.Fuzz(func(t *testing.T, data []byte, size, project uint8) {
		e, err := engine.Open(engine.Options{Durability: engine.Ephemeral})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		s := New(e)
		type itemKey struct{ part, sort mmvalue.Value }
		enc := func(k itemKey) []byte { return keyenc.Encode(k.part, k.sort) }
		var keys []itemKey // distinct encoded (part, sort) pairs written: the items
		err = e.Update(func(tx *engine.Txn) error {
			for i := 0; i+2 < len(data) && i < 3*64; i += 3 {
				k := itemKey{fuzzParts[int(data[i])%len(fuzzParts)], fuzzSorts[int(data[i+1])%len(fuzzSorts)]}
				attr := fuzzAttrs[int(data[i+2]&0x0f)%len(fuzzAttrs)]
				var val mmvalue.Value
				switch data[i+2] >> 4 & 3 {
				case 0:
					val = mmvalue.Int(int64(data[i+2]))
				case 1:
					val = mmvalue.Float(float64(data[i]) / 4)
				case 2:
					val = str("x\x00" + attr)
				default:
					val = mmvalue.Null
				}
				if err := s.PutItem(tx, "t", k.part, k.sort, mmvalue.Object(mmvalue.F(attr, val))); err != nil {
					return err
				}
				if !slices.ContainsFunc(keys, func(h itemKey) bool { return bytes.Equal(enc(h), enc(k)) }) {
					keys = append(keys, k)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		var keep []string
		if project&1 != 0 {
			keep = []string{}
			for i, a := range fuzzAttrs {
				if project>>(i+1)&1 != 0 {
					keep = append(keep, a)
				}
			}
		}
		err = e.View(func(tx *engine.Txn) error {
			var docs []mmvalue.Value
			if err := s.ScanJSON(tx, "t", func(doc mmvalue.Value) bool { docs = append(docs, doc); return true }); err != nil {
				return err
			}
			// The rows, in key order; attrAt reads what GetAttr holds for a
			// row's attribute.
			slices.SortFunc(keys, func(a, b itemKey) int { return bytes.Compare(enc(a), enc(b)) })
			if len(keys) != len(docs) {
				t.Fatalf("%d items written, ScanJSON read %d", len(keys), len(docs))
			}
			attrAt := func(row int, attr string) (mmvalue.Value, bool) {
				v, ok, err := s.GetAttr(tx, "t", keys[row].part, keys[row].sort, attr)
				if err != nil {
					t.Fatal(err)
				}
				return v, ok
			}
			row := 0
			err := s.EachBatch(tx, "t", int(size%9), keep, func(b *Batch) bool {
				for i := 0; i < b.Len(); i++ {
					if row >= len(docs) {
						t.Fatalf("batches hold more than ScanJSON's %d rows", len(docs))
					}
					doc := docs[row]
					if !sameKey(b.Parts[i], doc.GetOr("_part")) || !sameKey(b.Sorts[i], doc.GetOr("_sort")) {
						t.Fatalf("row %d keys (%v, %v), ScanJSON has %v", row, b.Parts[i], b.Sorts[i], doc)
					}
					if keep == nil && !sameKey(b.Doc(i), doc) {
						t.Fatalf("row %d: batch doc %v, ScanJSON doc %v", row, b.Doc(i), doc)
					}
					for _, a := range fuzzAttrs {
						c := b.Col(a)
						has := c != nil && c.Present.Has(i)
						if keep != nil && !slices.Contains(keep, a) {
							if c != nil {
								t.Fatalf("batch holds unprojected column %q", a)
							}
							continue
						}
						want, ok := doc.Get(a)
						if a == "_part" || a == "_sort" {
							want, ok = attrAt(row, a)
						}
						if has != ok || (has && !sameKey(c.Vals[i], want)) {
							t.Fatalf("row %d attribute %q: batch (%v, %v), want (%v, %v)", row, a, has, c, ok, want)
						}
						if has {
							if got, _ := attrAt(row, a); !sameKey(got, c.Vals[i]) {
								t.Fatalf("row %d attribute %q: batch %v, GetAttr %v", row, a, c.Vals[i], got)
							}
						}
					}
					row++
				}
				return true
			})
			if err != nil {
				return err
			}
			if row != len(docs) {
				t.Fatalf("batches hold %d rows, ScanJSON %d", row, len(docs))
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// sameKey reports whether two values are identical, kinds included
// (mmvalue.Equal holds Int(1) and Float(1) equal).
func sameKey(a, b mmvalue.Value) bool {
	return bytes.Equal(binenc.Encode(a), binenc.Encode(b))
}
