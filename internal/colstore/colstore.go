// Package colstore implements the wide-column data model — the Cassandra /
// DynamoDB rows of the paper's classification: "a NoSQL database which
// supports tables having distinct numbers and types of columns", items
// addressed by a partition key plus a sort key, each attribute stored as
// its own entry (a genuinely column-wise layout on the integrated backend,
// unlike the row-blob layout of relstore).
//
// Layout:
//
//	col:<table>    keyenc(partKey, sortKey, attrName) -> binenc(value)
//
// This gives, for free, the two access paths the paper highlights:
// DynamoDB's Query (all items of one partition, sort-key ordered, via a
// prefix scan) and Cassandra's sparse rows (absent attributes simply have
// no entry). SELECT JSON-style reconstruction (the paper's Cassandra
// example) assembles items back into documents.
package colstore

import (
	"errors"
	"fmt"

	"repro/internal/binenc"
	"repro/internal/engine"
	"repro/internal/keyenc"
	"repro/internal/mmvalue"
)

// ErrNotFound is returned when an item does not exist.
var ErrNotFound = errors.New("colstore: item not found")

// Store provides wide-column operations within engine transactions.
type Store struct {
	e engine.Sizer
}

// New returns a wide-column store over the engine.
func New(e engine.Sizer) *Store { return &Store{e: e} }

// Keyspace returns the engine keyspace of a table.
func Keyspace(table string) string { return "col:" + table }

func attrKey(part, sort mmvalue.Value, attr string) []byte {
	k := keyenc.Append(nil, part)
	k = keyenc.Append(k, sort)
	return keyenc.AppendString(k, attr)
}

func itemPrefix(part, sort mmvalue.Value) []byte {
	k := keyenc.Append(nil, part)
	return keyenc.Append(k, sort)
}

// PutItem stores (or extends) the item at (part, sort) with the attributes
// of attrs — items in the same table may carry entirely different
// attribute sets (the "sparse table" property).
func (s *Store) PutItem(tx engine.Tx, table string, part, sort mmvalue.Value, attrs mmvalue.Value) error {
	if attrs.Kind() != mmvalue.KindObject {
		return fmt.Errorf("colstore: attributes must be an object, got %v", attrs.Kind())
	}
	for _, f := range attrs.Fields() {
		if err := tx.Put(Keyspace(table), attrKey(part, sort, f.Name), binenc.Encode(f.Value)); err != nil {
			return err
		}
	}
	return nil
}

// GetItem reconstructs the item at (part, sort) as a document — the
// paper's `SELECT JSON *` round trip. The field slice is sized exactly
// from a counting pre-pass over the prefix scan, so reconstruction does
// one allocation instead of one per attribute append-growth step.
func (s *Store) GetItem(tx engine.Tx, table string, part, sort mmvalue.Value) (mmvalue.Value, bool, error) {
	prefix := itemPrefix(part, sort)
	hi := keyenc.AppendMax(append([]byte{}, prefix...))
	n := 0
	if err := tx.Scan(Keyspace(table), prefix, hi, func(_, _ []byte) bool {
		n++
		return true
	}); err != nil {
		return mmvalue.Null, false, err
	}
	if n == 0 {
		return mmvalue.Null, false, nil
	}
	fields, ok, err := s.GetItemAppend(tx, table, part, sort, make([]mmvalue.Field, 0, n))
	if err != nil || !ok {
		return mmvalue.Null, false, err
	}
	return mmvalue.ObjectOf(fields), true, nil
}

// GetItemAppend decodes the item at (part, sort) into buf (reset to
// length 0, capacity reused), returning the fields in attribute-key
// order. Callers that reconstruct many items — the batch reader's row
// fallback among them — amortize the per-item field allocation this way.
// Note mmvalue.ObjectOf takes ownership of its argument, so a reused buf
// must not be passed to it directly.
func (s *Store) GetItemAppend(tx engine.Tx, table string, part, sort mmvalue.Value, buf []mmvalue.Field) ([]mmvalue.Field, bool, error) {
	prefix := itemPrefix(part, sort)
	hi := keyenc.AppendMax(append([]byte{}, prefix...))
	buf = buf[:0]
	var decErr error
	err := tx.Scan(Keyspace(table), prefix, hi, func(k, v []byte) bool {
		parts, err := keyenc.Decode(k)
		if err != nil || len(parts) != 3 {
			decErr = fmt.Errorf("colstore: corrupt entry: %w", err)
			return false
		}
		val, err := binenc.Decode(v)
		if err != nil {
			decErr = err
			return false
		}
		buf = append(buf, mmvalue.F(parts[2].AsString(), val))
		return true
	})
	if err != nil {
		return buf, false, err
	}
	if decErr != nil {
		return buf, false, decErr
	}
	return buf, len(buf) > 0, nil
}

// GetAttr reads one attribute of an item — the column-store advantage: a
// single column read touches one entry, never the whole item.
func (s *Store) GetAttr(tx engine.Tx, table string, part, sort mmvalue.Value, attr string) (mmvalue.Value, bool, error) {
	raw, ok, err := tx.Get(Keyspace(table), attrKey(part, sort, attr))
	if err != nil || !ok {
		return mmvalue.Null, false, err
	}
	v, err := binenc.Decode(raw)
	if err != nil {
		return mmvalue.Null, false, err
	}
	return v, true, nil
}

// DeleteAttr removes one attribute of an item.
func (s *Store) DeleteAttr(tx engine.Tx, table string, part, sort mmvalue.Value, attr string) error {
	return tx.Delete(Keyspace(table), attrKey(part, sort, attr))
}

// DeleteItem removes every attribute of an item, reporting whether any
// existed.
func (s *Store) DeleteItem(tx engine.Tx, table string, part, sort mmvalue.Value) (bool, error) {
	prefix := itemPrefix(part, sort)
	hi := keyenc.AppendMax(append([]byte{}, prefix...))
	var keys [][]byte
	err := tx.Scan(Keyspace(table), prefix, hi, func(k, _ []byte) bool {
		kc := make([]byte, len(k))
		copy(kc, k)
		keys = append(keys, kc)
		return true
	})
	if err != nil {
		return false, err
	}
	for _, k := range keys {
		if err := tx.Delete(Keyspace(table), k); err != nil {
			return false, err
		}
	}
	return len(keys) > 0, nil
}

// Item pairs a sort key with its reconstructed attributes.
type Item struct {
	Sort  mmvalue.Value
	Attrs mmvalue.Value
}

// QueryPartition returns every item of one partition in sort-key order —
// DynamoDB's Query over (partition key, sort key).
func (s *Store) QueryPartition(tx engine.Tx, table string, part mmvalue.Value) ([]Item, error) {
	prefix := keyenc.Append(nil, part)
	hi := keyenc.AppendMax(append([]byte{}, prefix...))
	var items []Item
	var cur *Item
	var decErr error
	err := tx.Scan(Keyspace(table), prefix, hi, func(k, v []byte) bool {
		parts, err := keyenc.Decode(k)
		if err != nil || len(parts) != 3 {
			decErr = fmt.Errorf("colstore: corrupt entry: %w", err)
			return false
		}
		val, err := binenc.Decode(v)
		if err != nil {
			decErr = err
			return false
		}
		sort, attr := parts[1], parts[2].AsString()
		if cur == nil || !mmvalue.Equal(cur.Sort, sort) {
			items = append(items, Item{Sort: sort, Attrs: mmvalue.Object()})
			cur = &items[len(items)-1]
		}
		cur.Attrs = cur.Attrs.Set(attr, val)
		return true
	})
	if err != nil {
		return nil, err
	}
	return items, decErr
}

// QuerySortRange returns the items of one partition with lo <= sort < hi
// (nil bounds open) — DynamoDB sort-key condition expressions.
func (s *Store) QuerySortRange(tx engine.Tx, table string, part mmvalue.Value, lo, hi mmvalue.Value, loOpen, hiOpen bool) ([]Item, error) {
	items, err := s.QueryPartition(tx, table, part)
	if err != nil {
		return nil, err
	}
	var out []Item
	for _, it := range items {
		if !loOpen && mmvalue.Compare(it.Sort, lo) < 0 {
			continue
		}
		if !hiOpen && mmvalue.Compare(it.Sort, hi) >= 0 {
			continue
		}
		out = append(out, it)
	}
	return out, nil
}

// ScanJSON reconstructs every item of the table as a document carrying
// `_part` and `_sort` — the Cassandra `SELECT JSON * FROM t` of the paper,
// and the shape the unified query layer iterates.
func (s *Store) ScanJSON(tx engine.Tx, table string, fn func(doc mmvalue.Value) bool) error {
	var cur mmvalue.Value
	var curPart, curSort mmvalue.Value
	started := false
	flush := func() bool {
		if !started {
			return true
		}
		doc := cur.Set("_part", curPart).Set("_sort", curSort)
		// Cleared once fn stops the scan, so the closing flush does not hand
		// it the same item again.
		started = fn(doc)
		return started
	}
	var decErr error
	err := tx.Scan(Keyspace(table), nil, nil, func(k, v []byte) bool {
		parts, err := keyenc.Decode(k)
		if err != nil || len(parts) != 3 {
			decErr = fmt.Errorf("colstore: corrupt entry: %w", err)
			return false
		}
		val, err := binenc.Decode(v)
		if err != nil {
			decErr = err
			return false
		}
		part, sort, attr := parts[0], parts[1], parts[2].AsString()
		if !started || !mmvalue.Equal(part, curPart) || !mmvalue.Equal(sort, curSort) {
			if !flush() {
				return false
			}
			started = true
			curPart, curSort = part, sort
			cur = mmvalue.Object()
		}
		cur = cur.Set(attr, val)
		return true
	})
	if err != nil {
		return err
	}
	if decErr != nil {
		return decErr
	}
	flush()
	return nil
}

// Len returns the number of attribute entries in a table (engine
// statistic; items may span several entries).
func (s *Store) Len(table string) int { return s.e.KeyspaceLen(Keyspace(table)) }
