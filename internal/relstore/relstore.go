// Package relstore implements the relational data model: typed tables with
// primary keys, NOT NULL constraints, secondary indexes, and — following the
// PostgreSQL row of the paper's classification — JSONB columns that hold
// arbitrary documents inside relational rows, queryable with the ->/->>/#>
// operator family in the unified query layer.
//
// Layout on the integrated backend:
//
//	rel:<table>              rows: keyenc(pk values...) -> binenc(row object)
//	idx:rel:<table>:<name>   secondary index: keyenc(col value, pk...) -> ""
package relstore

import (
	"errors"
	"fmt"

	"repro/internal/binenc"
	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/keyenc"
	"repro/internal/mmvalue"
)

// ColType is a relational column type.
type ColType string

// Column types. JSONB accepts any document value (the multi-model column);
// ANY disables type checking for the column.
const (
	TInt    ColType = "int"
	TFloat  ColType = "float"
	TString ColType = "string"
	TBool   ColType = "bool"
	TBytes  ColType = "bytes"
	TJSONB  ColType = "jsonb"
	TAny    ColType = "any"
)

// Column declares one table column.
type Column struct {
	Name    string
	Type    ColType
	NotNull bool
}

// TableSchema declares a table.
type TableSchema struct {
	Columns    []Column
	PrimaryKey []string // column names; at least one required
}

// Errors.
var (
	ErrNoTable      = errors.New("relstore: no such table")
	ErrDuplicateKey = errors.New("relstore: duplicate primary key")
	ErrNotFound     = errors.New("relstore: row not found")
	ErrType         = errors.New("relstore: type error")
)

// Store provides relational operations within engine transactions.
type Store struct {
	e   engine.Sizer
	cat *catalog.Catalog
	// dc memoizes row decoding (content-addressed); repeated scans of hot
	// tables skip the per-row decode entirely.
	dc *binenc.DecodeCache
}

// New returns a relational store over the engine.
func New(e engine.Sizer, cat *catalog.Catalog) *Store {
	return &Store{e: e, cat: cat, dc: binenc.NewDecodeCache(8192)}
}

// Keyspace returns the engine keyspace of a table's rows.
func Keyspace(table string) string { return "rel:" + table }

// IndexKeyspace returns the engine keyspace of a secondary index.
func IndexKeyspace(table, idx string) string { return "idx:rel:" + table + ":" + idx }

const catKind = "table"

func schemaValue(s TableSchema) mmvalue.Value {
	cols := make([]mmvalue.Value, len(s.Columns))
	for i, c := range s.Columns {
		cols[i] = mmvalue.Object(
			mmvalue.F("name", mmvalue.String(c.Name)),
			mmvalue.F("type", mmvalue.String(string(c.Type))),
			mmvalue.F("notnull", mmvalue.Bool(c.NotNull)),
		)
	}
	pk := make([]mmvalue.Value, len(s.PrimaryKey))
	for i, p := range s.PrimaryKey {
		pk[i] = mmvalue.String(p)
	}
	return mmvalue.Object(
		mmvalue.F("columns", mmvalue.ArrayOf(cols)),
		mmvalue.F("pk", mmvalue.ArrayOf(pk)),
		mmvalue.F("indexes", mmvalue.Array()),
	)
}

func schemaFromValue(v mmvalue.Value) TableSchema {
	var s TableSchema
	for _, c := range v.GetOr("columns").AsArray() {
		s.Columns = append(s.Columns, Column{
			Name:    c.GetOr("name").AsString(),
			Type:    ColType(c.GetOr("type").AsString()),
			NotNull: c.GetOr("notnull").AsBool(),
		})
	}
	for _, p := range v.GetOr("pk").AsArray() {
		s.PrimaryKey = append(s.PrimaryKey, p.AsString())
	}
	return s
}

// Column returns the declared column with the given name.
func (s TableSchema) Column(name string) (Column, bool) {
	for _, c := range s.Columns {
		if c.Name == name {
			return c, true
		}
	}
	return Column{}, false
}

// checkType validates one value against a column type. Ints are accepted
// where floats are declared.
func checkType(c Column, v mmvalue.Value) error {
	if v.IsNull() {
		if c.NotNull {
			return fmt.Errorf("%w: column %q is NOT NULL", ErrType, c.Name)
		}
		return nil
	}
	ok := false
	switch c.Type {
	case TInt:
		ok = v.Kind() == mmvalue.KindInt
	case TFloat:
		ok = v.IsNumber()
	case TString:
		ok = v.Kind() == mmvalue.KindString
	case TBool:
		ok = v.Kind() == mmvalue.KindBool
	case TBytes:
		ok = v.Kind() == mmvalue.KindBytes
	case TJSONB, TAny, "":
		ok = true
	}
	if !ok {
		return fmt.Errorf("%w: column %q wants %s, got %v", ErrType, c.Name, c.Type, v.Kind())
	}
	return nil
}

// CreateTable registers a table.
func (s *Store) CreateTable(tx engine.Tx, name string, schema TableSchema) error {
	if len(schema.PrimaryKey) == 0 {
		return fmt.Errorf("relstore: table %q needs a primary key", name)
	}
	for _, pk := range schema.PrimaryKey {
		if _, ok := schema.Column(pk); !ok {
			return fmt.Errorf("relstore: primary key column %q not declared", pk)
		}
	}
	return s.cat.Create(tx, catKind, name, schemaValue(schema))
}

// DropTable removes a table, its rows, and its indexes.
func (s *Store) DropTable(tx engine.Tx, name string) error {
	meta, err := s.meta(tx, name)
	if err != nil {
		return err
	}
	for _, idx := range indexNames(meta) {
		if err := tx.DropKeyspace(IndexKeyspace(name, idx.name)); err != nil {
			return err
		}
	}
	if err := tx.DropKeyspace(Keyspace(name)); err != nil {
		return err
	}
	return s.cat.Delete(tx, catKind, name)
}

// Tables lists table names.
func (s *Store) Tables(tx engine.Tx) ([]string, error) {
	entries, err := s.cat.List(tx, catKind)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name
	}
	return names, nil
}

// Schema returns a table's schema.
func (s *Store) Schema(tx engine.Tx, table string) (TableSchema, error) {
	meta, err := s.meta(tx, table)
	if err != nil {
		return TableSchema{}, err
	}
	return schemaFromValue(meta), nil
}

func (s *Store) meta(tx engine.Tx, table string) (mmvalue.Value, error) {
	meta, err := s.cat.Get(tx, catKind, table)
	if errors.Is(err, catalog.ErrNotFound) {
		return mmvalue.Null, fmt.Errorf("%w: %q", ErrNoTable, table)
	}
	return meta, err
}

type idxDef struct {
	name   string
	column string
}

func indexNames(meta mmvalue.Value) []idxDef {
	var out []idxDef
	for _, v := range meta.GetOr("indexes").AsArray() {
		out = append(out, idxDef{
			name:   v.GetOr("name").AsString(),
			column: v.GetOr("column").AsString(),
		})
	}
	return out
}

// pkKey builds the row key from the schema's primary key columns.
func pkKey(schema TableSchema, row mmvalue.Value) ([]byte, error) {
	var key []byte
	for _, col := range schema.PrimaryKey {
		v, ok := row.Get(col)
		if !ok || v.IsNull() {
			return nil, fmt.Errorf("relstore: primary key column %q missing", col)
		}
		key = keyenc.Append(key, v)
	}
	return key, nil
}

// validate type-checks every declared column present in row and rejects
// undeclared columns (relational tables are closed types).
func validate(schema TableSchema, row mmvalue.Value) error {
	if row.Kind() != mmvalue.KindObject {
		return fmt.Errorf("%w: row must be an object", ErrType)
	}
	for _, f := range row.Fields() {
		col, ok := schema.Column(f.Name)
		if !ok {
			return fmt.Errorf("%w: undeclared column %q", ErrType, f.Name)
		}
		if err := checkType(col, f.Value); err != nil {
			return err
		}
	}
	// NOT NULL columns must be present.
	for _, c := range schema.Columns {
		if !c.NotNull {
			continue
		}
		if v, ok := row.Get(c.Name); !ok || v.IsNull() {
			return fmt.Errorf("%w: column %q is NOT NULL", ErrType, c.Name)
		}
	}
	return nil
}

// Insert adds a row, failing on duplicate primary key.
func (s *Store) Insert(tx engine.Tx, table string, row mmvalue.Value) error {
	meta, err := s.meta(tx, table)
	if err != nil {
		return err
	}
	schema := schemaFromValue(meta)
	if err := validate(schema, row); err != nil {
		return err
	}
	key, err := pkKey(schema, row)
	if err != nil {
		return err
	}
	if _, ok, err := tx.Get(Keyspace(table), key); err != nil {
		return err
	} else if ok {
		return fmt.Errorf("%w: %s", ErrDuplicateKey, table)
	}
	if err := s.indexAdd(tx, table, indexNames(meta), key, row); err != nil {
		return err
	}
	return tx.Put(Keyspace(table), key, binenc.Encode(row))
}

// Get fetches a row by primary key values (in PK column order).
func (s *Store) Get(tx engine.Tx, table string, pk ...mmvalue.Value) (mmvalue.Value, bool, error) {
	raw, ok, err := tx.Get(Keyspace(table), keyenc.Encode(pk...))
	if err != nil || !ok {
		return mmvalue.Null, false, err
	}
	row, err := binenc.Decode(raw)
	if err != nil {
		return mmvalue.Null, false, err
	}
	return row, true, nil
}

// Update merges patch into the row with the given primary key. Changing PK
// columns is rejected.
func (s *Store) Update(tx engine.Tx, table string, patch mmvalue.Value, pk ...mmvalue.Value) error {
	meta, err := s.meta(tx, table)
	if err != nil {
		return err
	}
	schema := schemaFromValue(meta)
	old, ok, err := s.Get(tx, table, pk...)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, table)
	}
	for _, pkCol := range schema.PrimaryKey {
		if nv, present := patch.Get(pkCol); present && !mmvalue.Equal(nv, old.GetOr(pkCol)) {
			return fmt.Errorf("relstore: cannot change primary key column %q", pkCol)
		}
	}
	merged := old.Merge(patch)
	if err := validate(schema, merged); err != nil {
		return err
	}
	key := keyenc.Encode(pk...)
	defs := indexNames(meta)
	if err := s.indexRemove(tx, table, defs, key, old); err != nil {
		return err
	}
	if err := s.indexAdd(tx, table, defs, key, merged); err != nil {
		return err
	}
	return tx.Put(Keyspace(table), key, binenc.Encode(merged))
}

// Delete removes a row by primary key, reporting whether it existed.
func (s *Store) Delete(tx engine.Tx, table string, pk ...mmvalue.Value) (bool, error) {
	meta, err := s.meta(tx, table)
	if err != nil {
		return false, err
	}
	key := keyenc.Encode(pk...)
	raw, ok, err := tx.Get(Keyspace(table), key)
	if err != nil || !ok {
		return false, err
	}
	old, err := binenc.Decode(raw)
	if err != nil {
		return false, err
	}
	if err := s.indexRemove(tx, table, indexNames(meta), key, old); err != nil {
		return false, err
	}
	return true, tx.Delete(Keyspace(table), key)
}

// Scan iterates all rows in primary key order.
func (s *Store) Scan(tx engine.Tx, table string, fn func(row mmvalue.Value) bool) error {
	return s.scanKeys(tx, table, nil, nil, fn)
}

// ScanRange iterates, in primary key order, the rows of a table with a
// single-column primary key whose key lies in lo <= pk < hi — a bounded scan
// of the PK-ordered table keyspace that reads only the rows in range. Bounds
// follow LookupRange.
func (s *Store) ScanRange(tx engine.Tx, table string, lo, hi mmvalue.Value, loOpen, hiOpen bool, fn func(row mmvalue.Value) bool) error {
	loKey, hiKey := rangeKeys(lo, hi, loOpen, hiOpen)
	return s.scanKeys(tx, table, loKey, hiKey, fn)
}

func (s *Store) scanKeys(tx engine.Tx, table string, lo, hi []byte, fn func(row mmvalue.Value) bool) error {
	var decodeErr error
	err := tx.Scan(Keyspace(table), lo, hi, func(k, v []byte) bool {
		row, err := s.dc.Decode(v)
		if err != nil {
			decodeErr = err
			return false
		}
		return fn(row)
	})
	if err != nil {
		return err
	}
	return decodeErr
}

// rangeKeys encodes value bounds as scan keys; an open bound is nil. An
// integral float lower bound is encoded as the int it equals: keyenc orders
// Int(5) before Float(5.0) although they compare equal, so the float's own
// key would skip an equal int.
func rangeKeys(lo, hi mmvalue.Value, loOpen, hiOpen bool) (loKey, hiKey []byte) {
	if !loOpen {
		if f := lo.AsFloat(); lo.Kind() == mmvalue.KindFloat && f == float64(int64(f)) {
			lo = mmvalue.Int(int64(f))
		}
		loKey = keyenc.Append(nil, lo)
	}
	if !hiOpen {
		hiKey = keyenc.Append(nil, hi)
	}
	return loKey, hiKey
}

// Count returns the table's row count (engine statistic).
func (s *Store) Count(table string) int { return s.e.KeyspaceLen(Keyspace(table)) }

// --- Secondary indexes ---

// CreateIndex registers and backfills a single-column B+tree index.
func (s *Store) CreateIndex(tx engine.Tx, table, name, column string) error {
	meta, err := s.meta(tx, table)
	if err != nil {
		return err
	}
	schema := schemaFromValue(meta)
	if _, ok := schema.Column(column); !ok {
		return fmt.Errorf("relstore: no column %q on %q", column, table)
	}
	for _, d := range indexNames(meta) {
		if d.name == name {
			return fmt.Errorf("relstore: index %q already exists on %q", name, table)
		}
	}
	// Backfill.
	type pair struct {
		key []byte
		row mmvalue.Value
	}
	var rows []pair
	var decodeErr error
	if err := tx.Scan(Keyspace(table), nil, nil, func(k, v []byte) bool {
		row, err := binenc.Decode(v)
		if err != nil {
			decodeErr = err
			return false
		}
		kc := make([]byte, len(k))
		copy(kc, k)
		rows = append(rows, pair{kc, row})
		return true
	}); err != nil {
		return err
	}
	if decodeErr != nil {
		return decodeErr
	}
	for _, p := range rows {
		entry := keyenc.Append(nil, p.row.GetOr(column))
		entry = append(entry, p.key...)
		if err := tx.Put(IndexKeyspace(table, name), entry, nil); err != nil {
			return err
		}
	}
	idxs := meta.GetOr("indexes")
	meta = meta.Set("indexes", mmvalue.ArrayOf(append(idxs.AsArray(),
		mmvalue.Object(
			mmvalue.F("name", mmvalue.String(name)),
			mmvalue.F("column", mmvalue.String(column)),
		))))
	return s.cat.Put(tx, catKind, table, meta)
}

// IndexedColumns returns column -> index name for the table.
func (s *Store) IndexedColumns(tx engine.Tx, table string) (map[string]string, error) {
	meta, err := s.meta(tx, table)
	if err != nil {
		return nil, err
	}
	out := map[string]string{}
	for _, d := range indexNames(meta) {
		out[d.column] = d.name
	}
	return out, nil
}

func (s *Store) indexAdd(tx engine.Tx, table string, defs []idxDef, rowKey []byte, row mmvalue.Value) error {
	for _, d := range defs {
		entry := keyenc.Append(nil, row.GetOr(d.column))
		entry = append(entry, rowKey...)
		if err := tx.Put(IndexKeyspace(table, d.name), entry, nil); err != nil {
			return err
		}
	}
	return nil
}

func (s *Store) indexRemove(tx engine.Tx, table string, defs []idxDef, rowKey []byte, row mmvalue.Value) error {
	for _, d := range defs {
		entry := keyenc.Append(nil, row.GetOr(d.column))
		entry = append(entry, rowKey...)
		if err := tx.Delete(IndexKeyspace(table, d.name), entry); err != nil {
			return err
		}
	}
	return nil
}

// LookupEq returns rows whose indexed column equals v.
func (s *Store) LookupEq(tx engine.Tx, table, idx string, v mmvalue.Value) ([]mmvalue.Value, error) {
	lo := keyenc.Append(nil, v)
	hi := keyenc.AppendMax(keyenc.Append(nil, v))
	return s.lookupRange(tx, table, idx, lo, hi)
}

// LookupRange returns rows with lo <= col < hi under the index ordering;
// nil bounds are open. Bounds are Values; inclusivity follows B+tree scan
// semantics (lo inclusive, hi exclusive) with AppendMax available for
// inclusive upper bounds at the caller.
func (s *Store) LookupRange(tx engine.Tx, table, idx string, lo, hi mmvalue.Value, loOpen, hiOpen bool) ([]mmvalue.Value, error) {
	loKey, hiKey := rangeKeys(lo, hi, loOpen, hiOpen)
	return s.lookupRange(tx, table, idx, loKey, hiKey)
}

func (s *Store) lookupRange(tx engine.Tx, table, idx string, lo, hi []byte) ([]mmvalue.Value, error) {
	// Collect row keys from the index, then fetch rows.
	var rowKeys [][]byte
	var scanErr error
	var parts []mmvalue.Value // key scratch, reused row to row
	if err := tx.Scan(IndexKeyspace(table, idx), lo, hi, func(k, _ []byte) bool {
		// Entry = keyenc(value) ++ pk bytes; decode the first element to
		// find where the pk starts.
		var err error
		parts, err = keyenc.DecodeAppend(parts[:0], k)
		if err != nil || len(parts) < 2 {
			scanErr = fmt.Errorf("relstore: corrupt index entry: %w", err)
			return false
		}
		prefixLen := len(keyenc.Append(nil, parts[0]))
		pk := make([]byte, len(k)-prefixLen)
		copy(pk, k[prefixLen:])
		rowKeys = append(rowKeys, pk)
		return true
	}); err != nil {
		return nil, err
	}
	if scanErr != nil {
		return nil, scanErr
	}
	rows := make([]mmvalue.Value, 0, len(rowKeys))
	for _, rk := range rowKeys {
		raw, ok, err := tx.Get(Keyspace(table), rk)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		row, err := binenc.Decode(raw)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}
