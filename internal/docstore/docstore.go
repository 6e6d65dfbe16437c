// Package docstore implements the document data model: named collections of
// JSON-like documents with a primary key, schema modes, and transactional
// secondary indexes (the ArangoDB / Couchbase / MarkLogic rows of the
// paper's classification).
//
// Layout on the integrated backend:
//
//	doc:<coll>              primary data: keyenc(_key) -> binenc(document)
//	idx:doc:<coll>:<name>   secondary index: keyenc(value, _key) -> ""
//
// Every index kind is such a keyspace; the kinds differ only in the values
// a document contributes. A B+tree path index holds the values at its path,
// a GIN index the document's GIN items (inverted.Items), and a full-text
// index the distinct tokens of its string leaves. Index maintenance is part
// of the same engine transaction as the document write, so abort rolls both
// back, and snapshots, shards, the WAL and recovery cover indexes as they
// cover documents.
package docstore

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync/atomic"

	"repro/internal/binenc"
	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/inverted"
	"repro/internal/keyenc"
	"repro/internal/mmvalue"
)

// KeyField is the reserved primary-key attribute of every document
// (ArangoDB's _key).
const KeyField = "_key"

// ErrNoCollection is returned for operations on unregistered collections.
var ErrNoCollection = errors.New("docstore: no such collection")

// ErrDuplicateKey is returned when inserting an existing _key or violating
// a unique index.
var ErrDuplicateKey = errors.New("docstore: duplicate key")

// ErrNotFound is returned when a referenced document does not exist.
var ErrNotFound = errors.New("docstore: document not found")

// IndexKind selects what a secondary index holds for each document.
type IndexKind string

// Index kinds.
const (
	PathIndex     IndexKind = ""         // the values at Path (B+tree)
	GINIndex      IndexKind = "gin"      // the GIN items of the document, in Mode
	FullTextIndex IndexKind = "fulltext" // the distinct tokens of its string leaves
)

// IndexDef describes a secondary index.
type IndexDef struct {
	Name   string
	Kind   IndexKind
	Path   string        // PathIndex: mmvalue path, may contain [*]
	Mode   inverted.Mode // GINIndex: the item extraction mode
	Unique bool
	Sparse bool // skip documents where the path is missing
}

// Store provides document operations within engine transactions.
type Store struct {
	e      engine.Sizer
	cat    *catalog.Catalog
	keySeq atomic.Uint64
	// dc memoizes decoded documents on the point-lookup path (DOCUMENT()
	// in queries) and in scans; entries are keyed by the raw bytes each
	// read returns, so transactional visibility is unchanged.
	dc *binenc.DecodeCache
}

// New returns a document store over the engine.
func New(e engine.Sizer, cat *catalog.Catalog) *Store {
	return &Store{e: e, cat: cat, dc: binenc.NewDecodeCache(8192)}
}

// Keyspace returns the engine keyspace of a collection's primary data.
func Keyspace(coll string) string { return "doc:" + coll }

// IndexKeyspace returns the engine keyspace of a secondary index.
func IndexKeyspace(coll, idx string) string { return "idx:doc:" + coll + ":" + idx }

const catKind = "collection"

// CreateCollection registers a collection with a schema.
func (s *Store) CreateCollection(tx engine.Tx, name string, schema catalog.Schema) error {
	meta := mmvalue.Object(
		mmvalue.F("schema", catalog.SchemaValue(schema)),
		mmvalue.F("indexes", mmvalue.Array()),
	)
	return s.cat.Create(tx, catKind, name, meta)
}

// DropCollection removes a collection, its data, and its indexes.
func (s *Store) DropCollection(tx engine.Tx, name string) error {
	meta, err := s.meta(tx, name)
	if err != nil {
		return err
	}
	for _, def := range indexDefs(meta) {
		if err := tx.DropKeyspace(IndexKeyspace(name, def.Name)); err != nil {
			return err
		}
	}
	if err := tx.DropKeyspace(Keyspace(name)); err != nil {
		return err
	}
	return s.cat.Delete(tx, catKind, name)
}

// Collections lists collection names.
func (s *Store) Collections(tx engine.Tx) ([]string, error) {
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

func (s *Store) meta(tx engine.Tx, coll string) (mmvalue.Value, error) {
	meta, err := s.cat.Get(tx, catKind, coll)
	if errors.Is(err, catalog.ErrNotFound) {
		return mmvalue.Null, fmt.Errorf("%w: %q", ErrNoCollection, coll)
	}
	return meta, err
}

func indexDefs(meta mmvalue.Value) []IndexDef {
	var defs []IndexDef
	for _, v := range meta.GetOr("indexes").AsArray() {
		defs = append(defs, IndexDef{
			Name:   v.GetOr("name").AsString(),
			Path:   v.GetOr("path").AsString(),
			Unique: v.GetOr("unique").AsBool(),
			Sparse: v.GetOr("sparse").AsBool(),
			Kind:   IndexKind(v.GetOr("kind").AsString()),
			Mode:   inverted.Mode(v.GetOr("mode").AsInt()),
		})
	}
	return defs
}

func indexDefValue(d IndexDef) mmvalue.Value {
	v := mmvalue.Object(
		mmvalue.F("name", mmvalue.String(d.Name)),
		mmvalue.F("path", mmvalue.String(d.Path)),
		mmvalue.F("unique", mmvalue.Bool(d.Unique)),
		mmvalue.F("sparse", mmvalue.Bool(d.Sparse)),
	)
	if d.Kind != PathIndex {
		v = v.Set("kind", mmvalue.String(string(d.Kind))).Set("mode", mmvalue.Int(int64(d.Mode)))
	}
	return v
}

// GenerateKey returns a fresh unique document key.
func (s *Store) GenerateKey() string {
	return "d" + strconv.FormatUint(s.keySeq.Add(1), 36)
}

// Insert stores a new document. The key comes from doc's _key field or is
// generated; the stored document always carries _key. Returns the key.
func (s *Store) Insert(tx engine.Tx, coll string, doc mmvalue.Value) (string, error) {
	meta, err := s.meta(tx, coll)
	if err != nil {
		return "", err
	}
	if doc.Kind() != mmvalue.KindObject {
		return "", fmt.Errorf("docstore: document must be an object, got %v", doc.Kind())
	}
	key := doc.GetOr(KeyField).AsString()
	if key == "" {
		key = s.GenerateKey()
		doc = doc.Set(KeyField, mmvalue.String(key))
	}
	schema := catalog.SchemaFromValue(meta.GetOr("schema"))
	if err := schema.Validate(doc.Delete(KeyField)); err != nil {
		return "", err
	}
	pk := keyenc.AppendString(nil, key)
	if _, ok, err := tx.Get(Keyspace(coll), pk); err != nil {
		return "", err
	} else if ok {
		return "", fmt.Errorf("%w: %s/%s", ErrDuplicateKey, coll, key)
	}
	if err := s.indexAdd(tx, coll, indexDefs(meta), key, doc); err != nil {
		return "", err
	}
	return key, tx.Put(Keyspace(coll), pk, binenc.Encode(doc))
}

// Put upserts a document under an explicit key.
func (s *Store) Put(tx engine.Tx, coll, key string, doc mmvalue.Value) error {
	meta, err := s.meta(tx, coll)
	if err != nil {
		return err
	}
	if doc.Kind() != mmvalue.KindObject {
		return fmt.Errorf("docstore: document must be an object, got %v", doc.Kind())
	}
	doc = doc.Set(KeyField, mmvalue.String(key))
	schema := catalog.SchemaFromValue(meta.GetOr("schema"))
	if err := schema.Validate(doc.Delete(KeyField)); err != nil {
		return err
	}
	defs := indexDefs(meta)
	pk := keyenc.AppendString(nil, key)
	if raw, ok, err := tx.Get(Keyspace(coll), pk); err != nil {
		return err
	} else if ok {
		old, err := binenc.Decode(raw)
		if err != nil {
			return err
		}
		if err := s.indexRemove(tx, coll, defs, key, old); err != nil {
			return err
		}
	}
	if err := s.indexAdd(tx, coll, defs, key, doc); err != nil {
		return err
	}
	return tx.Put(Keyspace(coll), pk, binenc.Encode(doc))
}

// Get fetches a document by key.
func (s *Store) Get(tx engine.Tx, coll, key string) (mmvalue.Value, bool, error) {
	raw, ok, err := tx.Get(Keyspace(coll), keyenc.AppendString(nil, key))
	if err != nil || !ok {
		return mmvalue.Null, false, err
	}
	doc, err := s.dc.Decode(raw)
	if err != nil {
		return mmvalue.Null, false, err
	}
	return doc, true, nil
}

// Update merges patch into the existing document (shallow merge, AQL UPDATE
// semantics). Fails if the document does not exist.
func (s *Store) Update(tx engine.Tx, coll, key string, patch mmvalue.Value) error {
	old, ok, err := s.Get(tx, coll, key)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("%w: %s/%s", ErrNotFound, coll, key)
	}
	return s.Put(tx, coll, key, old.Merge(patch))
}

// Delete removes a document, reporting whether it existed.
func (s *Store) Delete(tx engine.Tx, coll, key string) (bool, error) {
	meta, err := s.meta(tx, coll)
	if err != nil {
		return false, err
	}
	pk := keyenc.AppendString(nil, key)
	raw, ok, err := tx.Get(Keyspace(coll), pk)
	if err != nil || !ok {
		return false, err
	}
	old, err := binenc.Decode(raw)
	if err != nil {
		return false, err
	}
	if err := s.indexRemove(tx, coll, indexDefs(meta), key, old); err != nil {
		return false, err
	}
	return true, tx.Delete(Keyspace(coll), pk)
}

// Scan iterates every document of a collection in key order. Documents
// are decoded through the store's decode cache, so fn may receive a
// document other readers share: it must not write into the document's
// Fields() or AsArray().
func (s *Store) Scan(tx engine.Tx, coll string, fn func(key string, doc mmvalue.Value) bool) error {
	var decodeErr error
	var parts []mmvalue.Value // key scratch, reused row to row
	err := tx.Scan(Keyspace(coll), nil, nil, func(k, v []byte) bool {
		doc, err := s.dc.Decode(v)
		if err != nil {
			decodeErr = err
			return false
		}
		// The stored document carries its key: hand that string on when
		// the primary key is exactly it, instead of decoding a copy.
		if p, n, ok := keyenc.UnescapedString(k); ok && n == len(k) {
			if id := doc.GetOr(KeyField); id.Kind() == mmvalue.KindString && id.AsString() == string(p) {
				return fn(id.AsString(), doc)
			}
		}
		parts, err = keyenc.DecodeAppend(parts[:0], k)
		if err != nil || len(parts) == 0 {
			decodeErr = fmt.Errorf("docstore: corrupt primary key: %w", err)
			return false
		}
		return fn(parts[0].AsString(), doc)
	})
	if err != nil {
		return err
	}
	return decodeErr
}

// Count returns the number of documents (engine statistic).
func (s *Store) Count(coll string) int { return s.e.KeyspaceLen(Keyspace(coll)) }

// --- Secondary indexes ---

// CreateIndex registers and backfills a secondary index of any kind.
func (s *Store) CreateIndex(tx engine.Tx, coll string, def IndexDef) error {
	meta, err := s.meta(tx, coll)
	if err != nil {
		return err
	}
	for _, d := range indexDefs(meta) {
		if d.Name == def.Name {
			return fmt.Errorf("docstore: index %q already exists on %q", def.Name, coll)
		}
	}
	switch def.Kind {
	case PathIndex:
		if _, err := mmvalue.ParsePath(def.Path); err != nil {
			return err
		}
	case GINIndex, FullTextIndex:
		if def.Unique {
			return fmt.Errorf("docstore: a %s index cannot be unique", def.Kind)
		}
	default:
		return fmt.Errorf("docstore: unknown index kind %q", def.Kind)
	}
	// Backfill from existing documents.
	type pair struct {
		key string
		doc mmvalue.Value
	}
	var docs []pair
	if err := s.Scan(tx, coll, func(key string, doc mmvalue.Value) bool {
		docs = append(docs, pair{key, doc})
		return true
	}); err != nil {
		return err
	}
	for _, p := range docs {
		if err := s.indexAddOne(tx, coll, def, p.key, p.doc); err != nil {
			return err
		}
	}
	idxs := meta.GetOr("indexes")
	meta = meta.Set("indexes", mmvalue.ArrayOf(append(idxs.AsArray(), indexDefValue(def))))
	return s.cat.Put(tx, catKind, coll, meta)
}

// DropIndex removes an index and its data.
func (s *Store) DropIndex(tx engine.Tx, coll, name string) error {
	meta, err := s.meta(tx, coll)
	if err != nil {
		return err
	}
	var kept []mmvalue.Value
	found := false
	for _, v := range meta.GetOr("indexes").AsArray() {
		if v.GetOr("name").AsString() == name {
			found = true
			continue
		}
		kept = append(kept, v)
	}
	if !found {
		return fmt.Errorf("docstore: no index %q on %q", name, coll)
	}
	if err := tx.DropKeyspace(IndexKeyspace(coll, name)); err != nil {
		return err
	}
	meta = meta.Set("indexes", mmvalue.ArrayOf(kept))
	return s.cat.Put(tx, catKind, coll, meta)
}

// Indexes returns the index definitions of a collection.
func (s *Store) Indexes(tx engine.Tx, coll string) ([]IndexDef, error) {
	meta, err := s.meta(tx, coll)
	if err != nil {
		return nil, err
	}
	return indexDefs(meta), nil
}

// indexedValues extracts the values a document contributes to an index.
func indexedValues(def IndexDef, doc mmvalue.Value) []mmvalue.Value {
	switch def.Kind {
	case GINIndex:
		return stringValues(inverted.Items(def.Mode, doc))
	case FullTextIndex:
		return stringValues(docTokens(doc))
	}
	path := mmvalue.MustParsePath(def.Path)
	vals := path.ExtractAll(doc)
	if len(vals) == 0 && !def.Sparse {
		// Non-sparse indexes record missing paths as null, like ArangoDB's
		// non-sparse hash indexes.
		return []mmvalue.Value{mmvalue.Null}
	}
	return vals
}

// docTokens returns the distinct tokens of every string leaf of doc.
func docTokens(doc mmvalue.Value) []string {
	var toks []string
	var walk func(v mmvalue.Value)
	walk = func(v mmvalue.Value) {
		switch v.Kind() {
		case mmvalue.KindObject:
			for _, f := range v.Fields() {
				walk(f.Value)
			}
		case mmvalue.KindArray:
			for _, e := range v.AsArray() {
				walk(e)
			}
		case mmvalue.KindString:
			toks = append(toks, inverted.Tokenize(v.AsString())...)
		default:
			// Other scalars carry no text.
		}
	}
	walk(doc)
	slices.Sort(toks)
	return slices.Compact(toks)
}

func stringValues(ss []string) []mmvalue.Value {
	vals := make([]mmvalue.Value, len(ss))
	for i, s := range ss {
		vals[i] = mmvalue.String(s)
	}
	return vals
}

func indexEntryKey(v mmvalue.Value, docKey string) []byte {
	k := keyenc.Append(nil, v)
	return keyenc.AppendString(k, docKey)
}

func (s *Store) indexAdd(tx engine.Tx, coll string, defs []IndexDef, key string, doc mmvalue.Value) error {
	for _, def := range defs {
		if err := s.indexAddOne(tx, coll, def, key, doc); err != nil {
			return err
		}
	}
	return nil
}

func (s *Store) indexAddOne(tx engine.Tx, coll string, def IndexDef, key string, doc mmvalue.Value) error {
	ks := IndexKeyspace(coll, def.Name)
	for _, v := range indexedValues(def, doc) {
		if def.Unique {
			// Any entry with the same value prefix violates uniqueness.
			lo := keyenc.Append(nil, v)
			hi := keyenc.AppendMax(keyenc.Append(nil, v))
			conflict := false
			if err := tx.Scan(ks, lo, hi, func(k, _ []byte) bool {
				conflict = true
				return false
			}); err != nil {
				return err
			}
			if conflict {
				return fmt.Errorf("%w: unique index %q value %v", ErrDuplicateKey, def.Name, v)
			}
		}
		if err := tx.Put(ks, indexEntryKey(v, key), nil); err != nil {
			return err
		}
	}
	return nil
}

func (s *Store) indexRemove(tx engine.Tx, coll string, defs []IndexDef, key string, doc mmvalue.Value) error {
	for _, def := range defs {
		ks := IndexKeyspace(coll, def.Name)
		for _, v := range indexedValues(def, doc) {
			if err := tx.Delete(ks, indexEntryKey(v, key)); err != nil {
				return err
			}
		}
	}
	return nil
}

// LookupEq returns the keys of documents whose indexed value equals v.
func (s *Store) LookupEq(tx engine.Tx, coll, idx string, v mmvalue.Value) ([]string, error) {
	lo := keyenc.Append(nil, v)
	hi := keyenc.AppendMax(keyenc.Append(nil, v))
	return s.lookupRangeRaw(tx, IndexKeyspace(coll, idx), lo, hi)
}

// LookupAll returns, in key order, the keys of the documents an index
// holds under every one of items: one LookupEq range scan per item, then an
// intersection of the sorted key lists. It serves GIN containment (items
// from inverted.Items) and full-text AND queries (tokens).
func (s *Store) LookupAll(tx engine.Tx, coll, idx string, items []string) ([]string, error) {
	lists := make([][]string, len(items))
	for i, it := range items {
		keys, err := s.LookupEq(tx, coll, idx, mmvalue.String(it))
		if err != nil || len(keys) == 0 {
			return nil, err
		}
		lists[i] = keys
	}
	return inverted.Intersect(lists), nil
}

// SearchText returns, in key order, the keys of the documents whose string
// leaves hold every token of terms, read from the collection's full-text
// index. An unknown collection, one without a full-text index, and terms
// without a token all yield none.
func (s *Store) SearchText(tx engine.Tx, coll, terms string) ([]string, error) {
	meta, err := s.cat.Get(tx, catKind, coll)
	if errors.Is(err, catalog.ErrNotFound) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	toks := inverted.Tokenize(terms)
	slices.Sort(toks)
	for _, d := range indexDefs(meta) {
		if d.Kind == FullTextIndex {
			return s.LookupAll(tx, coll, d.Name, slices.Compact(toks))
		}
	}
	return nil, nil
}

// Bound describes one end of an index range.
type Bound struct {
	Value     mmvalue.Value
	Inclusive bool
	Unbounded bool
}

// LookupRange returns document keys with lo <= value <= hi per the bounds
// (B+tree indexes support ranges; this is the capability hash indexes lack
// in E4).
func (s *Store) LookupRange(tx engine.Tx, coll, idx string, lo, hi Bound) ([]string, error) {
	var loKey, hiKey []byte
	switch {
	case lo.Unbounded:
		loKey = nil
	case lo.Inclusive:
		loKey = keyenc.Append(nil, lo.Value)
	default:
		loKey = keyenc.AppendMax(keyenc.Append(nil, lo.Value))
	}
	switch {
	case hi.Unbounded:
		hiKey = nil
	case hi.Inclusive:
		hiKey = keyenc.AppendMax(keyenc.Append(nil, hi.Value))
	default:
		hiKey = keyenc.Append(nil, hi.Value)
	}
	return s.lookupRangeRaw(tx, IndexKeyspace(coll, idx), loKey, hiKey)
}

func (s *Store) lookupRangeRaw(tx engine.Tx, ks string, lo, hi []byte) ([]string, error) {
	var keys []string
	var decodeErr error
	var parts []mmvalue.Value // key scratch, reused row to row
	err := tx.Scan(ks, lo, hi, func(k, _ []byte) bool {
		var err error
		parts, err = keyenc.DecodeAppend(parts[:0], k)
		if err != nil || len(parts) < 2 {
			decodeErr = fmt.Errorf("docstore: corrupt index entry: %w", err)
			return false
		}
		keys = append(keys, parts[len(parts)-1].AsString())
		return true
	})
	if err != nil {
		return nil, err
	}
	return keys, decodeErr
}
