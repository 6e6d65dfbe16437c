// Package rdfstore implements the RDF triple model of the paper's DB2-RDF
// row: triples are dictionary-encoded and stored in three permutation
// indexes — SPO ("direct primary": indexed by subject), OPS ("reverse
// primary": indexed by object), and POS (predicate-first, serving
// predicate-bound patterns). Each triple-pattern shape picks the
// permutation that turns it into a prefix scan, and basic graph patterns
// (conjunctive SPARQL WHERE clauses) are evaluated by binding-propagating
// joins.
//
// Layout on the integrated backend (per graph name):
//
//	rdf:<g>:dict    term -> id           (dictionary)
//	rdf:<g>:rdict   id -> term           (reverse dictionary)
//	rdf:<g>:spo     keyenc(s,p,o) -> ""  (direct primary)
//	rdf:<g>:ops     keyenc(o,p,s) -> ""  (reverse primary)
//	rdf:<g>:pos     keyenc(p,o,s) -> ""
package rdfstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"

	"repro/internal/engine"
	"repro/internal/keyenc"
	"repro/internal/mmvalue"
)

// Triple is one (subject, predicate, object) statement. Terms are strings:
// IRIs, blank-node labels, or literals — the store does not interpret them
// beyond identity.
type Triple struct {
	S, P, O string
}

// Errors.
var ErrBadPattern = errors.New("rdfstore: invalid pattern")

// Store provides triple operations within engine transactions.
type Store struct {
	e engine.Sizer
}

// New returns an RDF store over the engine.
func New(e engine.Sizer) *Store { return &Store{e: e} }

func dictKS(g string) string  { return "rdf:" + g + ":dict" }
func rdictKS(g string) string { return "rdf:" + g + ":rdict" }
func spoKS(g string) string   { return "rdf:" + g + ":spo" }
func opsKS(g string) string   { return "rdf:" + g + ":ops" }
func posKS(g string) string   { return "rdf:" + g + ":pos" }

func idKey(id uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], id)
	return b[:]
}

// termID returns (allocating if needed) the dictionary id of a term.
func (s *Store) termID(tx engine.Tx, g, term string, create bool) (uint64, bool, error) {
	raw, ok, err := tx.Get(dictKS(g), []byte(term))
	if err != nil {
		return 0, false, err
	}
	if ok {
		return binary.BigEndian.Uint64(raw), true, nil
	}
	if !create {
		return 0, false, nil
	}
	// Allocate the next id from a counter key; the X lock taken by the
	// read-modify-write serializes concurrent allocators.
	var id uint64 = 1
	if cur, ok, err := tx.Get(dictKS(g), []byte("\x00seq")); err != nil {
		return 0, false, err
	} else if ok {
		id = binary.BigEndian.Uint64(cur) + 1
	}
	if err := tx.Put(dictKS(g), []byte("\x00seq"), idKey(id)); err != nil {
		return 0, false, err
	}
	if err := tx.Put(dictKS(g), []byte(term), idKey(id)); err != nil {
		return 0, false, err
	}
	if err := tx.Put(rdictKS(g), idKey(id), []byte(term)); err != nil {
		return 0, false, err
	}
	return id, true, nil
}

func (s *Store) term(tx engine.Tx, g string, id uint64) (string, error) {
	raw, ok, err := tx.Get(rdictKS(g), idKey(id))
	if err != nil {
		return "", err
	}
	if !ok {
		return "", fmt.Errorf("rdfstore: dangling id %d", id)
	}
	return string(raw), nil
}

func tripleKey(a, b, c uint64) []byte {
	k := keyenc.AppendInt(nil, int64(a))
	k = keyenc.AppendInt(k, int64(b))
	return keyenc.AppendInt(k, int64(c))
}

// Insert adds a triple (idempotent).
func (s *Store) Insert(tx engine.Tx, g string, t Triple) error {
	si, _, err := s.termID(tx, g, t.S, true)
	if err != nil {
		return err
	}
	pi, _, err := s.termID(tx, g, t.P, true)
	if err != nil {
		return err
	}
	oi, _, err := s.termID(tx, g, t.O, true)
	if err != nil {
		return err
	}
	if err := tx.Put(spoKS(g), tripleKey(si, pi, oi), nil); err != nil {
		return err
	}
	if err := tx.Put(opsKS(g), tripleKey(oi, pi, si), nil); err != nil {
		return err
	}
	return tx.Put(posKS(g), tripleKey(pi, oi, si), nil)
}

// Delete removes a triple, reporting whether it was present.
func (s *Store) Delete(tx engine.Tx, g string, t Triple) (bool, error) {
	si, ok, err := s.termID(tx, g, t.S, false)
	if err != nil || !ok {
		return false, err
	}
	pi, ok, err := s.termID(tx, g, t.P, false)
	if err != nil || !ok {
		return false, err
	}
	oi, ok, err := s.termID(tx, g, t.O, false)
	if err != nil || !ok {
		return false, err
	}
	if _, present, err := tx.Get(spoKS(g), tripleKey(si, pi, oi)); err != nil || !present {
		return false, err
	}
	if err := tx.Delete(spoKS(g), tripleKey(si, pi, oi)); err != nil {
		return false, err
	}
	if err := tx.Delete(opsKS(g), tripleKey(oi, pi, si)); err != nil {
		return false, err
	}
	return true, tx.Delete(posKS(g), tripleKey(pi, oi, si))
}

// Count returns the number of triples in the graph.
func (s *Store) Count(g string) int { return s.e.KeyspaceLen(spoKS(g)) }

// Pattern is a triple pattern; empty strings are wildcards (variables).
type Pattern struct {
	S, P, O string
}

// permutation describes how one index orders (first, second, third) relative
// to (s, p, o).
type permutation struct {
	ks      func(string) string
	extract func(a, b, c uint64) Triple2 // map scan order back to s,p,o ids
	order   [3]rune                      // which of s/p/o sits at each position
}

// Triple2 is an id-space triple.
type Triple2 struct{ S, P, O uint64 }

// Match returns all triples matching the pattern, choosing the permutation
// index that maximizes the bound prefix:
//
//	S bound (any)   -> SPO (direct primary)
//	O bound, S free -> OPS (reverse primary)
//	P bound only    -> POS
//	nothing bound   -> SPO full scan
func (s *Store) Match(tx engine.Tx, g string, pat Pattern) ([]Triple, error) {
	perm, bound, err := s.chooseIndex(tx, g, pat)
	if err != nil {
		return nil, err
	}
	if perm == "" {
		// A bound term is absent from the dictionary: no matches.
		return nil, nil
	}
	var lo, hi []byte
	for _, id := range bound {
		lo = keyenc.AppendInt(lo, int64(id))
	}
	if len(bound) > 0 {
		hi = keyenc.AppendMax(append([]byte{}, lo...))
	}
	var ids []Triple2
	var vals []mmvalue.Value // key scratch, reused row to row
	var decErr error
	err = tx.Scan(permKeyspace(g, perm), lo, hi, func(k, _ []byte) bool {
		var err error
		vals, err = keyenc.DecodeAppend(vals[:0], k)
		if err != nil || len(vals) != 3 {
			decErr = fmt.Errorf("rdfstore: corrupt triple key")
			return false
		}
		a, b, c := uint64(vals[0].AsInt()), uint64(vals[1].AsInt()), uint64(vals[2].AsInt())
		ids = append(ids, permTriple(perm, a, b, c))
		return true
	})
	if err == nil {
		err = decErr
	}
	if err != nil {
		return nil, err
	}
	// Post-filter components the prefix scan could not pin, then decode.
	var out []Triple
	for _, t2 := range ids {
		trp, err := s.decode(tx, g, t2)
		if err != nil {
			return nil, err
		}
		if pat.S != "" && trp.S != pat.S {
			continue
		}
		if pat.P != "" && trp.P != pat.P {
			continue
		}
		if pat.O != "" && trp.O != pat.O {
			continue
		}
		out = append(out, trp)
	}
	return out, nil
}

func permKeyspace(g, perm string) string {
	switch perm {
	case "spo":
		return spoKS(g)
	case "ops":
		return opsKS(g)
	default:
		return posKS(g)
	}
}

func permTriple(perm string, a, b, c uint64) Triple2 {
	switch perm {
	case "spo":
		return Triple2{S: a, P: b, O: c}
	case "ops":
		return Triple2{O: a, P: b, S: c}
	default: // pos
		return Triple2{P: a, O: b, S: c}
	}
}

// chooseIndex resolves the bound terms of the pattern to ids and picks the
// permutation with the longest bound prefix. Empty perm means a bound term
// is unknown (no results possible).
func (s *Store) chooseIndex(tx engine.Tx, g string, pat Pattern) (string, []uint64, error) {
	resolve := func(term string) (uint64, bool, error) {
		if term == "" {
			return 0, true, nil // wildcard
		}
		id, ok, err := s.termID(tx, g, term, false)
		if err != nil {
			return 0, false, err
		}
		if !ok {
			return 0, false, nil
		}
		return id, true, nil
	}
	si, sOK, err := resolve(pat.S)
	if err != nil {
		return "", nil, err
	}
	pi, pOK, err := resolve(pat.P)
	if err != nil {
		return "", nil, err
	}
	oi, oOK, err := resolve(pat.O)
	if err != nil {
		return "", nil, err
	}
	if !sOK || !pOK || !oOK {
		return "", nil, nil
	}
	switch {
	case pat.S != "" && pat.P != "" && pat.O != "":
		return "spo", []uint64{si, pi, oi}, nil
	case pat.S != "" && pat.P != "":
		return "spo", []uint64{si, pi}, nil
	case pat.S != "":
		return "spo", []uint64{si}, nil
	case pat.O != "" && pat.P != "":
		return "ops", []uint64{oi, pi}, nil
	case pat.O != "":
		return "ops", []uint64{oi}, nil
	case pat.P != "":
		return "pos", []uint64{pi}, nil
	default:
		return "spo", nil, nil
	}
}

// IndexFor exposes the permutation choice (for the E16 experiment report).
func IndexFor(pat Pattern) string {
	switch {
	case pat.S != "":
		return "spo (direct primary)"
	case pat.O != "":
		return "ops (reverse primary)"
	case pat.P != "":
		return "pos"
	default:
		return "spo full scan"
	}
}

func (s *Store) decode(tx engine.Tx, g string, t Triple2) (Triple, error) {
	sub, err := s.term(tx, g, t.S)
	if err != nil {
		return Triple{}, err
	}
	pred, err := s.term(tx, g, t.P)
	if err != nil {
		return Triple{}, err
	}
	obj, err := s.term(tx, g, t.O)
	if err != nil {
		return Triple{}, err
	}
	return Triple{S: sub, P: pred, O: obj}, nil
}

// --- Basic graph patterns (SPARQL-subset WHERE evaluation) ---

// PatternVar marks a variable position in a BGP pattern (e.g. "?x").
func isVar(term string) bool { return len(term) > 0 && term[0] == '?' }

// BGPPattern is a triple pattern whose positions may be variables ("?x") or
// constant terms.
type BGPPattern struct {
	S, P, O string
}

// Binding maps variable names (with '?') to terms.
type Binding map[string]string

// MatchBGP evaluates a conjunctive basic graph pattern, returning all
// variable bindings, via binding-propagating nested-loop join in pattern
// order.
func (s *Store) MatchBGP(tx engine.Tx, g string, patterns []BGPPattern) ([]Binding, error) {
	bindings := []Binding{{}}
	for _, pat := range patterns {
		var next []Binding
		for _, b := range bindings {
			concrete := Pattern{
				S: resolveTerm(pat.S, b),
				P: resolveTerm(pat.P, b),
				O: resolveTerm(pat.O, b),
			}
			matches, err := s.Match(tx, g, concrete)
			if err != nil {
				return nil, err
			}
			for _, m := range matches {
				nb := extend(b, pat, m)
				if nb != nil {
					next = append(next, nb)
				}
			}
		}
		bindings = next
		if len(bindings) == 0 {
			break
		}
	}
	return bindings, nil
}

func resolveTerm(term string, b Binding) string {
	if isVar(term) {
		if v, ok := b[term]; ok {
			return v
		}
		return ""
	}
	return term
}

func extend(b Binding, pat BGPPattern, m Triple) Binding {
	nb := Binding{}
	for k, v := range b {
		nb[k] = v
	}
	assign := func(term, val string) bool {
		if !isVar(term) {
			return true
		}
		if cur, ok := nb[term]; ok {
			return cur == val
		}
		nb[term] = val
		return true
	}
	if !assign(pat.S, m.S) || !assign(pat.P, m.P) || !assign(pat.O, m.O) {
		return nil
	}
	return nb
}

// Terms returns the dictionary size (distinct terms).
func (s *Store) Terms(g string) int { return s.e.KeyspaceLen(rdictKS(g)) }

// All returns every triple in the graph (SPO order).
func (s *Store) All(tx engine.Tx, g string) ([]Triple, error) {
	return s.Match(tx, g, Pattern{})
}

// FromValue ingests an mmvalue object as triples about a subject —
// the paper's "model evolution" direction document→RDF (each scalar leaf
// becomes subject —path→ value).
func (s *Store) FromValue(tx engine.Tx, g, subject string, v mmvalue.Value) error {
	for _, entry := range mmvalue.FlattenPaths(v) {
		t := Triple{S: subject, P: entry.Path, O: objectTerm(entry.Leaf)}
		if err := s.Insert(tx, g, t); err != nil {
			return err
		}
	}
	return nil
}

// objectTerm renders a leaf as an object term. A string is quoted by
// strconv.Quote, which maps distinct strings to distinct terms; the JSON
// rendering of Value.String cannot, as it writes every invalid UTF-8 byte
// as \ufffd. Other leaves (scalars and empty containers) render as JSON.
func objectTerm(leaf mmvalue.Value) string {
	if leaf.Kind() == mmvalue.KindString {
		return strconv.Quote(leaf.AsString())
	}
	return leaf.String()
}
