// Package inverted implements generalized inverted (GIN) indexes over
// documents, reproducing the PostgreSQL jsonb indexing the tutorial
// dissects, plus the full-text posting-list index family (MarkLogic
// universal index / Riak-Solr row of the matrices).
//
// Two GIN modes, exactly as the paper describes (slide "Query Optimization —
// Inverted Index"):
//
//   - OpsMode (jsonb_ops): independent index items for each key and each
//     value in the document. Supports key-exists (?), and containment (@>)
//     by intersecting item posting lists followed by a recheck.
//   - PathOpsMode (jsonb_path_ops): one index item per leaf value — a hash
//     of the value and the key path leading to it. Smaller index, supports
//     only @>, and containment probes match specific structure.
package inverted

import (
	"math"
	"sort"
	"strconv"

	"repro/internal/mmvalue"
)

// Mode selects the GIN item extraction strategy.
type Mode int

// GIN modes.
const (
	OpsMode     Mode = iota // jsonb_ops: keys and values as separate items
	PathOpsMode             // jsonb_path_ops: hashed path→value items
)

func (m Mode) String() string {
	if m == PathOpsMode {
		return "jsonb_path_ops"
	}
	return "jsonb_ops"
}

// GIN is an inverted index from extracted items to document ids.
type GIN struct {
	mode     Mode
	postings map[string][]string // item -> sorted doc ids
	docs     map[string][]string // doc id -> items (for removal)
}

// NewGIN returns an empty GIN index in the given mode.
func NewGIN(mode Mode) *GIN {
	return &GIN{
		mode:     mode,
		postings: map[string][]string{},
		docs:     map[string][]string{},
	}
}

// Items returns the number of distinct index items — the "index size" axis
// of the E3 experiment (path_ops produces fewer items than ops).
func (g *GIN) Items() int { return len(g.postings) }

// Items returns the index items doc contributes in the given mode, sorted
// and distinct: the one definition of the item format, shared by GIN and
// by the docstore's keyspace-backed GIN indexes. A pattern's items are
// extracted the same way, and every document containing the pattern holds
// all of them.
func Items(mode Mode, doc mmvalue.Value) []string {
	if mode == PathOpsMode {
		return extractPathOps(doc)
	}
	return extractOps(doc)
}

// extractOps produces jsonb_ops items: every key and every leaf value,
// independently.
func extractOps(doc mmvalue.Value) []string {
	set := map[string]struct{}{}
	var walk func(v mmvalue.Value)
	walk = func(v mmvalue.Value) {
		switch v.Kind() {
		case mmvalue.KindObject:
			for _, f := range v.Fields() {
				set["K:"+f.Name] = struct{}{}
				walk(f.Value)
			}
		case mmvalue.KindArray:
			for _, e := range v.AsArray() {
				walk(e)
			}
		default:
			set["V:"+canonicalScalar(v)] = struct{}{}
		}
	}
	walk(doc)
	items := make([]string, 0, len(set))
	for it := range set {
		items = append(items, it)
	}
	sort.Strings(items)
	return items
}

// extractPathOps produces jsonb_path_ops items: one hashed (path, value)
// item per scalar leaf, with array positions erased so that containment of
// an element at any position matches. An empty object or array yields no
// item: it is contained in every object or array at its path, so an item
// for it would hide documents that contain it.
func extractPathOps(doc mmvalue.Value) []string {
	set := map[string]struct{}{}
	var walk func(path string, v mmvalue.Value)
	walk = func(path string, v mmvalue.Value) {
		switch v.Kind() {
		case mmvalue.KindObject:
			for _, f := range v.Fields() {
				walk(path+"/"+f.Name, f.Value)
			}
		case mmvalue.KindArray:
			for _, e := range v.AsArray() {
				walk(path, e) // positions erased
			}
		default:
			set[hashItem(path, v)] = struct{}{}
		}
	}
	walk("", doc)
	items := make([]string, 0, len(set))
	for it := range set {
		items = append(items, it)
	}
	sort.Strings(items)
	return items
}

func canonicalScalar(v mmvalue.Value) string {
	// Numbers canonicalize through their float64 image, integral ones to
	// the int form, so numbers mmvalue holds equal (1 and 1.0, or an int
	// past 2^53 and its float) share an item.
	if v.IsNumber() {
		f := v.AsFloat()
		if f == math.Trunc(f) && math.Abs(f) < 1<<63 {
			return "int:" + strconv.FormatInt(int64(f), 10)
		}
		return "float:" + strconv.FormatFloat(f, 'g', -1, 64)
	}
	return v.Kind().String() + ":" + v.String()
}

func hashItem(path string, v mmvalue.Value) string {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for i := 0; i < len(path); i++ {
		h = (h ^ uint64(path[i])) * prime
	}
	h = (h ^ 0xff) * prime
	s := canonicalScalar(v)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * prime
	}
	return strconv.FormatUint(h, 36)
}

// Add indexes doc under id, replacing any previous posting for id.
func (g *GIN) Add(id string, doc mmvalue.Value) {
	if _, ok := g.docs[id]; ok {
		g.Remove(id)
	}
	items := Items(g.mode, doc)
	g.docs[id] = items
	for _, it := range items {
		g.postings[it] = insertSorted(g.postings[it], id)
	}
}

// Remove drops all postings of a document id.
func (g *GIN) Remove(id string) {
	items, ok := g.docs[id]
	if !ok {
		return
	}
	delete(g.docs, id)
	for _, it := range items {
		g.postings[it] = removeSorted(g.postings[it], id)
		if len(g.postings[it]) == 0 {
			delete(g.postings, it)
		}
	}
}

// CandidatesContains returns ids possibly satisfying doc @> pattern. The
// caller must recheck with mmvalue.Contains (GIN is lossy in both modes:
// ops loses key/value association, path_ops hashes).
func (g *GIN) CandidatesContains(pattern mmvalue.Value) []string {
	var itemLists [][]string
	for _, it := range Items(g.mode, pattern) {
		itemLists = append(itemLists, g.postings[it])
	}
	if len(itemLists) == 0 {
		// Empty pattern ({}): every document matches; return all ids.
		ids := make([]string, 0, len(g.docs))
		for id := range g.docs {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		return ids
	}
	return Intersect(itemLists)
}

// CandidatesHasKey returns ids of documents possibly having the top-level
// key. Only supported in OpsMode — the paper's point that jsonb_path_ops
// cannot serve the ? operator. The boolean reports support.
func (g *GIN) CandidatesHasKey(key string) ([]string, bool) {
	if g.mode == PathOpsMode {
		return nil, false
	}
	return g.postings["K:"+key], true
}

// CandidatesHasAnyKey serves the ?| operator (union); OpsMode only.
func (g *GIN) CandidatesHasAnyKey(keys []string) ([]string, bool) {
	if g.mode == PathOpsMode {
		return nil, false
	}
	var out []string
	for _, k := range keys {
		out = unionSorted(out, g.postings["K:"+k])
	}
	return out, true
}

// CandidatesHasAllKeys serves the ?& operator (intersection); OpsMode only.
func (g *GIN) CandidatesHasAllKeys(keys []string) ([]string, bool) {
	if g.mode == PathOpsMode {
		return nil, false
	}
	lists := make([][]string, len(keys))
	for i, k := range keys {
		lists[i] = g.postings["K:"+k]
	}
	return Intersect(lists), true
}

func insertSorted(list []string, id string) []string {
	i := sort.SearchStrings(list, id)
	if i < len(list) && list[i] == id {
		return list
	}
	list = append(list, "")
	copy(list[i+1:], list[i:])
	list[i] = id
	return list
}

func removeSorted(list []string, id string) []string {
	i := sort.SearchStrings(list, id)
	if i < len(list) && list[i] == id {
		return append(list[:i], list[i+1:]...)
	}
	return list
}

func unionSorted(a, b []string) []string {
	out := make([]string, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

func intersectSorted(a, b []string) []string {
	var out []string
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// Intersect intersects sorted posting lists smallest-first (the standard
// GIN evaluation order). It reorders lists.
func Intersect(lists [][]string) []string {
	if len(lists) == 0 {
		return nil
	}
	sort.Slice(lists, func(i, j int) bool { return len(lists[i]) < len(lists[j]) })
	out := lists[0]
	for _, l := range lists[1:] {
		if len(out) == 0 {
			return nil
		}
		out = intersectSorted(out, l)
	}
	return out
}
