package inverted

import (
	"sort"
	"strings"
	"unicode"
)

// FullText is a word-level inverted index with positional postings: the
// structure behind the matrices' "full-text" column (Riak-Solr, SQL Server
// full-text, MarkLogic universal index). It supports term, boolean (AND/OR/
// NOT), prefix (wildcard), and exact phrase queries.
type FullText struct {
	postings map[string]map[string][]int // term -> doc id -> positions
	docs     map[string][]string         // doc id -> terms (for removal)
	count    int
}

// NewFullText returns an empty full-text index.
func NewFullText() *FullText {
	return &FullText{
		postings: map[string]map[string][]int{},
		docs:     map[string][]string{},
	}
}

// Tokenize lower-cases and splits text on non-letter/digit runs. Exported
// so stores index and query with identical analysis.
func Tokenize(text string) []string {
	return strings.FieldsFunc(strings.ToLower(text), func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	})
}

// DocCount returns the number of indexed documents.
func (ft *FullText) DocCount() int { return ft.count }

// Add indexes text under the document id, replacing any previous content.
func (ft *FullText) Add(id, text string) {
	if _, ok := ft.docs[id]; ok {
		ft.Remove(id)
	}
	terms := Tokenize(text)
	seen := make([]string, 0, len(terms))
	for pos, term := range terms {
		m := ft.postings[term]
		if m == nil {
			m = map[string][]int{}
			ft.postings[term] = m
		}
		if _, dup := m[id]; !dup {
			seen = append(seen, term)
		}
		m[id] = append(m[id], pos)
	}
	ft.docs[id] = seen
	ft.count++
}

// Remove drops a document from the index.
func (ft *FullText) Remove(id string) {
	terms, ok := ft.docs[id]
	if !ok {
		return
	}
	delete(ft.docs, id)
	ft.count--
	for _, term := range terms {
		delete(ft.postings[term], id)
		if len(ft.postings[term]) == 0 {
			delete(ft.postings, term)
		}
	}
}

// Search returns the sorted ids of documents containing term.
func (ft *FullText) Search(term string) []string {
	term = strings.ToLower(term)
	m := ft.postings[term]
	out := make([]string, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// SearchPrefix returns ids of documents containing any term with the given
// prefix (the wildcard query class of Riak Search).
func (ft *FullText) SearchPrefix(prefix string) []string {
	prefix = strings.ToLower(prefix)
	set := map[string]struct{}{}
	for term, m := range ft.postings {
		if strings.HasPrefix(term, prefix) {
			for id := range m {
				set[id] = struct{}{}
			}
		}
	}
	out := make([]string, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// SearchAll returns ids containing every term (boolean AND).
func (ft *FullText) SearchAll(terms []string) []string {
	if len(terms) == 0 {
		return nil
	}
	lists := make([][]string, len(terms))
	for i, t := range terms {
		lists[i] = ft.Search(t)
	}
	return Intersect(lists)
}

// SearchAny returns ids containing at least one term (boolean OR).
func (ft *FullText) SearchAny(terms []string) []string {
	var out []string
	for _, t := range terms {
		out = unionSorted(out, ft.Search(t))
	}
	return out
}

// SearchNot returns ids in base that do not contain term (boolean NOT).
func (ft *FullText) SearchNot(base []string, term string) []string {
	excluded := map[string]struct{}{}
	for _, id := range ft.Search(term) {
		excluded[id] = struct{}{}
	}
	var out []string
	for _, id := range base {
		if _, skip := excluded[id]; !skip {
			out = append(out, id)
		}
	}
	return out
}

// SearchPhrase returns ids of documents containing the exact token sequence.
func (ft *FullText) SearchPhrase(phrase string) []string {
	terms := Tokenize(phrase)
	if len(terms) == 0 {
		return nil
	}
	if len(terms) == 1 {
		return ft.Search(terms[0])
	}
	candidates := ft.SearchAll(terms)
	var out []string
	for _, id := range candidates {
		if ft.phraseAt(id, terms) {
			out = append(out, id)
		}
	}
	return out
}

func (ft *FullText) phraseAt(id string, terms []string) bool {
	first := ft.postings[terms[0]][id]
	for _, start := range first {
		ok := true
		for off := 1; off < len(terms); off++ {
			if !containsInt(ft.postings[terms[off]][id], start+off) {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// SearchNear returns ids where the two terms occur within dist positions of
// each other (proximity search).
func (ft *FullText) SearchNear(a, b string, dist int) []string {
	a, b = strings.ToLower(a), strings.ToLower(b)
	candidates := ft.SearchAll([]string{a, b})
	var out []string
	for _, id := range candidates {
		pa, pb := ft.postings[a][id], ft.postings[b][id]
		if anyWithin(pa, pb, dist) {
			out = append(out, id)
		}
	}
	return out
}

func anyWithin(a, b []int, dist int) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		d := a[i] - b[j]
		if d < 0 {
			d = -d
		}
		if d <= dist {
			return true
		}
		if a[i] < b[j] {
			i++
		} else {
			j++
		}
	}
	return false
}

func containsInt(s []int, x int) bool {
	i := sort.SearchInts(s, x)
	return i < len(s) && s[i] == x
}
