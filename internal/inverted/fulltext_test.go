package inverted

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func sampleIndex() *FullText {
	ft := NewFullText()
	ft.Add("p1", "The King's Speech by Mark Logue and Peter Conradi")
	ft.Add("p2", "Toy Story: a story about toys")
	ft.Add("p3", "Database systems: the complete book")
	ft.Add("p4", "Graph databases and the king of query languages")
	return ft
}

func TestTokenize(t *testing.T) {
	got := Tokenize("The King's Speech, 2010!")
	want := []string{"the", "king", "s", "speech", "2010"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Tokenize = %v", got)
	}
}

func TestSearchTerm(t *testing.T) {
	ft := sampleIndex()
	if got := ft.Search("king"); !reflect.DeepEqual(got, []string{"p1", "p4"}) {
		t.Fatalf("Search(king) = %v", got)
	}
	if got := ft.Search("KING"); !reflect.DeepEqual(got, []string{"p1", "p4"}) {
		t.Fatalf("Search should be case-insensitive, got %v", got)
	}
	if got := ft.Search("zebra"); len(got) != 0 {
		t.Fatalf("Search(zebra) = %v", got)
	}
}

func TestSearchPrefix(t *testing.T) {
	ft := sampleIndex()
	got := ft.SearchPrefix("data")
	if !reflect.DeepEqual(got, []string{"p3", "p4"}) {
		t.Fatalf("SearchPrefix(data) = %v", got)
	}
}

func TestBooleanOps(t *testing.T) {
	ft := sampleIndex()
	if got := ft.SearchAll([]string{"king", "speech"}); !reflect.DeepEqual(got, []string{"p1"}) {
		t.Fatalf("AND = %v", got)
	}
	if got := ft.SearchAny([]string{"toy", "graph"}); !reflect.DeepEqual(got, []string{"p2", "p4"}) {
		t.Fatalf("OR = %v", got)
	}
	base := ft.Search("king")
	if got := ft.SearchNot(base, "speech"); !reflect.DeepEqual(got, []string{"p4"}) {
		t.Fatalf("NOT = %v", got)
	}
	if got := ft.SearchAll(nil); got != nil {
		t.Fatalf("AND of nothing = %v", got)
	}
}

func TestPhrase(t *testing.T) {
	ft := sampleIndex()
	if got := ft.SearchPhrase("king s speech"); !reflect.DeepEqual(got, []string{"p1"}) {
		t.Fatalf("phrase = %v", got)
	}
	// Terms present but not adjacent.
	if got := ft.SearchPhrase("speech king"); len(got) != 0 {
		t.Fatalf("non-adjacent phrase matched: %v", got)
	}
	if got := ft.SearchPhrase("toy story"); !reflect.DeepEqual(got, []string{"p2"}) {
		t.Fatalf("phrase toy story = %v", got)
	}
	if got := ft.SearchPhrase("story"); !reflect.DeepEqual(got, []string{"p2"}) {
		t.Fatalf("single-term phrase = %v", got)
	}
}

func TestNear(t *testing.T) {
	ft := sampleIndex()
	// "graph databases" are adjacent in p4.
	if got := ft.SearchNear("graph", "databases", 1); !reflect.DeepEqual(got, []string{"p4"}) {
		t.Fatalf("near = %v", got)
	}
	// "king" (pos 4) and "query" (pos 6) in p4 are 2 apart.
	if got := ft.SearchNear("king", "query", 1); len(got) != 0 {
		t.Fatalf("near(1) should miss, got %v", got)
	}
	if got := ft.SearchNear("king", "query", 2); !reflect.DeepEqual(got, []string{"p4"}) {
		t.Fatalf("near(2) = %v", got)
	}
}

func TestRemoveDocument(t *testing.T) {
	ft := sampleIndex()
	ft.Remove("p1")
	if got := ft.Search("speech"); len(got) != 0 {
		t.Fatalf("Search after remove = %v", got)
	}
	if got := ft.Search("king"); !reflect.DeepEqual(got, []string{"p4"}) {
		t.Fatalf("king after remove = %v", got)
	}
	if ft.DocCount() != 3 {
		t.Fatalf("DocCount = %d", ft.DocCount())
	}
	// Removing twice is a no-op.
	ft.Remove("p1")
	if ft.DocCount() != 3 {
		t.Fatalf("double remove changed count")
	}
}

func TestReAddReplaces(t *testing.T) {
	ft := NewFullText()
	ft.Add("d", "alpha beta")
	ft.Add("d", "gamma delta")
	if got := ft.Search("alpha"); len(got) != 0 {
		t.Fatalf("stale term survived re-add: %v", got)
	}
	if got := ft.Search("gamma"); !reflect.DeepEqual(got, []string{"d"}) {
		t.Fatalf("new term missing: %v", got)
	}
	if ft.DocCount() != 1 {
		t.Fatalf("DocCount = %d", ft.DocCount())
	}
}

func TestRepeatedTermPositions(t *testing.T) {
	ft := NewFullText()
	ft.Add("d", "spam spam eggs spam")
	if got := ft.SearchPhrase("spam eggs spam"); !reflect.DeepEqual(got, []string{"d"}) {
		t.Fatalf("phrase with repeats = %v", got)
	}
	if got := ft.SearchPhrase("eggs eggs"); len(got) != 0 {
		t.Fatalf("phantom phrase matched: %v", got)
	}
}

// E15 (slides 56, 75): a two-term AND over 5 000 eight-word texts, by a
// substring scan of every text vs the inverted index's posting lists.
func BenchmarkE15FullText(b *testing.B) {
	const n = 5000
	r := rand.New(rand.NewSource(15))
	words := []string{"graph", "database", "query", "index", "model", "json", "xml", "fast", "toy", "book"}
	texts := make([]string, n)
	ft := NewFullText()
	for i := range texts {
		var t []string
		for w := 0; w < 8; w++ {
			t = append(t, words[r.Intn(len(words))])
		}
		texts[i] = strings.Join(t, " ")
		ft.Add(fmt.Sprintf("t%d", i), texts[i])
	}
	terms := Tokenize("graph xml")
	want := len(ft.SearchAll(terms))
	if want == 0 {
		b.Fatal("no hits")
	}
	b.Run("NaiveScanContains", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			got := 0
			for _, t := range texts {
				if strings.Contains(t, "graph") && strings.Contains(t, "xml") {
					got++
				}
			}
			if got != want {
				b.Fatalf("matched %d, want %d", got, want)
			}
		}
	})
	b.Run("InvertedIndex", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if got := len(ft.SearchAll(terms)); got != want {
				b.Fatalf("matched %d, want %d", got, want)
			}
		}
	})
}
