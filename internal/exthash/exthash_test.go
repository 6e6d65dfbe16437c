package exthash

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/btree"
)

func key(i int) []byte   { return []byte(fmt.Sprintf("key%06d", i)) }
func value(i int) []byte { return []byte(fmt.Sprintf("val%d", i)) }

func TestEmpty(t *testing.T) {
	h := New()
	if h.Len() != 0 {
		t.Fatal("empty table Len != 0")
	}
	if _, ok := h.Get([]byte("x")); ok {
		t.Fatal("Get on empty should fail")
	}
	if h.Delete([]byte("x")) {
		t.Fatal("Delete on empty should report false")
	}
}

func TestPutGetManySplits(t *testing.T) {
	h := New()
	const n = 10000
	for i := 0; i < n; i++ {
		h.Put(key(i), value(i))
	}
	if h.Len() != n {
		t.Fatalf("Len = %d", h.Len())
	}
	if h.Depth() == 0 {
		t.Fatal("directory never doubled under 10k inserts")
	}
	for i := 0; i < n; i++ {
		v, ok := h.Get(key(i))
		if !ok || !bytes.Equal(v, value(i)) {
			t.Fatalf("Get(%s) = %s, %v", key(i), v, ok)
		}
	}
}

func TestReplace(t *testing.T) {
	h := New()
	h.Put([]byte("k"), []byte("v1"))
	h.Put([]byte("k"), []byte("v2"))
	if h.Len() != 1 {
		t.Fatalf("Len = %d after replace", h.Len())
	}
	v, _ := h.Get([]byte("k"))
	if string(v) != "v2" {
		t.Fatalf("Get = %s", v)
	}
}

func TestDelete(t *testing.T) {
	h := New()
	const n = 2000
	for i := 0; i < n; i++ {
		h.Put(key(i), value(i))
	}
	for i := 0; i < n; i += 2 {
		if !h.Delete(key(i)) {
			t.Fatalf("Delete(%s) missed", key(i))
		}
	}
	if h.Len() != n/2 {
		t.Fatalf("Len = %d", h.Len())
	}
	for i := 0; i < n; i++ {
		_, ok := h.Get(key(i))
		if want := i%2 == 1; ok != want {
			t.Fatalf("Get(%s) = %v, want %v", key(i), ok, want)
		}
	}
}

func TestRangeVisitsAllOnce(t *testing.T) {
	h := New()
	const n = 1000
	for i := 0; i < n; i++ {
		h.Put(key(i), value(i))
	}
	seen := map[string]int{}
	h.Range(func(k, v []byte) bool {
		seen[string(k)]++
		return true
	})
	if len(seen) != n {
		t.Fatalf("Range saw %d distinct keys", len(seen))
	}
	for k, c := range seen {
		if c != 1 {
			t.Fatalf("key %s visited %d times", k, c)
		}
	}
	// Early stop.
	count := 0
	h.Range(func(k, v []byte) bool { count++; return false })
	if count != 1 {
		t.Fatalf("early stop visited %d", count)
	}
}

func TestPropertyMatchesMap(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		h := New()
		ref := map[string]string{}
		for op := 0; op < 500; op++ {
			k := fmt.Sprintf("k%03d", r.Intn(150))
			switch r.Intn(3) {
			case 0, 1:
				v := fmt.Sprintf("v%d", op)
				h.Put([]byte(k), []byte(v))
				ref[k] = v
			default:
				_, inRef := ref[k]
				if h.Delete([]byte(k)) != inRef {
					return false
				}
				delete(ref, k)
			}
		}
		if h.Len() != len(ref) {
			return false
		}
		for k, v := range ref {
			got, ok := h.Get([]byte(k))
			if !ok || string(got) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// E4 (slides 78–79): hash indexes win point lookups, B+trees serve ranges.
// Both structures hold the same 100 000 keys.
const e4Keys = 100000

func e4Structures() ([][]byte, *btree.Tree, *Table) {
	keys := make([][]byte, e4Keys)
	t, h := btree.New(), New()
	for i := range keys {
		keys[i] = key(i)
		t.Put(keys[i], keys[i])
		h.Put(keys[i], keys[i])
	}
	return keys, t, h
}

func BenchmarkE4PointLookup(b *testing.B) {
	keys, t, h := e4Structures()
	b.Run("BTree", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok := t.Get(keys[i%e4Keys]); !ok {
				b.Fatal("missing")
			}
		}
	})
	b.Run("ExtHash", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok := h.Get(keys[i%e4Keys]); !ok {
				b.Fatal("missing")
			}
		}
	})
}

func BenchmarkE4RangeScan(b *testing.B) {
	const window = 100
	keys, t, h := e4Structures()
	b.Run("BTree", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			count := 0
			t.Scan(keys[i%(e4Keys-window)], nil, func(k, v []byte) bool {
				count++
				return count < window
			})
			if count != window {
				b.Fatal("short scan")
			}
		}
	})
	// A hash table has no key order: the only way to answer a range is a
	// full walk with a filter.
	b.Run("ExtHashFullWalk", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			lo, hi := keys[i%(e4Keys-window)], keys[i%(e4Keys-window)+window]
			count := 0
			h.Range(func(k, v []byte) bool {
				if bytes.Compare(k, lo) >= 0 && bytes.Compare(k, hi) < 0 {
					count++
				}
				return true
			})
			if count != window {
				b.Fatalf("count = %d", count)
			}
		}
	})
}

func BenchmarkPut(b *testing.B) {
	h := New()
	keys := make([][]byte, b.N)
	for i := range keys {
		keys[i] = key(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Put(keys[i], keys[i])
	}
}
