package btree

import (
	"bytes"
	"fmt"
	"maps"
	"sort"
	"testing"
)

// model is the reference the fuzz target runs the tree against: a map with
// its keys sorted on demand.
type model map[string]string

// scan returns the model's pairs with lo <= key < hi (nil bounds are open)
// in key order.
func (m model) scan(lo, hi []byte) [][2]string {
	var out [][2]string
	for k, v := range m {
		if (lo == nil || k >= string(lo)) && (hi == nil || k < string(hi)) {
			out = append(out, [2]string{k, v})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// scanTree returns the tree's pairs with lo <= key < hi in key order.
func scanTree(tr *Tree, lo, hi []byte) [][2]string {
	var out [][2]string
	tr.Scan(lo, hi, func(k, v []byte) bool {
		out = append(out, [2]string{string(k), string(v)})
		return true
	})
	return out
}

// fuzzOps decodes a byte string into tree operations. Keys come from a
// four-letter alphabet that includes 0x00, at lengths 0 to 11, so short
// keys that differ only in trailing zero bytes and keys that share an
// eight-byte prefix both occur; values run to 63 bytes so that leaves fill
// their arenas and compact.
type fuzzOps struct{ b []byte }

func (f *fuzzOps) next() byte {
	if len(f.b) == 0 {
		return 0
	}
	c := f.b[0]
	f.b = f.b[1:]
	return c
}

func (f *fuzzOps) key() []byte {
	k := make([]byte, f.next()%12)
	for i := range k {
		k[i] = "\x00ab\xff"[f.next()%4]
	}
	return k
}

// lineage is one tree version the fuzz target writes, with the model of
// what it must hold.
type lineage struct {
	tr *Tree
	m  model
}

// verify checks that l's tree holds exactly l's model.
func (l lineage) verify(t *testing.T, name string) {
	t.Helper()
	if err := l.tr.check(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if l.tr.Len() != len(l.m) {
		t.Fatalf("%s: Len = %d, model has %d", name, l.tr.Len(), len(l.m))
	}
	if got, want := scanTree(l.tr, nil, nil), l.m.scan(nil, nil); !pairsEqual(got, want) {
		t.Fatalf("%s: full scan = %q, want %q", name, got, want)
	}
	for k, v := range l.m {
		if got, ok := l.tr.Get([]byte(k)); !ok || string(got) != v {
			t.Fatalf("%s: Get(%q) = %q, %v; want %q", name, k, got, ok, v)
		}
	}
}

// FuzzTree runs Put, Delete, Snapshot and Scan sequences against a sorted
// map. A snapshot is either frozen or forked into a lineage of its own that
// later operations write too, the way replicas fork from the primary.
// Every frozen snapshot must still read exactly the contents it captured,
// and every lineage exactly its own writes, however the others changed.
func FuzzTree(f *testing.F) {
	f.Add([]byte{0, 0, 3, 1, 2, 3, 40})
	f.Add(bytes.Repeat([]byte{0, 0, 5, 1, 1, 2, 3, 0, 60, 2, 0, 0, 11, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 9, 3, 0, 1}, 40))
	f.Add(bytes.Repeat([]byte{0, 1, 9, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 30, 1, 2, 0, 3, 1, 0}, 30))
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := &fuzzOps{b: data}
		lines := []*lineage{{New(), model{}}}
		var frozen []lineage
		for len(ops.b) > 0 {
			op := ops.next() % 5
			l := lines[int(ops.next())%len(lines)]
			switch op {
			case 0, 1:
				k := ops.key()
				v := bytes.Repeat([]byte{ops.next()}, int(ops.next()%64))
				l.tr.Put(k, v)
				l.m[string(k)] = string(v)
			case 2:
				k := ops.key()
				_, had := l.m[string(k)]
				if l.tr.Delete(k) != had {
					t.Fatalf("Delete(%q) = %v, model has it: %v", k, !had, had)
				}
				delete(l.m, string(k))
			case 3:
				s := lineage{l.tr.Snapshot(), maps.Clone(l.m)}
				if ops.next()%2 == 0 {
					frozen = append(frozen, s)
				} else {
					lines = append(lines, &s)
				}
			case 4:
				lo, hi := ops.key(), ops.key()
				if ops.next()%2 == 0 {
					lo = nil
				}
				got, want := scanTree(l.tr, lo, hi), l.m.scan(lo, hi)
				if !pairsEqual(got, want) {
					t.Fatalf("Scan(%q, %q) = %q, want %q", lo, hi, got, want)
				}
			}
		}
		for i, l := range lines {
			l.verify(t, fmt.Sprintf("lineage %d", i))
		}
		for i, s := range frozen {
			s.verify(t, fmt.Sprintf("snapshot %d", i))
		}
	})
}
