package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func key(i int) []byte   { return []byte(fmt.Sprintf("key%08d", i)) }
func value(i int) []byte { return []byte(fmt.Sprintf("val%d", i)) }

func TestEmptyTree(t *testing.T) {
	tr := New()
	if tr.Len() != 0 {
		t.Fatal("empty tree should have Len 0")
	}
	if _, ok := tr.Get([]byte("x")); ok {
		t.Fatal("Get on empty tree should fail")
	}
	if tr.Delete([]byte("x")) {
		t.Fatal("Delete on empty tree should report false")
	}
	if _, _, ok := tr.Min(); ok {
		t.Fatal("Min on empty tree should fail")
	}
	if _, _, ok := tr.Max(); ok {
		t.Fatal("Max on empty tree should fail")
	}
	n := 0
	tr.Scan(nil, nil, func(k, v []byte) bool { n++; return true })
	if n != 0 {
		t.Fatal("Scan on empty tree should visit nothing")
	}
}

func TestPutGetSequential(t *testing.T) {
	tr := New()
	const n = 5000
	for i := 0; i < n; i++ {
		tr.Put(key(i), value(i))
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d, want %d", tr.Len(), n)
	}
	if err := tr.check(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		v, ok := tr.Get(key(i))
		if !ok || !bytes.Equal(v, value(i)) {
			t.Fatalf("Get(%s) = %s, %v", key(i), v, ok)
		}
	}
}

func TestPutReplace(t *testing.T) {
	tr := New()
	tr.Put([]byte("k"), []byte("v1"))
	tr.Put([]byte("k"), []byte("v2"))
	if tr.Len() != 1 {
		t.Fatalf("Len after replace = %d", tr.Len())
	}
	v, _ := tr.Get([]byte("k"))
	if string(v) != "v2" {
		t.Fatalf("Get = %s", v)
	}
}

func TestPutGetRandomOrder(t *testing.T) {
	tr := New()
	r := rand.New(rand.NewSource(7))
	perm := r.Perm(3000)
	for _, i := range perm {
		tr.Put(key(i), value(i))
	}
	if err := tr.check(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		if v, ok := tr.Get(key(i)); !ok || !bytes.Equal(v, value(i)) {
			t.Fatalf("Get(%s) failed after random inserts", key(i))
		}
	}
}

func TestDelete(t *testing.T) {
	tr := New()
	const n = 2000
	for i := 0; i < n; i++ {
		tr.Put(key(i), value(i))
	}
	// Delete odd keys.
	for i := 1; i < n; i += 2 {
		if !tr.Delete(key(i)) {
			t.Fatalf("Delete(%s) reported missing", key(i))
		}
	}
	if tr.Len() != n/2 {
		t.Fatalf("Len = %d, want %d", tr.Len(), n/2)
	}
	if err := tr.check(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		_, ok := tr.Get(key(i))
		if want := i%2 == 0; ok != want {
			t.Fatalf("Get(%s) = %v, want %v", key(i), ok, want)
		}
	}
	// Double delete reports false.
	if tr.Delete(key(1)) {
		t.Fatal("second Delete should report false")
	}
}

func TestDeleteAll(t *testing.T) {
	tr := New()
	const n = 1000
	for i := 0; i < n; i++ {
		tr.Put(key(i), value(i))
	}
	r := rand.New(rand.NewSource(3))
	for _, i := range r.Perm(n) {
		if !tr.Delete(key(i)) {
			t.Fatalf("Delete(%s) failed", key(i))
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d after deleting everything", tr.Len())
	}
	if err := tr.check(); err != nil {
		t.Fatal(err)
	}
	// Tree stays usable.
	tr.Put([]byte("again"), []byte("yes"))
	if v, ok := tr.Get([]byte("again")); !ok || string(v) != "yes" {
		t.Fatal("tree unusable after full drain")
	}
}

func TestScanRange(t *testing.T) {
	tr := New()
	for i := 0; i < 100; i++ {
		tr.Put(key(i), value(i))
	}
	var got []string
	tr.Scan(key(10), key(20), func(k, v []byte) bool {
		got = append(got, string(k))
		return true
	})
	if len(got) != 10 || got[0] != string(key(10)) || got[9] != string(key(19)) {
		t.Fatalf("Scan range = %v", got)
	}
	// Unbounded scan returns sorted order.
	var all []string
	tr.Scan(nil, nil, func(k, v []byte) bool {
		all = append(all, string(k))
		return true
	})
	if len(all) != 100 || !sort.StringsAreSorted(all) {
		t.Fatalf("full scan wrong: %d items, sorted=%v", len(all), sort.StringsAreSorted(all))
	}
	// Early stop.
	count := 0
	tr.Scan(nil, nil, func(k, v []byte) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Fatalf("early stop visited %d", count)
	}
}

func TestScanReverse(t *testing.T) {
	tr := New()
	for i := 0; i < 100; i++ {
		tr.Put(key(i), value(i))
	}
	var got []string
	tr.ScanReverse(key(10), key(20), func(k, v []byte) bool {
		got = append(got, string(k))
		return true
	})
	if len(got) != 10 || got[0] != string(key(19)) || got[9] != string(key(10)) {
		t.Fatalf("reverse range = %v", got)
	}
	var all []string
	tr.ScanReverse(nil, nil, func(k, v []byte) bool {
		all = append(all, string(k))
		return true
	})
	if len(all) != 100 || all[0] != string(key(99)) || all[99] != string(key(0)) {
		t.Fatalf("full reverse scan wrong: %d items", len(all))
	}
}

func TestScanAfterDeletes(t *testing.T) {
	tr := New()
	for i := 0; i < 500; i++ {
		tr.Put(key(i), value(i))
	}
	for i := 0; i < 500; i += 3 {
		tr.Delete(key(i))
	}
	var got []string
	tr.Scan(nil, nil, func(k, v []byte) bool {
		got = append(got, string(k))
		return true
	})
	if !sort.StringsAreSorted(got) {
		t.Fatal("scan after deletes out of order")
	}
	if len(got) != tr.Len() {
		t.Fatalf("scan saw %d, Len() = %d", len(got), tr.Len())
	}
}

func TestMinMax(t *testing.T) {
	tr := New()
	for i := 50; i < 150; i++ {
		tr.Put(key(i), value(i))
	}
	if k, _, _ := tr.Min(); !bytes.Equal(k, key(50)) {
		t.Fatalf("Min = %s", k)
	}
	if k, _, _ := tr.Max(); !bytes.Equal(k, key(149)) {
		t.Fatalf("Max = %s", k)
	}
}

func TestSeekIterator(t *testing.T) {
	tr := New()
	for i := 0; i < 100; i += 2 { // even keys only
		tr.Put(key(i), value(i))
	}
	// Seek to a missing key lands on the next present key.
	it := tr.Seek(key(11), nil)
	if !it.Valid() || !bytes.Equal(it.Key(), key(12)) {
		t.Fatalf("Seek(11) = %s valid=%v", it.Key(), it.Valid())
	}
	it.Next()
	if !bytes.Equal(it.Key(), key(14)) {
		t.Fatalf("Next = %s", it.Key())
	}
	// Seek past the end.
	it = tr.Seek(key(99), nil)
	if it.Valid() {
		t.Fatal("Seek past end should be invalid")
	}
}

func TestSnapshotIsolation(t *testing.T) {
	tr := New()
	for i := 0; i < 200; i++ {
		tr.Put(key(i), value(i))
	}
	cl := tr.Snapshot()
	tr.Put(key(999), value(999))
	tr.Delete(key(0))
	if cl.Len() != 200 {
		t.Fatalf("snapshot Len = %d", cl.Len())
	}
	if _, ok := cl.Get(key(0)); !ok {
		t.Fatal("snapshot lost key deleted from original")
	}
	if _, ok := cl.Get(key(999)); ok {
		t.Fatal("snapshot saw key added to original")
	}
	// Both versions still satisfy every invariant.
	if err := tr.check(); err != nil {
		t.Fatalf("mutated original: %v", err)
	}
	if err := cl.check(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
}

// TestSnapshotUnderHeavyChurn snapshots mid-stream and verifies the frozen
// view stays byte-stable while the live tree is rewritten wholesale —
// including node splits, lazy leaf drops, and root collapses above and below
// shared nodes.
func TestSnapshotUnderHeavyChurn(t *testing.T) {
	tr := New()
	const n = 3000
	for i := 0; i < n; i++ {
		tr.Put(key(i), value(i))
	}
	snap := tr.Snapshot()
	want := collect(snap)

	r := rand.New(rand.NewSource(11))
	for op := 0; op < 4*n; op++ {
		i := r.Intn(2 * n)
		if r.Intn(3) == 0 {
			tr.Delete(key(i))
		} else {
			tr.Put(key(i), []byte(fmt.Sprintf("new%d", op)))
		}
	}
	if err := tr.check(); err != nil {
		t.Fatalf("live tree after churn: %v", err)
	}
	if err := snap.check(); err != nil {
		t.Fatalf("snapshot after churn: %v", err)
	}
	if got := collect(snap); !pairsEqual(got, want) {
		t.Fatal("snapshot contents drifted under live-tree churn")
	}
	// A snapshot of the snapshot is still the original frozen view.
	if got := collect(snap.Snapshot()); !pairsEqual(got, want) {
		t.Fatal("second-generation snapshot drifted")
	}
}

// TestSnapshotWritable verifies a snapshot can fork its own mutable lineage
// (how replicas start from the primary's state) without disturbing either
// the original tree or sibling snapshots.
func TestSnapshotWritable(t *testing.T) {
	tr := New()
	for i := 0; i < 500; i++ {
		tr.Put(key(i), value(i))
	}
	fork := tr.Snapshot()
	frozen := tr.Snapshot()
	want := collect(frozen)
	for i := 0; i < 500; i += 2 {
		fork.Delete(key(i))
	}
	for i := 1000; i < 1100; i++ {
		fork.Put(key(i), value(i))
	}
	if err := fork.check(); err != nil {
		t.Fatalf("fork: %v", err)
	}
	if err := tr.check(); err != nil {
		t.Fatalf("original: %v", err)
	}
	if !pairsEqual(collect(tr), want) {
		t.Fatal("original tree disturbed by fork writes")
	}
	if !pairsEqual(collect(frozen), want) {
		t.Fatal("sibling snapshot disturbed by fork writes")
	}
	if fork.Len() != 500-250+100 {
		t.Fatalf("fork Len = %d", fork.Len())
	}
}

// TestSnapshotForksKeepOwnWrites forks three lineages off one leaf that
// has spare arena capacity. Each appends a pair to its own copy of the
// leaf; none may see another's bytes. The first copy appends into the
// shared arena's spare room; the later ones move to arenas of their own.
func TestSnapshotForksKeepOwnWrites(t *testing.T) {
	tr := New()
	for i := 0; i < degree && spare(tr.root) < 32; i++ {
		tr.Put(key(i), value(i))
	}
	if !tr.root.leaf || spare(tr.root) < 32 {
		t.Fatal("setup must leave one leaf with spare arena capacity")
	}
	a, b := tr.Snapshot(), tr.Snapshot()
	arena := &tr.root.data[:1][0]
	a.Put(key(100), []byte("from a"))
	b.Put(key(100), []byte("from b"))
	tr.Put(key(100), []byte("from tr"))
	if &a.root.data[0] != arena {
		t.Error("the first copy of the leaf moved to a fresh arena")
	}
	if &b.root.data[0] == arena || &tr.root.data[0] == arena {
		t.Error("a later copy of the leaf kept the shared arena")
	}
	for name, lt := range map[string]*Tree{"a": a, "b": b, "tr": tr} {
		if v, _ := lt.Get(key(100)); string(v) != "from "+name {
			t.Errorf("lineage %s reads %q", name, v)
		}
		if err := lt.check(); err != nil {
			t.Errorf("lineage %s: %v", name, err)
		}
	}
}

// TestConcurrentSnapshotReaders races lock-free snapshot readers against a
// writer mutating the live tree — the core MVCC claim, checked under -race.
func TestConcurrentSnapshotReaders(t *testing.T) {
	tr := New()
	const n = 2000
	for i := 0; i < n; i++ {
		tr.Put(key(i), value(i))
	}
	snap := tr.Snapshot()
	want := collect(snap)

	done := make(chan struct{})
	go func() {
		defer close(done)
		for op := 0; op < 6000; op++ {
			if op%3 == 0 {
				tr.Delete(key(op % n))
			} else {
				tr.Put(key(op%(2*n)), []byte(fmt.Sprintf("w%d", op)))
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				if !pairsEqual(collect(snap), want) {
					t.Error("snapshot reader observed a concurrent write")
					return
				}
			}
		}()
	}
	wg.Wait()
	<-done
}

// spare returns the unused capacity of leaf n's arena.
func spare(n *node) int { return cap(n.data) - len(n.data) }

func collect(tr *Tree) [][2]string { return scanTree(tr, nil, nil) }

func pairsEqual(a, b [][2]string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPropertyMatchesMap drives the tree against a reference map with a
// random operation sequence and checks full agreement.
func TestPropertyMatchesMap(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := New()
		ref := map[string]string{}
		for op := 0; op < 400; op++ {
			k := fmt.Sprintf("k%03d", r.Intn(120))
			switch r.Intn(3) {
			case 0, 1:
				v := fmt.Sprintf("v%d", op)
				tr.Put([]byte(k), []byte(v))
				ref[k] = v
			case 2:
				_, inRef := ref[k]
				if tr.Delete([]byte(k)) != inRef {
					return false
				}
				delete(ref, k)
			}
		}
		if tr.Len() != len(ref) {
			return false
		}
		for k, v := range ref {
			got, ok := tr.Get([]byte(k))
			if !ok || string(got) != v {
				return false
			}
		}
		// Scan agrees with sorted reference keys.
		var keys []string
		tr.Scan(nil, nil, func(k, v []byte) bool {
			keys = append(keys, string(k))
			return true
		})
		if len(keys) != len(ref) || !sort.StringsAreSorted(keys) {
			return false
		}
		return tr.check() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestReturnedSlicesStable pins the arena contract: a key or value handed
// out by Get or Scan keeps its bytes through any number of later Puts,
// Deletes, splits and compactions on the same leaves, and appending to one
// never writes over the bytes that follow it in the arena (a key's own
// value, or the next pair).
func TestReturnedSlicesStable(t *testing.T) {
	tr := New()
	const n = 2000
	for i := 0; i < n; i++ {
		tr.Put(key(i), value(i))
	}
	type held struct{ got, want []byte }
	var hold []held
	keep := func(b []byte) { hold = append(hold, held{b, bytes.Clone(b)}) }
	for i := 0; i < n; i += 7 {
		v, _ := tr.Get(key(i))
		keep(v)
	}
	tr.Scan(key(100), key(400), func(k, v []byte) bool {
		keep(k)
		keep(v)
		return true
	})

	r := rand.New(rand.NewSource(5))
	var snaps []*Tree
	for op := 0; op < 20000; op++ {
		i := r.Intn(2 * n)
		switch r.Intn(4) {
		case 0:
			tr.Delete(key(i))
		case 1:
			snaps = append(snaps, tr.Snapshot())
			fallthrough
		default:
			tr.Put(key(i), bytes.Repeat([]byte{byte(op)}, r.Intn(40)))
		}
	}
	if err := tr.check(); err != nil {
		t.Fatal(err)
	}
	for i, h := range hold {
		if !bytes.Equal(h.got, h.want) {
			t.Fatalf("held slice %d changed: %q, want %q", i, h.got, h.want)
		}
	}

	// Appending to a returned key or value copies it: the pair's value and
	// the neighbouring pair stay intact.
	for i := 0; i < n; i++ {
		tr.Put(key(i), value(i))
	}
	k, v, _ := tr.Min()
	k2, v2 := bytes.Clone(k), bytes.Clone(v)
	_ = append(k, "XXXXXXXX"...)
	_ = append(v, "YYYYYYYY"...)
	tr.Scan(nil, nil, func(k, v []byte) bool {
		if bytes.Equal(k, k2) && !bytes.Equal(v, v2) {
			t.Fatalf("appending to the key overwrote its value: %q", v)
		}
		return true
	})
	got, _ := tr.Get(key(1))
	if !bytes.Equal(got, value(1)) {
		t.Fatalf("appending to a value overwrote the next pair: %q", got)
	}
	if cap(k) != len(k) || cap(v) != len(v) {
		t.Fatalf("returned slices are not capacity-clipped: key %d/%d, value %d/%d", len(k), cap(k), len(v), cap(v))
	}
}

// TestPutCopies checks that Put keeps none of the caller's slices: writing
// over them afterwards changes nothing the tree reads back.
func TestPutCopies(t *testing.T) {
	tr := New()
	k, v := []byte("key"), []byte("value")
	tr.Put(k, v)
	copy(k, "xxx")
	copy(v, "zzzzz")
	if got, ok := tr.Get([]byte("key")); !ok || string(got) != "value" {
		t.Fatalf("Get after caller reuse = %q, %v", got, ok)
	}
}

// TestLeafHeapObjectsPerPair checks that a leaf's pairs are not heap objects
// of their own: 100 000 pairs add well under a quarter of an object each
// (nodes, entry arrays, arenas and separators only), where one slice per
// key and per value cost two.
func TestLeafHeapObjectsPerPair(t *testing.T) {
	const n = 100000
	order := rand.New(rand.NewSource(9)).Perm(n)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tr := New()
	for _, i := range order {
		// Fresh slices per pair: a tree that kept them would keep two
		// objects per pair alive.
		tr.Put(key(i), value(i))
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(tr)
	perPair := (float64(after.HeapObjects) - float64(before.HeapObjects)) / n
	if perPair >= 0.25 {
		t.Fatalf("%.3f heap objects per pair, want < 0.25", perPair)
	}
	t.Logf("%.3f heap objects per pair", perPair)
}

func BenchmarkPut(b *testing.B) {
	tr := New()
	keys := make([][]byte, b.N)
	for i := range keys {
		keys[i] = key(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Put(keys[i], keys[i])
	}
}

func BenchmarkGet(b *testing.B) {
	tr := New()
	const n = 100000
	for i := 0; i < n; i++ {
		tr.Put(key(i), value(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Get(key(i % n))
	}
}

func BenchmarkScan100(b *testing.B) {
	tr := New()
	const n = 100000
	for i := 0; i < n; i++ {
		tr.Put(key(i), value(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count := 0
		tr.Scan(key(i%(n-200)), nil, func(k, v []byte) bool {
			count++
			return count < 100
		})
	}
}
