package shard

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/engine/scantest"
)

func openEphemeral(t *testing.T, n int) *Router {
	t.Helper()
	r, err := Open(Options{Durability: engine.Ephemeral, Shards: n})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

func openDurable(t *testing.T, dir string, n int) *Router {
	t.Helper()
	r, err := Open(Options{Dir: dir, Durability: engine.Buffered, Shards: n})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// distinctShardKeys returns two keys in ks that hash to different shards.
func distinctShardKeys(t *testing.T, r *Router, ks string) ([]byte, []byte) {
	t.Helper()
	first := []byte("probe-0")
	home := r.shardFor(ks, first)
	for i := 1; i < 1000; i++ {
		k := []byte(fmt.Sprintf("probe-%d", i))
		if r.shardFor(ks, k) != home {
			return first, k
		}
	}
	t.Fatal("no key pair on distinct shards in 1000 probes")
	return nil, nil
}

func TestShardForStableAndCovering(t *testing.T) {
	r := openEphemeral(t, 4)
	r2 := openEphemeral(t, 4)
	hit := make([]int, 4)
	for i := 0; i < 400; i++ {
		k := []byte(fmt.Sprintf("key-%d", i))
		s := r.shardFor("ks", k)
		if s2 := r.shardFor("ks", k); s2 != s {
			t.Fatalf("routing not deterministic: %d vs %d", s, s2)
		}
		if s2 := r2.shardFor("ks", k); s2 != s {
			t.Fatalf("routing differs across router instances: %d vs %d", s, s2)
		}
		hit[s]++
	}
	for i, n := range hit {
		if n == 0 {
			t.Fatalf("shard %d received no keys out of 400", i)
		}
	}
	// The keyspace participates in the hash: the same key in two keyspaces
	// must not be pinned to one shard (probabilistic, 60 tries).
	moved := false
	for i := 0; i < 60 && !moved; i++ {
		k := []byte(fmt.Sprintf("k%d", i))
		moved = r.shardFor("a", k) != r.shardFor("b", k)
	}
	if !moved {
		t.Fatal("keyspace name appears to be ignored by the router hash")
	}
}

func TestMetaRejectsMismatchedShardCount(t *testing.T) {
	dir := t.TempDir()
	r := openDurable(t, dir, 4)
	if err := r.Update(func(tx engine.Tx) error { return tx.Put("a", []byte("k"), []byte("v")) }); err != nil {
		t.Fatal(err)
	}
	r.Close()
	if _, err := Open(Options{Dir: dir, Durability: engine.Buffered, Shards: 2}); err == nil {
		t.Fatal("reopening 4-shard directory with 2 shards succeeded")
	}
	r2 := openDurable(t, dir, 4) // same count reopens fine
	r2.Close()
}

func TestMetaRejectsSingleEngineDirectory(t *testing.T) {
	dir := t.TempDir()
	e, err := engine.Open(engine.Options{Dir: dir, Durability: engine.Buffered})
	if err != nil {
		t.Fatal(err)
	}
	e.Update(func(tx *engine.Txn) error { return tx.Put("a", []byte("k"), []byte("v")) })
	e.Close()
	if _, err := Open(Options{Dir: dir, Durability: engine.Buffered, Shards: 4}); err == nil {
		t.Fatal("opened a single-engine directory as a shard fleet")
	}
}

// TestScanMergeMatchesSingleEngine pins the gather contract: scans over a
// 4-shard router must be byte-identical to a single engine holding the same
// pairs — full range, subrange, reverse, and early termination.
func TestScanMergeMatchesSingleEngine(t *testing.T) {
	r := openEphemeral(t, 4)
	e, err := engine.Open(engine.Options{Durability: engine.Ephemeral})
	if err != nil {
		t.Fatal(err)
	}
	seed := func(put func(k, v []byte)) {
		for i := 0; i < 500; i++ {
			k := []byte(fmt.Sprintf("key-%04d", i))
			v := []byte(fmt.Sprintf("val-%d", i*i))
			put(k, v)
		}
	}
	if err := r.Update(func(tx engine.Tx) error {
		seed(func(k, v []byte) { tx.Put("ks", k, v) })
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.Update(func(tx *engine.Txn) error {
		seed(func(k, v []byte) { tx.Put("ks", k, v) })
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	type pair struct{ k, v string }
	collect := func(view func(fn func(tx engine.Tx) error) error, lo, hi []byte, reverse bool, stopAfter int) []pair {
		var out []pair
		err := view(func(tx engine.Tx) error {
			fn := func(k, v []byte) bool {
				out = append(out, pair{string(k), string(v)})
				return stopAfter <= 0 || len(out) < stopAfter
			}
			if reverse {
				return tx.ScanReverse("ks", lo, hi, fn)
			}
			return tx.Scan("ks", lo, hi, fn)
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	eview := func(fn func(tx engine.Tx) error) error {
		return e.View(func(tx *engine.Txn) error { return fn(tx) })
	}
	cases := []struct {
		lo, hi    []byte
		reverse   bool
		stopAfter int
	}{
		{nil, nil, false, 0},
		{nil, nil, true, 0},
		{[]byte("key-0100"), []byte("key-0400"), false, 0},
		{[]byte("key-0100"), []byte("key-0400"), true, 0},
		{nil, nil, false, 7},
		{nil, nil, true, 7},
		{[]byte("key-0499"), nil, false, 0}, // single pair
		{[]byte("zzz"), nil, false, 0},      // empty range
	}
	for _, tc := range cases {
		got := collect(r.View, tc.lo, tc.hi, tc.reverse, tc.stopAfter)
		want := collect(eview, tc.lo, tc.hi, tc.reverse, tc.stopAfter)
		if len(got) != len(want) {
			t.Fatalf("case %+v: %d pairs sharded vs %d single", tc, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("case %+v: pair %d differs: %+v vs %+v", tc, i, got[i], want[i])
			}
		}
	}
	if r.Stats().ShardFanouts == 0 {
		t.Fatal("fan-out scans did not advance ShardFanouts")
	}
	e.Close()
}

func TestCrossShardCommitAndAbort(t *testing.T) {
	r := openEphemeral(t, 4)
	a, b := distinctShardKeys(t, r, "pairs")

	// Abort first: nothing may land on either shard.
	tx, err := r.Begin()
	if err != nil {
		t.Fatal(err)
	}
	tx.Put("pairs", a, []byte("x"))
	tx.Put("pairs", b, []byte("x"))
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	r.View(func(rt engine.Tx) error {
		for _, k := range [][]byte{a, b} {
			if _, ok, _ := rt.Get("pairs", k); ok {
				t.Fatalf("aborted write %q visible", k)
			}
		}
		return nil
	})

	// Commit: both land, stats count one cross-shard txn with two prepares.
	if err := r.Update(func(wt engine.Tx) error {
		wt.Put("pairs", a, []byte("v1"))
		wt.Put("pairs", b, []byte("v2"))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	r.View(func(rt engine.Tx) error {
		if v, ok, _ := rt.Get("pairs", a); !ok || string(v) != "v1" {
			t.Fatalf("a = %q, %v", v, ok)
		}
		if v, ok, _ := rt.Get("pairs", b); !ok || string(v) != "v2" {
			t.Fatalf("b = %q, %v", v, ok)
		}
		return nil
	})
	st := r.Stats()
	if st.CrossShardTxns != 1 || st.PreparedTxns != 2 {
		t.Fatalf("stats = %+v, want 1 cross-shard txn / 2 prepares", st)
	}

	// A single-shard write stays off the 2PC path.
	if err := r.Update(func(wt engine.Tx) error { return wt.Put("pairs", a, []byte("v3")) }); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.CrossShardTxns != 1 {
		t.Fatalf("single-shard commit took the 2PC path: %+v", st)
	}
}

// TestConsistentCutNeverTearsCrossShardTxn hammers the cut barrier: a
// writer streams cross-shard transactions that keep two keys on different
// shards equal, while snapshot readers assert they never observe a
// half-applied pair. Run with -race for the full effect.
func TestConsistentCutNeverTearsCrossShardTxn(t *testing.T) {
	r := openEphemeral(t, 4)
	a, b := distinctShardKeys(t, r, "acct")
	if err := r.Update(func(tx engine.Tx) error {
		tx.Put("acct", a, []byte("0"))
		tx.Put("acct", b, []byte("0"))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			v := []byte(fmt.Sprintf("%d", i))
			if err := r.Update(func(tx engine.Tx) error {
				tx.Put("acct", a, v)
				tx.Put("acct", b, v)
				return nil
			}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 300; i++ {
		err := r.SnapshotView(func(tx engine.Tx) error {
			va, _, _ := tx.Get("acct", a)
			vb, _, _ := tx.Get("acct", b)
			if !bytes.Equal(va, vb) {
				t.Fatalf("cut observed a torn cross-shard transaction: a=%s b=%s", va, vb)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

func TestRecoveryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	r := openDurable(t, dir, 3)
	a, b := distinctShardKeys(t, r, "d")
	for i := 0; i < 20; i++ {
		v := []byte(fmt.Sprintf("v%d", i))
		if err := r.Update(func(tx engine.Tx) error {
			tx.Put("d", a, v)
			tx.Put("d", b, v)
			return tx.Put("d", []byte(fmt.Sprintf("solo-%d", i)), v)
		}); err != nil {
			t.Fatal(err)
		}
	}
	r.Close()

	r2 := openDurable(t, dir, 3)
	defer r2.Close()
	r2.View(func(tx engine.Tx) error {
		for _, k := range [][]byte{a, b} {
			if v, ok, _ := tx.Get("d", k); !ok || string(v) != "v19" {
				t.Fatalf("%q = %q, %v after reopen", k, v, ok)
			}
		}
		n := 0
		tx.Scan("d", []byte("solo-"), []byte("solo-~"), func(k, v []byte) bool { n++; return true })
		if n != 20 {
			t.Fatalf("%d solo keys after reopen, want 20", n)
		}
		return nil
	})
	// Recovered sequence must not collide: fresh cross-shard commits work.
	if err := r2.Update(func(tx engine.Tx) error {
		tx.Put("d", a, []byte("post"))
		tx.Put("d", b, []byte("post"))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestDropKeyspaceSpansShards(t *testing.T) {
	r := openEphemeral(t, 4)
	if err := r.Update(func(tx engine.Tx) error {
		for i := 0; i < 40; i++ {
			tx.Put("doomed", []byte(fmt.Sprintf("k%d", i)), []byte("v"))
		}
		return tx.Put("kept", []byte("k"), []byte("v"))
	}); err != nil {
		t.Fatal(err)
	}
	if err := r.Update(func(tx engine.Tx) error { return tx.DropKeyspace("doomed") }); err != nil {
		t.Fatal(err)
	}
	r.View(func(tx engine.Tx) error {
		if tx.KeyspaceNonEmpty("doomed") {
			t.Fatal("dropped keyspace still has pairs on some shard")
		}
		if !tx.KeyspaceNonEmpty("kept") {
			t.Fatal("unrelated keyspace lost")
		}
		return nil
	})
	if got := r.KeyspaceLen("doomed"); got != 0 {
		t.Fatalf("KeyspaceLen(doomed) = %d after drop", got)
	}
}

func TestKeyspacesUnionAndLen(t *testing.T) {
	r := openEphemeral(t, 4)
	if err := r.Update(func(tx engine.Tx) error {
		for i := 0; i < 100; i++ {
			tx.Put("u", []byte(fmt.Sprintf("k%d", i)), []byte("v"))
		}
		return tx.Put("w", []byte("only"), []byte("v"))
	}); err != nil {
		t.Fatal(err)
	}
	ks := r.Keyspaces()
	if len(ks) != 2 || ks[0] != "u" || ks[1] != "w" {
		t.Fatalf("Keyspaces() = %v", ks)
	}
	if got := r.KeyspaceLen("u"); got != 100 {
		t.Fatalf("KeyspaceLen(u) = %d, want 100", got)
	}
	// Summed versions are monotonic: a commit touching u on some shard
	// must strictly advance the sum.
	summed := func(ks string) (sum uint64) {
		for _, vers := range r.Stats().KeyspaceVersions {
			sum += vers[ks]
		}
		return sum
	}
	before := summed("u")
	if before == 0 {
		t.Fatal("summed version for u is zero after writes")
	}
	if err := r.Update(func(tx engine.Tx) error { return tx.Put("u", []byte("k0"), []byte("v2")) }); err != nil {
		t.Fatal(err)
	}
	if after := summed("u"); after <= before {
		t.Fatalf("summed version did not advance: %d -> %d", before, after)
	}
}

func TestShardedReplicaRoutesAndMerges(t *testing.T) {
	r := openEphemeral(t, 4)
	rep := r.NewReplica(0)
	if err := r.Update(func(tx engine.Tx) error {
		for i := 0; i < 60; i++ {
			if err := tx.Put("rp", []byte(fmt.Sprintf("k%02d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	rep.CatchUp()
	if v, ok := rep.Get("rp", []byte("k07")); !ok || string(v) != "v7" {
		t.Fatalf("replica Get = %q, %v", v, ok)
	}
	var keys []string
	rep.Scan("rp", nil, nil, func(k, v []byte) bool {
		keys = append(keys, string(k))
		return true
	})
	if len(keys) != 60 {
		t.Fatalf("replica scan saw %d keys, want 60", len(keys))
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("replica merge out of order: %q >= %q", keys[i-1], keys[i])
		}
	}
	// Early stop: fn declining after k keys ends the gather there, having
	// seen the k smallest keys in order.
	for _, k := range []int{1, 7, 60} {
		var got []string
		rep.Scan("rp", nil, nil, func(key, v []byte) bool {
			got = append(got, string(key))
			return len(got) < k
		})
		if len(got) != k {
			t.Fatalf("early stop after %d: replica scan saw %d keys", k, len(got))
		}
		for i, key := range got {
			if key != keys[i] {
				t.Fatalf("early stop after %d: key %d = %q, want %q", k, i, key, keys[i])
			}
		}
	}
	if rep.Lag() != 0 {
		t.Fatalf("lag = %d after CatchUp", rep.Lag())
	}
	if rep.AppliedTxns() == 0 {
		t.Fatal("replica applied no transactions")
	}
}

func TestOpenRejectsBadShardCount(t *testing.T) {
	if _, err := Open(Options{Durability: engine.Ephemeral, Shards: 0}); err == nil {
		t.Fatal("Shards=0 accepted")
	}
}

// TestScanMatchesSortedMapModelSharded runs the engine's range-read property
// check (random ranges, staged writes, tombstones, a dropped keyspace,
// re-entrant callbacks, early stop) on 4-shard fan-out transactions.
func TestScanMatchesSortedMapModelSharded(t *testing.T) {
	r := openEphemeral(t, 4)
	scantest.Run(t, scantest.DB{
		Update:       r.Update,
		Begin:        r.BeginTx,
		SnapshotView: r.SnapshotView,
	}, 20170321)
}

// TestShardScanAllocatesByRangeNotKeyspace guards the fan-out scan against
// sizing its per-shard runs by the keyspace: a 3-row range costs about the
// same bytes whether the keyspace holds a thousand keys or a hundred thousand.
func TestShardScanAllocatesByRangeNotKeyspace(t *testing.T) {
	r := openEphemeral(t, 4)
	load := func(ks string, n int) {
		if err := r.Update(func(tx engine.Tx) error {
			for i := 0; i < n; i++ {
				if err := tx.Put(ks, []byte(fmt.Sprintf("k%06d", i)), []byte{1}); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	load("small", 1_000)
	load("large", 100_000)
	bytesPerScan := func(ks string) uint64 {
		var before, after runtime.MemStats
		var n uint64
		err := r.SnapshotView(func(tx engine.Tx) error {
			scan := func() error {
				rows := 0
				err := tx.Scan(ks, []byte("k000500"), []byte("k000503"), func(_, _ []byte) bool { rows++; return true })
				if err == nil && rows != 3 {
					err = fmt.Errorf("%s: %d rows, want 3", ks, rows)
				}
				return err
			}
			if err := scan(); err != nil { // warm up
				return err
			}
			runtime.ReadMemStats(&before)
			for i := 0; i < 50; i++ {
				if err := scan(); err != nil {
					return err
				}
			}
			runtime.ReadMemStats(&after)
			n = (after.TotalAlloc - before.TotalAlloc) / 50
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	if small, large := bytesPerScan("small"), bytesPerScan("large"); large > 2*small {
		t.Errorf("a 3-row fan-out scan allocates %d B on 1 000 keys but %d B on 100 000", small, large)
	}
}
