// Package scantest is the model-based check of the engine.Tx range-read
// contract, shared by the tests of every implementation of it (the engine's
// locked and snapshot transactions, the shard router's fan-out transaction):
// Scan and ScanReverse must agree, pair for pair and in order, with a sorted
// map holding the committed state overlaid with the transaction's own
// staged writes as of scan start.
package scantest

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/engine"
	"repro/internal/keyenc"
)

// DB is the transactional surface under test.
type DB struct {
	Update       func(fn func(tx engine.Tx) error) error
	Begin        func() (engine.Tx, error)
	SnapshotView func(fn func(tx engine.Tx) error) error
}

const ks = "scantest"

// key builds the two-part key shape the stores' index keyspaces use, so that
// prefix + keyenc.AppendMax bounds select one group.
func key(group, member int) []byte {
	return keyenc.AppendString(keyenc.AppendString(nil, fmt.Sprintf("g%02d", group)), fmt.Sprintf("m%03d", member))
}

// model is the reference: the pairs a transaction must see in ks.
type model map[string]string

func (m model) clone() model {
	c := make(model, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

// scan is the reference range read: lo <= key < hi, nil bounds open.
func (m model) scan(lo, hi []byte, reverse bool) [][2]string {
	var out [][2]string
	for k, v := range m {
		if (lo != nil && bytes.Compare([]byte(k), lo) < 0) || (hi != nil && bytes.Compare([]byte(k), hi) >= 0) {
			continue
		}
		out = append(out, [2]string{k, v})
	}
	sort.Slice(out, func(i, j int) bool { return (out[i][0] < out[j][0]) != reverse })
	return out
}

// Run checks rounds of random committed states, staged write-sets and ranges
// drawn from seed against db, which must start without the scantest keyspace.
func Run(t *testing.T, db DB, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	committed := model{}
	for round := 0; round < 12; round++ {
		// Commit a random batch of puts and deletes over 8 groups.
		err := db.Update(func(tx engine.Tx) error {
			for i := 0; i < 60; i++ {
				k := key(rng.Intn(8), rng.Intn(40))
				if rng.Intn(4) == 0 {
					delete(committed, string(k))
					if err := tx.Delete(ks, k); err != nil {
						return err
					}
					continue
				}
				v := fmt.Sprintf("c%d.%d", round, i)
				committed[string(k)] = v
				if err := tx.Put(ks, k, []byte(v)); err != nil {
					return err
				}
			}
			// A neighbouring keyspace: nothing of it may leak into ks.
			return tx.Put(ks+".other", key(0, round), []byte("x"))
		})
		if err != nil {
			t.Fatal(err)
		}

		if err := db.SnapshotView(func(tx engine.Tx) error {
			checkRanges(t, rng, tx, committed, fmt.Sprintf("round %d snapshot", round))
			return nil
		}); err != nil {
			t.Fatal(err)
		}

		// A locked transaction, every third round with nothing staged.
		tx, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		view := committed.clone()
		if round%3 != 0 {
			stage(t, rng, tx, view, round)
		}
		checkRanges(t, rng, tx, view, fmt.Sprintf("round %d locked", round))
		checkReentrant(t, tx, view, round)
		if err := tx.Abort(); err != nil {
			t.Fatal(err)
		}
	}
}

// stage applies random uncommitted writes to tx and to view: inserts,
// overwrites, tombstones (of committed, staged and absent keys) and, every
// fourth round, a drop of the whole keyspace followed by more puts.
func stage(t *testing.T, rng *rand.Rand, tx engine.Tx, view model, round int) {
	t.Helper()
	for i := 0; i < 40; i++ {
		if round%4 == 1 && i == 20 {
			if err := tx.DropKeyspace(ks); err != nil {
				t.Fatal(err)
			}
			for k := range view {
				delete(view, k)
			}
		}
		k := key(rng.Intn(9), rng.Intn(40)) // group 8 exists only staged
		if rng.Intn(3) == 0 {
			delete(view, string(k))
			if err := tx.Delete(ks, k); err != nil {
				t.Fatal(err)
			}
			continue
		}
		v := fmt.Sprintf("s%d.%d", round, i)
		view[string(k)] = v
		if err := tx.Put(ks, k, []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
}

// bounds draws one range: open ends, a group prefix with AppendMax, an empty
// (equal) range, an inverted one, or two random keys.
func bounds(rng *rand.Rand) (lo, hi []byte) {
	a, b := key(rng.Intn(9), rng.Intn(40)), key(rng.Intn(9), rng.Intn(40))
	if bytes.Compare(a, b) > 0 {
		a, b = b, a
	}
	switch rng.Intn(7) {
	case 0:
		return nil, nil
	case 1:
		return a, nil
	case 2:
		return nil, b
	case 3:
		prefix := keyenc.AppendString(nil, fmt.Sprintf("g%02d", rng.Intn(9)))
		return prefix, keyenc.AppendMax(append([]byte(nil), prefix...))
	case 4:
		return a, a
	case 5:
		return b, a
	default:
		return a, b
	}
}

func checkRanges(t *testing.T, rng *rand.Rand, tx engine.Tx, want model, where string) {
	t.Helper()
	for i := 0; i < 40; i++ {
		lo, hi := bounds(rng)
		for _, reverse := range []bool{false, true} {
			ref := want.scan(lo, hi, reverse)
			// Sometimes stop early: the callback must then have seen exactly
			// the first `stop` pairs and not one call more.
			stop := -1
			if len(ref) > 0 && rng.Intn(3) == 0 {
				stop = 1 + rng.Intn(len(ref))
				ref = ref[:stop]
			}
			var got [][2]string
			fn := func(k, v []byte) bool {
				got = append(got, [2]string{string(k), string(v)})
				return len(got) != stop
			}
			var err error
			if reverse {
				err = tx.ScanReverse(ks, lo, hi, fn)
			} else {
				err = tx.Scan(ks, lo, hi, fn)
			}
			if err != nil {
				t.Fatalf("%s: scan [%q,%q) reverse=%v: %v", where, lo, hi, reverse, err)
			}
			if fmt.Sprint(got) != fmt.Sprint(ref) {
				t.Fatalf("%s: scan [%q,%q) reverse=%v stop=%d\n got %q\nwant %q", where, lo, hi, reverse, stop, got, ref)
			}
		}
	}
}

// checkReentrant drives a full scan whose callback re-enters the transaction
// on the scanned keyspace: it reads the pair it was handed, overwrites the
// pair after next, deletes the one after that, inserts a key ahead of the
// cursor, and runs a nested scan. The outer iteration must keep yielding the
// state as of its start; Get and the nested scan must see every write so far.
func checkReentrant(t *testing.T, tx engine.Tx, view model, round int) {
	t.Helper()
	ref := view.scan(nil, nil, false)
	now := view.clone()
	i := 0
	err := tx.Scan(ks, nil, nil, func(k, v []byte) bool {
		if i >= len(ref) || string(k) != ref[i][0] || string(v) != ref[i][1] {
			t.Fatalf("round %d: re-entrant scan pair %d = %q=%q, want %q", round, i, k, v, ref[min(i, len(ref)-1)])
		}
		if got, ok, err := tx.Get(ks, k); err != nil || ok != (now[string(k)] != "") || string(got) != now[string(k)] {
			t.Fatalf("round %d: Get(%q) in callback = %q, %v, %v; want %q", round, k, got, ok, err, now[string(k)])
		}
		if i%5 == 0 && i+3 < len(ref) {
			over, del := ref[i+2][0], ref[i+3][0]
			fresh := string(k) + "+" // sorts right after k, ahead of the cursor
			now[over], now[fresh] = "over", "fresh"
			delete(now, del)
			for _, err := range []error{
				tx.Put(ks, []byte(over), []byte("over")),
				tx.Put(ks, []byte(fresh), []byte("fresh")),
				tx.Delete(ks, []byte(del)),
			} {
				if err != nil {
					t.Fatal(err)
				}
			}
			var nested [][2]string
			if err := tx.Scan(ks, k, nil, func(k, v []byte) bool {
				nested = append(nested, [2]string{string(k), string(v)})
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if want := now.scan(k, nil, false); fmt.Sprint(nested) != fmt.Sprint(want) {
				t.Fatalf("round %d: nested scan from %q\n got %q\nwant %q", round, k, nested, want)
			}
		}
		i++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != len(ref) {
		t.Fatalf("round %d: re-entrant scan yielded %d pairs, want %d", round, i, len(ref))
	}
}
