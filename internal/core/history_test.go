package core_test

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/mmvalue"
	"repro/internal/relstore"
)

// The generated-history check behind snapshot reads by default: 2PL writers
// move amounts between a relational row, a document field and a key/value
// entry and bump a commit counter, all in one transaction; readers run
// default-path Query and SQL statements that read all four at once. Strict
// 2PL commits in a serial order and a snapshot is cut between commits, so
// every read must see a commit-order prefix: the cross-model sum never
// changes, and the counter a reader observes never goes backwards.

const (
	historySeed    = 20170321
	historyTotal   = 3000 // the invariant cross-model sum
	historyWriters = 3
	historyReaders = 2
	historyTxns    = 150 // per writer
)

// The two statements read the relational row, the document, the bucket
// entry and the counter in one snapshot.
const (
	historyMMQL = `FOR a IN acct FILTER a.id == 1
		RETURN {sum: a.bal + DOCUMENT('wallet', 'w').bal + KV('vault', 'v'), n: KV('meta', 'commits')}`
	historyMSQL = `SELECT bal + DOCUMENT('wallet', 'w').bal + KV('vault', 'v') AS sum,
		KV('meta', 'commits') AS n FROM acct WHERE id = 1`
)

func TestSnapshotReadsSeeCommitOrderPrefix(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("Shards=%d", shards), func(t *testing.T) {
			db, err := core.Open(core.Options{Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { db.Close() })
			seedHistory(t, db)
			runHistory(t, db)
		})
	}
}

func seedHistory(t *testing.T, db *core.DB) {
	t.Helper()
	err := db.Update(func(tx engine.Tx) error {
		if err := db.Rels.CreateTable(tx, "acct", relstore.TableSchema{
			Columns: []relstore.Column{
				{Name: "id", Type: relstore.TInt, NotNull: true},
				{Name: "bal", Type: relstore.TInt, NotNull: true},
			},
			PrimaryKey: []string{"id"},
		}); err != nil {
			return err
		}
		if err := db.Rels.Insert(tx, "acct", mmvalue.Object(
			mmvalue.F("id", mmvalue.Int(1)), mmvalue.F("bal", mmvalue.Int(historyTotal/3)))); err != nil {
			return err
		}
		if err := db.Docs.CreateCollection(tx, "wallet", catalogSchemaless()); err != nil {
			return err
		}
		if err := db.Docs.Put(tx, "wallet", "w", mmvalue.Object(mmvalue.F("bal", mmvalue.Int(historyTotal/3)))); err != nil {
			return err
		}
		if err := db.KV.Set(tx, "vault", "v", mmvalue.Int(historyTotal/3)); err != nil {
			return err
		}
		return db.KV.Set(tx, "meta", "commits", mmvalue.Int(0))
	})
	if err != nil {
		t.Fatal(err)
	}
}

// historyBalances reads and writes the three balances of one transaction,
// in the order relational row, document field, bucket entry.
type historyBalances struct {
	db *core.DB
	tx engine.Tx
}

func (h historyBalances) get(i int) (int64, error) {
	var v mmvalue.Value
	var err error
	switch i {
	case 0:
		v, _, err = h.db.Rels.Get(h.tx, "acct", mmvalue.Int(1))
		v = v.GetOr("bal")
	case 1:
		v, _, err = h.db.Docs.Get(h.tx, "wallet", "w")
		v = v.GetOr("bal")
	default:
		v, _, err = h.db.KV.Get(h.tx, "vault", "v")
	}
	return v.AsInt(), err
}

func (h historyBalances) set(i int, n int64) error {
	switch i {
	case 0:
		return h.db.Rels.Update(h.tx, "acct", mmvalue.Object(mmvalue.F("bal", mmvalue.Int(n))), mmvalue.Int(1))
	case 1:
		return h.db.Docs.Put(h.tx, "wallet", "w", mmvalue.Object(mmvalue.F("bal", mmvalue.Int(n))))
	default:
		return h.db.KV.Set(h.tx, "vault", "v", mmvalue.Int(n))
	}
}

// historyTransfer moves amt from holder from to holder to and bumps the
// commit counter, in one transaction.
func historyTransfer(db *core.DB, from, to int, amt int64) error {
	return db.Update(func(tx engine.Tx) error {
		h := historyBalances{db, tx}
		a, err := h.get(from)
		if err != nil {
			return err
		}
		b, err := h.get(to)
		if err != nil {
			return err
		}
		if err := h.set(from, a-amt); err != nil {
			return err
		}
		if err := h.set(to, b+amt); err != nil {
			return err
		}
		n, _, err := db.KV.Get(tx, "meta", "commits")
		if err != nil {
			return err
		}
		return db.KV.Set(tx, "meta", "commits", mmvalue.Int(n.AsInt()+1))
	})
}

func runHistory(t *testing.T, db *core.DB) {
	var writers sync.WaitGroup
	done := make(chan struct{})
	var mu sync.Mutex
	committed := 0
	for w := 0; w < historyWriters; w++ {
		writers.Add(1)
		go func(rng *rand.Rand) {
			defer writers.Done()
			for i := 0; i < historyTxns; i++ {
				from := rng.Intn(3)
				to := (from + 1 + rng.Intn(2)) % 3
				err := historyTransfer(db, from, to, int64(rng.Intn(100)))
				if errors.Is(err, engine.ErrDeadlock) {
					continue // aborted: it changed nothing
				}
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				committed++
				mu.Unlock()
			}
		}(rand.New(rand.NewSource(historySeed + int64(w))))
	}
	go func() {
		writers.Wait()
		close(done)
	}()

	var readers sync.WaitGroup
	for r := 0; r < historyReaders; r++ {
		readers.Add(1)
		go func(rng *rand.Rand) {
			defer readers.Done()
			last := int64(-1)
			for reads := 0; ; reads++ {
				select {
				case <-done:
					if reads > 0 {
						return
					}
				default:
				}
				q, run := historyMMQL, db.Query
				if rng.Intn(2) == 1 {
					q, run = historyMSQL, db.SQL
				}
				res, err := run(q, nil)
				if err != nil {
					t.Error(err)
					return
				}
				if res.Stats.SnapshotReads != 1 || len(res.Values) != 1 {
					t.Errorf("%s: %d rows, SnapshotReads=%d; want 1 row from a snapshot", q, len(res.Values), res.Stats.SnapshotReads)
					return
				}
				sum, n := res.Values[0].GetOr("sum").AsInt(), res.Values[0].GetOr("n").AsInt()
				if sum != historyTotal {
					t.Errorf("read %d after counter %d: cross-model sum %d, want %d", reads, n, sum, historyTotal)
					return
				}
				if n < last {
					t.Errorf("read %d: commit counter went back from %d to %d", reads, last, n)
					return
				}
				last = n
			}
		}(rand.New(rand.NewSource(historySeed - int64(r) - 1)))
	}
	readers.Wait()
	<-done
	if committed == 0 {
		t.Fatal("no writer transaction committed")
	}
	res, err := db.Query(historyMMQL, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Values[0].GetOr("n").AsInt(); n != int64(committed) {
		t.Fatalf("final commit counter %d, want the %d committed transfers", n, committed)
	}
}
