package mmindex

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/graphstore"
	"repro/internal/kvstore"
	"repro/internal/mmvalue"
)

// buildFixture wires the paper's cross-model path: customer -> friends
// (graph) -> cart entry (kv) -> order total (kv, standing in for the doc
// hop to keep the fixture compact).
func buildFixture(t *testing.T) (*engine.Engine, *graphstore.Store, *kvstore.Store, []Hop) {
	t.Helper()
	e, err := engine.Open(engine.Options{Durability: engine.Ephemeral})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	g := graphstore.New(e)
	kv := kvstore.New(e)
	err = e.Update(func(tx *engine.Txn) error {
		for _, v := range []string{"c1", "c2", "c3"} {
			g.PutVertex(tx, "social", v, mmvalue.Object())
		}
		g.Connect(tx, "social", "c1", "c2", "knows", mmvalue.Null)
		g.Connect(tx, "social", "c1", "c3", "knows", mmvalue.Null)
		kv.Set(tx, "cart", "c2", mmvalue.String("o2"))
		kv.Set(tx, "cart", "c3", mmvalue.String("o3"))
		kv.Set(tx, "orders", "o2", mmvalue.Int(100))
		kv.Set(tx, "orders", "o3", mmvalue.Int(50))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return e, g, kv, paperHops(g, kv)
}

// paperHops is the hop chain customer -> friends -> cart -> order total.
func paperHops(g *graphstore.Store, kv *kvstore.Store) []Hop {
	return []Hop{
		{
			Name:      "friends",
			Keyspaces: []string{graphstore.OutKeyspace("social"), graphstore.EdgeKeyspace("social")},
			Follow: func(tx engine.Tx, in mmvalue.Value) ([]mmvalue.Value, error) {
				ns, err := g.Neighbors(tx, "social", in.AsString(), graphstore.Outbound, "knows")
				if err != nil {
					return nil, err
				}
				out := make([]mmvalue.Value, len(ns))
				for i, n := range ns {
					out[i] = mmvalue.String(n.VertexKey)
				}
				return out, nil
			},
		},
		{
			Name:      "cart",
			Keyspaces: []string{kvstore.Keyspace("cart")},
			Follow: func(tx engine.Tx, in mmvalue.Value) ([]mmvalue.Value, error) {
				v, ok, err := kv.Get(tx, "cart", in.AsString())
				if err != nil || !ok {
					return nil, err
				}
				return []mmvalue.Value{v}, nil
			},
		},
		{
			Name:      "order-total",
			Keyspaces: []string{kvstore.Keyspace("orders")},
			Follow: func(tx engine.Tx, in mmvalue.Value) ([]mmvalue.Value, error) {
				v, ok, err := kv.Get(tx, "orders", in.AsString())
				if err != nil || !ok {
					return nil, err
				}
				return []mmvalue.Value{v}, nil
			},
		},
	}
}

func totals(vals []mmvalue.Value) []int64 {
	out := make([]int64, len(vals))
	for i, v := range vals {
		out[i] = v.AsInt()
	}
	return out
}

func TestJoinIndexLookup(t *testing.T) {
	e, _, _, hops := buildFixture(t)
	idx := New(e, hops)
	err := e.Update(func(tx *engine.Txn) error {
		return idx.Put(tx, "c1", mmvalue.String("c1"))
	})
	if err != nil {
		t.Fatal(err)
	}
	if idx.Len() != 1 {
		t.Fatalf("Len = %d", idx.Len())
	}
	e.View(func(tx *engine.Txn) error {
		vals, ok, err := idx.Lookup(tx, "c1", mmvalue.String("c1"))
		if err != nil || !ok {
			t.Fatalf("Lookup = %v, %v", ok, err)
		}
		got := totals(vals)
		if len(got) != 2 || got[0]+got[1] != 150 {
			t.Fatalf("endpoints = %v", got)
		}
		// Unindexed anchor.
		if _, ok, _ := idx.Lookup(tx, "c9", mmvalue.String("c9")); ok {
			t.Fatal("phantom anchor")
		}
		return nil
	})
}

func TestJoinIndexInvalidationOnWrite(t *testing.T) {
	e, _, kv, hops := buildFixture(t)
	idx := New(e, hops)
	e.Update(func(tx *engine.Txn) error { return idx.Put(tx, "c1", mmvalue.String("c1")) })
	if idx.Stale() {
		t.Fatal("fresh index reported stale")
	}
	// A committed write to a dependent keyspace dirties the index.
	e.Update(func(tx *engine.Txn) error {
		return kv.Set(tx, "orders", "o2", mmvalue.Int(999))
	})
	if !idx.Stale() {
		t.Fatal("index not invalidated by dependent write")
	}
	// Lookup transparently recomputes.
	e.Update(func(tx *engine.Txn) error {
		vals, ok, err := idx.Lookup(tx, "c1", mmvalue.String("c1"))
		if err != nil || !ok {
			t.Fatalf("Lookup = %v, %v", ok, err)
		}
		got := totals(vals)
		sum := got[0] + got[1]
		if sum != 999+50 {
			t.Fatalf("stale read after recompute: %v", got)
		}
		return nil
	})
}

func TestJoinIndexUnrelatedWriteDoesNotInvalidate(t *testing.T) {
	e, _, kv, hops := buildFixture(t)
	idx := New(e, hops)
	e.Update(func(tx *engine.Txn) error { return idx.Put(tx, "c1", mmvalue.String("c1")) })
	e.Update(func(tx *engine.Txn) error {
		return kv.Set(tx, "unrelated", "x", mmvalue.Int(1))
	})
	if idx.Stale() {
		t.Fatal("unrelated write invalidated the index")
	}
}

func TestJoinIndexRefresh(t *testing.T) {
	e, _, kv, hops := buildFixture(t)
	idx := New(e, hops)
	anchors := func(fn func(key string, value mmvalue.Value) bool) error {
		for _, a := range []string{"c1", "c2", "c3"} {
			if !fn(a, mmvalue.String(a)) {
				break
			}
		}
		return nil
	}
	e.Update(func(tx *engine.Txn) error { return idx.Refresh(tx, anchors) })
	if idx.Len() != 3 {
		t.Fatalf("Len = %d", idx.Len())
	}
	// c2 has no outgoing friends: empty endpoints but indexed.
	e.View(func(tx *engine.Txn) error {
		vals, ok, err := idx.Lookup(tx, "c2", mmvalue.String("c2"))
		if err != nil || !ok || len(vals) != 0 {
			t.Fatalf("c2 = %v, %v, %v", vals, ok, err)
		}
		return nil
	})
	// Mutate and refresh again.
	e.Update(func(tx *engine.Txn) error {
		return kv.Set(tx, "cart", "c2", mmvalue.String("o3"))
	})
	if !idx.Stale() {
		t.Fatal("not stale after cart write")
	}
	e.Update(func(tx *engine.Txn) error { return idx.Refresh(tx, anchors) })
	if idx.Stale() {
		t.Fatal("still stale after refresh")
	}
}

func TestHopChainEmptyMidway(t *testing.T) {
	e, g, _, hops := buildFixture(t)
	idx := New(e, hops)
	// A vertex with no friends short-circuits to zero endpoints.
	e.Update(func(tx *engine.Txn) error {
		g.PutVertex(tx, "social", "lonely", mmvalue.Object())
		return idx.Put(tx, "lonely", mmvalue.String("lonely"))
	})
	e.Update(func(tx *engine.Txn) error {
		vals, ok, err := idx.Lookup(tx, "lonely", mmvalue.String("lonely"))
		if err != nil || !ok || len(vals) != 0 {
			t.Fatalf("lonely = %v, %v, %v", vals, ok, err)
		}
		return nil
	})
}

// E13 (slide 95): the three-hop graph -> KV -> KV path from 1 000 customers
// with about four friends each, followed on the fly vs read from the
// materialized join index.
func BenchmarkE13MultiModelIndex(b *testing.B) {
	const customers = 1000
	e, err := engine.Open(engine.Options{Durability: engine.Ephemeral})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { e.Close() })
	g, kv := graphstore.New(e), kvstore.New(e)
	key := func(i int) string { return fmt.Sprintf("c%d", i) }
	if err := e.Update(func(tx *engine.Txn) error {
		for i := 0; i < customers; i++ {
			if err := g.PutVertex(tx, "social", key(i), mmvalue.Object()); err != nil {
				return err
			}
			if err := kv.Set(tx, "cart", key(i), mmvalue.String(fmt.Sprintf("o%d", i))); err != nil {
				return err
			}
			if err := kv.Set(tx, "orders", fmt.Sprintf("o%d", i), mmvalue.Int(int64(i))); err != nil {
				return err
			}
		}
		r := rand.New(rand.NewSource(13))
		for i := 0; i < customers; i++ {
			for f := 0; f < 4; f++ {
				if other := r.Intn(customers); other != i {
					if _, err := g.Connect(tx, "social", key(i), key(other), "knows", mmvalue.Null); err != nil {
						return err
					}
				}
			}
		}
		return nil
	}); err != nil {
		b.Fatal(err)
	}
	idx := New(e, paperHops(g, kv))
	if err := e.Update(func(tx *engine.Txn) error {
		for i := 0; i < customers; i++ {
			if err := idx.Put(tx, key(i), mmvalue.String(key(i))); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		b.Fatal(err)
	}
	b.Run("OnTheFlyJoin", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := e.View(func(tx *engine.Txn) error {
				_, err := idx.follow(tx, mmvalue.String(key(i%customers)))
				return err
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("JoinIndex", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			k := key(i % customers)
			if err := e.View(func(tx *engine.Txn) error {
				_, ok, err := idx.Lookup(tx, k, mmvalue.String(k))
				if err == nil && !ok {
					err = fmt.Errorf("anchor %s not indexed", k)
				}
				return err
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	if idx.Stale() {
		b.Fatal("join index went stale without a write")
	}
}
