// Replicas above the engine: one WAL-shipping engine replica per shard,
// and one over a Single. Point reads route by the router's hash; scans
// gather per-shard runs as Txn scans do; lag is the sum of per-shard
// backlogs. A cross-shard transaction ships one batch per participant, so
// a lagging sharded replica can transiently expose half of one — the same
// bounded-staleness contract a lagging single replica already has for
// sequences of transactions.

package shard

import "repro/internal/engine"

// Replica is an eventually consistent read replica over every shard of a
// Backend (one for a Single).
type Replica struct {
	r    *Router // nil over a Single
	subs []*engine.Replica
}

// NewReplica attaches a replica to every shard with the given per-shard
// apply lag (in transactions).
func (r *Router) NewReplica(lagTxns int) *Replica {
	subs := make([]*engine.Replica, len(r.shards))
	for i, e := range r.shards {
		subs[i] = e.NewReplica(lagTxns)
	}
	return &Replica{r: r, subs: subs}
}

// Get reads key from its owning shard's replica.
func (p *Replica) Get(ks string, key []byte) ([]byte, bool) {
	if len(p.subs) == 1 {
		return p.subs[0].Get(ks, key)
	}
	return p.subs[p.r.shardFor(ks, key)].Get(ks, key)
}

// Scan iterates lo <= key < hi ascending, merged across shard replicas.
func (p *Replica) Scan(ks string, lo, hi []byte, fn func(key, value []byte) bool) {
	if len(p.subs) == 1 {
		p.subs[0].Scan(ks, lo, hi, fn)
		return
	}
	runs := make([][][2][]byte, len(p.subs))
	for i, sub := range p.subs {
		var pairs [][2][]byte
		sub.Scan(ks, lo, hi, func(k, v []byte) bool {
			pairs = append(pairs, [2][]byte{k, v})
			return true
		})
		runs[i] = pairs
	}
	gather(runs, false, fn)
}

// Lag sums the per-shard apply backlogs.
func (p *Replica) Lag() int {
	n := 0
	for _, sub := range p.subs {
		n += sub.Lag()
	}
	return n
}

// CatchUp drains every shard replica's queue.
func (p *Replica) CatchUp() {
	for _, sub := range p.subs {
		sub.CatchUp()
	}
}

// AppliedTxns sums applied transaction counts across shard replicas.
func (p *Replica) AppliedTxns() uint64 {
	var n uint64
	for _, sub := range p.subs {
		n += sub.AppliedTxns()
	}
	return n
}
