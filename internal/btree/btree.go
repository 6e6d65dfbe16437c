// Package btree implements an in-memory copy-on-write B+tree over []byte
// keys compared with bytes.Compare. It is the ordered heart of unidb's
// integrated backend: every keyspace — and therefore every collection,
// table, bucket, graph edge index, XML node store, and RDF permutation — is
// a tree from this package.
//
// Values live only in leaves; interior nodes hold separator keys. The tree
// is versioned: Snapshot returns an O(1) immutable view sharing structure
// with the live tree, and every writer path copies shared nodes before
// touching them (path copying), so a snapshot never observes a later write.
// Snapshots may be read without any synchronization while the originating
// tree keeps mutating under the engine's locks — old versions' nodes are
// never written again (see mutable, the single copy-on-write gate, and the
// cowsafe analyzer in internal/lint that enforces this mechanically).
//
// A leaf holds no pointers to its pairs, so the garbage collector marks it
// in O(1) however many pairs it stores. Its pairs live in one byte arena,
// data, each key followed directly by its value; ents locates them in key
// order. Put copies the key and the value into the arena and keeps neither
// of the caller's slices.
//
// Arena bytes below len(data) are never rewritten. A private leaf only
// appends; when its arena is full, compaction moves the live pairs to a
// fresh arena sized live+need plus half again and leaves the old one
// intact for whoever still reads it. Replaced and deleted pairs count as
// dead bytes until that compaction drops them. A path-copied leaf shares
// its arena with the old version. The first copy of a leaf appends into
// the room past the old version's length, which the old version never
// reads; any later copy gets the arena clipped to its length, so its first
// append compacts. A split packs each half into a fresh arena.
// Get, Scan and the iterator return capacity-clipped
// subslices of an arena: they stay unchanged for as long as the caller
// holds them, and appending to one copies it instead of overwriting a
// neighbour. Holding one keeps its whole arena alive, so a caller that
// keeps a returned slice long-term should copy it.
package btree

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"sync/atomic"
)

// degree is the maximum number of keys in a node before it splits. 32 keeps
// nodes within a couple of cache lines of pointers while staying shallow.
const degree = 32

// Tree is a B+tree mapping []byte keys to []byte values. The zero value is
// not usable; call New.
type Tree struct {
	root *node
	size int
}

// node is one tree node. The shared flag marks a node reachable from more
// than one tree version (a snapshot and the live tree, or two snapshots):
// such a node must never be mutated in place — writers copy it via mutable.
// The flag is monotonic (false→true only) and atomic because trees sharing
// structure (the engine's live trees and its replicas) are mutated under
// different mutexes; readers never consult it.
type node struct {
	leaf     bool
	shared   atomic.Bool
	ents     []ent       // leaf only: one per pair, in key order
	data     []byte      // leaf only: the arena the entries point into
	dead     int         // leaf only: arena bytes no entry points at
	spare    atomic.Bool // leaf only: a copy has taken the arena's room past len(data)
	keys     [][]byte    // interior only: separators
	children []*node     // interior only, len(children) == len(keys)+1
}

// ent locates one leaf pair in the leaf's arena: the key is
// data[off:off+klen] and the value follows it directly. pfx is the key's
// first eight bytes as a big-endian number, zero-padded: comparing two of
// them orders most keys without reading the arena, whose bytes are far
// less likely to be in cache than the entries.
type ent struct {
	pfx             uint64
	off, klen, vlen uint32
}

// keyPrefix returns the pfx of an entry for key.
func keyPrefix(key []byte) uint64 {
	if len(key) >= 8 {
		return binary.BigEndian.Uint64(key)
	}
	var b [8]byte
	copy(b[:], key)
	return binary.BigEndian.Uint64(b[:])
}

// size returns the arena bytes the pair occupies.
func (e ent) size() int { return int(e.klen) + int(e.vlen) }

// New returns an empty tree.
func New() *Tree {
	return &Tree{root: &node{leaf: true}}
}

// Len returns the number of stored pairs.
func (t *Tree) Len() int { return t.size }

// Snapshot returns an immutable view of the tree's current contents in O(1):
// the root is marked shared and handed to a new Tree header. Reading the
// snapshot needs no synchronization even while the original tree keeps
// accepting writes — writers path-copy shared nodes instead of mutating
// them. The snapshot itself also tolerates writes (it is just a Tree whose
// root is shared), which is how replicas fork their own mutable lineage.
func (t *Tree) Snapshot() *Tree {
	t.root.shared.Store(true)
	return &Tree{root: t.root, size: t.size}
}

// mutable returns a node the caller may mutate in place: n itself when it is
// private to one tree version, otherwise a copy whose children become shared
// (both the copy and the old version now reach them). This is the single
// copy-on-write gate — every writer path obtains its nodes through it, and
// setting the shared and spare flags are the only writes ever performed on a
// shared node. A leaf copy gets its own entries and shares the arena. The
// arena's room past len(data) is written by nobody that can see the old
// version, so the first copy of a leaf takes it over and appends there
// without copying a byte; the spare flag, like shared, only ever turns true.
// Every later copy gets the arena clipped to its length, so its first
// append moves its pairs to a fresh arena instead of writing over the first
// copy's pairs.
func mutable(n *node) *node {
	if !n.shared.Load() {
		return n
	}
	cp := &node{leaf: n.leaf}
	if n.leaf {
		cp.ents = append(make([]ent, 0, len(n.ents)+1), n.ents...)
		cp.data = n.data[:len(n.data):len(n.data)]
		if n.spare.CompareAndSwap(false, true) {
			cp.data = n.data
		}
		cp.dead = n.dead
		return cp
	}
	cp.keys = append(make([][]byte, 0, len(n.keys)+1), n.keys...)
	cp.children = append(make([]*node, 0, len(n.children)+1), n.children...)
	for _, c := range cp.children {
		c.shared.Store(true)
	}
	return cp
}

// count returns the number of keys in n: pairs in a leaf, separators in an
// interior node.
func (n *node) count() int {
	if n.leaf {
		return len(n.ents)
	}
	return len(n.keys)
}

// key returns leaf entry i's key, clipped so that appending to it copies.
func (n *node) key(i int) []byte {
	e := n.ents[i]
	end := e.off + e.klen
	return n.data[e.off:end:end]
}

// value returns leaf entry i's value, clipped so that appending to it
// copies.
func (n *node) value(i int) []byte {
	e := n.ents[i]
	lo := e.off + e.klen
	hi := lo + e.vlen
	return n.data[lo:hi:hi]
}

// Get returns the value stored under key.
func (t *Tree) Get(key []byte) ([]byte, bool) {
	n := t.root
	for !n.leaf {
		n = n.children[childIndex(n.keys, key)]
	}
	i, found := n.search(key)
	if !found {
		return nil, false
	}
	return n.value(i), true
}

// Put stores value under key, replacing any previous value. Key and value
// are copied into the tree; the caller may reuse both afterwards. Put
// panics if one leaf's pairs would outgrow a 4 GiB arena.
func (t *Tree) Put(key, value []byte) {
	root := mutable(t.root)
	t.root = root
	if !insert(root, key, value) {
		t.size++
	}
	if root.count() > degree {
		mid, right := split(root)
		t.root = &node{
			keys:     [][]byte{mid},
			children: []*node{root, right},
		}
	}
}

// Delete removes key, reporting whether it was present. Underflowed nodes
// are merged lazily: interior nodes with a single child collapse; empty
// leaves are dropped from their parent. This keeps deletes O(log n) without
// full rebalancing, at the cost of a looser lower bound on node fill — an
// acceptable trade for an in-memory tree whose nodes are cheap to walk.
func (t *Tree) Delete(key []byte) bool {
	if _, ok := t.Get(key); !ok {
		return false
	}
	root := mutable(t.root)
	t.root = root
	remove(root, key)
	t.size--
	for !t.root.leaf && len(t.root.children) == 1 {
		t.root = t.root.children[0]
	}
	return true
}

// search returns the position of key among leaf n's entries and whether it
// was found.
func (n *node) search(key []byte) (int, bool) {
	p := keyPrefix(key)
	lo, hi := 0, len(n.ents)
	for lo < hi {
		mid := (lo + hi) / 2
		e := n.ents[mid]
		var c int
		switch {
		case e.pfx != p:
			c = cmp.Compare(e.pfx, p)
		case e.klen <= 8 && len(key) <= 8:
			// Equal padded prefixes of two short keys: one key is the
			// other followed by zero bytes, so the shorter sorts first.
			c = cmp.Compare(int(e.klen), len(key))
		default:
			c = bytes.Compare(n.key(mid), key)
		}
		switch c {
		case -1:
			lo = mid + 1
		case 1:
			hi = mid
		default:
			return mid, true
		}
	}
	return lo, false
}

// childIndex returns which child of an interior node covers key. Separator
// keys[i] is the smallest key in children[i+1].
func childIndex(keys [][]byte, key []byte) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(keys[mid], key) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// insert adds key below n, which must be mutable (obtained via mutable).
// Children are made mutable before descending, so the whole root-to-leaf
// path is privately owned by the time the leaf is edited.
func insert(n *node, key, value []byte) (replaced bool) {
	if n.leaf {
		i, found := n.search(key)
		if found {
			// The old pair's bytes turn dead; its entry is emptied first
			// so that a compaction below does not carry them over.
			n.dead += n.ents[i].size()
			n.ents[i] = ent{}
			n.ents[i] = appendPair(n, key, value)
			return true
		}
		e := appendPair(n, key, value)
		n.ents = append(n.ents, ent{})
		copy(n.ents[i+1:], n.ents[i:])
		n.ents[i] = e
		return false
	}
	ci := childIndex(n.keys, key)
	child := mutable(n.children[ci])
	n.children[ci] = child
	replaced = insert(child, key, value)
	if child.count() > degree {
		mid, right := split(child)
		n.keys = insertAt(n.keys, ci, mid)
		n.children = insertChildAt(n.children, ci+1, right)
	}
	return replaced
}

// appendPair writes key and value to the end of leaf n's arena and returns
// the entry locating them; n must be mutable. When the arena has no room
// left, the live pairs first move to a fresh arena sized live+need plus
// half again, which drops the dead bytes. Bytes below len(n.data) are never
// written.
func appendPair(n *node, key, value []byte) ent {
	need := len(key) + len(value)
	if len(n.data)+need > cap(n.data) {
		live := len(n.data) - n.dead
		repack(n, live+need+(live+need)/2)
	}
	off := len(n.data)
	n.data = append(append(n.data, key...), value...)
	return ent{pfx: keyPrefix(key), off: uint32(off), klen: uint32(len(key)), vlen: uint32(len(value))}
}

// repack copies the pairs of leaf n's entries into a fresh arena with the
// given capacity and points the entries at it; n must be mutable. The old
// arena is left as it was.
func repack(n *node, capacity int) {
	if capacity > math.MaxUint32 {
		panic("btree: leaf arena exceeds 4 GiB")
	}
	data := make([]byte, 0, capacity)
	for i, e := range n.ents {
		n.ents[i].off = uint32(len(data))
		data = append(data, n.data[e.off:int(e.off)+e.size()]...)
	}
	n.data = data
	n.dead = 0
}

// split divides an over-full node in two, returning the separator key and
// the new right sibling. n must be mutable. Each half of a leaf is packed
// into a fresh arena, so neither keeps the other's bytes alive: the right
// one with half again as much room, since ascending inserts land there, and
// the left one exactly, since under ascending inserts it never grows again.
// The old arena stays intact for whoever still reads it.
func split(n *node) ([]byte, *node) {
	right := &node{leaf: n.leaf}
	if n.leaf {
		half := len(n.ents) / 2
		right.ents = append(make([]ent, 0, len(n.ents)-half+1), n.ents[half:]...)
		right.data = n.data
		moved := 0
		for _, e := range right.ents {
			moved += e.size()
		}
		repack(right, moved+moved/2)
		n.ents = n.ents[:half]
		repack(n, len(n.data)-n.dead-moved)
		return bytes.Clone(right.key(0)), right
	}
	// Interior: the middle key moves up, it does not stay in either half.
	half := len(n.keys) / 2
	mid := n.keys[half]
	right.keys = append(right.keys, n.keys[half+1:]...)
	right.children = append(right.children, n.children[half+1:]...)
	n.keys = n.keys[:half:half]
	n.children = n.children[: half+1 : half+1]
	return mid, right
}

// remove deletes key below n, which must be mutable and known to contain
// key (Delete pre-checks presence).
func remove(n *node, key []byte) {
	if n.leaf {
		i, found := n.search(key)
		if !found {
			return
		}
		n.dead += n.ents[i].size()
		n.ents = append(n.ents[:i], n.ents[i+1:]...)
		return
	}
	ci := childIndex(n.keys, key)
	child := mutable(n.children[ci])
	n.children[ci] = child
	remove(child, key)
	if child.leaf && len(child.ents) == 0 {
		// Drop the empty leaf, unless it is the only child (the root
		// collapse in Delete handles that case).
		if len(n.children) > 1 {
			n.children = append(n.children[:ci], n.children[ci+1:]...)
			if ci == 0 {
				n.keys = n.keys[1:]
			} else {
				n.keys = append(n.keys[:ci-1], n.keys[ci:]...)
			}
		}
		return
	}
	if !child.leaf && len(child.children) == 1 {
		n.children[ci] = child.children[0]
	}
}

func insertAt(s [][]byte, i int, v []byte) [][]byte {
	s = append(s, nil)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func insertChildAt(s []*node, i int, v *node) []*node {
	s = append(s, nil)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// frame is one step of a root-to-leaf descent: a node plus the index of the
// key (leaf) or child (interior) the iterator is currently on.
type frame struct {
	n   *node
	idx int
}

// Iterator walks pairs in ascending key order. It is a point-in-time walk of
// the node version the tree held at Seek: iterating a Snapshot is always
// safe, while mutating the live tree invalidates its outstanding iterators
// (the engine scans a Snapshot cut, so its callbacks may write).
type Iterator struct {
	stack []frame
	hi    []byte // exclusive upper bound; nil = unbounded
}

// Seek returns an iterator positioned at the first key >= lo. A nil lo
// starts at the smallest key. hi, when non-nil, is an exclusive upper bound.
func (t *Tree) Seek(lo, hi []byte) *Iterator {
	it := &Iterator{stack: make([]frame, 0, 8), hi: hi}
	n := t.root
	for !n.leaf {
		ci := 0
		if lo != nil {
			ci = childIndex(n.keys, lo)
		}
		it.stack = append(it.stack, frame{n, ci})
		n = n.children[ci]
	}
	idx := 0
	if lo != nil {
		idx, _ = n.search(lo)
	}
	it.stack = append(it.stack, frame{n, idx})
	it.settle()
	return it
}

// Scan iterates pairs with lo <= key < hi (nil bounds are open) and calls fn
// for each; fn returning false stops the scan.
func (t *Tree) Scan(lo, hi []byte, fn func(key, value []byte) bool) {
	for it := t.Seek(lo, hi); it.Valid(); it.Next() {
		if !fn(it.Key(), it.Value()) {
			return
		}
	}
}

// Valid reports whether the iterator is positioned on a pair.
func (it *Iterator) Valid() bool {
	if len(it.stack) == 0 {
		return false
	}
	top := it.stack[len(it.stack)-1]
	if it.hi != nil && bytes.Compare(top.n.key(top.idx), it.hi) >= 0 {
		return false
	}
	return true
}

// Key returns the current key. Valid must be true.
func (it *Iterator) Key() []byte {
	top := it.stack[len(it.stack)-1]
	return top.n.key(top.idx)
}

// Value returns the current value. Valid must be true.
func (it *Iterator) Value() []byte {
	top := it.stack[len(it.stack)-1]
	return top.n.value(top.idx)
}

// Next advances to the following pair.
func (it *Iterator) Next() {
	it.stack[len(it.stack)-1].idx++
	it.settle()
}

// settle advances the cursor past exhausted leaves (including empty leaves
// left behind by lazy deletes) and consumed interior children until it rests
// on a real pair or the walk ends with an empty stack.
func (it *Iterator) settle() {
	for len(it.stack) > 0 {
		top := &it.stack[len(it.stack)-1]
		if top.n.leaf {
			if top.idx < len(top.n.ents) {
				return
			}
			it.stack = it.stack[:len(it.stack)-1]
			continue
		}
		top.idx++
		if top.idx >= len(top.n.children) {
			it.stack = it.stack[:len(it.stack)-1]
			continue
		}
		n := top.n.children[top.idx]
		for !n.leaf {
			it.stack = append(it.stack, frame{n, 0})
			n = n.children[0]
		}
		it.stack = append(it.stack, frame{n, 0})
	}
}

// Min returns the smallest key and its value.
func (t *Tree) Min() ([]byte, []byte, bool) {
	it := t.Seek(nil, nil)
	if !it.Valid() {
		return nil, nil, false
	}
	return it.Key(), it.Value(), true
}

// Max returns the largest key and its value.
func (t *Tree) Max() ([]byte, []byte, bool) {
	var k, v []byte
	found := false
	t.ScanReverse(nil, nil, func(key, value []byte) bool {
		k, v, found = key, value, true
		return false
	})
	return k, v, found
}

// ScanReverse iterates pairs in descending order with lo <= key < hi.
func (t *Tree) ScanReverse(lo, hi []byte, fn func(key, value []byte) bool) {
	scanReverse(t.root, lo, hi, fn)
}

// scanReverse walks n's subtree in descending key order, returning false
// once fn stops the scan or a key below lo is reached.
func scanReverse(n *node, lo, hi []byte, fn func(key, value []byte) bool) bool {
	if n.leaf {
		idx := len(n.ents) - 1
		if hi != nil {
			// Position on the last key < hi; leaves left of the boundary
			// leaf hold only smaller keys, so the search is a no-op there.
			i, _ := n.search(hi)
			idx = i - 1
		}
		for ; idx >= 0; idx-- {
			k := n.key(idx)
			if lo != nil && bytes.Compare(k, lo) < 0 {
				return false
			}
			if !fn(k, n.value(idx)) {
				return false
			}
		}
		return true
	}
	ci := len(n.children) - 1
	if hi != nil {
		ci = childIndex(n.keys, hi)
	}
	for ; ci >= 0; ci-- {
		if !scanReverse(n.children[ci], lo, hi, fn) {
			return false
		}
	}
	return true
}

// check validates tree invariants; used by tests. It must not mutate the
// tree — snapshots are checked too.
func (t *Tree) check() error {
	var prev []byte
	count := 0
	var walk func(n *node, depth int) (int, error)
	walk = func(n *node, depth int) (int, error) {
		if n.leaf {
			live := 0
			for i, e := range n.ents {
				if int(e.off)+e.size() > len(n.data) {
					return 0, fmt.Errorf("btree: leaf entry %d runs past its arena", i)
				}
				k := n.key(i)
				if e.pfx != keyPrefix(k) {
					return 0, fmt.Errorf("btree: stale key prefix at leaf idx %d", i)
				}
				if prev != nil && bytes.Compare(prev, k) >= 0 {
					return 0, fmt.Errorf("btree: keys out of order at leaf idx %d", i)
				}
				prev = k
				count++
				live += e.size()
			}
			if live+n.dead != len(n.data) {
				return 0, fmt.Errorf("btree: leaf arena holds %d bytes, %d live + %d dead", len(n.data), live, n.dead)
			}
			return depth, nil
		}
		if len(n.children) != len(n.keys)+1 {
			return 0, fmt.Errorf("btree: interior children/keys mismatch: %d vs %d", len(n.children), len(n.keys))
		}
		d0 := -1
		for _, c := range n.children {
			d, err := walk(c, depth+1)
			if err != nil {
				return 0, err
			}
			if d0 == -1 {
				d0 = d
			} else if d != d0 {
				return 0, fmt.Errorf("btree: uneven leaf depth")
			}
		}
		return d0, nil
	}
	if _, err := walk(t.root, 0); err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("btree: size %d but %d reachable keys", t.size, count)
	}
	return nil
}
