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
package btree

import (
	"bytes"
	"fmt"
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
	keys     [][]byte
	vals     [][]byte // leaf only, parallel to keys
	children []*node  // interior only, len(children) == len(keys)+1
}

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
// marking the shared flag is the only write ever performed on a shared node.
func mutable(n *node) *node {
	if !n.shared.Load() {
		return n
	}
	cp := &node{leaf: n.leaf}
	cp.keys = append(make([][]byte, 0, len(n.keys)+1), n.keys...)
	if n.leaf {
		cp.vals = append(make([][]byte, 0, len(n.vals)+1), n.vals...)
		return cp
	}
	cp.children = append(make([]*node, 0, len(n.children)+1), n.children...)
	for _, c := range cp.children {
		c.shared.Store(true)
	}
	return cp
}

// Get returns the value stored under key.
func (t *Tree) Get(key []byte) ([]byte, bool) {
	n := t.root
	for !n.leaf {
		n = n.children[childIndex(n.keys, key)]
	}
	i, found := search(n.keys, key)
	if !found {
		return nil, false
	}
	return n.vals[i], true
}

// Put stores value under key, replacing any previous value. Key and value
// are retained; callers must not mutate them afterwards.
func (t *Tree) Put(key, value []byte) {
	t.root = mutable(t.root)
	replaced := insert(t.root, key, value)
	if !replaced {
		t.size++
	}
	if len(t.root.keys) > degree {
		left := t.root
		mid, right := split(left)
		t.root = &node{
			keys:     [][]byte{mid},
			children: []*node{left, right},
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
	t.root = mutable(t.root)
	remove(t.root, key)
	t.size--
	for !t.root.leaf && len(t.root.children) == 1 {
		t.root = t.root.children[0]
	}
	return true
}

// search returns the position of key in keys and whether it was found.
func search(keys [][]byte, key []byte) (int, bool) {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		switch bytes.Compare(keys[mid], key) {
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
		i, found := search(n.keys, key)
		if found {
			n.vals[i] = value
			return true
		}
		n.keys = insertAt(n.keys, i, key)
		n.vals = insertAt(n.vals, i, value)
		return false
	}
	ci := childIndex(n.keys, key)
	child := mutable(n.children[ci])
	n.children[ci] = child
	replaced = insert(child, key, value)
	if len(child.keys) > degree {
		mid, right := split(child)
		n.keys = insertAt(n.keys, ci, mid)
		n.children = insertChildAt(n.children, ci+1, right)
	}
	return replaced
}

// split divides an over-full node in two, returning the separator key and
// the new right sibling. n must be mutable.
func split(n *node) ([]byte, *node) {
	half := len(n.keys) / 2
	right := &node{leaf: n.leaf}
	if n.leaf {
		right.keys = append(right.keys, n.keys[half:]...)
		right.vals = append(right.vals, n.vals[half:]...)
		n.keys = n.keys[:half:half]
		n.vals = n.vals[:half:half]
		return right.keys[0], right
	}
	// Interior: the middle key moves up, it does not stay in either half.
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
		i, found := search(n.keys, key)
		if !found {
			return
		}
		n.keys = append(n.keys[:i], n.keys[i+1:]...)
		n.vals = append(n.vals[:i], n.vals[i+1:]...)
		return
	}
	ci := childIndex(n.keys, key)
	child := mutable(n.children[ci])
	n.children[ci] = child
	remove(child, key)
	if child.leaf && len(child.keys) == 0 {
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
		idx, _ = search(n.keys, lo)
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
	if it.hi != nil && bytes.Compare(top.n.keys[top.idx], it.hi) >= 0 {
		return false
	}
	return true
}

// Key returns the current key. Valid must be true.
func (it *Iterator) Key() []byte {
	top := it.stack[len(it.stack)-1]
	return top.n.keys[top.idx]
}

// Value returns the current value. Valid must be true.
func (it *Iterator) Value() []byte {
	top := it.stack[len(it.stack)-1]
	return top.n.vals[top.idx]
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
			if top.idx < len(top.n.keys) {
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
		idx := len(n.keys) - 1
		if hi != nil {
			// Position on the last key < hi; leaves left of the boundary
			// leaf hold only smaller keys, so the search is a no-op there.
			i, _ := search(n.keys, hi)
			idx = i - 1
		}
		for ; idx >= 0; idx-- {
			k := n.keys[idx]
			if lo != nil && bytes.Compare(k, lo) < 0 {
				return false
			}
			if !fn(k, n.vals[idx]) {
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
			for i, k := range n.keys {
				if prev != nil && bytes.Compare(prev, k) >= 0 {
					return 0, fmt.Errorf("btree: keys out of order at leaf idx %d", i)
				}
				prev = k
				count++
			}
			if len(n.vals) != len(n.keys) {
				return 0, fmt.Errorf("btree: leaf vals/keys mismatch")
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
