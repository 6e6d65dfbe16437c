// Package cowsafe is a fixture for the cowsafe analyzer: a miniature
// copy-on-write node with good and bad writer paths.
package cowsafe

import "sync/atomic"

type node struct {
	leaf     bool
	shared   atomic.Bool
	gen      int
	ents     []ent  // leaf entries locating pairs in data
	data     []byte // leaf arena
	keys     [][]byte
	children []*node
}

type ent struct{ off, klen, vlen uint32 }

// mutable is the copy-on-write gate (MintFuncs in the test config).
func mutable(n *node) *node {
	if !n.shared.Load() {
		return n
	}
	cp := &node{leaf: n.leaf}
	cp.ents = append(cp.ents, n.ents...)
	cp.data = n.data[:len(n.data):len(n.data)]
	cp.keys = append(cp.keys, n.keys...)
	cp.children = append(cp.children, n.children...)
	for _, c := range cp.children {
		c.shared.Store(true)
	}
	return cp
}

// insert is an allowlisted writer (WriterFuncs in the test config): its
// contract is that callers pass a minted node. It may hand its own node
// parameter on to another writer.
func insert(n *node, k []byte) {
	n.keys = append(n.keys, k)
	if len(n.keys) > 4 {
		insert(n, nil)
	}
	insert(n.children[0], k) // want `non-local node expression`
}

type tree struct{ root *node }

// badWriterCall hands a writer a node nobody minted: the parameter may be
// shared with a snapshot.
func badWriterCall(n *node) {
	insert(n, nil) // want `insert\(n\) in badWriterCall: n is not proven mutable`
}

// badWriterCallField passes the minted root through the field it was
// stored in; the analyzer tracks locals, not fields.
func badWriterCallField(t *tree) {
	t.root = mutable(t.root)
	insert(t.root, nil) // want `non-local node expression`
}

func goodWriterCall(t *tree, n *node) {
	root := mutable(t.root)
	t.root = root
	insert(root, nil)
	insert(&node{leaf: true}, nil)
	m := mutable(n)
	insert((m), nil)
}

func badDirectWrite(n *node) {
	n.keys[0] = nil // want `not proven mutable`
	n.leaf = true   // want `not proven mutable`
}

func badIncDec(n *node) {
	n.gen++ // want `not proven mutable`
}

func goodMinted(n *node) {
	m := mutable(n)
	m.keys[0] = nil
	m.leaf = true
}

func goodAlias(n *node) {
	m := mutable(n)
	o := m
	o.leaf = false
}

func goodFresh() *node {
	cp := &node{leaf: true}
	cp.keys = append(cp.keys, nil)
	np := new(node)
	np.leaf = true
	return cp
}

func badDeepWrite(n *node) {
	m := mutable(n)
	// mutable(n) does not make n's children private: writing through a
	// non-identifier owner must be rebound through the gate first.
	m.children[0].keys = nil // want `non-local node expression`
}

// badArenaWrite edits a leaf's entries and arena without minting the node:
// a snapshot reading the same leaf would see the new entry or bytes.
func badArenaWrite(n *node, e ent, i int) {
	n.ents[i] = e                 // want `not proven mutable`
	n.ents[i].off = 0             // want `not proven mutable`
	n.data = append(n.data, 0xff) // want `not proven mutable`
}

func goodArenaWrite(n *node, e ent, i int) {
	m := mutable(n)
	m.ents[i] = e
	m.data = append(m.data, 0xff)
}

func badCopyInto(n *node, src [][]byte) {
	copy(n.keys, src) // want `not proven mutable`
}

func badUnshare(n *node) {
	n.shared.Store(false) // want `monotonic`
}

func badUnshareVar(n *node, v bool) {
	n.shared.Store(v) // want `monotonic`
}

func goodShare(n *node) {
	n.shared.Store(true)
}

func suppressed(n *node) {
	//unidblint:ignore cowsafe fixture exercises suppression
	n.leaf = true
}
