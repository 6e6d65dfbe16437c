// Package xmlstore implements the native tree store of the paper's
// MarkLogic / DB2 pureXML rows: XML documents — and, following MarkLogic's
// key design point, JSON documents modeled *as the same kind of tree* — are
// decomposed into nodes labeled with ORDPATH, stored in order-preserving
// keyspaces, and queried with an XPath subset.
//
// Layout on the integrated backend (per document name):
//
//	xml:<doc>        ordpath key -> binenc(node record)
//	xmlpath:<doc>    keyenc(path, leaf value) ++ ordpath key -> ""   (path range index)
//
// The path index is the paper's "path range index" (MarkLogic) / XMLIndex
// path+value index (Oracle): it answers /a/b[...=v] lookups without walking
// the tree — the E14 ablation.
package xmlstore

import (
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strings"

	"repro/internal/binenc"
	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/keyenc"
	"repro/internal/mmvalue"
	"repro/internal/ordpath"
)

// NodeKind classifies tree nodes, unifying XML and JSON structure the
// MarkLogic way.
type NodeKind uint8

// Node kinds.
const (
	KindDoc  NodeKind = iota // auxiliary document root
	KindElem                 // XML element / JSON object field
	KindAttr                 // XML attribute
	KindText                 // text / JSON scalar leaf (Value holds the scalar)
)

func (k NodeKind) String() string {
	switch k {
	case KindDoc:
		return "doc"
	case KindElem:
		return "elem"
	case KindAttr:
		return "attr"
	case KindText:
		return "text"
	default:
		return "?"
	}
}

// Node is one stored tree node.
type Node struct {
	Label ordpath.Label
	Kind  NodeKind
	Name  string        // element/attribute name; empty for doc and text
	Value mmvalue.Value // attr value or text scalar
}

// Errors.
var (
	ErrNoDocument = errors.New("xmlstore: no such document")
)

// Store provides tree-document operations within engine transactions.
type Store struct {
	e   engine.Sizer
	cat *catalog.Catalog
}

// New returns an XML/JSON tree store over the engine.
func New(e engine.Sizer, cat *catalog.Catalog) *Store { return &Store{e: e, cat: cat} }

// Keyspace returns the node keyspace of a document.
func Keyspace(doc string) string { return "xml:" + doc }

// PathKeyspace returns the path-index keyspace of a document.
func PathKeyspace(doc string) string { return "xmlpath:" + doc }

const catKind = "xmldoc"

func nodeValue(n Node) []byte {
	return binenc.Encode(mmvalue.Object(
		mmvalue.F("k", mmvalue.Int(int64(n.Kind))),
		mmvalue.F("n", mmvalue.String(n.Name)),
		mmvalue.F("v", n.Value),
	))
}

func decodeNode(label ordpath.Label, raw []byte) (Node, error) {
	v, err := binenc.Decode(raw)
	if err != nil {
		return Node{}, err
	}
	return Node{
		Label: label,
		Kind:  NodeKind(v.GetOr("k").AsInt()),
		Name:  v.GetOr("n").AsString(),
		Value: v.GetOr("v"),
	}, nil
}

// treeBuilder accumulates nodes while parsing, assigning ORDPATH labels.
type treeBuilder struct {
	nodes []Node
	stack []ordpath.Label // label of the open node at each depth
	last  []ordpath.Label // label of the last child emitted at each depth
}

func newTreeBuilder() *treeBuilder {
	tb := &treeBuilder{}
	root := ordpath.Root()
	tb.nodes = append(tb.nodes, Node{Label: root, Kind: KindDoc})
	tb.stack = []ordpath.Label{root}
	tb.last = []ordpath.Label{nil}
	return tb
}

// open starts a child node of the current top and makes it the new top.
func (tb *treeBuilder) open(n Node) {
	label := tb.nextChildLabel()
	n.Label = label
	tb.nodes = append(tb.nodes, n)
	tb.stack = append(tb.stack, label)
	tb.last = append(tb.last, nil)
}

// leaf emits a childless node under the current top.
func (tb *treeBuilder) leaf(n Node) {
	n.Label = tb.nextChildLabel()
	tb.nodes = append(tb.nodes, n)
}

func (tb *treeBuilder) nextChildLabel() ordpath.Label {
	depth := len(tb.stack) - 1
	var label ordpath.Label
	if tb.last[depth+0] == nil {
		label = tb.stack[depth].FirstChild()
	} else {
		label = tb.last[depth].NextSibling()
	}
	tb.last[depth] = label
	return label
}

// close pops the current top.
func (tb *treeBuilder) close() {
	tb.stack = tb.stack[:len(tb.stack)-1]
	tb.last = tb.last[:len(tb.last)-1]
}

// ParseXML decomposes an XML document into labeled nodes.
func ParseXML(data []byte) ([]Node, error) {
	dec := xml.NewDecoder(strings.NewReader(string(data)))
	tb := newTreeBuilder()
	depth := 0
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmlstore: parse: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			tb.open(Node{Kind: KindElem, Name: t.Name.Local})
			for _, a := range t.Attr {
				tb.leaf(Node{Kind: KindAttr, Name: a.Name.Local, Value: mmvalue.String(a.Value)})
			}
			depth++
		case xml.EndElement:
			tb.close()
			depth--
		case xml.CharData:
			text := strings.TrimSpace(string(t))
			if text != "" && depth > 0 {
				tb.leaf(Node{Kind: KindText, Value: mmvalue.String(text)})
			}
		}
	}
	if depth != 0 {
		return nil, errors.New("xmlstore: unbalanced document")
	}
	return tb.nodes, nil
}

// FromJSON decomposes a JSON value into the same node model: object fields
// and array elements become elements (array elements repeat the enclosing
// field name, the classic JSON-to-XML mapping), scalars become text leaves.
func FromJSON(v mmvalue.Value) []Node {
	tb := newTreeBuilder()
	var walk func(name string, v mmvalue.Value)
	walk = func(name string, v mmvalue.Value) {
		switch v.Kind() {
		case mmvalue.KindObject:
			tb.open(Node{Kind: KindElem, Name: name})
			for _, f := range v.Fields() {
				walk(f.Name, f.Value)
			}
			tb.close()
		case mmvalue.KindArray:
			for _, e := range v.AsArray() {
				walk(name, e)
			}
		default:
			tb.open(Node{Kind: KindElem, Name: name})
			tb.leaf(Node{Kind: KindText, Value: v})
			tb.close()
		}
	}
	walk("root", v)
	return tb.nodes
}

// LoadXML parses and stores an XML document under name, replacing any
// previous content, and builds the path index.
func (s *Store) LoadXML(tx engine.Tx, name string, data []byte) error {
	nodes, err := ParseXML(data)
	if err != nil {
		return err
	}
	return s.store(tx, name, nodes)
}

// LoadJSON stores a JSON value as a tree document (MarkLogic's unified
// model), replacing any previous content.
func (s *Store) LoadJSON(tx engine.Tx, name string, v mmvalue.Value) error {
	return s.store(tx, name, FromJSON(v))
}

func (s *Store) store(tx engine.Tx, name string, nodes []Node) error {
	if ok, err := s.cat.Exists(tx, catKind, name); err != nil {
		return err
	} else if ok {
		if err := s.Remove(tx, name); err != nil {
			return err
		}
	}
	if err := s.cat.Put(tx, catKind, name, mmvalue.Object(
		mmvalue.F("nodes", mmvalue.Int(int64(len(nodes)))))); err != nil {
		return err
	}
	for _, n := range nodes {
		if err := tx.Put(Keyspace(name), n.Label.Key(), nodeValue(n)); err != nil {
			return err
		}
	}
	// Path index over every element path with a scalar leaf and every
	// attribute path.
	paths := buildPaths(nodes)
	for _, p := range paths {
		entry := keyenc.AppendString(nil, p.path)
		entry = keyenc.Append(entry, p.value)
		entry = append(entry, p.label.Key()...)
		if err := tx.Put(PathKeyspace(name), entry, nil); err != nil {
			return err
		}
	}
	return nil
}

type pathEntry struct {
	path  string
	value mmvalue.Value
	label ordpath.Label
}

// buildPaths computes the slash path of every attribute and text-bearing
// element. Paths look like "/product/name" and "/product/@no".
func buildPaths(nodes []Node) []pathEntry {
	// Reconstruct the tree shape from labels; nodes arrive in document
	// order so a simple stack suffices.
	type frame struct {
		label ordpath.Label
		path  string
	}
	var out []pathEntry
	var stack []frame
	for _, n := range nodes {
		for len(stack) > 0 && !stack[len(stack)-1].label.IsAncestorOf(n.Label) {
			stack = stack[:len(stack)-1]
		}
		parentPath := ""
		if len(stack) > 0 {
			parentPath = stack[len(stack)-1].path
		}
		switch n.Kind {
		case KindDoc:
			stack = append(stack, frame{n.Label, ""})
		case KindElem:
			p := parentPath + "/" + n.Name
			stack = append(stack, frame{n.Label, p})
		case KindAttr:
			out = append(out, pathEntry{parentPath + "/@" + n.Name, n.Value, n.Label})
		case KindText:
			out = append(out, pathEntry{parentPath, n.Value, n.Label})
		}
	}
	return out
}

// Remove deletes a document and its indexes.
func (s *Store) Remove(tx engine.Tx, name string) error {
	if err := tx.DropKeyspace(Keyspace(name)); err != nil {
		return err
	}
	if err := tx.DropKeyspace(PathKeyspace(name)); err != nil {
		return err
	}
	return s.cat.Delete(tx, catKind, name)
}

// Documents lists loaded document names.
func (s *Store) Documents(tx engine.Tx) ([]string, error) {
	entries, err := s.cat.List(tx, catKind)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name
	}
	return names, nil
}

// Nodes returns every node of the document in document order.
func (s *Store) Nodes(tx engine.Tx, name string) ([]Node, error) {
	if ok, err := s.cat.Exists(tx, catKind, name); err != nil {
		return nil, err
	} else if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoDocument, name)
	}
	var out []Node
	var decErr error
	err := tx.Scan(Keyspace(name), nil, nil, func(k, v []byte) bool {
		label, err := ordpath.FromKey(k)
		if err != nil {
			decErr = err
			return false
		}
		n, err := decodeNode(label, v)
		if err != nil {
			decErr = err
			return false
		}
		out = append(out, n)
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, decErr
}

// Subtree returns the node at label and all its descendants in document
// order, using the ORDPATH subtree range (no tree walk).
func (s *Store) Subtree(tx engine.Tx, name string, label ordpath.Label) ([]Node, error) {
	lo := label.Key()
	end := label.Clone()
	end[len(end)-1]++
	hi := end.Key()
	var out []Node
	var decErr error
	err := tx.Scan(Keyspace(name), lo, hi, func(k, v []byte) bool {
		l, err := ordpath.FromKey(k)
		if err != nil {
			decErr = err
			return false
		}
		n, err := decodeNode(l, v)
		if err != nil {
			decErr = err
			return false
		}
		out = append(out, n)
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, decErr
}

// Children returns the direct children of label in order.
func (s *Store) Children(tx engine.Tx, name string, label ordpath.Label) ([]Node, error) {
	sub, err := s.Subtree(tx, name, label)
	if err != nil {
		return nil, err
	}
	var out []Node
	for _, n := range sub {
		if p := n.Label.Parent(); p != nil && ordpath.Equal(p, label) {
			out = append(out, n)
		}
	}
	return out, nil
}

// Text returns the concatenated text content of the subtree at label (the
// XPath string value of an element).
func (s *Store) Text(tx engine.Tx, name string, label ordpath.Label) (string, error) {
	sub, err := s.Subtree(tx, name, label)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	for _, n := range sub {
		if n.Kind == KindText {
			if n.Value.Kind() == mmvalue.KindString {
				sb.WriteString(n.Value.AsString())
			} else {
				sb.WriteString(n.Value.String())
			}
		}
	}
	return sb.String(), nil
}

// ScalarValue returns the typed scalar of an element that wraps exactly one
// text node, else the string value.
func (s *Store) ScalarValue(tx engine.Tx, name string, label ordpath.Label) (mmvalue.Value, error) {
	children, err := s.Children(tx, name, label)
	if err != nil {
		return mmvalue.Null, err
	}
	if len(children) == 1 && children[0].Kind == KindText {
		return children[0].Value, nil
	}
	text, err := s.Text(tx, name, label)
	return mmvalue.String(text), err
}

// PathLookup uses the path range index to find the labels of nodes at the
// given slash path whose value equals v (E14's indexed side).
func (s *Store) PathLookup(tx engine.Tx, name, path string, v mmvalue.Value) ([]ordpath.Label, error) {
	prefix := keyenc.AppendString(nil, path)
	prefix = keyenc.Append(prefix, v)
	hi := keyenc.AppendMax(append([]byte{}, prefix...))
	var out []ordpath.Label
	var decErr error
	err := tx.Scan(PathKeyspace(name), prefix, hi, func(k, _ []byte) bool {
		label, err := ordpath.FromKey(k[len(prefix):])
		if err != nil {
			decErr = err
			return false
		}
		out = append(out, label)
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, decErr
}

// PathRange uses the path index for a value range query on one path
// (MarkLogic's "range indices" row).
func (s *Store) PathRange(tx engine.Tx, name, path string, lo, hi mmvalue.Value) ([]ordpath.Label, error) {
	loKey := keyenc.Append(keyenc.AppendString(nil, path), lo)
	hiKey := keyenc.AppendMax(keyenc.Append(keyenc.AppendString(nil, path), hi))
	var out []ordpath.Label
	var decErr error
	var parts []mmvalue.Value // key scratch, reused row to row
	err := tx.Scan(PathKeyspace(name), loKey, hiKey, func(k, _ []byte) bool {
		// Strip the (path, value) prefix by decoding two values.
		var err error
		parts, err = keyenc.DecodeAppend(parts[:0], k)
		if err != nil || len(parts) < 3 {
			decErr = fmt.Errorf("xmlstore: corrupt path index entry: %w", err)
			return false
		}
		prefixLen := len(keyenc.Append(keyenc.Append(nil, parts[0]), parts[1]))
		label, err := ordpath.FromKey(k[prefixLen:])
		if err != nil {
			decErr = err
			return false
		}
		out = append(out, label)
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, decErr
}
