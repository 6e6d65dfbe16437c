package xmlstore

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/mmvalue"
	"repro/internal/ordpath"
)

// The paper's MarkLogic example documents (slides 58, 76).
const productXML = `<product no="3424g">
  <name>The King's Speech</name>
  <author>Mark Logue</author>
  <author>Peter Conradi</author>
</product>`

const orderJSON = `{
  "Order_no": "0c6df508",
  "Orderlines": [
    {"Product_no": "2724f", "Product_Name": "Toy", "Price": 66},
    {"Product_no": "3424g", "Product_Name": "Book", "Price": 40}
  ]
}`

func setup(t testing.TB) (*engine.Engine, *Store) {
	t.Helper()
	e, err := engine.Open(engine.Options{Durability: engine.Ephemeral})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e, New(e, catalog.New(e))
}

func load(t *testing.T, e *engine.Engine, s *Store) {
	t.Helper()
	if err := e.Update(func(tx *engine.Txn) error {
		if err := s.LoadXML(tx, "/myXML1.xml", []byte(productXML)); err != nil {
			return err
		}
		return s.LoadJSON(tx, "/myJSON1.json", mmvalue.MustParseJSON(orderJSON))
	}); err != nil {
		t.Fatal(err)
	}
}

func TestParseXMLStructure(t *testing.T) {
	nodes, err := ParseXML([]byte(productXML))
	if err != nil {
		t.Fatal(err)
	}
	// doc + product + @no + name + text + author + text + author + text
	if len(nodes) != 9 {
		t.Fatalf("node count = %d", len(nodes))
	}
	if nodes[0].Kind != KindDoc {
		t.Fatal("first node must be the document node")
	}
	if nodes[1].Kind != KindElem || nodes[1].Name != "product" {
		t.Fatalf("node 1 = %+v", nodes[1])
	}
	if nodes[2].Kind != KindAttr || nodes[2].Name != "no" || nodes[2].Value.AsString() != "3424g" {
		t.Fatalf("attr node = %+v", nodes[2])
	}
	// Labels strictly increase in document order.
	for i := 0; i+1 < len(nodes); i++ {
		if ordpath.Compare(nodes[i].Label, nodes[i+1].Label) >= 0 {
			t.Fatalf("labels out of document order at %d", i)
		}
	}
}

func TestParseXMLErrors(t *testing.T) {
	if _, err := ParseXML([]byte("<a><b></a>")); err == nil {
		t.Fatal("mismatched tags accepted")
	}
}

func TestXPathOverXML(t *testing.T) {
	e, s := setup(t)
	load(t, e, s)
	e.View(func(tx *engine.Txn) error {
		// /product/@no
		vals, err := s.XPathValues(tx, "/myXML1.xml", "/product/@no")
		if err != nil || len(vals) != 1 || vals[0].AsString() != "3424g" {
			t.Fatalf("/product/@no = %v, %v", vals, err)
		}
		// //author returns both authors in document order.
		vals, _ = s.XPathValues(tx, "/myXML1.xml", "//author")
		if len(vals) != 2 || vals[0].AsString() != "Mark Logue" || vals[1].AsString() != "Peter Conradi" {
			t.Fatalf("//author = %v", vals)
		}
		// Positional predicate.
		vals, _ = s.XPathValues(tx, "/myXML1.xml", "/product/author[2]")
		if len(vals) != 1 || vals[0].AsString() != "Peter Conradi" {
			t.Fatalf("author[2] = %v", vals)
		}
		// Attribute predicate.
		nodes, _ := s.XPath(tx, "/myXML1.xml", "/product[@no='3424g']/name")
		if len(nodes) != 1 {
			t.Fatalf("attr predicate = %v", nodes)
		}
		nodes, _ = s.XPath(tx, "/myXML1.xml", "/product[@no='wrong']/name")
		if len(nodes) != 0 {
			t.Fatalf("false attr predicate matched: %v", nodes)
		}
		// Wildcard and text().
		nodes, _ = s.XPath(tx, "/myXML1.xml", "/product/*")
		if len(nodes) != 3 {
			t.Fatalf("/product/* = %d nodes", len(nodes))
		}
		vals, _ = s.XPathValues(tx, "/myXML1.xml", "/product/name/text()")
		if len(vals) != 1 || vals[0].AsString() != "The King's Speech" {
			t.Fatalf("text() = %v", vals)
		}
		return nil
	})
}

func TestXPathOverJSON(t *testing.T) {
	e, s := setup(t)
	load(t, e, s)
	e.View(func(tx *engine.Txn) error {
		// MarkLogic's pitch: the same XPath engine over JSON.
		vals, err := s.XPathValues(tx, "/myJSON1.json", "/root/Orderlines/Product_no")
		if err != nil || len(vals) != 2 {
			t.Fatalf("JSON xpath = %v, %v", vals, err)
		}
		if vals[0].AsString() != "2724f" || vals[1].AsString() != "3424g" {
			t.Fatalf("Product_no = %v", vals)
		}
		// Typed scalars survive: Price is an int.
		prices, _ := s.XPathValues(tx, "/myJSON1.json", "/root/Orderlines/Price")
		if len(prices) != 2 || prices[0].AsInt() != 66 {
			t.Fatalf("prices = %v", prices)
		}
		// Numeric comparison predicate.
		nodes, _ := s.XPath(tx, "/myJSON1.json", "/root/Orderlines[Price > 50]/Product_no")
		if len(nodes) != 1 {
			t.Fatalf("Price > 50 = %d nodes", len(nodes))
		}
		return nil
	})
}

// TestPaperJoinQuery reproduces the slide-76 XQuery join: find the order
// whose Orderlines/Product_no equals the XML product's @no, return its
// Order_no. Result: 0c6df508.
func TestPaperJoinQuery(t *testing.T) {
	e, s := setup(t)
	load(t, e, s)
	e.View(func(tx *engine.Txn) error {
		no, err := s.XPathValues(tx, "/myXML1.xml", "/product/@no")
		if err != nil || len(no) != 1 {
			t.Fatalf("product no = %v, %v", no, err)
		}
		// [Orderlines/Product_no = $product/@no]
		nodes, err := s.XPath(tx, "/myJSON1.json",
			"/root[Orderlines/Product_no = '"+no[0].AsString()+"']/Order_no")
		if err != nil || len(nodes) != 1 {
			t.Fatalf("join = %v, %v", nodes, err)
		}
		v, _ := s.ScalarValue(tx, "/myJSON1.json", nodes[0].Label)
		if v.AsString() != "0c6df508" {
			t.Fatalf("Order_no = %v", v)
		}
		return nil
	})
}

func TestPathIndexLookup(t *testing.T) {
	e, s := setup(t)
	load(t, e, s)
	e.View(func(tx *engine.Txn) error {
		labels, err := s.PathLookup(tx, "/myJSON1.json", "/root/Orderlines/Product_no", mmvalue.String("2724f"))
		if err != nil || len(labels) != 1 {
			t.Fatalf("PathLookup = %v, %v", labels, err)
		}
		// The found node's parent subtree contains the price 66.
		parent := labels[0].Parent()
		sv, _ := s.ScalarValue(tx, "/myJSON1.json", parent)
		_ = sv
		// Attribute path.
		labels, _ = s.PathLookup(tx, "/myXML1.xml", "/product/@no", mmvalue.String("3424g"))
		if len(labels) != 1 {
			t.Fatalf("attr PathLookup = %v", labels)
		}
		// Range over numeric path.
		labels, _ = s.PathRange(tx, "/myJSON1.json", "/root/Orderlines/Price", mmvalue.Int(50), mmvalue.Int(100))
		if len(labels) != 1 {
			t.Fatalf("PathRange = %v", labels)
		}
		return nil
	})
}

func TestSubtreeAndChildren(t *testing.T) {
	e, s := setup(t)
	load(t, e, s)
	e.View(func(tx *engine.Txn) error {
		root, _, err := s.XPathFirstLabel(tx, "/myXML1.xml", "/product")
		if err != nil {
			t.Fatal(err)
		}
		sub, _ := s.Subtree(tx, "/myXML1.xml", root)
		if len(sub) != 8 { // product + attr + 3 elems + 3 texts
			t.Fatalf("subtree size = %d", len(sub))
		}
		kids, _ := s.Children(tx, "/myXML1.xml", root)
		if len(kids) != 4 { // @no, name, author, author
			t.Fatalf("children = %d", len(kids))
		}
		text, _ := s.Text(tx, "/myXML1.xml", root)
		if text != "The King's SpeechMark LoguePeter Conradi" {
			t.Fatalf("text = %q", text)
		}
		return nil
	})
}

func TestReplaceAndRemove(t *testing.T) {
	e, s := setup(t)
	load(t, e, s)
	// Reload with different content replaces.
	e.Update(func(tx *engine.Txn) error {
		return s.LoadXML(tx, "/myXML1.xml", []byte(`<x><y>z</y></x>`))
	})
	e.View(func(tx *engine.Txn) error {
		if n, _ := s.XPath(tx, "/myXML1.xml", "/product"); len(n) != 0 {
			t.Fatal("old content survived reload")
		}
		if v, _ := s.XPathValues(tx, "/myXML1.xml", "/x/y"); len(v) != 1 || v[0].AsString() != "z" {
			t.Fatalf("new content = %v", v)
		}
		return nil
	})
	e.Update(func(tx *engine.Txn) error { return s.Remove(tx, "/myXML1.xml") })
	e.View(func(tx *engine.Txn) error {
		if _, err := s.Nodes(tx, "/myXML1.xml"); err == nil {
			t.Fatal("document survived removal")
		}
		docs, _ := s.Documents(tx)
		if len(docs) != 1 || docs[0] != "/myJSON1.json" {
			t.Fatalf("Documents = %v", docs)
		}
		return nil
	})
}

func TestXPathParseErrors(t *testing.T) {
	e, s := setup(t)
	load(t, e, s)
	e.View(func(tx *engine.Txn) error {
		for _, bad := range []string{"", "product", "/product[", "/product[@no=]", "/product[0]"} {
			if _, err := s.XPath(tx, "/myXML1.xml", bad); err == nil {
				t.Errorf("XPath(%q) should fail", bad)
			}
		}
		return nil
	})
}

func TestJSONScalarRootAndNested(t *testing.T) {
	e, s := setup(t)
	e.Update(func(tx *engine.Txn) error {
		return s.LoadJSON(tx, "doc", mmvalue.MustParseJSON(`{"a":{"b":[1,2,3]},"c":true,"d":null}`))
	})
	e.View(func(tx *engine.Txn) error {
		vals, _ := s.XPathValues(tx, "doc", "/root/a/b")
		if len(vals) != 3 || vals[2].AsInt() != 3 {
			t.Fatalf("array mapping = %v", vals)
		}
		vals, _ = s.XPathValues(tx, "doc", "/root/c")
		if len(vals) != 1 || !vals[0].AsBool() {
			t.Fatalf("bool = %v", vals)
		}
		vals, _ = s.XPathValues(tx, "doc", "/root/d")
		if len(vals) != 1 || !vals[0].IsNull() {
			t.Fatalf("null = %v", vals)
		}
		return nil
	})
}

// E14 (slide 81): /catalog/product[@no='p777']/name over a 2 000-product
// catalog, by XPath tree navigation vs the ORDPATH path range index.
func BenchmarkE14XPath(b *testing.B) {
	e, s := setup(b)
	var sb strings.Builder
	sb.WriteString("<catalog>")
	for i := 0; i < 2000; i++ {
		fmt.Fprintf(&sb, `<product no="p%d"><name>item %d</name><price>%d</price></product>`, i, i, i%300)
	}
	sb.WriteString("</catalog>")
	if err := e.Update(func(tx *engine.Txn) error {
		return s.LoadXML(tx, "catalog", []byte(sb.String()))
	}); err != nil {
		b.Fatal(err)
	}
	view := func(b *testing.B, fn func(tx *engine.Txn) (int, error)) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := e.View(func(tx *engine.Txn) error {
				n, err := fn(tx)
				if err == nil && n != 1 {
					err = fmt.Errorf("%d matches, want 1", n)
				}
				return err
			}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("TreeWalkXPath", func(b *testing.B) {
		view(b, func(tx *engine.Txn) (int, error) {
			nodes, err := s.XPath(tx, "catalog", `/catalog/product[@no='p777']/name`)
			return len(nodes), err
		})
	})
	b.Run("PathRangeIndex", func(b *testing.B) {
		view(b, func(tx *engine.Txn) (int, error) {
			labels, err := s.PathLookup(tx, "catalog", "/catalog/product/@no", mmvalue.String("p777"))
			return len(labels), err
		})
	})
}
