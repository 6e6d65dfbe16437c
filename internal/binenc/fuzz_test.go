package binenc

import (
	"bytes"
	"testing"

	"repro/internal/mmvalue"
)

// FuzzDecode is the guard on Decode's two-pass contract: pass 2 builds
// without bounds checks of its own, trusting what pass 1 validated and
// counted. Any input must decode or fail without a panic, and whatever
// decodes must survive an Encode/Decode round trip unchanged and re-encode
// to the same bytes.
func FuzzDecode(f *testing.F) {
	for _, doc := range []string{
		// An order document with its order lines.
		`{"_key":"o1","Order_no":"o1","customer_id":7,"total":106,"rev":0,"Orderlines":[
			{"Product_no":"2724f","Price":66,"Qty":1},{"Product_no":"3424g","Price":40,"Qty":1}]}`,
		// A profile document.
		`{"_key":"p1","k":"p1","name":"User 1","pad":"xxxxxxxx","tags":["t1","t1"],"v":0}`,
		// A session value.
		`{"k":"s1","pad":"xxxxxxxx","v":3}`,
		// Column-item attributes.
		`{"v":-12,"pos":1.5,"flag":true,"none":null}`,
		`[[],{},"",[{"a":[]}]]`,
	} {
		f.Add(Encode(mmvalue.MustParseJSON(doc)))
	}
	f.Add(Encode(mmvalue.Bytes([]byte{0, 1, 2})))
	// Declared counts far beyond the input: an object and an array of 2^38.
	f.Add([]byte{tObject, 0x80, 0x80, 0x80, 0x80, 0x80, 0x08})
	f.Add([]byte{tArray, 0x80, 0x80, 0x80, 0x80, 0x80, 0x08})
	// Unsorted and duplicated names.
	f.Add([]byte{tObject, 3, 1, 'b', tNull, 1, 'a', tTrue, 1, 'b', tFalse})
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := Decode(data)
		if err != nil {
			return
		}
		enc := Encode(v)
		back, err := Decode(enc)
		if err != nil {
			t.Fatalf("Decode(Encode(%v)) failed: %v", v, err)
		}
		if !mmvalue.Equal(back, v) {
			t.Fatalf("round trip %v -> %v", v, back)
		}
		if again := Encode(back); !bytes.Equal(again, enc) {
			t.Fatalf("re-encoding changed the bytes: %x -> %x", enc, again)
		}
	})
}
