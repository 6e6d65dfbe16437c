package mmvalue_test

import (
	"encoding/json"
	"strconv"
	"testing"

	"repro/internal/binenc"
	"repro/internal/mmvalue"
)

// FuzzValueJSON checks that String() always renders valid JSON. Input that
// ParseJSON accepts must render to text that parses back Equal; any Go
// string, invalid UTF-8 included, must render as a JSON string that
// decodes to the input with each invalid byte replaced by U+FFFD, and
// byte-identically to strconv.Quote whenever strconv.Quote's output is
// itself valid JSON (stored RDF terms depend on that).
func FuzzValueJSON(f *testing.F) {
	for _, s := range []string{
		`"\u0007"`, `"\u007f"`, `"\ud83d\ude00"`, "\U000E0001", "\a\v\x7f\xff",
		`{"a":[1,2.5,-0,1e300,true,null],"b":{"":"\\\""}}`,
	} {
		f.Add(s)
	}
	// Stored records, as binenc decodes them.
	for _, doc := range []string{
		`{"_key":"o1","Order_no":"o1","customer_id":7,"total":106,"rev":0,"Orderlines":[
			{"Product_no":"2724f","Price":66,"Qty":1},{"Product_no":"3424g","Price":40,"Qty":1}]}`,
		`{"_key":"p1","k":"p1","name":"User 1","pad":"xxxxxxxx","tags":["t1","t1"],"v":0}`,
		`{"v":-12,"pos":1.5,"flag":true,"none":null}`,
		`[[],{},"",[{"a":[]}]]`,
	} {
		v, err := binenc.Decode(binenc.Encode(mmvalue.MustParseJSON(doc)))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(v.String())
	}
	f.Fuzz(func(t *testing.T, in string) {
		if v, err := mmvalue.ParseJSON([]byte(in)); err == nil {
			out := v.String()
			if !json.Valid([]byte(out)) {
				t.Fatalf("ParseJSON(%q).String() = %q is not valid JSON", in, out)
			}
			back, err := mmvalue.ParseJSON([]byte(out))
			if err != nil || !mmvalue.Equal(back, v) {
				t.Fatalf("%q -> %q -> %v, %v", in, out, back, err)
			}
		}
		out := mmvalue.String(in).String()
		var got string
		if err := json.Unmarshal([]byte(out), &got); err != nil {
			t.Fatalf("String(%q).String() = %q is not a JSON string: %v", in, out, err)
		}
		if want := string([]rune(in)); got != want {
			t.Fatalf("String(%q).String() = %q decodes to %q, want %q", in, out, got, want)
		}
		if q := strconv.Quote(in); json.Valid([]byte(q)) && out != q {
			t.Fatalf("String(%q).String() = %q, strconv.Quote gives valid JSON %q", in, out, q)
		}
	})
}
