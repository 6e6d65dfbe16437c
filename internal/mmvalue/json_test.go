package mmvalue

import (
	"encoding/json"
	"reflect"
	"testing"
)

func TestParseJSONScalars(t *testing.T) {
	cases := []struct {
		in   string
		kind Kind
	}{
		{`null`, KindNull},
		{`true`, KindBool},
		{`false`, KindBool},
		{`42`, KindInt},
		{`-7`, KindInt},
		{`2.5`, KindFloat},
		{`1e3`, KindFloat},
		{`"hello"`, KindString},
	}
	for _, c := range cases {
		v, err := ParseJSON([]byte(c.in))
		if err != nil {
			t.Fatalf("ParseJSON(%s): %v", c.in, err)
		}
		if v.Kind() != c.kind {
			t.Errorf("ParseJSON(%s).Kind() = %v, want %v", c.in, v.Kind(), c.kind)
		}
	}
}

func TestParseJSONIntegerIdentity(t *testing.T) {
	v := MustParseJSON(`9007199254740993`) // 2^53+1, not representable in float64
	if v.Kind() != KindInt || v.AsInt() != 9007199254740993 {
		t.Fatalf("large int lost identity: %v", v)
	}
}

func TestParseJSONNested(t *testing.T) {
	v := MustParseJSON(`{"Order_no":"0c6df508","Orderlines":[
		{"Product_no":"2724f","Product_Name":"Toy","Price":66},
		{"Product_no":"3424g","Product_Name":"Book","Price":40}]}`)
	lines := v.GetOr("Orderlines")
	if lines.Len() != 2 {
		t.Fatalf("Orderlines length = %d", lines.Len())
	}
	first, _ := lines.Index(0)
	if first.GetOr("Price").AsInt() != 66 {
		t.Fatalf("Price = %v", first.GetOr("Price"))
	}
}

func TestParseJSONErrors(t *testing.T) {
	for _, bad := range []string{``, `{`, `[1,`, `{"a":}`, `1 2`, `{"a":1} extra`} {
		if _, err := ParseJSON([]byte(bad)); err == nil {
			t.Errorf("ParseJSON(%q) should fail", bad)
		}
	}
}

func TestJSONRoundTripThroughEncodingJSON(t *testing.T) {
	orig := MustParseJSON(`{"a":[1,2.5,"x",null,true],"b":{"c":{}}}`)
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	var back Value
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !Equal(orig, back) {
		t.Fatalf("round trip mismatch: %v vs %v", orig, back)
	}
}

func TestFromGoAndToGo(t *testing.T) {
	in := map[string]any{
		"n":   nil,
		"b":   true,
		"i":   42,
		"f":   2.5,
		"s":   "str",
		"arr": []any{1, "two"},
		"obj": map[string]any{"k": int64(7)},
	}
	v := MustFromGo(in)
	if v.GetOr("i").AsInt() != 42 {
		t.Fatalf("i = %v", v.GetOr("i"))
	}
	out := v.ToGo().(map[string]any)
	if out["s"] != "str" || out["b"] != true {
		t.Fatalf("ToGo = %v", out)
	}
	if out["i"] != int64(42) {
		t.Fatalf("ToGo int = %T %v", out["i"], out["i"])
	}
	inner := out["obj"].(map[string]any)
	if inner["k"] != int64(7) {
		t.Fatalf("nested ToGo = %v", inner)
	}
}

func TestFromGoUnsupported(t *testing.T) {
	type weird struct{ X int }
	if _, err := FromGo(weird{1}); err == nil {
		t.Fatal("FromGo on struct should fail")
	}
}

func TestKeys(t *testing.T) {
	v := MustParseJSON(`{"z":1,"a":2,"m":3}`)
	if got := v.Keys(); !reflect.DeepEqual(got, []string{"a", "m", "z"}) {
		t.Fatalf("Keys = %v", got)
	}
	if Int(1).Keys() != nil {
		t.Fatal("Keys on scalar should be nil")
	}
}

// TestStringEscapesAreJSON pins the four escapes strconv.Quote writes that
// JSON does not accept, and one escape of each form that it does.
func TestStringEscapesAreJSON(t *testing.T) {
	cases := []struct{ in, want string }{
		{"a\ab", `"a\u0007b"`},
		{"\v", `"\u000b"`},
		{"\x01\x1f", `"\u0001\u001f"`},
		{"\x7f", `"\u007f"`},
		{"a\xffb", `"a\ufffdb"`},
		{"\U000E0001", `"\udb40\udc01"`},
		// Unchanged from strconv.Quote:
		{"\b\f\n\r\t", `"\b\f\n\r\t"`},
		{`"\`, `"\"\\"`},
		{"\u0085\ufeff", `"\u0085\ufeff"`},
		{"h\u00e9llo \U0001F600 \ufffd", "\"h\u00e9llo \U0001F600 \ufffd\""},
	}
	for _, tc := range cases {
		got := String(tc.in).String()
		if got != tc.want {
			t.Errorf("String(%q).String() = %s, want %s", tc.in, got, tc.want)
		}
		if !json.Valid([]byte(got)) {
			t.Errorf("String(%q).String() = %s is not valid JSON", tc.in, got)
		}
		if obj := Object(F(tc.in, Null)).String(); obj != "{"+tc.want+":null}" {
			t.Errorf("field name %q renders as %s", tc.in, obj)
		}
	}
}
