package mmvalue

import (
	"reflect"
	"testing"
)

// TestValueLayout pins the size of a Value and a Field: every operator,
// store and decoder arena copies them by value, so a field added to Value
// multiplies every one of those costs.
func TestValueLayout(t *testing.T) {
	if got := reflect.TypeOf(Value{}).Size(); got != 24 {
		t.Errorf("Value is %d bytes, want 24", got)
	}
	if got := reflect.TypeOf(Field{}).Size(); got != 40 {
		t.Errorf("Field is %d bytes, want 40", got)
	}
}

// TestAccessorContract reads every kind through every accessor: a read of
// the wrong kind returns the zero of the accessor's type (nil for slices),
// and a read of the right kind returns the payload.
func TestAccessorContract(t *testing.T) {
	type reads struct {
		b   bool
		i   int64
		f   float64
		s   string
		by  []byte
		arr []Value
		obj []Field
		n   int
	}
	by := []byte{1, 2}
	arr := []Value{Int(1), String("x")}
	obj := []Field{F("a", Int(1))}
	cases := []struct {
		name string
		v    Value
		want reads
	}{
		{"null", Null, reads{}},
		{"true", True, reads{b: true}},
		{"false", False, reads{}},
		{"int", Int(-7), reads{i: -7, f: -7}},
		{"int 1", Int(1), reads{i: 1, f: 1}},
		{"float", Float(2.5), reads{i: 2, f: 2.5}},
		{"string", String("hi"), reads{s: "hi", n: 2}},
		{"empty string", String(""), reads{}},
		{"bytes", Bytes(by), reads{by: by, n: 2}},
		{"array", ArrayOf(arr), reads{arr: arr, n: 2}},
		{"object", ObjectOf(obj), reads{obj: obj, n: 1}},
	}
	for _, tc := range cases {
		v, w := tc.v, tc.want
		if v.AsBool() != w.b {
			t.Errorf("%s: AsBool() = %v, want %v", tc.name, v.AsBool(), w.b)
		}
		if v.AsInt() != w.i {
			t.Errorf("%s: AsInt() = %d, want %d", tc.name, v.AsInt(), w.i)
		}
		if v.AsFloat() != w.f {
			t.Errorf("%s: AsFloat() = %v, want %v", tc.name, v.AsFloat(), w.f)
		}
		if v.AsString() != w.s {
			t.Errorf("%s: AsString() = %q, want %q", tc.name, v.AsString(), w.s)
		}
		if got := v.AsBytes(); (got == nil) != (w.by == nil) || string(got) != string(w.by) {
			t.Errorf("%s: AsBytes() = %v, want %v", tc.name, got, w.by)
		}
		if got := v.AsArray(); (got == nil) != (w.arr == nil) || len(got) != len(w.arr) ||
			len(got) > 0 && &got[0] != &w.arr[0] {
			t.Errorf("%s: AsArray() = %v, want the constructor's slice %v", tc.name, got, w.arr)
		}
		if got := v.Fields(); (got == nil) != (w.obj == nil) || len(got) != len(w.obj) ||
			len(got) > 0 && &got[0] != &w.obj[0] {
			t.Errorf("%s: Fields() = %v, want the constructor's slice %v", tc.name, got, w.obj)
		}
		if v.Len() != w.n {
			t.Errorf("%s: Len() = %d, want %d", tc.name, v.Len(), w.n)
		}
	}
}

// TestNilAndEmptyStayDistinct checks that a nil payload reads back nil and
// an empty one reads back empty but non-nil, for bytes, arrays and objects.
func TestNilAndEmptyStayDistinct(t *testing.T) {
	if Bytes(nil).AsBytes() != nil || Bytes([]byte{}).AsBytes() == nil {
		t.Error("Bytes: nil and empty payloads are not distinct")
	}
	if ArrayOf(nil).AsArray() != nil || ArrayOf([]Value{}).AsArray() == nil {
		t.Error("ArrayOf: nil and empty payloads are not distinct")
	}
	if ObjectOf(nil).Fields() != nil || ObjectOf([]Field{}).Fields() == nil {
		t.Error("ObjectOf: nil and empty payloads are not distinct")
	}
	if Bytes(nil).Clone().AsBytes() != nil || Bytes([]byte{}).Clone().AsBytes() == nil ||
		ArrayOf(nil).Clone().AsArray() != nil || ArrayOf([]Value{}).Clone().AsArray() == nil ||
		ObjectOf(nil).Clone().Fields() != nil || ObjectOf([]Field{}).Clone().Fields() == nil {
		t.Error("Clone does not keep nil and empty payloads distinct")
	}
}

// TestSlicesComeBackCapped checks that the slice accessors return cap ==
// len, so an append to a returned slice reallocates instead of writing
// into whatever follows the payload in its backing array.
func TestSlicesComeBackCapped(t *testing.T) {
	by := make([]byte, 2, 8)
	arr := make([]Value, 2, 8)
	obj := append(make([]Field, 0, 8), F("a", Null), F("b", Null))
	if got := Bytes(by).AsBytes(); cap(got) != len(got) {
		t.Errorf("AsBytes: cap %d, len %d", cap(got), len(got))
	}
	if got := ArrayOf(arr).AsArray(); cap(got) != len(got) {
		t.Errorf("AsArray: cap %d, len %d", cap(got), len(got))
	}
	if got := ObjectOf(obj).Fields(); cap(got) != len(got) {
		t.Errorf("Fields: cap %d, len %d", cap(got), len(got))
	}
	v := ArrayOf(arr)
	_ = append(v.AsArray(), Int(9))
	if arr[:3][2].Kind() != KindNull {
		t.Error("append to AsArray() wrote into the caller's spare capacity")
	}
}

// TestDeepEqualSeesEqualValues checks that reflect.DeepEqual, which follows
// the first byte, element or field of a payload, reports two separately
// built Equal Values equal, nested, empty and nil payloads included.
func TestDeepEqualSeesEqualValues(t *testing.T) {
	build := func() Value {
		return Object(
			F("s", String(string([]byte("c12")))),
			F("e", String("")),
			F("b", Bytes([]byte{7})),
			F("nb", Bytes(nil)),
			F("eb", Bytes([]byte{})),
			F("a", MustParseJSON(`[{"Product_no":"p7"},1.5,true,null]`)),
			F("na", ArrayOf(nil)),
			F("ea", ArrayOf([]Value{})),
			F("eo", ObjectOf([]Field{})),
		)
	}
	a, b := build(), build()
	if !Equal(a, b) || !reflect.DeepEqual(a, b) {
		t.Fatalf("two builds of %s: Equal %v, DeepEqual %v", a, Equal(a, b), reflect.DeepEqual(a, b))
	}
	if reflect.DeepEqual(Int(1), Int(2)) || reflect.DeepEqual(String("a"), String("b")) ||
		reflect.DeepEqual(ArrayOf(nil), ArrayOf([]Value{})) {
		t.Error("DeepEqual reports unequal scalars, strings, or a nil and an empty array equal")
	}
}
