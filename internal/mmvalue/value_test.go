package mmvalue

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull: "null", KindBool: "bool", KindInt: "int", KindFloat: "float",
		KindString: "string", KindBytes: "bytes", KindArray: "array", KindObject: "object",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestZeroValueIsNull(t *testing.T) {
	var v Value
	if !v.IsNull() || v.Kind() != KindNull {
		t.Fatalf("zero Value should be null, got %v", v.Kind())
	}
}

func TestConstructorsAndAccessors(t *testing.T) {
	if !Bool(true).AsBool() || Bool(false).AsBool() {
		t.Error("Bool roundtrip failed")
	}
	if Int(42).AsInt() != 42 {
		t.Error("Int roundtrip failed")
	}
	if Float(2.5).AsFloat() != 2.5 {
		t.Error("Float roundtrip failed")
	}
	if String("hi").AsString() != "hi" {
		t.Error("String roundtrip failed")
	}
	if string(Bytes([]byte{1, 2}).AsBytes()) != "\x01\x02" {
		t.Error("Bytes roundtrip failed")
	}
	if Float(7).AsInt() != 7 {
		t.Error("Float.AsInt conversion failed")
	}
	if Int(7).AsFloat() != 7.0 {
		t.Error("Int.AsFloat conversion failed")
	}
}

func TestObjectFieldsSortedAndDeduped(t *testing.T) {
	v := Object(F("b", Int(2)), F("a", Int(1)), F("b", Int(3)))
	keys := v.Keys()
	if !reflect.DeepEqual(keys, []string{"a", "b"}) {
		t.Fatalf("keys = %v", keys)
	}
	if got := v.GetOr("b"); got.AsInt() != 3 {
		t.Fatalf("duplicate field should keep last value, got %v", got)
	}
}

// TestObjectOfSortedInputAllocatesNothing guards the fast path every
// decoded record takes: names that already strictly increase are wrapped
// as-is, without a sort.
func TestObjectOfSortedInputAllocatesNothing(t *testing.T) {
	fields := []Field{F("a", Int(1)), F("b", Int(2)), F("c", Int(3))}
	if n := testing.AllocsPerRun(100, func() { ObjectOf(fields) }); n != 0 {
		t.Fatalf("ObjectOf on sorted input allocates %.0f times", n)
	}
	if v := ObjectOf(fields); &v.Fields()[0] != &fields[0] || v.Len() != 3 {
		t.Fatal("ObjectOf on sorted input must keep the slice")
	}
}

func TestGetSetDelete(t *testing.T) {
	v := Object(F("a", Int(1)), F("c", Int(3)))
	v2 := v.Set("b", Int(2))
	if got := v2.GetOr("b"); got.AsInt() != 2 {
		t.Fatalf("Set new field: got %v", got)
	}
	if _, ok := v.Get("b"); ok {
		t.Fatal("Set must not mutate the receiver")
	}
	v3 := v2.Set("a", Int(10))
	if got := v3.GetOr("a"); got.AsInt() != 10 {
		t.Fatalf("Set existing field: got %v", got)
	}
	v4 := v3.Delete("c")
	if _, ok := v4.Get("c"); ok {
		t.Fatal("Delete failed")
	}
	if _, ok := v3.Get("c"); !ok {
		t.Fatal("Delete must not mutate the receiver")
	}
	// Set keeps the object sorted.
	v5 := Object().Set("z", Int(1)).Set("a", Int(2)).Set("m", Int(3))
	if !sort.StringsAreSorted(v5.Keys()) {
		t.Fatalf("keys not sorted after Set: %v", v5.Keys())
	}
}

func TestSetOnNonObject(t *testing.T) {
	v := Int(1).Set("a", Int(2))
	if v.Kind() != KindObject || v.GetOr("a").AsInt() != 2 {
		t.Fatalf("Set on non-object should build object, got %v", v)
	}
}

func TestIndexNegative(t *testing.T) {
	v := Array(Int(1), Int(2), Int(3))
	if got, ok := v.Index(-1); !ok || got.AsInt() != 3 {
		t.Fatalf("Index(-1) = %v, %v", got, ok)
	}
	if _, ok := v.Index(3); ok {
		t.Fatal("Index out of range should report false")
	}
	if _, ok := v.Index(-4); ok {
		t.Fatal("negative out of range should report false")
	}
}

func TestMerge(t *testing.T) {
	a := Object(F("x", Int(1)), F("y", Int(2)))
	b := Object(F("y", Int(20)), F("z", Int(30)))
	m := a.Merge(b)
	want := Object(F("x", Int(1)), F("y", Int(20)), F("z", Int(30)))
	if !Equal(m, want) {
		t.Fatalf("Merge = %v, want %v", m, want)
	}
}

func TestTruthy(t *testing.T) {
	cases := []struct {
		v    Value
		want bool
	}{
		{Null, false}, {False, false}, {True, true},
		{Int(0), false}, {Int(5), true},
		{Float(0), false}, {Float(0.1), true},
		{String(""), false}, {String("x"), true},
		{Array(), false}, {Array(Int(1)), true},
		{Object(), false}, {Object(F("a", Null)), true},
		{Bytes(nil), false}, {Bytes([]byte{0}), true},
	}
	for _, c := range cases {
		if got := c.v.Truthy(); got != c.want {
			t.Errorf("Truthy(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestCompareTotalOrder(t *testing.T) {
	// The AQL ordering: null < false < true < numbers < strings < bytes <
	// arrays < objects.
	ordered := []Value{
		Null, False, True,
		Float(math.Inf(-1)), Int(-5), Float(-1.5), Int(0), Float(2.5), Int(3), Float(math.Inf(1)),
		String(""), String("a"), String("ab"), String("b"),
		Bytes(nil), Bytes([]byte{1}), Bytes([]byte{1, 0}), Bytes([]byte{2}),
		Array(), Array(Int(1)), Array(Int(1), Int(2)), Array(Int(2)),
		Object(), Object(F("a", Int(1))), Object(F("a", Int(2))), Object(F("b", Int(0))),
	}
	for i := range ordered {
		for j := range ordered {
			got := Compare(ordered[i], ordered[j])
			switch {
			case i < j && got >= 0:
				t.Errorf("Compare(%v, %v) = %d, want < 0", ordered[i], ordered[j], got)
			case i > j && got <= 0:
				t.Errorf("Compare(%v, %v) = %d, want > 0", ordered[i], ordered[j], got)
			case i == j && got != 0:
				t.Errorf("Compare(%v, %v) = %d, want 0", ordered[i], ordered[j], got)
			}
		}
	}
}

func TestCompareIntFloatMixed(t *testing.T) {
	if Compare(Int(3), Float(3.0)) != 0 {
		t.Error("Int(3) should equal Float(3.0)")
	}
	if Compare(Int(3), Float(3.5)) >= 0 {
		t.Error("Int(3) should be < Float(3.5)")
	}
	if Compare(Float(3.5), Int(4)) >= 0 {
		t.Error("Float(3.5) should be < Int(4)")
	}
}

func TestContains(t *testing.T) {
	doc := MustParseJSON(`{"Order_no":"0c6df508","Orderlines":[
		{"Product_no":"2724f","Price":66},{"Product_no":"3424g","Price":40}]}`)
	cases := []struct {
		pattern string
		want    bool
	}{
		{`{"Order_no":"0c6df508"}`, true},
		{`{"Order_no":"other"}`, false},
		{`{"Orderlines":[{"Product_no":"3424g"}]}`, true},
		{`{"Orderlines":[{"Product_no":"zzz"}]}`, false},
		{`{"Orderlines":[{"Price":40},{"Price":66}]}`, true},
		{`{}`, true},
		{`{"Missing":null}`, false},
	}
	for _, c := range cases {
		p := MustParseJSON(c.pattern)
		if got := Contains(doc, p); got != c.want {
			t.Errorf("Contains(doc, %s) = %v, want %v", c.pattern, got, c.want)
		}
	}
	// Top-level array containment of a scalar.
	arr := MustParseJSON(`[1,2,3]`)
	if !Contains(arr, Int(2)) {
		t.Error("array should contain scalar element")
	}
	if Contains(arr, Int(9)) {
		t.Error("array should not contain missing scalar")
	}
	// Numeric equivalence across int/float inside containment.
	if !Contains(MustParseJSON(`{"a":1}`), Object(F("a", Float(1.0)))) {
		t.Error("containment should treat 1 and 1.0 as equal")
	}
}

func TestHasKey(t *testing.T) {
	obj := MustParseJSON(`{"a":1,"b":null}`)
	if !HasKey(obj, "a") || !HasKey(obj, "b") || HasKey(obj, "c") {
		t.Error("HasKey on object wrong")
	}
	arr := MustParseJSON(`["x","y"]`)
	if !HasKey(arr, "x") || HasKey(arr, "z") {
		t.Error("HasKey on array wrong")
	}
	if HasKey(Int(1), "a") {
		t.Error("HasKey on scalar should be false")
	}
}

func TestStringJSONOutput(t *testing.T) {
	v := Object(F("b", Array(Int(1), Float(2.5), Null)), F("a", String("x\"y")))
	want := `{"a":"x\"y","b":[1,2.5,null]}`
	if got := v.String(); got != want {
		t.Fatalf("String() = %s, want %s", got, want)
	}
	if Float(math.NaN()).String() != "null" {
		t.Error("NaN should render as null")
	}
}

func TestHashConsistentWithEqual(t *testing.T) {
	pairs := [][2]Value{
		{Int(3), Float(3.0)},
		{MustParseJSON(`{"a":1,"b":[2,3]}`), Object(F("b", Array(Int(2), Int(3))), F("a", Int(1)))},
		{String("abc"), String("abc")},
	}
	for _, p := range pairs {
		if !Equal(p[0], p[1]) {
			t.Fatalf("%v and %v should be equal", p[0], p[1])
		}
		if p[0].Hash() != p[1].Hash() {
			t.Errorf("equal values %v and %v hash differently", p[0], p[1])
		}
	}
	if String("a").Hash() == String("b").Hash() {
		t.Error("suspicious hash collision on trivial inputs")
	}
}

func TestClone(t *testing.T) {
	orig := MustParseJSON(`{"a":[1,2],"b":{"c":3}}`)
	cl := orig.Clone()
	if !Equal(orig, cl) {
		t.Fatal("clone not equal")
	}
	// Mutate the clone's internals through the slice and check isolation.
	cl.GetOr("a").AsArray()[0] = Int(99)
	if orig.GetOr("a").AsArray()[0].AsInt() == 99 {
		t.Fatal("Clone shares array memory")
	}
}

// genValue builds a random Value of bounded depth for property tests.
func genValue(r *rand.Rand, depth int) Value {
	k := r.Intn(8)
	if depth <= 0 && k >= 6 {
		k = r.Intn(6)
	}
	switch k {
	case 0:
		return Null
	case 1:
		return Bool(r.Intn(2) == 0)
	case 2:
		return Int(r.Int63n(1<<40) - (1 << 39))
	case 3:
		return Float(r.NormFloat64() * 1000)
	case 4:
		return String(randString(r))
	case 5:
		b := make([]byte, r.Intn(8))
		r.Read(b)
		return Bytes(b)
	case 6:
		n := r.Intn(4)
		arr := make([]Value, n)
		for i := range arr {
			arr[i] = genValue(r, depth-1)
		}
		return ArrayOf(arr)
	default:
		n := r.Intn(4)
		fields := make([]Field, 0, n)
		for i := 0; i < n; i++ {
			fields = append(fields, F(randString(r), genValue(r, depth-1)))
		}
		return ObjectOf(fields)
	}
}

func randString(r *rand.Rand) string {
	n := r.Intn(8)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + r.Intn(26))
	}
	return string(b)
}

func TestPropertyCompareReflexiveAntisymmetric(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := genValue(r, 3), genValue(r, 3)
		if Compare(a, a) != 0 || Compare(b, b) != 0 {
			return false
		}
		return sign(Compare(a, b)) == -sign(Compare(b, a))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyCompareTransitive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		vs := []Value{genValue(r, 3), genValue(r, 3), genValue(r, 3)}
		SortValues(vs)
		return Compare(vs[0], vs[1]) <= 0 && Compare(vs[1], vs[2]) <= 0 && Compare(vs[0], vs[2]) <= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyEqualImpliesEqualHash(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v := genValue(r, 3)
		return v.Hash() == v.Clone().Hash()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyContainsReflexiveOnObjects(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v := genValue(r, 3)
		if v.Kind() != KindObject && v.Kind() != KindArray {
			v = Object(F("k", v))
		}
		return Contains(v, v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	default:
		return 0
	}
}
