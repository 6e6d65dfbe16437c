// Package mmvalue defines the unified typed value system shared by every
// data model in unidb. A Value can hold a null, boolean, integer, float,
// string, byte slice, array, or object, mirroring the union of JSON and the
// scalar types of the relational layer. All model layers (document,
// relational, key/value, graph, XML, RDF) exchange data as Values, which is
// what makes cross-model queries possible without per-model conversion code.
package mmvalue

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Kind enumerates the runtime type of a Value.
type Kind uint8

// The Kind values are ordered: when two Values of different kinds are
// compared, the one with the smaller Kind sorts first. This matches the
// ArangoDB/AQL total order (null < bool < number < string < array < object)
// with bytes slotted between string and array.
const (
	KindNull Kind = iota
	KindBool
	KindInt
	KindFloat
	KindString
	KindBytes
	KindArray
	KindObject
)

func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindBool:
		return "bool"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindBytes:
		return "bytes"
	case KindArray:
		return "array"
	case KindObject:
		return "object"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// typeRank collapses KindInt and KindFloat into one rank so numbers compare
// with each other by value rather than by representation.
func typeRank(k Kind) int {
	switch k {
	case KindNull:
		return 0
	case KindBool:
		return 1
	case KindInt, KindFloat:
		return 2
	case KindString:
		return 3
	case KindBytes:
		return 4
	case KindArray:
		return 5
	case KindObject:
		return 6
	default:
		return 7
	}
}

// Value is an immutable-by-convention tagged union. The zero Value is null.
// Callers must not mutate the Arr or Obj fields of a Value after handing it
// to a store; stores defensively copy only at persistence boundaries.
type Value struct {
	kind Kind
	b    bool
	i    int64
	f    float64
	s    string
	by   []byte
	arr  []Value
	obj  []Field
}

// Field is one key/value entry of an object. Object fields are kept sorted
// by Name so that equality, hashing, and binary encoding are canonical.
type Field struct {
	Name  string
	Value Value
}

// Null is the null Value.
var Null = Value{kind: KindNull}

// True and False are the boolean Values.
var (
	True  = Value{kind: KindBool, b: true}
	False = Value{kind: KindBool, b: false}
)

// Bool returns a boolean Value.
func Bool(b bool) Value {
	if b {
		return True
	}
	return False
}

// Int returns an integer Value.
func Int(i int64) Value { return Value{kind: KindInt, i: i} }

// Float returns a floating-point Value.
func Float(f float64) Value { return Value{kind: KindFloat, f: f} }

// String returns a string Value.
func String(s string) Value { return Value{kind: KindString, s: s} }

// Bytes returns a byte-slice Value. The slice is not copied.
func Bytes(b []byte) Value { return Value{kind: KindBytes, by: b} }

// Array returns an array Value. The slice is not copied.
func Array(vs ...Value) Value { return Value{kind: KindArray, arr: vs} }

// ArrayOf wraps an existing slice without copying.
func ArrayOf(vs []Value) Value { return Value{kind: KindArray, arr: vs} }

// Object builds an object Value from fields, sorting them by name and
// keeping the last value for any duplicated name.
func Object(fields ...Field) Value {
	return ObjectOf(fields)
}

// ObjectOf builds an object Value from a field slice. Input whose names
// already strictly increase (every binenc record) is wrapped as-is; other
// input is sorted stably in place and duplicate names keep the last
// occurrence.
func ObjectOf(fields []Field) Value {
	if namesIncrease(fields) {
		return Value{kind: KindObject, obj: fields}
	}
	slices.SortStableFunc(fields, func(a, b Field) int { return strings.Compare(a.Name, b.Name) })
	// Deduplicate, keeping the last value for each name.
	out := fields[:0]
	for i := 0; i < len(fields); i++ {
		if i+1 < len(fields) && fields[i+1].Name == fields[i].Name {
			continue
		}
		out = append(out, fields[i])
	}
	return Value{kind: KindObject, obj: out}
}

func namesIncrease(fields []Field) bool {
	for i := 1; i < len(fields); i++ {
		if fields[i-1].Name >= fields[i].Name {
			return false
		}
	}
	return true
}

// F is shorthand for constructing a Field.
func F(name string, v Value) Field { return Field{Name: name, Value: v} }

// Kind reports the runtime type of v.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is null.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsBool returns the boolean payload; it is only meaningful for KindBool.
func (v Value) AsBool() bool { return v.b }

// AsInt returns the integer payload, converting from float if needed.
func (v Value) AsInt() int64 {
	if v.kind == KindFloat {
		return int64(v.f)
	}
	return v.i
}

// AsFloat returns the numeric payload as float64, converting from int.
func (v Value) AsFloat() float64 {
	if v.kind == KindInt {
		return float64(v.i)
	}
	return v.f
}

// AsString returns the string payload; only meaningful for KindString.
func (v Value) AsString() string { return v.s }

// AsBytes returns the bytes payload; only meaningful for KindBytes.
func (v Value) AsBytes() []byte { return v.by }

// AsArray returns the element slice; only meaningful for KindArray.
func (v Value) AsArray() []Value { return v.arr }

// Fields returns the sorted field slice; only meaningful for KindObject.
func (v Value) Fields() []Field { return v.obj }

// IsNumber reports whether v is an int or float.
func (v Value) IsNumber() bool { return v.kind == KindInt || v.kind == KindFloat }

// Len returns the number of elements (array), fields (object), bytes
// (bytes), or UTF-8 bytes (string); 0 for scalars.
func (v Value) Len() int {
	switch v.kind {
	case KindArray:
		return len(v.arr)
	case KindObject:
		return len(v.obj)
	case KindString:
		return len(v.s)
	case KindBytes:
		return len(v.by)
	default:
		return 0
	}
}

// Get returns the value of the named field of an object, or (Null, false)
// when v is not an object or has no such field.
func (v Value) Get(name string) (Value, bool) {
	if v.kind != KindObject {
		return Null, false
	}
	i := sort.Search(len(v.obj), func(i int) bool { return v.obj[i].Name >= name })
	if i < len(v.obj) && v.obj[i].Name == name {
		return v.obj[i].Value, true
	}
	return Null, false
}

// GetOr returns the named field or Null.
func (v Value) GetOr(name string) Value {
	r, _ := v.Get(name)
	return r
}

// Index returns element i of an array. Negative indexes count from the end
// (AQL semantics). Out-of-range access returns (Null, false).
func (v Value) Index(i int) (Value, bool) {
	if v.kind != KindArray {
		return Null, false
	}
	if i < 0 {
		i += len(v.arr)
	}
	if i < 0 || i >= len(v.arr) {
		return Null, false
	}
	return v.arr[i], true
}

// Set returns a copy of the object v with field name set to val. If v is not
// an object, a fresh single-field object is returned.
func (v Value) Set(name string, val Value) Value {
	if v.kind != KindObject {
		return Object(F(name, val))
	}
	out := make([]Field, 0, len(v.obj)+1)
	inserted := false
	for _, f := range v.obj {
		switch {
		case f.Name == name:
			out = append(out, F(name, val))
			inserted = true
		case f.Name > name && !inserted:
			out = append(out, F(name, val), f)
			inserted = true
		default:
			out = append(out, f)
		}
	}
	if !inserted {
		out = append(out, F(name, val))
	}
	return Value{kind: KindObject, obj: out}
}

// Delete returns a copy of the object v without the named field.
func (v Value) Delete(name string) Value {
	if v.kind != KindObject {
		return v
	}
	out := make([]Field, 0, len(v.obj))
	for _, f := range v.obj {
		if f.Name != name {
			out = append(out, f)
		}
	}
	return Value{kind: KindObject, obj: out}
}

// Merge returns v with all fields of other set on top (shallow merge,
// PostgreSQL jsonb || semantics).
func (v Value) Merge(other Value) Value {
	if v.kind != KindObject || other.kind != KindObject {
		return other
	}
	out := v
	for _, f := range other.obj {
		out = out.Set(f.Name, f.Value)
	}
	return out
}

// Truthy reports the boolean interpretation used by query FILTERs:
// null→false, bool→itself, numbers→non-zero, string/bytes/array/object→
// non-empty.
func (v Value) Truthy() bool {
	switch v.kind {
	case KindNull:
		return false
	case KindBool:
		return v.b
	case KindInt:
		return v.i != 0
	case KindFloat:
		return v.f != 0
	case KindString:
		return v.s != ""
	case KindBytes:
		return len(v.by) > 0
	case KindArray:
		return len(v.arr) > 0
	case KindObject:
		return len(v.obj) > 0
	}
	return false
}

// Compare defines a total order over all Values: by type rank first
// (null < bool < number < string < bytes < array < object), then by value.
// Int and float compare numerically with each other. Arrays compare
// lexicographically; objects compare by their sorted field lists.
func Compare(a, b Value) int {
	ra, rb := typeRank(a.kind), typeRank(b.kind)
	if ra != rb {
		if ra < rb {
			return -1
		}
		return 1
	}
	switch a.kind {
	case KindNull:
		return 0
	case KindBool:
		switch {
		case a.b == b.b:
			return 0
		case !a.b:
			return -1
		default:
			return 1
		}
	case KindInt, KindFloat:
		return compareNumeric(a, b)
	case KindString:
		return strings.Compare(a.s, b.s)
	case KindBytes:
		return compareBytes(a.by, b.by)
	case KindArray:
		for i := 0; i < len(a.arr) && i < len(b.arr); i++ {
			if c := Compare(a.arr[i], b.arr[i]); c != 0 {
				return c
			}
		}
		return len(a.arr) - len(b.arr)
	case KindObject:
		for i := 0; i < len(a.obj) && i < len(b.obj); i++ {
			if c := strings.Compare(a.obj[i].Name, b.obj[i].Name); c != 0 {
				return c
			}
			if c := Compare(a.obj[i].Value, b.obj[i].Value); c != 0 {
				return c
			}
		}
		return len(a.obj) - len(b.obj)
	}
	return 0
}

func compareNumeric(a, b Value) int {
	if a.kind == KindInt && b.kind == KindInt {
		switch {
		case a.i < b.i:
			return -1
		case a.i > b.i:
			return 1
		default:
			return 0
		}
	}
	af, bf := a.AsFloat(), b.AsFloat()
	switch {
	case af < bf:
		return -1
	case af > bf:
		return 1
	case math.IsNaN(af) && !math.IsNaN(bf):
		return -1
	case !math.IsNaN(af) && math.IsNaN(bf):
		return 1
	default:
		return 0
	}
}

func compareBytes(a, b []byte) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return len(a) - len(b)
}

// Equal reports deep equality under the Compare order.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// Contains implements the PostgreSQL jsonb @> containment operator:
// a contains b when b's structure is a "subtree" of a's. Objects contain
// objects whose every field is contained in the corresponding field; arrays
// contain arrays whose every element is contained in some element; scalars
// contain equal scalars. A top-level array also contains a bare scalar that
// equals one of its elements.
func Contains(a, b Value) bool {
	return contains(a, b, true)
}

func contains(a, b Value, top bool) bool {
	switch b.kind {
	case KindObject:
		if a.kind != KindObject {
			return false
		}
		for _, f := range b.obj {
			av, ok := a.Get(f.Name)
			if !ok || !contains(av, f.Value, false) {
				return false
			}
		}
		return true
	case KindArray:
		if a.kind != KindArray {
			return false
		}
		for _, be := range b.arr {
			found := false
			for _, ae := range a.arr {
				if contains(ae, be, false) {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	default:
		if a.kind == KindArray && top {
			for _, ae := range a.arr {
				if Equal(ae, b) {
					return true
				}
			}
			return false
		}
		return numericAwareEqual(a, b)
	}
}

func numericAwareEqual(a, b Value) bool {
	if a.IsNumber() && b.IsNumber() {
		return compareNumeric(a, b) == 0
	}
	return a.kind == b.kind && Compare(a, b) == 0
}

// HasKey implements the jsonb ? operator: top-level key existence for
// objects, element (string) existence for arrays.
func HasKey(v Value, key string) bool {
	switch v.kind {
	case KindObject:
		_, ok := v.Get(key)
		return ok
	case KindArray:
		for _, e := range v.arr {
			if e.kind == KindString && e.s == key {
				return true
			}
		}
	default:
		// Scalars have no keys.
	}
	return false
}

// String renders the Value as compact JSON (bytes render as a quoted
// hex-prefixed string). It implements fmt.Stringer.
func (v Value) String() string {
	var sb strings.Builder
	v.appendJSON(&sb)
	return sb.String()
}

func (v Value) appendJSON(sb *strings.Builder) {
	switch v.kind {
	case KindNull:
		sb.WriteString("null")
	case KindBool:
		sb.WriteString(strconv.FormatBool(v.b))
	case KindInt:
		sb.WriteString(strconv.FormatInt(v.i, 10))
	case KindFloat:
		if math.IsInf(v.f, 0) || math.IsNaN(v.f) {
			sb.WriteString("null") // JSON has no Inf/NaN
			return
		}
		sb.WriteString(strconv.FormatFloat(v.f, 'g', -1, 64))
	case KindString:
		sb.WriteString(strconv.Quote(v.s))
	case KindBytes:
		sb.WriteString(strconv.Quote("0x" + hexEncode(v.by)))
	case KindArray:
		sb.WriteByte('[')
		for i, e := range v.arr {
			if i > 0 {
				sb.WriteByte(',')
			}
			e.appendJSON(sb)
		}
		sb.WriteByte(']')
	case KindObject:
		sb.WriteByte('{')
		for i, f := range v.obj {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(strconv.Quote(f.Name))
			sb.WriteByte(':')
			f.Value.appendJSON(sb)
		}
		sb.WriteByte('}')
	}
}

const hexDigits = "0123456789abcdef"

func hexEncode(b []byte) string {
	out := make([]byte, 2*len(b))
	for i, c := range b {
		out[2*i] = hexDigits[c>>4]
		out[2*i+1] = hexDigits[c&0x0f]
	}
	return string(out)
}

// Hash returns a 64-bit FNV-1a structural hash consistent with Equal for
// same-kind values, and consistent across int/float for integral floats.
func (v Value) Hash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(b byte) { h = (h ^ uint64(b)) * prime64 }
	mix64 := func(x uint64) {
		for i := 0; i < 8; i++ {
			mix(byte(x >> (8 * i)))
		}
	}
	var walk func(v Value)
	walk = func(v Value) {
		switch v.kind {
		case KindNull:
			mix(0)
		case KindBool:
			mix(1)
			if v.b {
				mix(1)
			} else {
				mix(0)
			}
		case KindInt, KindFloat:
			mix(2)
			// Hash integral floats identically to ints so that
			// Int(3) and Float(3.0), which compare equal, also
			// hash equal.
			f := v.AsFloat()
			if v.kind == KindInt || (f == math.Trunc(f) && !math.IsInf(f, 0)) {
				mix(0)
				mix64(uint64(v.AsInt()))
			} else {
				mix(1)
				mix64(math.Float64bits(f))
			}
		case KindString:
			mix(3)
			for i := 0; i < len(v.s); i++ {
				mix(v.s[i])
			}
		case KindBytes:
			mix(4)
			for _, b := range v.by {
				mix(b)
			}
		case KindArray:
			mix(5)
			for _, e := range v.arr {
				walk(e)
			}
		case KindObject:
			mix(6)
			for _, f := range v.obj {
				for i := 0; i < len(f.Name); i++ {
					mix(f.Name[i])
				}
				mix(0xff)
				walk(f.Value)
			}
		}
	}
	walk(v)
	return h
}

// Clone returns a deep copy of v whose arrays, objects, and byte slices do
// not share memory with v.
func (v Value) Clone() Value {
	switch v.kind {
	case KindBytes:
		b := make([]byte, len(v.by))
		copy(b, v.by)
		return Bytes(b)
	case KindArray:
		arr := make([]Value, len(v.arr))
		for i, e := range v.arr {
			arr[i] = e.Clone()
		}
		return ArrayOf(arr)
	case KindObject:
		obj := make([]Field, len(v.obj))
		for i, f := range v.obj {
			obj[i] = F(f.Name, f.Value.Clone())
		}
		return Value{kind: KindObject, obj: obj}
	default:
		return v
	}
}
