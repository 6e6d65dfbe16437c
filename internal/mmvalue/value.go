// Package mmvalue defines the unified typed value system shared by every
// data model in unidb. A Value can hold a null, boolean, integer, float,
// string, byte slice, array, or object, mirroring the union of JSON and the
// scalar types of the relational layer. All model layers (document,
// relational, key/value, graph, XML, RDF) exchange data as Values, which is
// what makes cross-model queries possible without per-model conversion code.
package mmvalue

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
	"unsafe"
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

// Value is an immutable tagged union. The zero Value is null.
//
// A Value is 24 bytes, the layout log/slog.Value uses: one machine word n
// and one interface word any whose dynamic type carries the kind. Null
// is the nil interface. Booleans (0 or 1), integers and floats (their
// IEEE bits) live in n, with their Kind in any. A non-empty string, byte
// slice, array or object is a typed pointer to its first byte, element or
// field in any and its length in n; an empty string and a nil byte slice,
// array or object are their Kind, and an empty non-nil one points at a
// shared zero element. The payload a Value points at is shared by every
// copy of it, so neither the caller that built a Value nor one that reads
// a slice back may mutate it afterwards; Clone makes an unshared copy.
// Values are not comparable with ==: use Equal. reflect.DeepEqual follows
// only the first byte, element or field of a payload, so it reports every
// pair of Equal Values of the same kind equal but can also report unequal
// ones equal.
type Value struct {
	_   [0]func() // makes == a compile error; compare with Equal
	n   uint64
	any any
}

// The payload pointer types, one per kind that points at data.
type (
	stringptr *byte
	bytesptr  *byte
	arrayptr  *Value
	objectptr *Field
)

// The shared zero element an empty non-nil payload points at. A slice of
// length and capacity 0 over it never writes to it.
var (
	zeroByte  byte
	zeroValue Value
	zeroField Field
)

// Field is one key/value entry of an object. Object fields are kept sorted
// by Name so that equality, hashing, and binary encoding are canonical.
type Field struct {
	Name  string
	Value Value
}

// Null is the null Value.
var Null = Value{}

// True and False are the boolean Values.
var (
	True  = Value{any: KindBool, n: 1}
	False = Value{any: KindBool}
)

// Bool returns a boolean Value.
func Bool(b bool) Value {
	if b {
		return True
	}
	return False
}

// Int returns an integer Value.
func Int(i int64) Value { return Value{any: KindInt, n: uint64(i)} }

// Float returns a floating-point Value.
func Float(f float64) Value { return Value{any: KindFloat, n: math.Float64bits(f)} }

// String returns a string Value.
func String(s string) Value {
	if len(s) == 0 {
		return Value{any: KindString}
	}
	return Value{any: stringptr(unsafe.StringData(s)), n: uint64(len(s))}
}

// Bytes returns a byte-slice Value. The slice is not copied; a nil slice
// reads back as nil and an empty one as empty.
func Bytes(b []byte) Value {
	switch {
	case b == nil:
		return Value{any: KindBytes}
	case len(b) == 0:
		return Value{any: bytesptr(&zeroByte)}
	}
	return Value{any: bytesptr(unsafe.SliceData(b)), n: uint64(len(b))}
}

// Array returns an array Value. The slice is not copied.
func Array(vs ...Value) Value { return ArrayOf(vs) }

// ArrayOf wraps an existing slice without copying; a nil slice reads back
// as nil and an empty one as empty.
func ArrayOf(vs []Value) Value {
	switch {
	case vs == nil:
		return Value{any: KindArray}
	case len(vs) == 0:
		return Value{any: arrayptr(&zeroValue)}
	}
	return Value{any: arrayptr(unsafe.SliceData(vs)), n: uint64(len(vs))}
}

// objectOf wraps fields that are already sorted and unique.
func objectOf(fields []Field) Value {
	switch {
	case fields == nil:
		return Value{any: KindObject}
	case len(fields) == 0:
		return Value{any: objectptr(&zeroField)}
	}
	return Value{any: objectptr(unsafe.SliceData(fields)), n: uint64(len(fields))}
}

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
		return objectOf(fields)
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
	return objectOf(out)
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

// The payload views below return the zero of their type (nil for slices)
// when v holds another kind or no payload, so the exported accessors are
// these views.

func (v Value) str() string {
	if p, ok := v.any.(stringptr); ok {
		return unsafe.String(p, v.n)
	}
	return ""
}

func (v Value) bytes() []byte {
	if p, ok := v.any.(bytesptr); ok {
		return unsafe.Slice((*byte)(p), v.n)
	}
	return nil
}

func (v Value) arr() []Value {
	if p, ok := v.any.(arrayptr); ok {
		return unsafe.Slice((*Value)(p), v.n)
	}
	return nil
}

func (v Value) obj() []Field {
	if p, ok := v.any.(objectptr); ok {
		return unsafe.Slice((*Field)(p), v.n)
	}
	return nil
}

func (v Value) i64() int64   { return int64(v.n) }
func (v Value) f64() float64 { return math.Float64frombits(v.n) }

// Kind reports the runtime type of v.
func (v Value) Kind() Kind {
	switch x := v.any.(type) {
	case Kind:
		return x
	case stringptr:
		return KindString
	case bytesptr:
		return KindBytes
	case arrayptr:
		return KindArray
	case objectptr:
		return KindObject
	}
	return KindNull
}

// IsNull reports whether v is null.
func (v Value) IsNull() bool { return v.any == nil }

// AsBool returns the boolean payload; false for any other kind.
func (v Value) AsBool() bool { return v.any == KindBool && v.n != 0 }

// AsInt returns the integer payload, converting from float if needed; 0
// for non-numbers.
func (v Value) AsInt() int64 {
	switch v.any {
	case KindInt:
		return v.i64()
	case KindFloat:
		return int64(v.f64())
	default:
		return 0
	}
}

// AsFloat returns the numeric payload as float64, converting from int; 0
// for non-numbers.
func (v Value) AsFloat() float64 {
	switch v.any {
	case KindFloat:
		return v.f64()
	case KindInt:
		return float64(v.i64())
	default:
		return 0
	}
}

// AsString returns the string payload; "" for any other kind.
func (v Value) AsString() string { return v.str() }

// AsBytes returns the bytes payload with cap == len; nil for any other
// kind.
func (v Value) AsBytes() []byte { return v.bytes() }

// AsArray returns the element slice with cap == len, so an append to it
// reallocates; nil for any other kind.
func (v Value) AsArray() []Value { return v.arr() }

// Fields returns the sorted field slice with cap == len; nil for any
// other kind.
func (v Value) Fields() []Field { return v.obj() }

// IsNumber reports whether v is an int or float.
func (v Value) IsNumber() bool { return v.any == KindInt || v.any == KindFloat }

// Len returns the number of elements (array), fields (object), bytes
// (bytes), or UTF-8 bytes (string); 0 for scalars.
func (v Value) Len() int {
	if _, scalar := v.any.(Kind); scalar {
		return 0
	}
	return int(v.n)
}

// Get returns the value of the named field of an object, or (Null, false)
// when v is not an object or has no such field.
func (v Value) Get(name string) (Value, bool) {
	obj := v.obj()
	i := sort.Search(len(obj), func(i int) bool { return obj[i].Name >= name })
	if i < len(obj) && obj[i].Name == name {
		return obj[i].Value, true
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
	arr := v.arr()
	if i < 0 {
		i += len(arr)
	}
	if i < 0 || i >= len(arr) {
		return Null, false
	}
	return arr[i], true
}

// Set returns a copy of the object v with field name set to val. If v is not
// an object, a fresh single-field object is returned.
func (v Value) Set(name string, val Value) Value {
	if v.Kind() != KindObject {
		return Object(F(name, val))
	}
	obj := v.obj()
	out := make([]Field, 0, len(obj)+1)
	inserted := false
	for _, f := range obj {
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
	return objectOf(out)
}

// Delete returns a copy of the object v without the named field.
func (v Value) Delete(name string) Value {
	if v.Kind() != KindObject {
		return v
	}
	obj := v.obj()
	out := make([]Field, 0, len(obj))
	for _, f := range obj {
		if f.Name != name {
			out = append(out, f)
		}
	}
	return objectOf(out)
}

// Merge returns v with all fields of other set on top (shallow merge,
// PostgreSQL jsonb || semantics).
func (v Value) Merge(other Value) Value {
	if v.Kind() != KindObject || other.Kind() != KindObject {
		return other
	}
	out := v
	for _, f := range other.obj() {
		out = out.Set(f.Name, f.Value)
	}
	return out
}

// Truthy reports the boolean interpretation used by query FILTERs:
// null→false, bool→itself, numbers→non-zero, string/bytes/array/object→
// non-empty.
func (v Value) Truthy() bool {
	if v.any == KindFloat {
		return v.f64() != 0
	}
	return v.n != 0 // a bool, an int, or a length
}

// Compare defines a total order over all Values: by type rank first
// (null < bool < number < string < bytes < array < object), then by value.
// Int and float compare numerically with each other. Arrays compare
// lexicographically; objects compare by their sorted field lists.
func Compare(a, b Value) int {
	ka, kb := a.Kind(), b.Kind()
	ra, rb := typeRank(ka), typeRank(kb)
	if ra != rb {
		if ra < rb {
			return -1
		}
		return 1
	}
	switch ka {
	case KindNull:
		return 0
	case KindBool:
		return cmp.Compare(a.n, b.n)
	case KindInt, KindFloat:
		return compareNumeric(a, b)
	case KindString:
		return strings.Compare(a.str(), b.str())
	case KindBytes:
		return bytes.Compare(a.bytes(), b.bytes())
	case KindArray:
		aa, ba := a.arr(), b.arr()
		for i := 0; i < len(aa) && i < len(ba); i++ {
			if c := Compare(aa[i], ba[i]); c != 0 {
				return c
			}
		}
		return len(aa) - len(ba)
	case KindObject:
		ao, bo := a.obj(), b.obj()
		for i := 0; i < len(ao) && i < len(bo); i++ {
			if c := strings.Compare(ao[i].Name, bo[i].Name); c != 0 {
				return c
			}
			if c := Compare(ao[i].Value, bo[i].Value); c != 0 {
				return c
			}
		}
		return len(ao) - len(bo)
	}
	return 0
}

func compareNumeric(a, b Value) int {
	if a.any == KindInt && b.any == KindInt {
		return cmp.Compare(a.i64(), b.i64())
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
	switch b.Kind() {
	case KindObject:
		if a.Kind() != KindObject {
			return false
		}
		for _, f := range b.obj() {
			av, ok := a.Get(f.Name)
			if !ok || !contains(av, f.Value, false) {
				return false
			}
		}
		return true
	case KindArray:
		if a.Kind() != KindArray {
			return false
		}
		for _, be := range b.arr() {
			found := false
			for _, ae := range a.arr() {
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
		if a.Kind() == KindArray && top {
			for _, ae := range a.arr() {
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
	return a.Kind() == b.Kind() && Compare(a, b) == 0
}

// HasKey implements the jsonb ? operator: top-level key existence for
// objects, element (string) existence for arrays.
func HasKey(v Value, key string) bool {
	switch v.Kind() {
	case KindObject:
		_, ok := v.Get(key)
		return ok
	case KindArray:
		for _, e := range v.arr() {
			if e.Kind() == KindString && e.str() == key {
				return true
			}
		}
	default:
		// Scalars have no keys.
	}
	return false
}

// String renders the Value as compact JSON (bytes render as a quoted
// hex-prefixed string). Strings are escaped per RFC 8259, so the output is
// always valid JSON. It implements fmt.Stringer.
func (v Value) String() string {
	var sb strings.Builder
	v.appendJSON(&sb)
	return sb.String()
}

func (v Value) appendJSON(sb *strings.Builder) {
	switch v.Kind() {
	case KindNull:
		sb.WriteString("null")
	case KindBool:
		sb.WriteString(strconv.FormatBool(v.n != 0))
	case KindInt:
		sb.WriteString(strconv.FormatInt(v.i64(), 10))
	case KindFloat:
		f := v.f64()
		if math.IsInf(f, 0) || math.IsNaN(f) {
			sb.WriteString("null") // JSON has no Inf/NaN
			return
		}
		sb.WriteString(strconv.FormatFloat(f, 'g', -1, 64))
	case KindString:
		appendQuoted(sb, v.str())
	case KindBytes:
		sb.WriteString(`"0x`)
		for _, c := range v.bytes() {
			sb.WriteByte(hexDigits[c>>4])
			sb.WriteByte(hexDigits[c&0x0f])
		}
		sb.WriteByte('"')
	case KindArray:
		sb.WriteByte('[')
		for i, e := range v.arr() {
			if i > 0 {
				sb.WriteByte(',')
			}
			e.appendJSON(sb)
		}
		sb.WriteByte(']')
	case KindObject:
		sb.WriteByte('{')
		for i, f := range v.obj() {
			if i > 0 {
				sb.WriteByte(',')
			}
			appendQuoted(sb, f.Name)
			sb.WriteByte(':')
			f.Value.appendJSON(sb)
		}
		sb.WriteByte('}')
	}
}

const hexDigits = "0123456789abcdef"

// appendQuoted writes s as a JSON string literal. It follows strconv.Quote
// (printable runes verbatim; \b \f \n \r \t; other runes below U+10000
// as \uXXXX), so output that was already valid JSON stays byte-identical,
// but it never emits strconv's non-JSON forms: \a, \v, \x7f and other
// control bytes become \u00XX, an invalid UTF-8 byte becomes \ufffd, and a
// non-printable rune above U+FFFF becomes a UTF-16 surrogate pair.
func appendQuoted(sb *strings.Builder, s string) {
	sb.WriteByte('"')
	for i := 0; i < len(s); {
		c := s[i]
		if c >= 0x20 && c < 0x7f && c != '"' && c != '\\' {
			j := i + 1
			for j < len(s) && s[j] >= 0x20 && s[j] < 0x7f && s[j] != '"' && s[j] != '\\' {
				j++
			}
			sb.WriteString(s[i:j])
			i = j
			continue
		}
		r, width := rune(c), 1
		if c >= utf8.RuneSelf {
			r, width = utf8.DecodeRuneInString(s[i:])
		}
		i += width
		switch {
		case r == '"' || r == '\\':
			sb.WriteByte('\\')
			sb.WriteByte(byte(r))
		case width == 1 && r == utf8.RuneError:
			sb.WriteString(`\ufffd`)
		case strconv.IsPrint(r):
			sb.WriteString(s[i-width : i])
		case r == '\b':
			sb.WriteString(`\b`)
		case r == '\f':
			sb.WriteString(`\f`)
		case r == '\n':
			sb.WriteString(`\n`)
		case r == '\r':
			sb.WriteString(`\r`)
		case r == '\t':
			sb.WriteString(`\t`)
		case r < 0x10000:
			appendUnicodeEscape(sb, r)
		default:
			r1, r2 := utf16.EncodeRune(r)
			appendUnicodeEscape(sb, r1)
			appendUnicodeEscape(sb, r2)
		}
	}
	sb.WriteByte('"')
}

func appendUnicodeEscape(sb *strings.Builder, r rune) {
	sb.WriteString(`\u`)
	for shift := 12; shift >= 0; shift -= 4 {
		sb.WriteByte(hexDigits[r>>shift&0xf])
	}
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
		switch v.Kind() {
		case KindNull:
			mix(0)
		case KindBool:
			mix(1)
			mix(byte(v.n))
		case KindInt, KindFloat:
			mix(2)
			// Hash integral floats identically to ints so that
			// Int(3) and Float(3.0), which compare equal, also
			// hash equal.
			f := v.AsFloat()
			if v.any == KindInt || (f == math.Trunc(f) && !math.IsInf(f, 0)) {
				mix(0)
				mix64(uint64(v.AsInt()))
			} else {
				mix(1)
				mix64(math.Float64bits(f))
			}
		case KindString:
			mix(3)
			s := v.str()
			for i := 0; i < len(s); i++ {
				mix(s[i])
			}
		case KindBytes:
			mix(4)
			for _, b := range v.bytes() {
				mix(b)
			}
		case KindArray:
			mix(5)
			for _, e := range v.arr() {
				walk(e)
			}
		case KindObject:
			mix(6)
			for _, f := range v.obj() {
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
	switch v.Kind() {
	case KindBytes:
		return Bytes(bytes.Clone(v.bytes()))
	case KindArray:
		src := v.arr()
		if src == nil {
			return v
		}
		arr := make([]Value, len(src))
		for i, e := range src {
			arr[i] = e.Clone()
		}
		return ArrayOf(arr)
	case KindObject:
		src := v.obj()
		if src == nil {
			return v
		}
		obj := make([]Field, len(src))
		for i, f := range src {
			obj[i] = F(f.Name, f.Value.Clone())
		}
		return objectOf(obj)
	default:
		return v
	}
}
