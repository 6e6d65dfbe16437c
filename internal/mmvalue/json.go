package mmvalue

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// ParseJSON decodes a JSON document into a Value. Numbers without a
// fractional part or exponent that fit int64 become KindInt; everything else
// numeric becomes KindFloat, mirroring how document stores preserve integer
// identity.
func ParseJSON(data []byte) (Value, error) {
	dec := json.NewDecoder(bytesReader(data))
	dec.UseNumber()
	var raw any
	if err := dec.Decode(&raw); err != nil {
		return Null, fmt.Errorf("mmvalue: parse json: %w", err)
	}
	// Reject trailing garbage after the first value.
	var extra any
	if err := dec.Decode(&extra); err != io.EOF {
		return Null, fmt.Errorf("mmvalue: parse json: trailing data after value")
	}
	return fromDecoded(raw)
}

// MustParseJSON is ParseJSON that panics on error; intended for literals in
// tests and examples.
func MustParseJSON(s string) Value {
	v, err := ParseJSON([]byte(s))
	if err != nil {
		panic(err)
	}
	return v
}

func fromDecoded(raw any) (Value, error) {
	switch t := raw.(type) {
	case nil:
		return Null, nil
	case bool:
		return Bool(t), nil
	case json.Number:
		if i, err := t.Int64(); err == nil {
			return Int(i), nil
		}
		f, err := t.Float64()
		if err != nil {
			return Null, fmt.Errorf("mmvalue: bad number %q: %w", t.String(), err)
		}
		return Float(f), nil
	case string:
		return String(t), nil
	case []any:
		arr := make([]Value, len(t))
		for i, e := range t {
			v, err := fromDecoded(e)
			if err != nil {
				return Null, err
			}
			arr[i] = v
		}
		return ArrayOf(arr), nil
	case map[string]any:
		fields := make([]Field, 0, len(t))
		for k, e := range t {
			v, err := fromDecoded(e)
			if err != nil {
				return Null, err
			}
			fields = append(fields, F(k, v))
		}
		return ObjectOf(fields), nil
	default:
		return Null, fmt.Errorf("mmvalue: unsupported decoded type %T", raw)
	}
}

// MarshalJSON implements json.Marshaler; the output matches String().
func (v Value) MarshalJSON() ([]byte, error) {
	return []byte(v.String()), nil
}

// UnmarshalJSON implements json.Unmarshaler.
func (v *Value) UnmarshalJSON(data []byte) error {
	parsed, err := ParseJSON(data)
	if err != nil {
		return err
	}
	*v = parsed
	return nil
}

// FromGo converts common Go values (as produced by encoding/json or written
// by hand in examples) into Values. Supported: nil, bool, all int/uint
// widths, float32/64, string, []byte, []any, map[string]any, []Value,
// map[string]Value, and Value itself.
func FromGo(x any) (Value, error) {
	switch t := x.(type) {
	case nil:
		return Null, nil
	case Value:
		return t, nil
	case bool:
		return Bool(t), nil
	case int:
		return Int(int64(t)), nil
	case int8:
		return Int(int64(t)), nil
	case int16:
		return Int(int64(t)), nil
	case int32:
		return Int(int64(t)), nil
	case int64:
		return Int(t), nil
	case uint:
		return Int(int64(t)), nil
	case uint8:
		return Int(int64(t)), nil
	case uint16:
		return Int(int64(t)), nil
	case uint32:
		return Int(int64(t)), nil
	case uint64:
		if t > math.MaxInt64 {
			return Float(float64(t)), nil
		}
		return Int(int64(t)), nil
	case float32:
		return Float(float64(t)), nil
	case float64:
		return Float(t), nil
	case string:
		return String(t), nil
	case []byte:
		return Bytes(t), nil
	case []Value:
		return ArrayOf(t), nil
	case []any:
		arr := make([]Value, len(t))
		for i, e := range t {
			v, err := FromGo(e)
			if err != nil {
				return Null, err
			}
			arr[i] = v
		}
		return ArrayOf(arr), nil
	case map[string]any:
		fields := make([]Field, 0, len(t))
		for k, e := range t {
			v, err := FromGo(e)
			if err != nil {
				return Null, err
			}
			fields = append(fields, F(k, v))
		}
		return ObjectOf(fields), nil
	case map[string]Value:
		fields := make([]Field, 0, len(t))
		for k, e := range t {
			fields = append(fields, F(k, e))
		}
		return ObjectOf(fields), nil
	default:
		return Null, fmt.Errorf("mmvalue: unsupported Go type %T", x)
	}
}

// MustFromGo is FromGo that panics on error.
func MustFromGo(x any) Value {
	v, err := FromGo(x)
	if err != nil {
		panic(err)
	}
	return v
}

// ToGo converts a Value back into plain Go data (nil, bool, int64, float64,
// string, []byte, []any, map[string]any).
func (v Value) ToGo() any {
	switch v.Kind() {
	case KindNull:
		return nil
	case KindBool:
		return v.AsBool()
	case KindInt:
		return v.i64()
	case KindFloat:
		return v.f64()
	case KindString:
		return v.str()
	case KindBytes:
		out := make([]byte, v.n)
		copy(out, v.bytes())
		return out
	case KindArray:
		arr := v.arr()
		out := make([]any, len(arr))
		for i, e := range arr {
			out[i] = e.ToGo()
		}
		return out
	case KindObject:
		obj := v.obj()
		out := make(map[string]any, len(obj))
		for _, f := range obj {
			out[f.Name] = f.Value.ToGo()
		}
		return out
	}
	return nil
}

// Keys returns the sorted top-level field names of an object, or nil.
func (v Value) Keys() []string {
	if v.Kind() != KindObject {
		return nil
	}
	obj := v.obj()
	keys := make([]string, len(obj))
	for i, f := range obj {
		keys[i] = f.Name
	}
	return keys
}

// SortValues sorts a slice of Values in the total Compare order.
func SortValues(vs []Value) {
	sort.Slice(vs, func(i, j int) bool { return Compare(vs[i], vs[j]) < 0 })
}

func bytesReader(b []byte) *bytes.Reader { return bytes.NewReader(b) }
