// Package keyenc implements an order-preserving binary encoding of typed
// tuples (a "tuple layer"). Encoded keys compare with bytes.Compare in the
// same order as the source tuples compare element-wise under the mmvalue
// total order. Every index in unidb — primary keys, secondary B+tree
// indexes, edge indexes, triple permutations — stores keys produced here,
// which is what lets a single ordered keyspace substrate serve every data
// model.
//
// Layout: each element is a one-byte type tag followed by a payload whose
// byte order matches value order:
//
//	null:   0x02
//	false:  0x03, true: 0x04
//	number: 0x05 + 8-byte big-endian of the float64 bits with the sign bit
//	        flipped for positives and all bits flipped for negatives (the
//	        classic monotone double encoding) + a disambiguator, 0x00 for an
//	        int and 0x01 for a float, that does not affect ordering of
//	        distinct numbers; an int encodes through its float64 image, and
//	        one of magnitude 2^53 or more, whose image may be shared with
//	        its neighbours, is followed by its exact value as a big-endian
//	        int64 with the sign bit flipped
//	string: 0x06 + escaped bytes + 0x00 0x01 terminator (0x00 in the payload
//	        is escaped as 0x00 0xFF)
//	bytes:  0x07 + same escaping
//	array:  0x08 + encoded elements + 0x00 0x01
//	object: 0x09 + (string key, value)* + 0x00 0x01
//
// Builds before the exact suffix encoded every int as its image and
// disambiguator alone. Such a key of an int of magnitude 2^53 or more does
// not decode under this layout, and a lookup of the same int misses it.
// Neither the snapshot file nor the WAL carries a format version, so
// opening a data directory cannot detect this: one written by such a build
// that holds ints this large must be rebuilt by loading its data again.
package keyenc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/mmvalue"
)

// Type tags. Gaps below 0x02 are reserved for scan bounds (0x00/0x01).
const (
	tagMin    = 0x00 // sorts before every value; usable as a scan bound
	tagNull   = 0x02
	tagFalse  = 0x03
	tagTrue   = 0x04
	tagNumber = 0x05
	tagString = 0x06
	tagBytes  = 0x07
	tagArray  = 0x08
	tagObject = 0x09
	tagMax    = 0xFF // sorts after every value
)

const (
	terminator0 = 0x00
	terminator1 = 0x01
	escape      = 0xFF
)

// Append encodes v and appends it to dst, returning the extended slice.
func Append(dst []byte, v mmvalue.Value) []byte {
	switch v.Kind() {
	case mmvalue.KindNull:
		return append(dst, tagNull)
	case mmvalue.KindBool:
		if v.AsBool() {
			return append(dst, tagTrue)
		}
		return append(dst, tagFalse)
	case mmvalue.KindInt:
		return AppendInt(dst, v.AsInt())
	case mmvalue.KindFloat:
		dst = append(dst, tagNumber)
		dst = appendMonotoneFloat(dst, v.AsFloat())
		return append(dst, 0x01)
	case mmvalue.KindString:
		dst = append(dst, tagString)
		dst = appendEscaped(dst, []byte(v.AsString()))
		return append(dst, terminator0, terminator1)
	case mmvalue.KindBytes:
		dst = append(dst, tagBytes)
		dst = appendEscaped(dst, v.AsBytes())
		return append(dst, terminator0, terminator1)
	case mmvalue.KindArray:
		dst = append(dst, tagArray)
		for _, e := range v.AsArray() {
			dst = Append(dst, e)
		}
		return append(dst, terminator0, terminator1)
	case mmvalue.KindObject:
		dst = append(dst, tagObject)
		for _, f := range v.Fields() {
			dst = append(dst, tagString)
			dst = appendEscaped(dst, []byte(f.Name))
			dst = append(dst, terminator0, terminator1)
			dst = Append(dst, f.Value)
		}
		return append(dst, terminator0, terminator1)
	}
	panic(fmt.Sprintf("keyenc: unknown kind %v", v.Kind()))
}

// Encode encodes a tuple of values into a single comparable key.
func Encode(vs ...mmvalue.Value) []byte {
	var dst []byte
	for _, v := range vs {
		dst = Append(dst, v)
	}
	return dst
}

// AppendString appends a string element without building a Value.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, tagString)
	dst = appendEscaped(dst, []byte(s))
	return append(dst, terminator0, terminator1)
}

// exactFrom is 2^53: every int of smaller magnitude has a float64 image of
// its own, and every other one carries its exact value after the
// disambiguator. The decoder tells the two apart by the image alone.
const exactFrom = 1 << 53

// AppendInt appends an int element without building a Value.
func AppendInt(dst []byte, i int64) []byte {
	dst = append(dst, tagNumber)
	dst = appendMonotoneFloat(dst, float64(i))
	// Disambiguator so Int(3) and Float(3.0) round-trip to their own
	// kinds. 0x00 (int) sorts before 0x01 (float) only among numbers whose
	// float64 images are identical, i.e. values that compare equal, so
	// ordering of distinct values is unaffected.
	dst = append(dst, 0x00)
	if i >= exactFrom || i <= -exactFrom {
		// Ints this large that share an image are ordered by the exact
		// value that follows it.
		dst = binary.BigEndian.AppendUint64(dst, uint64(i)^(1<<63))
	}
	return dst
}

// AppendMin appends a sentinel that sorts before any encoded value; useful
// as the low bound of a prefix scan.
func AppendMin(dst []byte) []byte { return append(dst, tagMin) }

// AppendMax appends a sentinel that sorts after any encoded value; useful as
// the high bound of a prefix scan.
func AppendMax(dst []byte) []byte { return append(dst, tagMax) }

func appendMonotoneFloat(dst []byte, f float64) []byte {
	bits := math.Float64bits(f)
	if bits&(1<<63) != 0 {
		bits = ^bits // negative: flip all bits
	} else {
		bits |= 1 << 63 // positive: flip sign bit
	}
	return append(dst,
		byte(bits>>56), byte(bits>>48), byte(bits>>40), byte(bits>>32),
		byte(bits>>24), byte(bits>>16), byte(bits>>8), byte(bits))
}

func appendEscaped(dst, payload []byte) []byte {
	for _, b := range payload {
		if b == terminator0 {
			dst = append(dst, terminator0, escape)
		} else {
			dst = append(dst, b)
		}
	}
	return dst
}

// Decode decodes all elements of an encoded key. It is the inverse of
// Encode: every int64 and every float64 round-trips to its own value and
// kind.
func Decode(key []byte) ([]mmvalue.Value, error) {
	return DecodeAppend(nil, key)
}

// DecodeAppend decodes all elements of an encoded key, appending them to dst,
// and returns the extended slice. Tight scan loops pass a reused scratch
// slice (dst[:0]) to keep key decoding allocation-free; the appended values
// own their payloads, so callers may copy them out before the next reuse.
func DecodeAppend(dst []mmvalue.Value, key []byte) ([]mmvalue.Value, error) {
	rest := key
	for len(rest) > 0 {
		v, n, err := decodeOne(rest)
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
		rest = rest[n:]
	}
	return dst, nil
}

func decodeOne(b []byte) (mmvalue.Value, int, error) {
	if len(b) == 0 {
		return mmvalue.Null, 0, fmt.Errorf("keyenc: empty input")
	}
	switch b[0] {
	case tagNull:
		return mmvalue.Null, 1, nil
	case tagFalse:
		return mmvalue.False, 1, nil
	case tagTrue:
		return mmvalue.True, 1, nil
	case tagNumber:
		if len(b) < 10 {
			return mmvalue.Null, 0, fmt.Errorf("keyenc: short number")
		}
		f := decodeMonotoneFloat(b[1:9])
		switch b[9] {
		case 0x00:
			if math.Abs(f) < exactFrom {
				return mmvalue.Int(int64(f)), 10, nil
			}
			i, err := exactInt(b, f)
			if err != nil {
				return mmvalue.Null, 0, err
			}
			return mmvalue.Int(i), 18, nil
		case 0x01:
			return mmvalue.Float(f), 10, nil
		default:
			return mmvalue.Null, 0, fmt.Errorf("keyenc: bad number disambiguator %#x", b[9])
		}
	case tagString, tagBytes:
		end, escapes, err := scanEscaped(b[1:])
		if err != nil {
			return mmvalue.Null, 0, err
		}
		raw, n := b[1:1+end], 1+end+2 // tag, payload, terminator
		if b[0] == tagString && escapes == 0 {
			return mmvalue.String(string(raw)), n, nil
		}
		payload := unescape(raw, escapes)
		if b[0] == tagString {
			return mmvalue.String(string(payload)), n, nil
		}
		return mmvalue.Bytes(payload), n, nil
	case tagArray:
		var elems []mmvalue.Value
		off := 1
		for {
			if off+1 < len(b) && b[off] == terminator0 && b[off+1] == terminator1 {
				return mmvalue.ArrayOf(elems), off + 2, nil
			}
			v, n, err := decodeOne(b[off:])
			if err != nil {
				return mmvalue.Null, 0, err
			}
			elems = append(elems, v)
			off += n
		}
	case tagObject:
		var fields []mmvalue.Field
		off := 1
		for {
			if off+1 < len(b) && b[off] == terminator0 && b[off+1] == terminator1 {
				return mmvalue.ObjectOf(fields), off + 2, nil
			}
			k, n, err := decodeOne(b[off:])
			if err != nil {
				return mmvalue.Null, 0, err
			}
			off += n
			v, n, err := decodeOne(b[off:])
			if err != nil {
				return mmvalue.Null, 0, err
			}
			off += n
			fields = append(fields, mmvalue.F(k.AsString(), v))
		}
	default:
		return mmvalue.Null, 0, fmt.Errorf("keyenc: unknown tag %#x", b[0])
	}
}

// Skip returns the encoded length of the element at the head of b without
// decoding it. It accepts exactly the elements Decode does, with the same
// errors, and allocates nothing on valid input, so a scan can find element
// boundaries in keys it does not need to decode.
func Skip(b []byte) (int, error) {
	if len(b) == 0 {
		return 0, fmt.Errorf("keyenc: empty input")
	}
	switch b[0] {
	case tagNull, tagFalse, tagTrue:
		return 1, nil
	case tagNumber:
		if len(b) < 10 {
			return 0, fmt.Errorf("keyenc: short number")
		}
		if b[9] > 0x01 {
			return 0, fmt.Errorf("keyenc: bad number disambiguator %#x", b[9])
		}
		if b[9] == 0x00 {
			// Written as "not below" so that a NaN image takes this
			// branch and fails there, as it does in decodeOne.
			if f := decodeMonotoneFloat(b[1:9]); !(math.Abs(f) < exactFrom) {
				if _, err := exactInt(b, f); err != nil {
					return 0, err
				}
				return 18, nil
			}
		}
		return 10, nil
	case tagString, tagBytes:
		end, _, err := scanEscaped(b[1:])
		if err != nil {
			return 0, err
		}
		return 1 + end + 2, nil
	case tagArray, tagObject:
		per := 1 // elements between terminator checks: an object's are (key, value) pairs
		if b[0] == tagObject {
			per = 2
		}
		off := 1
		for {
			if off+1 < len(b) && b[off] == terminator0 && b[off+1] == terminator1 {
				return off + 2, nil
			}
			for range per {
				n, err := Skip(b[off:])
				if err != nil {
					return 0, err
				}
				off += n
			}
		}
	default:
		return 0, fmt.Errorf("keyenc: unknown tag %#x", b[0])
	}
}

// UnescapedString reports whether b begins with a string element whose
// payload holds no escaped byte, returning that payload — the string's own
// bytes, aliasing b — and the element's encoded length. Callers compare or
// look up the payload without allocating a string.
func UnescapedString(b []byte) (payload []byte, n int, ok bool) {
	if len(b) == 0 || b[0] != tagString {
		return nil, 0, false
	}
	end := bytes.IndexByte(b[1:], terminator0)
	if end < 0 || 1+end+1 >= len(b) || b[1+end+1] != terminator1 {
		return nil, 0, false
	}
	return b[1 : 1+end], 1 + end + 2, true
}

// exactInt reads the exact value that follows an int element's
// disambiguator in b, whose float64 image is f.
func exactInt(b []byte, f float64) (int64, error) {
	if len(b) < 18 {
		return 0, fmt.Errorf("keyenc: short int")
	}
	i := int64(binary.BigEndian.Uint64(b[10:18]) ^ (1 << 63))
	if float64(i) != f {
		return 0, fmt.Errorf("keyenc: int %d does not match its float64 image %g", i, f)
	}
	return i, nil
}

func decodeMonotoneFloat(b []byte) float64 {
	bits := uint64(b[0])<<56 | uint64(b[1])<<48 | uint64(b[2])<<40 | uint64(b[3])<<32 |
		uint64(b[4])<<24 | uint64(b[5])<<16 | uint64(b[6])<<8 | uint64(b[7])
	if bits&(1<<63) != 0 {
		bits &^= 1 << 63
	} else {
		bits = ^bits
	}
	return math.Float64frombits(bits)
}

// scanEscaped finds the end of the escaped payload at the head of b: it
// returns the payload's encoded length (the offset of its terminator) and
// how many escaped 0x00 bytes it holds.
func scanEscaped(b []byte) (end, escapes int, err error) {
	for i := 0; i < len(b); i++ {
		if b[i] != terminator0 {
			continue
		}
		if i+1 >= len(b) {
			return 0, 0, fmt.Errorf("keyenc: truncated escape")
		}
		switch b[i+1] {
		case terminator1:
			return i, escapes, nil
		case escape:
			escapes++
			i++
		default:
			return 0, 0, fmt.Errorf("keyenc: bad escape %#x", b[i+1])
		}
	}
	return 0, 0, fmt.Errorf("keyenc: unterminated string")
}

// unescape copies an escaped payload scanEscaped measured into one slice of
// its decoded length (nil when empty).
func unescape(raw []byte, escapes int) []byte {
	if len(raw) == 0 {
		return nil
	}
	out := make([]byte, 0, len(raw)-escapes)
	for i := 0; i < len(raw); i++ {
		out = append(out, raw[i])
		if raw[i] == terminator0 {
			i++ // skip the escape byte
		}
	}
	return out
}
