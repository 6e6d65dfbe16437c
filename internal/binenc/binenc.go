// Package binenc implements the compact binary record encoding used to
// persist mmvalue Values in keyspaces and in the write-ahead log. Unlike
// keyenc it is not order-preserving; it optimizes for size and decode speed
// (a tag byte plus varint-framed payloads, in the spirit of BSON/VelocyPack).
package binenc

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/mmvalue"
)

const (
	tNull   = 0x00
	tFalse  = 0x01
	tTrue   = 0x02
	tInt    = 0x03 // zigzag varint
	tFloat  = 0x04 // 8-byte little-endian IEEE754
	tString = 0x05 // varint length + bytes
	tBytes  = 0x06 // varint length + bytes
	tArray  = 0x07 // varint count + elements
	tObject = 0x08 // varint count + (string name, value)*
)

// Append encodes v onto dst and returns the extended slice.
func Append(dst []byte, v mmvalue.Value) []byte {
	switch v.Kind() {
	case mmvalue.KindNull:
		return append(dst, tNull)
	case mmvalue.KindBool:
		if v.AsBool() {
			return append(dst, tTrue)
		}
		return append(dst, tFalse)
	case mmvalue.KindInt:
		dst = append(dst, tInt)
		return binary.AppendVarint(dst, v.AsInt())
	case mmvalue.KindFloat:
		dst = append(dst, tFloat)
		return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.AsFloat()))
	case mmvalue.KindString:
		dst = append(dst, tString)
		dst = binary.AppendUvarint(dst, uint64(len(v.AsString())))
		return append(dst, v.AsString()...)
	case mmvalue.KindBytes:
		dst = append(dst, tBytes)
		dst = binary.AppendUvarint(dst, uint64(len(v.AsBytes())))
		return append(dst, v.AsBytes()...)
	case mmvalue.KindArray:
		dst = append(dst, tArray)
		dst = binary.AppendUvarint(dst, uint64(v.Len()))
		for _, e := range v.AsArray() {
			dst = Append(dst, e)
		}
		return dst
	case mmvalue.KindObject:
		dst = append(dst, tObject)
		dst = binary.AppendUvarint(dst, uint64(v.Len()))
		for _, f := range v.Fields() {
			dst = binary.AppendUvarint(dst, uint64(len(f.Name)))
			dst = append(dst, f.Name...)
			dst = Append(dst, f.Value)
		}
		return dst
	}
	panic(fmt.Sprintf("binenc: unknown kind %v", v.Kind()))
}

// Encode encodes v into a fresh buffer.
func Encode(v mmvalue.Value) []byte { return Append(nil, v) }

// Decode decodes a single value from data, requiring exactly one value with
// no trailing bytes.
//
// It runs in two passes and costs O(1) allocations per record, whatever
// its size. Pass 1 (shape.check) validates every tag, varint and length and
// counts the object fields and array elements; it allocates nothing, so a
// corrupt count can cost no more than the bytes that back it. Pass 2
// (builder.value) trusts pass 1 and builds the value from one string copy
// of the record, taken only when it holds a string or a field name, and
// one arena each of fields and elements. Names and strings are substrings
// of that copy, so a retained string keeps its whole record alive. Every
// object and array gets a capped arena sub-slice (a[i:j:j]), so appending
// to one never writes into a neighbour. Bytes payloads are copied into
// their own slices.
func Decode(data []byte) (mmvalue.Value, error) { return decode(data, "") }

// decode is Decode with str, when non-empty, already holding the bytes of
// data: names and strings become substrings of str and no copy is made.
func decode(data []byte, str string) (mmvalue.Value, error) {
	var sh shape
	n, err := sh.check(data, 0)
	if err != nil {
		return mmvalue.Null, err
	}
	if n != len(data) {
		return mmvalue.Null, fmt.Errorf("binenc: %d trailing bytes", len(data)-n)
	}
	if sh.strs && str == "" {
		str = string(data)
	}
	d := builder{
		b:      data,
		s:      str,
		fields: make([]mmvalue.Field, sh.fields),
		elems:  make([]mmvalue.Value, sh.elems),
	}
	v, _ := d.value(0)
	return v, nil
}

// MustDecode is Decode that panics on error; for internal store reads where
// corruption indicates a bug rather than bad input.
func MustDecode(data []byte) mmvalue.Value {
	v, err := Decode(data)
	if err != nil {
		panic(err)
	}
	return v
}

// shape is what pass 1 learns about a record: how many object fields and
// array elements pass 2 places, and whether it holds a string or a name.
type shape struct {
	fields, elems int
	strs          bool
}

// check validates the value starting at b[off] and returns the offset just
// past it.
func (sh *shape) check(b []byte, off int) (int, error) {
	if off >= len(b) {
		return 0, fmt.Errorf("binenc: empty input")
	}
	tag := b[off]
	off++
	switch tag {
	case tNull, tFalse, tTrue:
		return off, nil
	case tInt:
		_, n := binary.Varint(b[off:])
		if n <= 0 {
			return 0, fmt.Errorf("binenc: bad varint")
		}
		return off + n, nil
	case tFloat:
		if len(b)-off < 8 {
			return 0, fmt.Errorf("binenc: short float")
		}
		return off + 8, nil
	case tString, tBytes:
		sh.strs = sh.strs || tag == tString
		return payload(b, off, "bad length", "short payload")
	case tArray:
		count, n := binary.Uvarint(b[off:])
		if n <= 0 {
			return 0, fmt.Errorf("binenc: bad count")
		}
		off += n
		for i := uint64(0); i < count; i++ {
			var err error
			if off, err = sh.check(b, off); err != nil {
				return 0, err
			}
		}
		// Every element took at least one byte, so count fits in an int.
		sh.elems += int(count)
		return off, nil
	case tObject:
		count, n := binary.Uvarint(b[off:])
		if n <= 0 {
			return 0, fmt.Errorf("binenc: bad count")
		}
		off += n
		for i := uint64(0); i < count; i++ {
			var err error
			if off, err = payload(b, off, "bad name length", "short name"); err != nil {
				return 0, err
			}
			sh.strs = true
			if off, err = sh.check(b, off); err != nil {
				return 0, err
			}
		}
		sh.fields += int(count)
		return off, nil
	default:
		return 0, fmt.Errorf("binenc: unknown tag %#x", tag)
	}
}

// payload validates the varint-length-prefixed payload at b[off] and
// returns the offset just past it.
func payload(b []byte, off int, badLen, short string) (int, error) {
	ln, n := binary.Uvarint(b[off:])
	if n <= 0 {
		return 0, fmt.Errorf("binenc: %s", badLen)
	}
	start := off + n
	end := start + int(ln)
	if end > len(b) || end < start {
		return 0, fmt.Errorf("binenc: %s", short)
	}
	return end, nil
}

// builder is pass 2: it reads the structure from b, takes names and strings
// from s (the same bytes as a string) and cuts fields and elements from the
// arenas pass 1 sized.
type builder struct {
	b      []byte
	s      string
	fields []mmvalue.Field
	elems  []mmvalue.Value
}

// value builds the value starting at b[off] and returns the offset just
// past it.
func (d *builder) value(off int) (mmvalue.Value, int) {
	tag := d.b[off]
	off++
	switch tag {
	case tNull:
		return mmvalue.Null, off
	case tFalse:
		return mmvalue.False, off
	case tTrue:
		return mmvalue.True, off
	case tInt:
		i, n := binary.Varint(d.b[off:])
		return mmvalue.Int(i), off + n
	case tFloat:
		return mmvalue.Float(math.Float64frombits(binary.LittleEndian.Uint64(d.b[off:]))), off + 8
	case tString:
		start, end := d.payload(off)
		return mmvalue.String(d.s[start:end]), end
	case tBytes:
		start, end := d.payload(off)
		out := make([]byte, end-start)
		copy(out, d.b[start:end])
		return mmvalue.Bytes(out), end
	case tArray:
		count, n := binary.Uvarint(d.b[off:])
		off += n
		elems := d.elems[:count:count]
		d.elems = d.elems[count:]
		for i := range elems {
			elems[i], off = d.value(off)
		}
		return mmvalue.ArrayOf(elems), off
	case tObject:
		count, n := binary.Uvarint(d.b[off:])
		off += n
		fields := d.fields[:count:count]
		d.fields = d.fields[count:]
		for i := range fields {
			start, end := d.payload(off)
			fields[i].Name = d.s[start:end]
			fields[i].Value, off = d.value(end)
		}
		return mmvalue.ObjectOf(fields), off
	}
	panic(fmt.Sprintf("binenc: tag %#x passed validation", tag))
}

// payload returns the bounds of the length-prefixed payload at b[off].
func (d *builder) payload(off int) (start, end int) {
	ln, n := binary.Uvarint(d.b[off:])
	start = off + n
	return start, start + int(ln)
}
