package keyenc

import (
	"testing"

	"repro/internal/mmvalue"
)

// FuzzKeyDecode feeds arbitrary bytes to Decode, which reads keys straight
// off the B+tree and the WAL: it must return an error rather than panic,
// and a tuple it does decode must encode to a key that decodes to Equal
// values. Skip and UnescapedString must agree with the decoder on every
// element of the input.
func FuzzKeyDecode(f *testing.F) {
	for _, tuple := range [][]mmvalue.Value{
		// A column-item key: partition, sort key, attribute name.
		{mmvalue.String("p1"), mmvalue.Int(42), mmvalue.String("pos")},
		// An index entry: indexed value, then the primary key.
		{mmvalue.Float(-1.5), mmvalue.String("o\x00001")},
		{mmvalue.Null, mmvalue.True, mmvalue.False, mmvalue.Bytes([]byte{0, 0xff, 1})},
		{mmvalue.MustParseJSON(`[1, "a", [], {"k": [null, 2.5]}]`)},
		{mmvalue.Int(-1 << 53), mmvalue.Int(1 << 53), mmvalue.String("")},
		{mmvalue.Int(1<<53 + 1), mmvalue.Int(-1<<53 - 1), mmvalue.Int(-1 << 63), mmvalue.Int(1<<63 - 1)},
	} {
		f.Add(Encode(tuple...))
	}
	// Truncated number, unterminated string, bad escape, unknown tag,
	// unterminated array and an object whose key is not a string.
	f.Add([]byte{tagNumber, 0x80})
	f.Add([]byte{tagString, 'a', 'b'})
	f.Add([]byte{tagString, 0x00, 0x7f})
	f.Add([]byte{0x42})
	f.Add([]byte{tagArray, tagNull})
	f.Add([]byte{tagObject, tagTrue, tagNull, terminator0, terminator1})
	// An object whose last key has no value, and a string with an escape.
	f.Add([]byte{tagObject, tagNull, terminator0, terminator1})
	f.Add([]byte{tagString, 'a', terminator0, escape, terminator0, terminator1})
	f.Fuzz(func(t *testing.T, key []byte) {
		// Skip finds the element boundaries decodeOne does and fails where
		// it fails, with the same error.
		for rest := key; ; {
			_, n, derr := decodeOne(rest)
			sn, serr := Skip(rest)
			if (derr == nil) != (serr == nil) || (derr != nil && derr.Error() != serr.Error()) {
				t.Fatalf("Skip(%x) error %v, decodeOne error %v", rest, serr, derr)
			}
			if derr != nil {
				break
			}
			if sn != n {
				t.Fatalf("Skip(%x) = %d, decodeOne read %d bytes", rest, sn, n)
			}
			if p, pn, ok := UnescapedString(rest); ok {
				v, _, _ := decodeOne(rest)
				if pn != n || v.Kind() != mmvalue.KindString || v.AsString() != string(p) {
					t.Fatalf("UnescapedString(%x) = %q, %d; decodeOne read %v, %d bytes", rest, p, pn, v, n)
				}
			}
			if rest = rest[n:]; len(rest) == 0 {
				break
			}
		}
		vals, err := Decode(key)
		if err != nil {
			return
		}
		enc := Encode(vals...)
		back, err := Decode(enc)
		if err != nil {
			t.Fatalf("Decode(Encode(%v)) failed: %v", vals, err)
		}
		if len(back) != len(vals) {
			t.Fatalf("re-decoded %d elements, want %d: %v vs %v", len(back), len(vals), back, vals)
		}
		for i := range vals {
			if !mmvalue.Equal(vals[i], back[i]) {
				t.Fatalf("element %d: %v re-decoded as %v", i, vals[i], back[i])
			}
		}
	})
}
