package binenc

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/mmvalue"
)

func genValue(r *rand.Rand, depth int) mmvalue.Value {
	k := r.Intn(8)
	if depth <= 0 && k >= 6 {
		k = r.Intn(6)
	}
	switch k {
	case 0:
		return mmvalue.Null
	case 1:
		return mmvalue.Bool(r.Intn(2) == 0)
	case 2:
		return mmvalue.Int(r.Int63() - (1 << 62))
	case 3:
		return mmvalue.Float(r.NormFloat64() * 1e6)
	case 4:
		n := r.Intn(12)
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(r.Intn(256))
		}
		return mmvalue.String(string(b))
	case 5:
		b := make([]byte, r.Intn(12))
		r.Read(b)
		return mmvalue.Bytes(b)
	case 6:
		n := r.Intn(5)
		arr := make([]mmvalue.Value, n)
		for i := range arr {
			arr[i] = genValue(r, depth-1)
		}
		return mmvalue.ArrayOf(arr)
	default:
		n := r.Intn(5)
		fields := make([]mmvalue.Field, 0, n)
		for i := 0; i < n; i++ {
			fields = append(fields, mmvalue.F(randKey(r), genValue(r, depth-1)))
		}
		return mmvalue.ObjectOf(fields)
	}
}

func randKey(r *rand.Rand) string {
	n := 1 + r.Intn(6)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + r.Intn(26))
	}
	return string(b)
}

func TestRoundTripBasics(t *testing.T) {
	values := []mmvalue.Value{
		mmvalue.Null, mmvalue.True, mmvalue.False,
		mmvalue.Int(0), mmvalue.Int(-1), mmvalue.Int(math.MaxInt64), mmvalue.Int(math.MinInt64),
		mmvalue.Float(0), mmvalue.Float(-2.25), mmvalue.Float(math.Inf(1)), mmvalue.Float(1e-300),
		mmvalue.String(""), mmvalue.String("héllo \x00 wörld"),
		mmvalue.Bytes(nil), mmvalue.Bytes([]byte{0, 255, 0}),
		mmvalue.Array(),
		mmvalue.Object(),
		mmvalue.MustParseJSON(`{"Order_no":"0c6df508","Orderlines":[{"Product_no":"2724f","Price":66}]}`),
	}
	for _, v := range values {
		back, err := Decode(Encode(v))
		if err != nil {
			t.Fatalf("Decode(Encode(%v)): %v", v, err)
		}
		if !mmvalue.Equal(back, v) || back.Kind() != v.Kind() {
			t.Errorf("round trip %v -> %v", v, back)
		}
	}
}

func TestNaNRoundTrip(t *testing.T) {
	back, err := Decode(Encode(mmvalue.Float(math.NaN())))
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(back.AsFloat()) {
		t.Fatalf("NaN round trip = %v", back)
	}
}

func TestPropertyRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v := genValue(r, 4)
		back, err := Decode(Encode(v))
		return err == nil && mmvalue.Equal(back, v) && back.Kind() == v.Kind()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeTrailingBytes(t *testing.T) {
	data := append(Encode(mmvalue.Int(1)), 0x00)
	if _, err := Decode(data); err == nil {
		t.Fatal("trailing bytes should fail")
	}
}

func TestDecodeErrors(t *testing.T) {
	bad := [][]byte{
		{},                 // empty
		{0x04, 1, 2},       // short float
		{0x05, 0x05, 'a'},  // short string payload
		{0x07, 0x02, 0x03}, // array element error propagates
		{0x08, 0x01, 0x05}, // object name error
		{0x99},             // unknown tag
	}
	for _, b := range bad {
		if _, err := Decode(b); err == nil {
			t.Errorf("Decode(%x) should fail", b)
		}
	}
}

// TestDecodeCorruptCountIsAnError feeds 7-byte records that declare 2^38
// fields or elements. A decoder that sizes its slices from the declared
// count dies with an out-of-memory fatal error no recover() can catch;
// Decode must count what is actually there and fail.
func TestDecodeCorruptCountIsAnError(t *testing.T) {
	for _, tag := range []byte{tObject, tArray} {
		if _, err := Decode([]byte{tag, 0x80, 0x80, 0x80, 0x80, 0x80, 0x08}); err == nil {
			t.Errorf("tag %#x with 2^38 declared members decoded without error", tag)
		}
	}
}

// TestDecodeAllocsIndependentOfSize is the guard on the record-decode
// contract: one string copy and two arenas, however many fields and
// elements the record holds.
func TestDecodeAllocsIndependentOfSize(t *testing.T) {
	object := func(n int) mmvalue.Value {
		fields := make([]mmvalue.Field, n)
		for i := range fields {
			fields[i] = mmvalue.F(fmt.Sprintf("f%03d", i), mmvalue.Array(mmvalue.Int(int64(i)), mmvalue.String("x")))
		}
		return mmvalue.ObjectOf(fields)
	}
	array := func(n int) mmvalue.Value {
		elems := make([]mmvalue.Value, n)
		for i := range elems {
			elems[i] = mmvalue.Object(mmvalue.F("i", mmvalue.Int(int64(i))))
		}
		return mmvalue.ArrayOf(elems)
	}
	allocs := func(v mmvalue.Value) float64 {
		raw := Encode(v)
		return testing.AllocsPerRun(100, func() {
			if _, err := Decode(raw); err != nil {
				t.Fatal(err)
			}
		})
	}
	small := allocs(object(3))
	if small > 3 {
		t.Errorf("a 3-field object costs %.0f allocations, want at most 3", small)
	}
	for name, v := range map[string]mmvalue.Value{"300-field object": object(300), "300-element array": array(300)} {
		if got := allocs(v); got != small {
			t.Errorf("a %s costs %.0f allocations, a 3-field object %.0f", name, got, small)
		}
	}
}

// TestDecodeBytesIndependentOfSize bounds the bytes a decode allocates: a
// 300-field object costs its field arena (300 Fields of 40 bytes), one copy
// of the record's bytes for names and strings, and size-class rounding.
func TestDecodeBytesIndependentOfSize(t *testing.T) {
	fields := make([]mmvalue.Field, 300)
	for i := range fields {
		v := mmvalue.Int(int64(i))
		if i%2 == 1 {
			v = mmvalue.String("x")
		}
		fields[i] = mmvalue.F(fmt.Sprintf("f%03d", i), v)
	}
	raw := Encode(mmvalue.ObjectOf(fields))
	const runs = 100
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := Decode(raw); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	got := (after.TotalAlloc - before.TotalAlloc) / runs
	if limit := uint64(300*40 + len(raw) + 1024); got > limit {
		t.Errorf("decoding a 300-field object (%d-byte record) allocates %d bytes, want at most %d",
			len(raw), got, limit)
	}
}

// TestDecodeArenaSubSlicesAreCapped appends to one decoded array and checks
// that its neighbours, cut from the same arena, are untouched.
func TestDecodeArenaSubSlicesAreCapped(t *testing.T) {
	v, err := Decode(Encode(mmvalue.MustParseJSON(`{"a":[1,2],"b":[3],"c":{"d":4},"e":{"f":5}}`)))
	if err != nil {
		t.Fatal(err)
	}
	_ = append(v.GetOr("a").AsArray(), mmvalue.Int(99))
	_ = append(v.GetOr("c").Fields(), mmvalue.F("z", mmvalue.Int(99)))
	if want := mmvalue.MustParseJSON(`{"a":[1,2],"b":[3],"c":{"d":4},"e":{"f":5}}`); !mmvalue.Equal(v, want) {
		t.Fatalf("appending to a decoded member changed its neighbour: %v", v)
	}
}

// TestDecodeUnsortedObject decodes a record whose names are out of order
// and duplicated, as no encoder writes them: it must come out as
// mmvalue.ObjectOf would build it, sorted, keeping the last duplicate.
func TestDecodeUnsortedObject(t *testing.T) {
	raw := []byte{tObject, 3, 1, 'b', tInt, 2, 1, 'a', tTrue, 1, 'b', tInt, 4}
	v, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if want := mmvalue.MustParseJSON(`{"a":true,"b":2}`); !mmvalue.Equal(v, want) {
		t.Fatalf("got %v, want %v", v, want)
	}
}

func TestDecodedBytesDoNotAlias(t *testing.T) {
	src := Encode(mmvalue.Bytes([]byte{1, 2, 3}))
	v, err := Decode(src)
	if err != nil {
		t.Fatal(err)
	}
	src[len(src)-1] = 99
	if v.AsBytes()[2] == 99 {
		t.Fatal("decoded bytes alias the input buffer")
	}
}

func TestMustDecodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustDecode should panic on bad input")
		}
	}()
	MustDecode([]byte{0x99})
}

func BenchmarkEncodeOrderDoc(b *testing.B) {
	doc := mmvalue.MustParseJSON(`{"Order_no":"0c6df508","Orderlines":[
		{"Product_no":"2724f","Product_Name":"Toy","Price":66},
		{"Product_no":"3424g","Product_Name":"Book","Price":40}]}`)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Encode(doc)
	}
}

func BenchmarkDecodeOrderDoc(b *testing.B) {
	doc := mmvalue.MustParseJSON(`{"Order_no":"0c6df508","Orderlines":[
		{"Product_no":"2724f","Product_Name":"Toy","Price":66},
		{"Product_no":"3424g","Product_Name":"Book","Price":40}]}`)
	data := Encode(doc)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}
