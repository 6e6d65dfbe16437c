package keyenc

import (
	"bytes"
	"math"
	"math/rand"
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
		return mmvalue.Int(r.Int63n(1<<50) - (1 << 49))
	case 3:
		return mmvalue.Float(r.NormFloat64() * 1e6)
	case 4:
		n := r.Intn(10)
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(r.Intn(256)) // includes 0x00 to exercise escaping
		}
		return mmvalue.String(string(b))
	case 5:
		b := make([]byte, r.Intn(10))
		r.Read(b)
		return mmvalue.Bytes(b)
	case 6:
		n := r.Intn(4)
		arr := make([]mmvalue.Value, n)
		for i := range arr {
			arr[i] = genValue(r, depth-1)
		}
		return mmvalue.ArrayOf(arr)
	default:
		n := r.Intn(4)
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
		mmvalue.Null,
		mmvalue.True, mmvalue.False,
		mmvalue.Int(0), mmvalue.Int(-1), mmvalue.Int(1 << 40),
		mmvalue.Float(0.5), mmvalue.Float(-2.25),
		mmvalue.String(""), mmvalue.String("hello"), mmvalue.String("with\x00zero"),
		mmvalue.Bytes([]byte{0, 1, 0xff, 0}),
		mmvalue.Array(mmvalue.Int(1), mmvalue.String("x")),
		mmvalue.MustParseJSON(`{"a":1,"b":[true,null]}`),
	}
	for _, v := range values {
		key := Encode(v)
		back, err := Decode(key)
		if err != nil {
			t.Fatalf("Decode(%v): %v", v, err)
		}
		if len(back) != 1 || !mmvalue.Equal(back[0], v) {
			t.Errorf("round trip %v -> %v", v, back)
		}
		if back[0].Kind() != v.Kind() {
			t.Errorf("round trip changed kind of %v: %v -> %v", v, v.Kind(), back[0].Kind())
		}
	}
}

func TestTupleRoundTrip(t *testing.T) {
	key := Encode(mmvalue.String("customers"), mmvalue.Int(42), mmvalue.String("orders"))
	back, err := Decode(key)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 3 || back[0].AsString() != "customers" || back[1].AsInt() != 42 || back[2].AsString() != "orders" {
		t.Fatalf("tuple round trip = %v", back)
	}
}

func TestOrderPreservationCurated(t *testing.T) {
	// Values in strictly increasing mmvalue order.
	ordered := []mmvalue.Value{
		mmvalue.Null,
		mmvalue.False, mmvalue.True,
		mmvalue.Int(-100), mmvalue.Float(-0.5), mmvalue.Int(0), mmvalue.Float(1.5), mmvalue.Int(2), mmvalue.Int(1 << 30),
		mmvalue.String(""), mmvalue.String("a"), mmvalue.String("a\x00"), mmvalue.String("a\x00b"), mmvalue.String("ab"),
		mmvalue.Bytes([]byte{}), mmvalue.Bytes([]byte{0}), mmvalue.Bytes([]byte{0, 0}), mmvalue.Bytes([]byte{1}),
		mmvalue.Array(), mmvalue.Array(mmvalue.Int(1)), mmvalue.Array(mmvalue.Int(1), mmvalue.Int(1)), mmvalue.Array(mmvalue.Int(2)),
		mmvalue.Object(), mmvalue.Object(mmvalue.F("a", mmvalue.Int(1))),
	}
	for i := 0; i+1 < len(ordered); i++ {
		a, b := Encode(ordered[i]), Encode(ordered[i+1])
		if bytes.Compare(a, b) >= 0 {
			t.Errorf("encoding violates order: %v !< %v", ordered[i], ordered[i+1])
		}
	}
}

func TestPropertyOrderPreservation(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := genValue(r, 3), genValue(r, 3)
		cmp := mmvalue.Compare(a, b)
		enc := bytes.Compare(Encode(a), Encode(b))
		return sign(cmp) == sign(enc)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v := genValue(r, 3)
		back, err := Decode(Encode(v))
		if err != nil || len(back) != 1 {
			return false
		}
		return mmvalue.Equal(back[0], v) && back[0].Kind() == v.Kind()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyTupleOrder(t *testing.T) {
	// Composite keys: element-wise tuple comparison must match byte order.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a1, a2 := genValue(r, 2), genValue(r, 2)
		b1, b2 := genValue(r, 2), genValue(r, 2)
		tupleCmp := mmvalue.Compare(a1, b1)
		if tupleCmp == 0 {
			tupleCmp = mmvalue.Compare(a2, b2)
		}
		encCmp := bytes.Compare(Encode(a1, a2), Encode(b1, b2))
		return sign(tupleCmp) == sign(encCmp)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestPrefixScanBounds(t *testing.T) {
	// AppendMin/AppendMax bound all keys sharing a prefix.
	prefix := AppendString(nil, "coll")
	lo := AppendMin(bytes.Clone(prefix))
	hi := AppendMax(bytes.Clone(prefix))
	for _, suffix := range []mmvalue.Value{mmvalue.Null, mmvalue.Int(5), mmvalue.String("zz"), mmvalue.Object()} {
		key := Append(bytes.Clone(prefix), suffix)
		if bytes.Compare(key, lo) <= 0 {
			t.Errorf("key %v not after min bound", suffix)
		}
		if bytes.Compare(key, hi) >= 0 {
			t.Errorf("key %v not before max bound", suffix)
		}
	}
	// A different prefix must fall outside the bounds.
	other := Append(AppendString(nil, "collx"), mmvalue.Int(1))
	if bytes.Compare(other, lo) > 0 && bytes.Compare(other, hi) < 0 {
		t.Error("foreign prefix leaked into scan bounds")
	}
}

func TestAppendHelpersMatchValueEncoding(t *testing.T) {
	if !bytes.Equal(AppendString(nil, "abc"), Encode(mmvalue.String("abc"))) {
		t.Error("AppendString diverges from Encode")
	}
	if !bytes.Equal(AppendInt(nil, 42), Encode(mmvalue.Int(42))) {
		t.Error("AppendInt diverges from Encode")
	}
}

// TestIntsPast2To53 checks ints around ±2^53 and ±2^63: each gets a key of
// its own, keys sort as the ints do, every key decodes to its own int, and
// ints of magnitude below 2^53 keep their ten-byte encoding.
func TestIntsPast2To53(t *testing.T) {
	const p53 = int64(1) << 53
	ints := []int64{
		math.MinInt64, math.MinInt64 + 1, math.MinInt64 + 1024,
		-p53 - 5, -p53 - 4, -p53 - 3, -p53 - 2, -p53 - 1, -p53, -p53 + 1,
		-1, 0, 1,
		p53 - 1, p53, p53 + 1, p53 + 2, p53 + 3, p53 + 4, p53 + 5,
		math.MaxInt64 - 1024, math.MaxInt64 - 1, math.MaxInt64,
	}
	for i, x := range ints {
		key := AppendInt(nil, x)
		if i > 0 {
			if prev := AppendInt(nil, ints[i-1]); bytes.Compare(prev, key) >= 0 {
				t.Errorf("key of %d does not sort after key of %d", x, ints[i-1])
			}
		}
		back, err := Decode(key)
		if err != nil || len(back) != 1 || back[0].Kind() != mmvalue.KindInt || back[0].AsInt() != x {
			t.Errorf("Decode(key of %d) = %v, %v", x, back, err)
		}
		if n, err := Skip(key); err != nil || n != len(key) {
			t.Errorf("Skip(key of %d) = %d, %v; key has %d bytes", x, n, err, len(key))
		}
		if small := x > -p53 && x < p53; small != (len(key) == 10) {
			t.Errorf("key of %d has %d bytes", x, len(key))
		}
	}
	// Against floats the order follows mmvalue.Compare wherever it tells
	// two numbers apart.
	nums := []mmvalue.Value{mmvalue.Float(-0x1p63), mmvalue.Float(float64(-p53 - 2)), mmvalue.Float(float64(-p53)),
		mmvalue.Float(float64(p53)), mmvalue.Float(float64(p53 + 2)), mmvalue.Float(float64(p53 + 4)), mmvalue.Float(0x1p63)}
	for _, x := range ints {
		nums = append(nums, mmvalue.Int(x))
	}
	for _, a := range nums {
		for _, b := range nums {
			if c := mmvalue.Compare(a, b); c != 0 && sign(bytes.Compare(Encode(a), Encode(b))) != c {
				t.Errorf("%v vs %v: Compare %d, keys disagree", a, b, c)
			}
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	bad := [][]byte{
		{0x05},                               // short number
		{0x06, 'a'},                          // unterminated string
		{0x06, 0x00, 0x02},                   // bad escape
		{0x42},                               // unknown tag
		{0x05, 0, 0, 0, 0, 0, 0, 0, 0, 0x07}, // bad disambiguator
		// 2^53 without its exact value, and with one that is not 2^53.
		{0x05, 0xc3, 0x40, 0, 0, 0, 0, 0, 0, 0x00},
		{0x05, 0xc3, 0x40, 0, 0, 0, 0, 0, 0, 0x00, 0x80, 0x30, 0, 0, 0, 0, 0, 0},
	}
	for _, b := range bad {
		if _, err := Decode(b); err == nil {
			t.Errorf("Decode(%x) should fail", b)
		}
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
