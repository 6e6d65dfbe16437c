package binenc

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/mmvalue"
)

func TestDecodeCacheRoundTrip(t *testing.T) {
	dc := NewDecodeCache(64)
	v := mmvalue.MustParseJSON(`{"a":1,"b":["x",true,null]}`)
	raw := Encode(v)
	first, err := dc.Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	second, err := dc.Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !mmvalue.Equal(first, v) || !mmvalue.Equal(second, v) {
		t.Fatalf("decode mismatch: %v / %v vs %v", first, second, v)
	}
	if !bytes.Equal(Encode(first), raw) || !bytes.Equal(Encode(second), raw) {
		t.Fatal("cached decode does not re-encode to the stored bytes")
	}
}

func TestDecodeCacheDistinguishesContent(t *testing.T) {
	dc := NewDecodeCache(64)
	a := Encode(mmvalue.Int(1))
	b := Encode(mmvalue.Int(2))
	va, _ := dc.Decode(a)
	vb, _ := dc.Decode(b)
	if va.AsInt() != 1 || vb.AsInt() != 2 {
		t.Fatalf("got %v, %v", va, vb)
	}
}

func TestDecodeCacheError(t *testing.T) {
	dc := NewDecodeCache(64)
	if _, err := dc.Decode([]byte{0xff, 0x01}); err == nil {
		t.Fatal("corrupt input decoded without error")
	}
}

// TestDecodeCacheMissCopiesOnce checks that a miss stores a record's bytes
// once: the decoded strings share the map key's copy instead of taking a
// second one.
func TestDecodeCacheMissCopiesOnce(t *testing.T) {
	const records, size = 64, 4096
	raws := make([][]byte, records)
	for i := range raws {
		raws[i] = Encode(mmvalue.Object(mmvalue.F("s", mmvalue.String(strings.Repeat(string(rune('a'+i%26)), size)+fmt.Sprint(i)))))
	}
	dc := NewDecodeCache(4 * records)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, raw := range raws {
		if _, err := dc.Decode(raw); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if perMiss := (after.TotalAlloc - before.TotalAlloc) / records; perMiss > size*3/2 {
		t.Fatalf("a miss on a %d B record allocates %d B, want one copy", size, perMiss)
	}
}

func TestDecodeCacheBounded(t *testing.T) {
	dc := NewDecodeCache(32)
	for i := 0; i < 10000; i++ {
		raw := Encode(mmvalue.String(fmt.Sprintf("v%d", i)))
		if _, err := dc.Decode(raw); err != nil {
			t.Fatal(err)
		}
	}
	total := 0
	for i := range dc.shards {
		dc.shards[i].mu.RLock()
		total += len(dc.shards[i].m)
		dc.shards[i].mu.RUnlock()
	}
	if total > 64 {
		t.Fatalf("cache grew to %d entries despite capacity 32", total)
	}
}

func TestDecodeCacheConcurrent(t *testing.T) {
	dc := NewDecodeCache(128)
	raws := make([][]byte, 50)
	for i := range raws {
		raws[i] = Encode(mmvalue.Int(int64(i)))
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				v, err := dc.Decode(raws[(i+w)%len(raws)])
				if err != nil || v.AsInt() != int64((i+w)%len(raws)) {
					t.Errorf("decode(%d) = %v, %v", (i+w)%len(raws), v, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
