package main

import (
	"testing"
	"time"
)

// fakeClock is a clock a test advances by hand; sleeping advances it.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time        { return c.t }
func (c *fakeClock) sleep(d time.Duration) { c.t = c.t.Add(d) }

func TestPacerTimesFromDueTime(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	p := newPacer(clk.t, 100) // one request every 10 ms
	p.now, p.sleep = clk.now, clk.sleep

	var latencies, lates []time.Duration
	for i := 0; i < 30; i++ {
		due, late := p.next()
		if want := time.Unix(1000, 0).Add(time.Duration(i) * 10 * time.Millisecond); !due.Equal(want) {
			t.Fatalf("request %d due %v, want %v", i, due, want)
		}
		service := time.Millisecond
		if i == 5 {
			service = 200 * time.Millisecond // the stall
		}
		clk.sleep(service)
		latencies = append(latencies, clk.now().Sub(due))
		lates = append(lates, late)
	}
	for i := 0; i < 5; i++ {
		if latencies[i] != time.Millisecond || lates[i] != 0 {
			t.Fatalf("request %d before the stall: latency %v, late %v", i, latencies[i], lates[i])
		}
	}
	if latencies[5] != 200*time.Millisecond {
		t.Fatalf("stalled request: latency %v", latencies[5])
	}
	// Request 6 was due at 60 ms but could not be sent before 250 ms: it is
	// 190 ms late and its latency, timed from its due time, carries that.
	if lates[6] != 190*time.Millisecond || latencies[6] != 191*time.Millisecond {
		t.Fatalf("request after the stall: late %v, latency %v; want 190ms, 191ms", lates[6], latencies[6])
	}
	// The backlog drains by 9 ms per request (10 ms schedule, 1 ms service).
	if lates[7] != 181*time.Millisecond {
		t.Fatalf("second request after the stall: late %v, want 181ms", lates[7])
	}
	carried := 0
	for i := 6; i < 30; i++ {
		if latencies[i] > time.Millisecond {
			carried++
		}
	}
	if carried < 20 {
		t.Fatalf("only %d later requests carry the stall; a closed loop would have hidden it in one", carried)
	}
	if lates[29] != 0 {
		t.Fatalf("generator still %v late at the end", lates[29])
	}
}
