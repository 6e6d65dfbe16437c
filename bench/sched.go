package main

import "time"

// pacer is an open-loop schedule: request i is due at start + i*interval
// whether or not earlier requests have completed. A request is timed from its
// due time, so a stall is charged to every request it delays, not only to the
// one that was in flight (coordinated omission). now and sleep are fields so
// a test can drive the clock.
type pacer struct {
	start    time.Time
	interval time.Duration
	n        int
	now      func() time.Time
	sleep    func(time.Duration)
}

func newPacer(start time.Time, perSecond float64) *pacer {
	return &pacer{
		start:    start,
		interval: time.Duration(float64(time.Second) / perSecond),
		now:      time.Now,
		sleep:    time.Sleep,
	}
}

// next blocks until the next request is due and returns its due time and how
// late the generator is in sending it: the backlog behind a slow request, or
// just the sleep's overshoot.
func (p *pacer) next() (due time.Time, late time.Duration) {
	due = p.start.Add(time.Duration(p.n) * p.interval)
	p.n++
	if wait := due.Sub(p.now()); wait > 0 {
		p.sleep(wait)
	}
	return due, max(p.now().Sub(due), 0)
}
