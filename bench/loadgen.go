package main

import (
	"sync"
	"time"
)

// sample is one request's timing.
type sample struct {
	// lat runs from when the request was due until its response was read,
	// so a stall also delays every request queued behind it.
	lat time.Duration
	// late is how long after it could have been sent the generator sent
	// the request: after its due time, or after the previous request on the
	// connection finished, whichever is later. It measures the generator,
	// not the system.
	late time.Duration
	// svc runs from sending the request to reading its response.
	svc time.Duration
}

// openLoop sends n requests over conns connections on a fixed schedule:
// request i is due at start + i/rate and goes out on connection i mod
// conns, which sends its requests one at a time. do(conn, i) performs
// request i and returns when its response was read; anything do runs after
// that delays the connection's next request but not this one's latency.
// openLoop returns once every request finished.
func openLoop(conns int, rate float64, n int, do func(conn, i int) time.Time) []sample {
	out := make([]sample, n)
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			pinPrecise()
			free := start
			for i := c; i < n; i += conns {
				due := start.Add(time.Duration(i) * interval)
				sleepUntil(due)
				sent := time.Now()
				ready := due
				if free.After(ready) {
					ready = free
				}
				end := do(c, i)
				free = time.Now()
				out[i] = sample{lat: end.Sub(due), late: sent.Sub(ready), svc: end.Sub(sent)}
			}
		}(c)
	}
	wg.Wait()
	return out
}
