package main

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"
)

// A stall in the handler must show in the latency of the requests that
// fell due while it lasted, because the open loop times each request from
// its due time, and must not be blamed on the generator.
func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	const (
		n        = 80
		rate     = 1000 // one request due every millisecond
		stallAt  = 10
		stall    = 50 * time.Millisecond
		interval = time.Second / rate
		slack    = 5 * time.Millisecond
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("i") == strconv.Itoa(stallAt) {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	c := newClient(srv.Listener.Addr().String())
	defer c.close()

	samples := openLoop(1, rate, n, func(_, i int) time.Time {
		if _, _, err := c.get("/?i=" + strconv.Itoa(i)); err != nil {
			t.Error(err)
		}
		return time.Now()
	})

	stallEnd := time.Duration(stallAt)*interval + stall
	for i := stallAt + 1; i < stallAt+40; i++ {
		// Request i fell due at i·interval but could only go out when the
		// stalled request returned.
		if min := stallEnd - time.Duration(i)*interval - slack; samples[i].lat < min {
			t.Errorf("request %d: latency %v, want at least %v", i, samples[i].lat, min)
		}
	}
	for i := 0; i < stallAt; i++ {
		if samples[i].lat > stall/2 {
			t.Errorf("request %d before the stall: latency %v", i, samples[i].lat)
		}
	}
	for i, s := range samples {
		if s.late > stall/2 {
			t.Errorf("request %d: generator late by %v; the stall is the server's", i, s.late)
		}
	}
}
