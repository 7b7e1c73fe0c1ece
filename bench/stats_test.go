package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // reversed, so sorting is exercised
	}
	return xs
}

func TestNearestRank(t *testing.T) {
	s := sortedFloats(seq(10))
	for _, c := range []struct{ p, want float64 }{
		{1, 1}, {10, 1}, {10.1, 2}, {50, 5}, {90, 9}, {90.5, 10}, {100, 10},
	} {
		if got := nearestRank(s, c.p); got != c.want {
			t.Errorf("p%g of 1..10 = %g, want %g", c.p, got, c.want)
		}
	}
	if got := nearestRank(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %g, want 0", got)
	}
	if got := median(seq(7)); got != 4 {
		t.Errorf("median of 1..7 = %g, want 4", got)
	}
}

// The tail is the highest percentile with at least tailBeyond samples
// above it, capped at p99.
func TestTail(t *testing.T) {
	for _, c := range []struct {
		n            int
		value, pct   float64
		wantReported bool
	}{
		{n: 10},
		{n: 11, value: 1, pct: 100.0 / 11, wantReported: true},
		{n: 40, value: 30, pct: 75, wantReported: true},
		{n: 100, value: 90, pct: 90, wantReported: true},
		{n: 1000, value: 990, pct: 99, wantReported: true},
		{n: 20000, value: 19800, pct: 99, wantReported: true},
	} {
		v, pct, ok := tail(seq(c.n))
		if ok != c.wantReported {
			t.Errorf("n=%d: reported=%v, want %v", c.n, ok, c.wantReported)
			continue
		}
		if !ok {
			continue
		}
		if v != c.value || math.Abs(pct-c.pct) > 1e-9 {
			t.Errorf("n=%d: tail %g at p%g, want %g at p%g", c.n, v, pct, c.value, c.pct)
		}
		if beyond := float64(c.n) - v; beyond < tailBeyond {
			t.Errorf("n=%d: only %g samples above the tail", c.n, beyond)
		}
	}
}
