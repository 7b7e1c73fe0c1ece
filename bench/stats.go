package main

import (
	"math"
	"sort"
	"time"
)

// tailBeyond is how many samples must lie above a reported tail
// percentile: with fewer, the percentile is set by one or two outliers.
const tailBeyond = 10

// sortedFloats returns a sorted copy of xs.
func sortedFloats(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// nearestRank returns the p-th percentile (0 < p ≤ 100) of sorted by the
// nearest-rank rule: the sample at 1-based rank ⌈p/100·n⌉. It returns 0
// for an empty sample.
func nearestRank(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return sorted[r-1]
}

// median is the nearest-rank p50.
func median(xs []float64) float64 { return nearestRank(sortedFloats(xs), 50) }

// tail returns the highest nearest-rank percentile, capped at p99, that
// still has at least tailBeyond samples above it, together with that
// percentile. ok is false when the sample is too small to have one.
func tail(xs []float64) (value, pct float64, ok bool) {
	s := sortedFloats(xs)
	n := len(s)
	if n <= tailBeyond {
		return 0, 0, false
	}
	r := int(math.Ceil(0.99 * float64(n)))
	if r > n-tailBeyond {
		r = n - tailBeyond
	}
	return s[r-1], 100 * float64(r) / float64(n), true
}

// mean returns the arithmetic mean, 0 for an empty sample.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ms, us and secs convert durations to the float units metrics report.
func ms(d time.Duration) float64   { return float64(d) / 1e6 }
func us(d time.Duration) float64   { return float64(d) / 1e3 }
func secs(d time.Duration) float64 { return d.Seconds() }
