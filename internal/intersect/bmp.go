package intersect

import (
	"cncount/internal/bitmap"
	"cncount/internal/stats"
)

// Bitmap counts |N(u) ∩ A| where b is the bitmap index of N(u): loop over
// every w ∈ A and count the set bits (Algorithm 2, IntersectBMP), 16 IDs
// per step and the last len(A) % 16 in one masked step where the host has
// AVX-512 (bitmap.CountSetVector). It ignores the kernel's rank: core's
// edge loop takes it from CountSetVector to find the reverse offset.
func Bitmap(b *bitmap.Bitmap, a []uint32) uint32 {
	c, _ := b.CountSetVector(a, 0)
	return c
}

// BitmapStats is Bitmap with work accounting. Every probe of the
// full-cardinality bitmap is a potentially cache-missing random access.
func BitmapStats(b *bitmap.Bitmap, a []uint32, w *stats.Work) uint32 {
	c := Bitmap(b, a)
	w.Intersections++
	w.BitmapTests += uint64(len(a))
	w.RandomAccesses += uint64(len(a))
	w.BytesStreamed += uint64(len(a)) * 4
	w.Matches += uint64(c)
	return c
}

// BitmapRF counts |N(u) ∩ A| through a range-filtered bitmap index: the
// small filter answers probes whose whole ID range holds no neighbor of u,
// so the big bitmap is touched only where matches are possible (the RF
// optimization, §4.3).
func BitmapRF(rf *bitmap.RangeFiltered, a []uint32) uint32 {
	var c uint32
	for _, w := range a {
		if rf.Test(w) {
			c++
		}
	}
	return c
}

// BitmapRFStats is BitmapRF with work accounting: filter probes are cheap
// (the filter fits in L1/shared memory); only unfiltered probes count as
// random accesses to the big bitmap.
func BitmapRFStats(rf *bitmap.RangeFiltered, a []uint32, w *stats.Work) uint32 {
	var c uint32
	for _, v := range a {
		hit, filtered := rf.TestCounted(v)
		w.FilterTests++
		if filtered {
			w.FilterSkips++
			continue
		}
		w.BitmapTests++
		w.RandomAccesses++
		if hit {
			c++
		}
	}
	w.Intersections++
	w.BytesStreamed += uint64(len(a)) * 4
	w.Matches += uint64(c)
	return c
}
