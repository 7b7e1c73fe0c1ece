// Package intersect implements the set-intersection kernels the paper
// studies. Each kernel below has an instrumented (work-counting) twin named
// with a Stats suffix:
//
//   - Merge: the scalar two-pointer merge M, the paper's baseline
//     (Algorithm 1, IntersectM).
//   - PivotSkip: the pivot-skip merge PS (Algorithm 1, IntersectPS) built
//     on a lower bound that chains a linear-search window, galloping
//     (exponential) skips, and a final binary search.
//   - MPS: the combined algorithm that picks PS for degree-skewed pairs and
//     the vectorized block-wise merge VB otherwise, controlled by the skew
//     threshold t.
//   - Bitmap/BitmapRF: the indexed nested-loop probes of BMP
//     (Algorithm 2, IntersectBMP), optionally through the range filter.
//
// On amd64, VB runs AVX2 assembly and the Bitmap probe AVX-512 assembly,
// chosen once at init by internal/simd; other hosts run the scalar loops. Merge stays scalar: it is the paper's baseline. The
// Stats twins are scalar everywhere; BlockMergeStats tallies VB's blocks
// at a given lane width for the processor models, whatever the host runs.
//
// All kernels operate on ascending-sorted uint32 slices and return the
// match count |A ∩ B|.
package intersect

import (
	"cncount/internal/stats"
)

// Merge counts |a ∩ b| with the scalar two-pointer merge (baseline M).
func Merge(a, b []uint32) uint32 {
	var c uint32
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			c++
			i++
			j++
		}
	}
	return c
}

// MergeThreshold decides whether |a ∩ b| ≥ threshold without necessarily
// finishing the merge: it returns as soon as the count reaches the
// threshold (success) or as soon as the remaining elements cannot reach it
// (failure). This early-exit check is the core pruning primitive of
// SCAN-family clustering [8, 9]: deciding σ(u,v) ≥ ε needs only a count
// comparison, not the exact count.
//
// The returned count is the tally at the moment the decision became
// certain: a lower bound on |a ∩ b| in both outcomes, not the exact count.
func MergeThreshold(a, b []uint32, threshold uint32) (count uint32, reached bool) {
	if threshold == 0 {
		return 0, true
	}
	var c uint32
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		// Upper bound on achievable matches: current count plus the
		// shorter remaining suffix.
		remaining := uint32(len(a) - i)
		if r := uint32(len(b) - j); r < remaining {
			remaining = r
		}
		if c+remaining < threshold {
			return c, false
		}
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			c++
			if c >= threshold {
				return c, true
			}
			i++
			j++
		}
	}
	return c, false
}

// MergeStats is Merge with work accounting.
func MergeStats(a, b []uint32, w *stats.Work) uint32 {
	var c uint32
	i, j := 0, 0
	var cmps uint64
	for i < len(a) && j < len(b) {
		cmps++
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			c++
			i++
			j++
		}
	}
	w.Intersections++
	w.Comparisons += cmps
	w.Matches += uint64(c)
	w.BytesStreamed += uint64(i+j) * 4
	return c
}
