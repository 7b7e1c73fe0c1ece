package intersect

import (
	"cncount/internal/simd"
	"cncount/internal/stats"
)

// Lane widths of the vector ISAs the paper targets. An AVX2 register holds
// eight 32-bit integers and an AVX-512 register sixteen; the VB merge
// compares a block of lanes pivots against a block of lanes candidates in
// one all-pair step.
const (
	LanesAVX2   = 8
	LanesAVX512 = 16
)

// blockMerge counts |a ∩ b| with the executed VB. Under AVX2 it steps
// 8-lane blocks while both lists have a whole one left, and the scalar
// Merge finishes the sub-block tail, or the whole pair on a host without
// AVX2. The block schedule counts every match outside a[i:] × b[j:], so
// Merge resumes where the blocks stopped. AVX-512 hosts run the same
// 8-lane kernel: a 16-lane one measured no faster.
func blockMerge(a, b []uint32) uint32 {
	var c uint32
	var i, j int
	if simd.AVX2 && len(a) >= LanesAVX2 && len(b) >= LanesAVX2 {
		c, i, j = blockMerge8(a, b)
	}
	return c + Merge(a[i:], b[j:])
}

// BlockMergeStats counts |a ∩ b| under the block schedule of the vectorized
// block-wise merge VB (Inoue et al. [14], paper §3.1 and Figure 1) and
// tallies its work: load one block of lanes elements from each array,
// compare all pairs, then advance the block whose last element is smaller
// by a whole block. Each all-pair step is one VectorBlock, the SIMD unit of
// work the archsim cost model charges at the modeled lane width; the
// sub-block tail is tallied as TailComparisons.
//
// It counts with scalar code at any lane width, so the modeled work does
// not depend on the host; executed MPS runs the same schedule in
// blockMerge. lanes <= 1 is the scalar merge.
func BlockMergeStats(a, b []uint32, lanes int, w *stats.Work) uint32 {
	if lanes <= 1 {
		return MergeStats(a, b, w)
	}
	var c uint32
	var blocks uint64
	i, j := 0, 0
	for i+lanes <= len(a) && j+lanes <= len(b) {
		blocks++
		blockA := a[i : i+lanes]
		blockB := b[j : j+lanes]
		// Both blocks are sorted and duplicate-free, so counting equal
		// pairs counts each match exactly once.
		for _, x := range blockA {
			for _, y := range blockB {
				if x == y {
					c++
				}
			}
		}
		// Advance the block with the smaller last element; on a tie both
		// advance (every match involving either block has been counted).
		lastA, lastB := blockA[lanes-1], blockB[lanes-1]
		if lastA <= lastB {
			i += lanes
		}
		if lastB <= lastA {
			j += lanes
		}
	}
	w.Intersections++
	w.VectorBlocks += blocks
	w.BytesStreamed += uint64(i+j) * 4
	// The sub-block tail is counted separately: a vector ISA runs it under
	// a mask, cheaper than the branchy merge loop.
	var tailWork stats.Work
	tail := MergeStats(a[i:], b[j:], &tailWork)
	w.TailComparisons += tailWork.Comparisons
	w.BytesStreamed += tailWork.BytesStreamed
	w.Matches += uint64(c) + tailWork.Matches
	return c + tail
}
