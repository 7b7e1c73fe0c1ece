package intersect

import "cncount/internal/stats"

// DefaultSkewThreshold is the paper's empirical degree-skew ratio for
// switching from the merge to pivot-skip ("We choose an empirical number 50
// as the threshold to control the merge algorithm selection in MPS",
// §5.1).
const DefaultSkewThreshold = 50

// Skewed reports whether the pair of set sizes is highly degree-skewed with
// respect to threshold t, i.e. d_a/d_b > t or d_b/d_a > t (Algorithm 1
// line 2 negated). Empty sets are never considered skewed; their
// intersections are trivially empty under either merge.
func Skewed(la, lb int, t float64) bool {
	if la == 0 || lb == 0 {
		return false
	}
	return float64(la) > t*float64(lb) || float64(lb) > t*float64(la)
}

// MPS counts |a ∩ b| with the paper's combined merge (Algorithm 1 lines
// 2-4): PivotSkip when the cardinalities are skewed beyond threshold t,
// the block-wise merge VB otherwise.
func MPS(a, b []uint32, t float64) uint32 {
	if Skewed(len(a), len(b), t) {
		return PivotSkip(a, b)
	}
	return blockMerge(a, b)
}

// MPSStats is MPS with work accounting. Balanced pairs are counted under
// VB's block schedule at the given lane width (BlockMergeStats), which is
// the work the processor models charge.
func MPSStats(a, b []uint32, t float64, lanes int, w *stats.Work) uint32 {
	if Skewed(len(a), len(b), t) {
		return PivotSkipStats(a, b, w)
	}
	return BlockMergeStats(a, b, lanes, w)
}
