package intersect

// blockMerge8 runs VB's block schedule over a and b with AVX2, 8 lanes
// per block, while both have a whole block left. It returns the matches
// it counted and the offsets i, j where it stopped; the caller merges
// a[i:] and b[j:].
//
//go:noescape
func blockMerge8(a, b []uint32) (c uint32, i, j int)
