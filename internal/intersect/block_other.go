//go:build !amd64

package intersect

// blockMerge8 has no vector form on this architecture: it consumes no
// block and leaves the whole pair to the scalar merge.
func blockMerge8(a, b []uint32) (c uint32, i, j int) { return 0, 0, 0 }
