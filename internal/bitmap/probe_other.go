//go:build !amd64

package bitmap

// countSet16 has no vector form on this architecture: it counts nothing
// and leaves every probe to the scalar loop.
func countSet16(words []uint64, vs []uint32) (c uint32, ok bool) { return 0, false }
