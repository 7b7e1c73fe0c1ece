//go:build !amd64

package bitmap

// countSetRank has no vector form on this architecture: it counts nothing
// and leaves every probe to the scalar loop.
func countSetRank(words []uint64, vs []uint32, u uint32) (c, rank uint32, ok bool) {
	return 0, 0, false
}
