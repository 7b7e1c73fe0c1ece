package triangle

import "cncount/internal/intersect"

// hashSet adapts intersect.HashIndex, the index HashCount probes, to the
// incremental add/has/reset form TestHashSet and
// TestHashSetPropertyMatchesMap drive. Adds are buffered and the index
// is rebuilt from them before the next lookup, so the tests exercise
// HashIndex's own Rebuild and Contains.
type hashSet struct {
	idx   *intersect.HashIndex
	keys  []uint32
	stale bool
}

func newHashSet(capacity int) *hashSet {
	return &hashSet{idx: intersect.NewHashIndex(capacity)}
}

func (h *hashSet) add(key uint32) {
	h.keys = append(h.keys, key)
	h.stale = true
}

func (h *hashSet) has(key uint32) bool {
	if h.stale {
		h.idx.Rebuild(h.keys)
		h.stale = false
	}
	return h.idx.Contains(key)
}

func (h *hashSet) reset(int) {
	h.keys = h.keys[:0]
	h.stale = true
}
