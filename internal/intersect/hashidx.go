package intersect

// HashIndex is the index-based nested-loop comparator from the related work
// (§2.2.1 [5,12,20]): a dynamic open-addressing hash set built over one
// neighbor list and probed by the other. The paper's BMP chooses a bitmap
// over such structures "to support put and lookup operations at the actual
// constant time cost via simple bit operations"; this type exists to
// quantify that choice (see the intersect benchmarks: hash probes carry
// hashing and probing overhead a bitmap peek does not, at the price of
// O(|V|) bitmap memory versus O(d_u) hash memory).
//
// The zero value is unusable; construct with NewHashIndex. Like the
// thread-local bitmap, a HashIndex is reused across intersections of the
// same source vertex.
type HashIndex struct {
	slots []uint32
	mask  uint32
	n     int
}

const hashIdxEmpty = ^uint32(0)

// NewHashIndex returns an index with capacity for at least `capacity` keys
// at 50% maximum load. The table is never empty, so probing an index built
// from an empty key list is well defined.
func NewHashIndex(capacity int) *HashIndex {
	h := &HashIndex{}
	h.grow(capacity)
	return h
}

func (h *HashIndex) grow(n int) {
	size := 16
	for size < 2*n {
		size <<= 1
	}
	h.slots = make([]uint32, size)
	h.mask = uint32(size - 1)
	for i := range h.slots {
		h.slots[i] = hashIdxEmpty
	}
}

// Rebuild repopulates the index with the given keys, reallocating only when
// the current table is too small.
func (h *HashIndex) Rebuild(keys []uint32) {
	if 2*len(keys) > len(h.slots) || len(h.slots) == 0 {
		h.grow(len(keys))
	} else {
		for i := range h.slots {
			h.slots[i] = hashIdxEmpty
		}
	}
	h.n = len(keys)
	for _, k := range keys {
		i := mix32(k) & h.mask
		for h.slots[i] != hashIdxEmpty {
			if h.slots[i] == k {
				break
			}
			i = (i + 1) & h.mask
		}
		h.slots[i] = k
	}
}

// Len returns the number of keys inserted by the last Rebuild (including
// duplicates passed in, which are stored once; adjacency lists are
// duplicate-free so the distinction never matters for graphs).
func (h *HashIndex) Len() int { return h.n }

// Contains reports membership.
func (h *HashIndex) Contains(k uint32) bool {
	i := mix32(k) & h.mask
	for h.slots[i] != hashIdxEmpty {
		if h.slots[i] == k {
			return true
		}
		i = (i + 1) & h.mask
	}
	return false
}

// HashCount counts |index ∩ a| by probing the index for every element of a
// — the indexed nested-loop join of the related work.
func HashCount(h *HashIndex, a []uint32) uint32 {
	var c uint32
	for _, v := range a {
		if h.Contains(v) {
			c++
		}
	}
	return c
}

// mix32 is the MurmurHash3 finalizer.
func mix32(x uint32) uint32 {
	x ^= x >> 16
	x *= 0x85ebca6b
	x ^= x >> 13
	x *= 0xc2b2ae35
	x ^= x >> 16
	return x
}
