// Package bitmap provides the dynamic bitmap index of the paper's BMP
// algorithm: a bitmap of cardinality |V| used for constant-time membership
// checks of a neighbor set, plus the two-level range-filtered variant (the
// RF optimization) that summarizes the big bitmap with a small filter sized
// to fit in cache or GPU shared memory. Under AVX-512 one pass over a
// probed list both counts its set bits and ranks a vertex in it
// (CountSetVector), 16 IDs per step.
package bitmap

import "cncount/internal/simd"

const (
	wordBits = 64
	wordLog  = 6

	// DefaultRangeScale is the paper's size ratio between the underlying
	// bitmap and the range-filter bitmap ("we set the size ratio of the two
	// bitmaps at 4096, to make the small bitmap fit into L1 cache", §5.2.1).
	DefaultRangeScale = 4096
)

// Bitmap is a fixed-cardinality bit set over vertex IDs [0, n).
//
// BMP constructs one per execution context, sets the bits of N(u), probes it
// for every w ∈ N(v), and clears it by flipping the same bits back
// (Algorithm 2 lines 8-9), so clearing costs O(d_u) instead of O(|V|).
type Bitmap struct {
	words []uint64
	n     uint32
}

// New returns an all-zero bitmap of cardinality n.
func New(n uint32) *Bitmap {
	return &Bitmap{words: make([]uint64, (int64(n)+wordBits-1)/wordBits), n: n}
}

// Cardinality returns the bitmap's vertex-ID capacity |V|.
func (b *Bitmap) Cardinality() uint32 { return b.n }

// Set sets v's bit.
func (b *Bitmap) Set(v uint32) {
	b.words[v>>wordLog] |= 1 << (v & (wordBits - 1))
}

// Clear flips v's bit off.
func (b *Bitmap) Clear(v uint32) {
	b.words[v>>wordLog] &^= 1 << (v & (wordBits - 1))
}

// Test reports whether v's bit is set.
func (b *Bitmap) Test(v uint32) bool {
	return b.words[v>>wordLog]&(1<<(v&(wordBits-1))) != 0
}

// CountSet returns how many vertices of vs have their bit set. The word
// slice is held in a local and each probe adds its bit, so the loop does
// not reload the slice header from b and has no data-dependent branch.
// It inlines into its callers; CountSetVector holds the AVX-512 path.
func (b *Bitmap) CountSet(vs []uint32) uint32 {
	words := b.words
	var c uint32
	for _, v := range vs {
		c += uint32(words[v>>wordLog] >> (v & (wordBits - 1)) & 1)
	}
	return c
}

// CountSetVector returns CountSet(vs) and u's rank in vs: how many IDs of
// vs are below u, which on a sorted list is the index u has or would
// have. Where the host has AVX-512, one pass of countSetRank computes
// both, 16 IDs per step and the last len(vs) % 16 in one masked step. A
// step holding an ID past the capacity hands the whole list to CountSet,
// which panics on it. Without AVX-512 a Go loop counts the rank and
// CountSet the bits.
func (b *Bitmap) CountSetVector(vs []uint32, u uint32) (c uint32, rank int) {
	if simd.AVX512 {
		if c, rank, ok := countSetRank(b.words, vs, u); ok {
			return c, int(rank)
		}
	}
	for _, v := range vs {
		if v < u {
			rank++
		}
	}
	return b.CountSet(vs), rank
}

// SetList sets the bit of every vertex in vs (bitmap construction for N(u)).
func (b *Bitmap) SetList(vs []uint32) {
	for _, v := range vs {
		b.Set(v)
	}
}

// ClearList flips off the bit of every vertex in vs (bitmap clearing by
// flipping the 1-bits set by u's neighbors).
func (b *Bitmap) ClearList(vs []uint32) {
	for _, v := range vs {
		b.Clear(v)
	}
}

// Reset zeroes the whole bitmap in O(|V|/64) word writes — the alternative
// to flip-back clearing that BMP's amortization argument rejects (clearing
// the full bitmap per vertex would cost O(|V|) per vertex computation
// instead of amortized O(1) per intersection). Kept for the clearing
// ablation benchmark and for reusing a bitmap across graphs.
func (b *Bitmap) Reset() {
	clear(b.words)
}

// PopCount returns the number of set bits; used to verify the flip-back
// clearing discipline leaves the bitmap empty.
func (b *Bitmap) PopCount() int {
	c := 0
	for _, w := range b.words {
		for ; w != 0; w &= w - 1 {
			c++
		}
	}
	return c
}

// MemoryBytes returns the bitmap's storage footprint (|V|/8 bytes rounded
// up to words), the quantity in the paper's Table 3.
func (b *Bitmap) MemoryBytes() int64 { return int64(len(b.words)) * 8 }

// MemoryFootprint reports the per-context memory cost of a plain bitmap and
// of a range-filtered bitmap for a graph with n vertices and the given
// range scale (Table 3: "Memory consumption of each thread-local bitmap").
func MemoryFootprint(n uint32, rangeScale int) (bitmapBytes, filterBytes int64) {
	bitmapBytes = (int64(n) + wordBits - 1) / wordBits * 8
	if rangeScale <= 0 {
		rangeScale = DefaultRangeScale
	}
	filterRanges := (int64(n) + int64(rangeScale) - 1) / int64(rangeScale)
	filterBytes = (filterRanges + wordBits - 1) / wordBits * 8
	return bitmapBytes, filterBytes
}
