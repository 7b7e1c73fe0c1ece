package intersect

import (
	"math/rand"
	"testing"

	"cncount/internal/bitmap"
)

// benchPair builds a reproducible sorted pair with the given sizes and
// universe, returning the two sets.
func benchPair(sizeA, sizeB, universe int) ([]uint32, []uint32) {
	rng := rand.New(rand.NewSource(1))
	return sortedSet(rng, sizeA, universe), sortedSet(rng, sizeB, universe)
}

// BenchmarkKernelsBalanced compares every intersection kernel on
// similar-cardinality sets — the regime where the merge should win and
// pivot-skip should not. Bitmap and the executed VB run once per path the
// host has (VB/scalar is the Merge it falls back to). BitmapShort probes
// lists of 1 to 15 IDs, which the vector path covers in its masked step
// alone; each op probes all fifteen.
func BenchmarkKernelsBalanced(b *testing.B) {
	const universe = 1 << 20
	a, c := benchPair(1024, 1024, universe)
	bm := bitmap.New(universe)
	bm.SetList(a)
	rf := bitmap.NewRangeFiltered(universe, 64)
	rf.SetList(a)
	var short [][]uint32
	for k := 1; k < 16; k++ {
		short = append(short, c[k*k:k*k+k])
	}

	b.Run("Merge", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Merge(a, c)
		}
	})
	b.Run("PivotSkip", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			PivotSkip(a, c)
		}
	})
	for _, path := range simdPaths() {
		b.Run("Bitmap/"+path, func(b *testing.B) {
			defer usePath(path)()
			for i := 0; i < b.N; i++ {
				Bitmap(bm, c)
			}
		})
		b.Run("BitmapShort/"+path, func(b *testing.B) {
			defer usePath(path)()
			for i := 0; i < b.N; i++ {
				for _, s := range short {
					Bitmap(bm, s)
				}
			}
		})
		b.Run("VB/"+path, func(b *testing.B) {
			defer usePath(path)()
			for i := 0; i < b.N; i++ {
				blockMerge(a, c)
			}
		})
	}
	b.Run("BitmapRF", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			BitmapRF(rf, c)
		}
	})
}

// BenchmarkKernelsSkewed compares the kernels on a 1000:1 cardinality skew
// — pivot-skip's home regime (the paper's DSH motivation).
func BenchmarkKernelsSkewed(b *testing.B) {
	const universe = 1 << 22
	long, short := benchPair(100000, 100, universe)
	bm := bitmap.New(universe)
	bm.SetList(long)

	b.Run("Merge", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Merge(long, short)
		}
	})
	b.Run("PivotSkip", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			PivotSkip(long, short)
		}
	})
	b.Run("MPS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			MPS(long, short, DefaultSkewThreshold)
		}
	})
	b.Run("Bitmap", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Bitmap(bm, short)
		}
	})
}

// BenchmarkLowerBound measures the three-stage lower bound against plain
// binary search over a large sorted array.
func BenchmarkLowerBound(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	a := sortedSet(rng, 1<<16, 1<<24)
	pivots := make([]uint32, 256)
	for i := range pivots {
		pivots[i] = uint32(rng.Intn(1 << 24))
	}
	b.Run("gallop", func(b *testing.B) {
		var sink int
		for i := 0; i < b.N; i++ {
			for _, p := range pivots {
				sink += LowerBound(a, p)
			}
		}
		_ = sink
	})
	b.Run("binary", func(b *testing.B) {
		var sink int
		for i := 0; i < b.N; i++ {
			for _, p := range pivots {
				lo, hi := 0, len(a)
				for lo < hi {
					mid := int(uint(lo+hi) >> 1)
					if a[mid] < p {
						lo = mid + 1
					} else {
						hi = mid
					}
				}
				sink += lo
			}
		}
		_ = sink
	})
}

// BenchmarkBitmapConstruction measures the dynamic index build/flip-clear
// cycle BMP amortizes across a vertex's intersections.
func BenchmarkBitmapConstruction(b *testing.B) {
	const universe = 1 << 20
	rng := rand.New(rand.NewSource(3))
	nu := sortedSet(rng, 4096, universe)
	b.Run("plain", func(b *testing.B) {
		bm := bitmap.New(universe)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bm.SetList(nu)
			bm.ClearList(nu)
		}
	})
	b.Run("range-filtered", func(b *testing.B) {
		rf := bitmap.NewRangeFiltered(universe, 64)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rf.SetList(nu)
			rf.ClearList(nu)
		}
	})
}
