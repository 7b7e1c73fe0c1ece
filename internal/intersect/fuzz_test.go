package intersect

import (
	"sort"
	"testing"

	"cncount/internal/bitmap"
	"cncount/internal/stats"
)

// decodeSet turns fuzz bytes into a sorted duplicate-free uint32 set with a
// bounded universe.
func decodeSet(data []byte) []uint32 {
	seen := map[uint32]struct{}{}
	for i := 0; i+1 < len(data); i += 2 {
		seen[uint32(data[i])<<8|uint32(data[i+1])] = struct{}{}
	}
	out := make([]uint32, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// encodeRange is decodeSet's inverse for the IDs from, from+step, ...,
// n of them: a fuzz seed long enough to span several vector blocks.
func encodeRange(n, step int, from uint16) []byte {
	out := make([]byte, 0, 2*n)
	for i := 0; i < n; i++ {
		v := from + uint16(i*step)
		out = append(out, byte(v>>8), byte(v))
	}
	return out
}

// FuzzKernelsAgree feeds arbitrary byte pairs to every intersection kernel
// and requires unanimous counts. The kernels with vector forms, MPS, the
// executed VB and Bitmap, run on each path the host has, and there the
// bitmap probe's rank of the fuzz-drawn u in b must be u's lower bound.
func FuzzKernelsAgree(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2}, []byte{0, 2, 0, 3}, uint16(2))
	f.Add([]byte{}, []byte{1, 1}, uint16(0))
	f.Add([]byte{255, 255}, []byte{255, 255}, uint16(65535))
	// Corner cases: both empty, one singleton, disjoint ranges, identical
	// sets — the shapes where off-by-ones in window/gallop/tail handling
	// live.
	f.Add([]byte{}, []byte{}, uint16(1))
	f.Add([]byte{0, 7}, []byte{}, uint16(7))
	f.Add([]byte{0, 7}, []byte{0, 7}, uint16(8))
	f.Add([]byte{0, 1, 0, 2, 0, 3}, []byte{0, 9, 0, 10, 0, 11}, uint16(10))
	f.Add([]byte{0, 1, 0, 2, 0, 3, 0, 4}, []byte{0, 1, 0, 2, 0, 3, 0, 4}, uint16(3))
	// Longer than a 16-ID probe block and several 8-lane VB blocks, with
	// tails: the shapes the vector kernels take.
	f.Add(encodeRange(40, 1, 0), encodeRange(37, 2, 1), uint16(40))
	f.Add(encodeRange(33, 3, 500), encodeRange(70, 1, 480), uint16(530))
	f.Fuzz(func(t *testing.T, rawA, rawB []byte, u uint16) {
		a := decodeSet(rawA)
		b := decodeSet(rawB)
		want := refIntersect(a, b)
		wantRank := sort.Search(len(b), func(i int) bool { return b[i] >= uint32(u) })
		if got := Merge(a, b); got != want {
			t.Fatalf("Merge = %d, want %d", got, want)
		}
		var w stats.Work
		for _, lanes := range []int{4, 8, 16} {
			if got := BlockMergeStats(a, b, lanes, &w); got != want {
				t.Fatalf("BlockMergeStats(%d) = %d, want %d", lanes, got, want)
			}
		}
		if got := PivotSkip(a, b); got != want {
			t.Fatalf("PivotSkip = %d, want %d", got, want)
		}
		if got := MPSStats(a, b, 3, 8, &w); got != want {
			t.Fatalf("MPSStats = %d, want %d", got, want)
		}
		bm := bitmap.New(1 << 16)
		bm.SetList(a)
		for _, path := range simdPaths() {
			restore := usePath(path)
			mps, vb, probe := MPS(a, b, 3), blockMerge(a, b), Bitmap(bm, b)
			ranked, rank := bm.CountSetVector(b, uint32(u))
			restore()
			if mps != want || vb != want || probe != want || ranked != want {
				t.Fatalf("%s path: MPS = %d, blockMerge = %d, Bitmap = %d, CountSetVector = %d, want %d", path, mps, vb, probe, ranked, want)
			}
			if rank != wantRank {
				t.Fatalf("%s path: rank of %d = %d, want %d", path, u, rank, wantRank)
			}
		}
		rf := bitmap.NewRangeFiltered(1<<16, 64)
		rf.SetList(a)
		if got := BitmapRF(rf, b); got != want {
			t.Fatalf("BitmapRF = %d, want %d", got, want)
		}
	})
}
