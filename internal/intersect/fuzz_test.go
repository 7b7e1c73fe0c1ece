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

// FuzzKernelsAgree feeds arbitrary byte pairs to every intersection kernel
// and requires unanimous counts.
func FuzzKernelsAgree(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2}, []byte{0, 2, 0, 3})
	f.Add([]byte{}, []byte{1, 1})
	f.Add([]byte{255, 255}, []byte{255, 255})
	// Corner cases: both empty, one singleton, disjoint ranges, identical
	// sets — the shapes where off-by-ones in window/gallop/tail handling
	// live.
	f.Add([]byte{}, []byte{})
	f.Add([]byte{0, 7}, []byte{})
	f.Add([]byte{0, 7}, []byte{0, 7})
	f.Add([]byte{0, 1, 0, 2, 0, 3}, []byte{0, 9, 0, 10, 0, 11})
	f.Add([]byte{0, 1, 0, 2, 0, 3, 0, 4}, []byte{0, 1, 0, 2, 0, 3, 0, 4})
	f.Fuzz(func(t *testing.T, rawA, rawB []byte) {
		a := decodeSet(rawA)
		b := decodeSet(rawB)
		want := refIntersect(a, b)
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
		if got := MPS(a, b, 3); got != want {
			t.Fatalf("MPS = %d, want %d", got, want)
		}
		if got := MPSStats(a, b, 3, 8, &w); got != want {
			t.Fatalf("MPSStats = %d, want %d", got, want)
		}
		bm := bitmap.New(1 << 16)
		bm.SetList(a)
		if got := Bitmap(bm, b); got != want {
			t.Fatalf("Bitmap = %d, want %d", got, want)
		}
		rf := bitmap.NewRangeFiltered(1<<16, 64)
		rf.SetList(a)
		if got := BitmapRF(rf, b); got != want {
			t.Fatalf("BitmapRF = %d, want %d", got, want)
		}
	})
}
