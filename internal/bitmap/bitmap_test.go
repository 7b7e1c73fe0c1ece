package bitmap

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"cncount/internal/simd"
)

func TestBitmapSetTestClear(t *testing.T) {
	b := New(1000)
	if b.Cardinality() != 1000 {
		t.Errorf("Cardinality = %d", b.Cardinality())
	}
	for _, v := range []uint32{0, 1, 63, 64, 65, 999} {
		if b.Test(v) {
			t.Errorf("fresh bitmap has bit %d set", v)
		}
		b.Set(v)
		if !b.Test(v) {
			t.Errorf("bit %d not set after Set", v)
		}
		b.Clear(v)
		if b.Test(v) {
			t.Errorf("bit %d set after Clear", v)
		}
	}
}

func TestBitmapListRoundTrip(t *testing.T) {
	b := New(512)
	vs := []uint32{3, 64, 65, 100, 511}
	b.SetList(vs)
	if b.PopCount() != len(vs) {
		t.Errorf("PopCount = %d, want %d", b.PopCount(), len(vs))
	}
	for _, v := range vs {
		if !b.Test(v) {
			t.Errorf("bit %d missing", v)
		}
	}
	// Probes in every word position, set and unset, with a repeat.
	if c := b.CountSet([]uint32{0, 3, 63, 64, 65, 66, 100, 100, 510, 511}); c != 6 {
		t.Errorf("CountSet = %d, want 6", c)
	}
	b.ClearList(vs)
	if b.PopCount() != 0 {
		t.Errorf("PopCount = %d after ClearList, want 0", b.PopCount())
	}
}

func TestBitmapPropertyFlipDiscipline(t *testing.T) {
	// Property: Set(list) then Clear(list) restores an empty bitmap for any
	// duplicate-free list (the BMP flip-clearing invariant).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := uint32(64 + rng.Intn(2000))
		b := New(n)
		seen := make(map[uint32]bool)
		var vs []uint32
		for i := 0; i < rng.Intn(200); i++ {
			v := uint32(rng.Intn(int(n)))
			if !seen[v] {
				seen[v] = true
				vs = append(vs, v)
			}
		}
		b.SetList(vs)
		if b.PopCount() != len(vs) {
			return false
		}
		b.ClearList(vs)
		return b.PopCount() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestBitmapMemoryBytes(t *testing.T) {
	cases := []struct {
		n    uint32
		want int64
	}{
		{1, 8}, {64, 8}, {65, 16}, {4096, 512},
	}
	for _, c := range cases {
		if got := New(c.n).MemoryBytes(); got != c.want {
			t.Errorf("New(%d).MemoryBytes = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestMemoryFootprint(t *testing.T) {
	bm, f := MemoryFootprint(4096*64, 4096)
	if bm != 4096*64/8 {
		t.Errorf("bitmap bytes = %d", bm)
	}
	if f != 8 {
		t.Errorf("filter bytes = %d, want 8 (64 ranges)", f)
	}
	// Default scale applies when scale <= 0.
	bm2, f2 := MemoryFootprint(4096*64, 0)
	if bm2 != bm || f2 != f {
		t.Error("default scale not applied")
	}
	// The filter is ~scale× smaller — the property that lets it fit in L1.
	bmBig, fBig := MemoryFootprint(124_836_180, DefaultRangeScale)
	if fBig*1000 > bmBig {
		t.Errorf("filter %d not much smaller than bitmap %d", fBig, bmBig)
	}
}

func TestRangeFilteredMatchesPlain(t *testing.T) {
	// Property: RangeFiltered behaves exactly like a plain bitmap under any
	// interleaving of Set/Clear/Test, for several scales.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := uint32(100 + rng.Intn(5000))
		scale := []int{1, 3, 64, 500, 4096}[rng.Intn(5)]
		rf := NewRangeFiltered(n, scale)
		plain := New(n)
		for op := 0; op < 300; op++ {
			v := uint32(rng.Intn(int(n)))
			switch rng.Intn(3) {
			case 0:
				rf.Set(v)
				plain.Set(v)
			case 1:
				rf.Clear(v)
				plain.Clear(v)
			default:
				if rf.Test(v) != plain.Test(v) {
					return false
				}
			}
		}
		for v := uint32(0); v < n; v++ {
			if rf.Test(v) != plain.Test(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestRangeFilteredFilterSkips(t *testing.T) {
	rf := NewRangeFiltered(100000, 4096)
	rf.Set(5)
	// A probe far from any set bit must be answered by the filter.
	hit, filtered := rf.TestCounted(90000)
	if hit || !filtered {
		t.Errorf("TestCounted(90000) = (%v, %v), want (false, true)", hit, filtered)
	}
	// A probe in the same range as a set bit must consult the big bitmap.
	hit, filtered = rf.TestCounted(6)
	if hit || filtered {
		t.Errorf("TestCounted(6) = (%v, %v), want (false, false)", hit, filtered)
	}
	hit, filtered = rf.TestCounted(5)
	if !hit || filtered {
		t.Errorf("TestCounted(5) = (%v, %v), want (true, false)", hit, filtered)
	}
}

func TestRangeFilteredIdempotentSetClear(t *testing.T) {
	rf := NewRangeFiltered(1000, 64)
	rf.Set(10)
	rf.Set(10) // idempotent: counter must not double-count
	rf.Clear(10)
	if rf.Test(10) {
		t.Error("bit 10 still set")
	}
	if rf.Under.PopCount() != 0 {
		t.Error("underlying bitmap not empty")
	}
	rf.Clear(10) // clearing a cleared bit is a no-op
	rf.Set(11)
	if !rf.Test(11) {
		t.Error("range falsely filtered after counter churn")
	}
}

func TestReset(t *testing.T) {
	b := New(1000)
	b.SetList([]uint32{1, 64, 999})
	b.Reset()
	if b.PopCount() != 0 {
		t.Errorf("PopCount after Reset = %d", b.PopCount())
	}
	// The bitmap stays usable after Reset.
	b.Set(5)
	if !b.Test(5) || b.PopCount() != 1 {
		t.Error("bitmap unusable after Reset")
	}
}

func TestRangeFilteredListOps(t *testing.T) {
	rf := NewRangeFiltered(2000, 64)
	vs := []uint32{0, 63, 64, 1999}
	rf.SetList(vs)
	for _, v := range vs {
		if !rf.Test(v) {
			t.Errorf("bit %d missing after SetList", v)
		}
	}
	rf.ClearList(vs)
	if rf.Under.PopCount() != 0 {
		t.Error("ClearList left bits set")
	}
	if rf.Test(0) {
		t.Error("filter still reports a cleared range")
	}
}

func TestRangeFilteredScaleAndMemory(t *testing.T) {
	rf := NewRangeFiltered(1<<20, 0)
	if rf.Scale() != DefaultRangeScale {
		t.Errorf("Scale = %d, want default", rf.Scale())
	}
	if rf.FilterMemoryBytes() >= rf.Under.MemoryBytes() {
		t.Error("filter not smaller than underlying bitmap")
	}
	if rf.MemoryBytes() <= rf.Under.MemoryBytes() {
		t.Error("MemoryBytes must include filter and counters")
	}
}

// withProbe runs f with the AVX-512 probe forced on or off, restoring the
// host's setting afterwards.
func withProbe(on bool, f func()) {
	defer func(host bool) { simd.AVX512 = host }(simd.AVX512)
	simd.AVX512 = on
	f()
}

// probePaths lists the settings of the probe the host can run: off, and
// on where the host has AVX-512 F.
func probePaths() []bool {
	if simd.AVX512 {
		return []bool{false, true}
	}
	return []bool{false}
}

// rankBelow is the reference rank: how many IDs of vs are below u.
func rankBelow(vs []uint32, u uint32) int {
	r := 0
	for _, v := range vs {
		if v < u {
			r++
		}
	}
	return r
}

// TestCountSetVectorMatchesScalar compares CountSetVector, with the
// AVX-512 probe on and off, against CountSet over lists of every length
// from 0 to 100: whole 16-ID blocks, tails, and lists shorter than a
// block. IDs cluster at the 32-bit word edges 31, 32, 63 and 64 and at
// n-1, where a gather of the wrong half of a 64-bit word would show. Each
// list is then sorted and probed again for the rank of u = 0, of an ID in
// the list, of a value between two IDs, and of values past the largest
// ID, MaxUint32 among them, where a signed compare would read -1.
func TestCountSetVectorMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 1000; trial++ {
		n := uint32(65 + rng.Intn(3000))
		b := New(n)
		edges := []uint32{0, 31, 32, 63, 64, n - 1}
		for _, v := range edges {
			if rng.Intn(2) == 0 {
				b.Set(v)
			}
		}
		for k := rng.Intn(int(n)); k > 0; k-- {
			b.Set(uint32(rng.Intn(int(n))))
		}
		vs := make([]uint32, trial%101)
		var want uint32
		for i := range vs {
			if rng.Intn(3) == 0 {
				vs[i] = edges[rng.Intn(len(edges))]
			} else {
				vs[i] = uint32(rng.Intn(int(n)))
			}
			if b.Test(vs[i]) {
				want++
			}
		}
		if scalar := b.CountSet(vs); scalar != want {
			t.Fatalf("n=%d, %d IDs: scalar %d, want %d", n, len(vs), scalar, want)
		}
		for _, on := range probePaths() {
			var got uint32
			withProbe(on, func() { got, _ = b.CountSetVector(vs, 0) })
			if got != want {
				t.Fatalf("n=%d, %d IDs, probe on=%v: %d, want %d", n, len(vs), on, got, want)
			}
		}

		slices.Sort(vs)
		us := []uint32{0, n, math.MaxUint32}
		if len(vs) > 0 {
			us = append(us, vs[rng.Intn(len(vs))], vs[len(vs)-1]+1)
			for i := rng.Intn(len(vs)); i+1 < len(vs); i++ {
				if vs[i]+1 < vs[i+1] {
					us = append(us, vs[i]+1+uint32(rng.Intn(int(vs[i+1]-vs[i]-1))))
					break
				}
			}
		}
		for _, u := range us {
			wantRank := rankBelow(vs, u)
			for _, on := range probePaths() {
				var got uint32
				var rank int
				withProbe(on, func() { got, rank = b.CountSetVector(vs, u) })
				if got != want || rank != wantRank {
					t.Fatalf("n=%d, %d sorted IDs, u=%d, probe on=%v: count %d rank %d, want %d and %d",
						n, len(vs), u, on, got, rank, want, wantRank)
				}
			}
		}
	}
}

// TestCountSetVectorMasksTail probes vs := buf[:k] for every k that ends
// inside a 16-ID step. buf holds the even IDs 0, 2, ... in vs, every third
// of them set, and set odd IDs past k, so a step that loads, tests or
// ranks a lane past len(vs) counts more than the reference does.
func TestCountSetVectorMasksTail(t *testing.T) {
	const size = 48
	b := New(2 * size)
	for _, on := range probePaths() {
		for k := 1; k < 32; k++ {
			if k == 16 {
				continue
			}
			buf := make([]uint32, size)
			b.Reset()
			for i := range buf {
				if i < k {
					buf[i] = uint32(2 * i)
					if i%3 == 0 {
						b.Set(buf[i])
					}
				} else {
					buf[i] = uint32(2*i + 1)
					b.Set(buf[i])
				}
			}
			vs := buf[:k]
			for _, u := range []uint32{uint32(k), math.MaxUint32} {
				var c uint32
				var rank int
				withProbe(on, func() { c, rank = b.CountSetVector(vs, u) })
				if want, wantRank := b.CountSet(vs), rankBelow(vs, u); c != want || rank != wantRank {
					t.Errorf("k=%d, u=%d, probe on=%v: count %d rank %d, want %d and %d", k, u, on, c, rank, want, wantRank)
				}
			}
		}
	}
}

// TestCountSetPanicsPastCapacity probes an ID at the capacity (64 bits per
// word) and one far past it: inside a full 16-ID block, in the tail after
// a block, and in lists of 5 and 21 IDs, where it sits only in the masked
// step. Both paths must panic with the scalar loop's index error, and the
// vector path must not read outside the words first.
func TestCountSetPanicsPastCapacity(t *testing.T) {
	const n = 640 // 10 words, so the capacity is exactly n
	b := New(n)
	b.SetList([]uint32{0, 31, 32, 63, 64, n - 1})
	for _, bad := range []uint32{n, math.MaxUint32} {
		for _, c := range []struct{ size, at int }{{18, 5}, {18, 16}, {5, 3}, {21, 18}} {
			vs := make([]uint32, c.size)
			for i := range vs {
				vs[i] = uint32(i * 35)
			}
			vs[c.at] = bad
			for _, on := range probePaths() {
				var got any
				withProbe(on, func() {
					defer func() { got = recover() }()
					b.CountSetVector(vs, 1)
				})
				err, ok := got.(runtime.Error)
				if !ok || !strings.Contains(err.Error(), "index out of range") {
					t.Errorf("ID %d at %d of %d, vector=%v: recovered %v, want an index out of range panic", bad, c.at, c.size, on, got)
				}
			}
		}
	}
}
