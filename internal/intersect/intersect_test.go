package intersect

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"cncount/internal/bitmap"
	"cncount/internal/simd"
	"cncount/internal/stats"
)

// refIntersect is the oracle: hash-set intersection count.
func refIntersect(a, b []uint32) uint32 {
	set := make(map[uint32]struct{}, len(a))
	for _, x := range a {
		set[x] = struct{}{}
	}
	var c uint32
	for _, y := range b {
		if _, ok := set[y]; ok {
			c++
		}
	}
	return c
}

// sortedSet builds a sorted duplicate-free random set of size ≤ maxLen with
// values in [0, universe).
func sortedSet(rng *rand.Rand, maxLen, universe int) []uint32 {
	n := rng.Intn(maxLen + 1)
	seen := make(map[uint32]struct{}, n)
	for len(seen) < n {
		seen[uint32(rng.Intn(universe))] = struct{}{}
	}
	out := make([]uint32, 0, n)
	for v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestMergeBasic(t *testing.T) {
	cases := []struct {
		a, b []uint32
		want uint32
	}{
		{nil, nil, 0},
		{[]uint32{1, 2, 3}, nil, 0},
		{[]uint32{1, 2, 3}, []uint32{2, 3, 4}, 2},
		{[]uint32{1, 2, 3}, []uint32{1, 2, 3}, 3},
		{[]uint32{1, 3, 5}, []uint32{2, 4, 6}, 0},
		{[]uint32{7}, []uint32{7}, 1},
	}
	for _, c := range cases {
		if got := Merge(c.a, c.b); got != c.want {
			t.Errorf("Merge(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// simdPaths names the kernel paths the host can run: "vector", the
// flags init detected, where the host has AVX-512 or AVX2, and always
// "scalar", every flag cleared. Each flag gates one kernel, the Bitmap
// probe or VB, so these two paths run each kernel both ways.
func simdPaths() []string {
	if hostAVX512 || hostAVX2 {
		return []string{"vector", "scalar"}
	}
	return []string{"scalar"}
}

// The host's detected sets, saved before any test flips the flags.
var hostAVX512, hostAVX2 = simd.AVX512, simd.AVX2

// usePath sets the simd flags so the kernels take the named path, and
// returns the function that restores the host's own flags.
func usePath(path string) (restore func()) {
	if path == "scalar" {
		simd.AVX512, simd.AVX2 = false, false
	}
	return func() { simd.AVX512, simd.AVX2 = hostAVX512, hostAVX2 }
}

// vectorKernels are the kernels of kernels() whose execution depends on
// the simd flags; the oracle tests run them on every path in simdPaths.
var vectorKernels = map[string]bool{"MPS": true, "MPS-tightSkew": true, "BlockMerge": true, "Bitmap": true}

// bitmapKernel probes b against a bitmap index of a, sized to hold both.
func bitmapKernel(a, b []uint32) uint32 {
	var n uint32 = 1
	for _, s := range [][]uint32{a, b} {
		if len(s) > 0 && s[len(s)-1] >= n {
			n = s[len(s)-1] + 1
		}
	}
	bm := bitmap.New(n)
	bm.SetList(a)
	return Bitmap(bm, b)
}

// kernels under test, all of which must agree with the oracle.
func kernels() map[string]func(a, b []uint32) uint32 {
	return map[string]func(a, b []uint32) uint32{
		"Merge":          Merge,
		"PivotSkip":      PivotSkip,
		"MPS":            func(a, b []uint32) uint32 { return MPS(a, b, DefaultSkewThreshold) },
		"MPS-tightSkew":  func(a, b []uint32) uint32 { return MPS(a, b, 1.5) },
		"BlockMerge":     blockMerge,
		"Bitmap":         bitmapKernel,
		"MergeStats":     func(a, b []uint32) uint32 { var w stats.Work; return MergeStats(a, b, &w) },
		"BlockStats4":    func(a, b []uint32) uint32 { var w stats.Work; return BlockMergeStats(a, b, 4, &w) },
		"BlockStats8":    func(a, b []uint32) uint32 { var w stats.Work; return BlockMergeStats(a, b, 8, &w) },
		"BlockMergeAVX2": func(a, b []uint32) uint32 { var w stats.Work; return BlockMergeStats(a, b, LanesAVX2, &w) },
		"BlockStats16":   func(a, b []uint32) uint32 { var w stats.Work; return BlockMergeStats(a, b, LanesAVX512, &w) },
		"PivotSkipStats": func(a, b []uint32) uint32 { var w stats.Work; return PivotSkipStats(a, b, &w) },
		"MPSStats": func(a, b []uint32) uint32 {
			var w stats.Work
			return MPSStats(a, b, DefaultSkewThreshold, 8, &w)
		},
	}
}

// TestKernelsAgainstOracleProperty checks every kernel against the oracle
// on random pairs of up to 80 elements, so most pairs span several
// 16-ID probe blocks and 8-lane VB blocks plus a tail. Kernels with vector
// forms run on each path the host has.
func TestKernelsAgainstOracleProperty(t *testing.T) {
	for name, kernel := range kernels() {
		kernel := kernel
		check := func(t *testing.T) {
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				a := sortedSet(rng, 80, 120)
				b := sortedSet(rng, 80, 120)
				return kernel(a, b) == refIntersect(a, b)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
				t.Error(err)
			}
		}
		t.Run(name, func(t *testing.T) {
			if !vectorKernels[name] {
				check(t)
				return
			}
			for _, path := range simdPaths() {
				t.Run(path, func(t *testing.T) {
					defer usePath(path)()
					check(t)
				})
			}
		})
	}
}

// TestBlockMergeBlockBoundaries pins the executed VB at the lengths where
// a block schedule goes wrong: one short of a block, exactly one, one
// past, and matches in the first and last lane of a block, on each path.
func TestBlockMergeBlockBoundaries(t *testing.T) {
	seq := func(n, step int, from uint32) []uint32 {
		out := make([]uint32, n)
		for i := range out {
			out[i] = from + uint32(i*step)
		}
		return out
	}
	var pairs [][2][]uint32
	for _, n := range []int{7, 8, 9, 15, 16, 17, 31, 32, 33, 48, 100} {
		pairs = append(pairs,
			[2][]uint32{seq(n, 1, 0), seq(n, 1, 0)},           // identical
			[2][]uint32{seq(n, 2, 0), seq(n, 2, 1)},           // interleaved, disjoint
			[2][]uint32{seq(n, 1, 0), seq(n, 1, uint32(n-1))}, // only the last of a meets the first of b
			[2][]uint32{seq(n, 3, 0), seq(2*n, 1, 0)},         // every third of b
			[2][]uint32{seq(n, 1, 1<<31), seq(n, 1, 1<<31)},   // IDs past the int32 range
		)
	}
	for _, path := range simdPaths() {
		t.Run(path, func(t *testing.T) {
			defer usePath(path)()
			for _, p := range pairs {
				want := refIntersect(p[0], p[1])
				if got := blockMerge(p[0], p[1]); got != want {
					t.Errorf("blockMerge(len %d, len %d) = %d, want %d", len(p[0]), len(p[1]), got, want)
				}
				if got := blockMerge(p[1], p[0]); got != want {
					t.Errorf("blockMerge(len %d, len %d) swapped = %d, want %d", len(p[1]), len(p[0]), got, want)
				}
			}
		})
	}
}

func TestKernelsSkewedSets(t *testing.T) {
	// Degree-skewed pairs are PS's home turf; exercise long-vs-short pairs
	// explicitly, including the match-at-the-end and no-match cases.
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		long := sortedSet(rng, 4000, 100000)
		short := sortedSet(rng, 10, 100000)
		want := refIntersect(long, short)
		for name, kernel := range kernels() {
			if got := kernel(long, short); got != want {
				t.Fatalf("%s(long, short) = %d, want %d", name, got, want)
			}
			if got := kernel(short, long); got != want {
				t.Fatalf("%s(short, long) = %d, want %d", name, got, want)
			}
		}
	}
}

func TestKernelsIdenticalSets(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := sortedSet(rng, 200, 400)
	for name, kernel := range kernels() {
		if got := kernel(a, a); got != uint32(len(a)) {
			t.Errorf("%s(a, a) = %d, want %d", name, got, len(a))
		}
	}
}

func TestLowerBound(t *testing.T) {
	a := []uint32{2, 4, 4, 8, 16, 32, 64}
	// Note LowerBound tolerates duplicates even though adjacency lists are
	// duplicate-free.
	cases := []struct {
		pivot uint32
		want  int
	}{
		{0, 0}, {2, 0}, {3, 1}, {4, 1}, {5, 3}, {64, 6}, {65, 7}, {1000, 7},
	}
	for _, c := range cases {
		if got := LowerBound(a, c.pivot); got != c.want {
			t.Errorf("LowerBound(a, %d) = %d, want %d", c.pivot, got, c.want)
		}
	}
	if got := LowerBound(nil, 5); got != 0 {
		t.Errorf("LowerBound(nil, 5) = %d, want 0", got)
	}
}

// TestLowerBoundWindowBoundaries pins the stage-3 bracket semantics at the
// two edges where an off-by-one would hide: a pivot beyond every element
// must land at len(a) for any window width (including window < 1, which
// clamps to a single-element linear stage), and a pivot equal to a[0] must
// return 0 even when the linear window is degenerate.
func TestLowerBoundWindowBoundaries(t *testing.T) {
	a := []uint32{3, 5, 9, 14, 27, 101, 300, 4096, 70000}
	for _, window := range []int{-5, 0, 1, 2, len(a) - 1, len(a), len(a) + 7, 64} {
		if got := LowerBoundWindow(a, 70001, window); got != len(a) {
			t.Errorf("window %d: pivot beyond max: got %d, want %d", window, got, len(a))
		}
		if got := LowerBoundWindow(a, a[0], window); got != 0 {
			t.Errorf("window %d: pivot == a[0]: got %d, want 0", window, got)
		}
		if got := LowerBoundWindow(a, 0, window); got != 0 {
			t.Errorf("window %d: pivot below min: got %d, want 0", window, got)
		}
		if got := LowerBoundWindow(nil, 5, window); got != 0 {
			t.Errorf("window %d: nil slice: got %d, want 0", window, got)
		}
	}
	// Long input so window < 1 forces the gallop and binary stages to do
	// all the work: answers must match across every window width.
	long := make([]uint32, 3000)
	for i := range long {
		long[i] = uint32(2 * i)
	}
	for _, pivot := range []uint32{0, 1, 2999, 5998, 5999, 6000, 1 << 30} {
		want := LowerBoundWindow(long, pivot, linearWindow)
		for _, window := range []int{0, 1, 3} {
			if got := LowerBoundWindow(long, pivot, window); got != want {
				t.Errorf("window %d: pivot %d: got %d, want %d", window, pivot, got, want)
			}
		}
	}
}

func TestLowerBoundProperty(t *testing.T) {
	// Property: LowerBound agrees with sort.Search on long arrays, which
	// forces the galloping and binary stages to run.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := sortedSet(rng, 3000, 10000)
		pivot := uint32(rng.Intn(10001))
		want := sort.Search(len(a), func(i int) bool { return a[i] >= pivot })
		if LowerBound(a, pivot) != want {
			return false
		}
		var w stats.Work
		return lowerBoundStats(a, pivot, &w) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSkewed(t *testing.T) {
	cases := []struct {
		la, lb int
		t      float64
		want   bool
	}{
		{100, 1, 50, true},
		{1, 100, 50, true},
		{100, 2, 50, false}, // exactly 50 is not > 50
		{100, 100, 50, false},
		{0, 100, 50, false},
		{100, 0, 50, false},
		{10, 1, 5, true},
	}
	for _, c := range cases {
		if got := Skewed(c.la, c.lb, c.t); got != c.want {
			t.Errorf("Skewed(%d, %d, %g) = %v, want %v", c.la, c.lb, c.t, got, c.want)
		}
	}
}

func TestBitmapKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const universe = 5000
	for trial := 0; trial < 60; trial++ {
		nu := sortedSet(rng, 300, universe)
		nv := sortedSet(rng, 300, universe)
		want := refIntersect(nu, nv)

		bm := bitmap.New(universe)
		bm.SetList(nu)
		if got := Bitmap(bm, nv); got != want {
			t.Fatalf("Bitmap = %d, want %d", got, want)
		}
		var w stats.Work
		if got := BitmapStats(bm, nv, &w); got != want {
			t.Fatalf("BitmapStats = %d, want %d", got, want)
		}
		if w.BitmapTests != uint64(len(nv)) {
			t.Fatalf("BitmapStats counted %d tests, want %d", w.BitmapTests, len(nv))
		}
		bm.ClearList(nu)
		if bm.PopCount() != 0 {
			t.Fatal("flip-back clearing left bits set")
		}

		for _, scale := range []int{1, 7, 64, 4096} {
			rf := bitmap.NewRangeFiltered(universe, scale)
			rf.SetList(nu)
			if got := BitmapRF(rf, nv); got != want {
				t.Fatalf("BitmapRF(scale=%d) = %d, want %d", scale, got, want)
			}
			var w stats.Work
			if got := BitmapRFStats(rf, nv, &w); got != want {
				t.Fatalf("BitmapRFStats(scale=%d) = %d, want %d", scale, got, want)
			}
			if w.FilterTests != uint64(len(nv)) {
				t.Fatalf("FilterTests = %d, want %d", w.FilterTests, len(nv))
			}
			if w.FilterSkips+w.BitmapTests != w.FilterTests {
				t.Fatalf("filter accounting inconsistent: %+v", w)
			}
			rf.ClearList(nu)
			if rf.Under.PopCount() != 0 {
				t.Fatal("RF flip-back clearing left bits set")
			}
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	a := []uint32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	b := []uint32{2, 4, 6, 8, 10, 12, 14, 16, 18, 20}
	var w stats.Work
	got := MergeStats(a, b, &w)
	if got != 5 {
		t.Fatalf("MergeStats = %d, want 5", got)
	}
	if w.Matches != 5 || w.Intersections != 1 {
		t.Errorf("work = %+v", w)
	}
	if w.Comparisons == 0 {
		t.Errorf("work not counted: %+v", w)
	}

	var w2 stats.Work
	BlockMergeStats(a, b, 4, &w2)
	if w2.Intersections != 1 {
		t.Errorf("BlockMergeStats intersections = %d, want 1", w2.Intersections)
	}
	if w2.VectorBlocks == 0 {
		t.Errorf("BlockMergeStats counted no vector blocks: %+v", w2)
	}
	if w2.Matches != 5 {
		t.Errorf("BlockMergeStats matches = %d, want 5 (blocks + tail)", w2.Matches)
	}

	var sum, one stats.Work
	one.Comparisons = 3
	one.Matches = 1
	sum.Add(one)
	sum.Add(one)
	if sum.Comparisons != 6 || sum.Matches != 2 {
		t.Errorf("Work.Add broken: %+v", sum)
	}
	if one.TotalOps() != one.ScalarOps() {
		t.Errorf("TotalOps without blocks should equal ScalarOps")
	}
}

func TestMergeThreshold(t *testing.T) {
	a := []uint32{1, 2, 3, 4, 5}
	b := []uint32{2, 4, 6, 8}
	// |a ∩ b| = 2.
	if c, ok := MergeThreshold(a, b, 0); !ok || c != 0 {
		t.Errorf("threshold 0: (%d, %v)", c, ok)
	}
	if c, ok := MergeThreshold(a, b, 1); !ok || c != 1 {
		t.Errorf("threshold 1: (%d, %v), want early success at 1", c, ok)
	}
	if c, ok := MergeThreshold(a, b, 2); !ok || c != 2 {
		t.Errorf("threshold 2: (%d, %v)", c, ok)
	}
	if _, ok := MergeThreshold(a, b, 3); ok {
		t.Error("threshold 3 reported reached with only 2 matches")
	}
	if _, ok := MergeThreshold(nil, b, 1); ok {
		t.Error("empty set reached threshold")
	}
}

func TestMergeThresholdProperty(t *testing.T) {
	// Property: reached ⟺ exact count ≥ threshold, for random sets and
	// thresholds; the returned tally never exceeds the exact count.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := sortedSet(rng, 100, 200)
		b := sortedSet(rng, 100, 200)
		exact := refIntersect(a, b)
		threshold := uint32(rng.Intn(int(exact) + 5))
		c, reached := MergeThreshold(a, b, threshold)
		if reached != (exact >= threshold) {
			return false
		}
		return c <= exact
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBlockMergeLaneOne(t *testing.T) {
	// lanes <= 1 must count and tally exactly like the scalar merge.
	rng := rand.New(rand.NewSource(31))
	a := sortedSet(rng, 100, 300)
	b := sortedSet(rng, 100, 300)
	var want stats.Work
	c := MergeStats(a, b, &want)
	for _, lanes := range []int{0, 1} {
		var w stats.Work
		if got := BlockMergeStats(a, b, lanes, &w); got != c || w != want {
			t.Errorf("BlockMergeStats(lanes=%d) = %d with %+v, want MergeStats' %d with %+v",
				lanes, got, w, c, want)
		}
	}
}
