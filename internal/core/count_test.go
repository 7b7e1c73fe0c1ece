package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"cncount/internal/bitmap"
	"cncount/internal/gen"
	"cncount/internal/graph"
	"cncount/internal/simd"
	"cncount/internal/verify"
)

func randomGraph(t testing.TB, seed int64, n, m int) *graph.CSR {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	edges := make([]graph.Edge, m)
	for i := range edges {
		edges[i] = graph.Edge{U: graph.VertexID(rng.Intn(n)), V: graph.VertexID(rng.Intn(n))}
	}
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatalf("FromEdges: %v", err)
	}
	return g
}

func TestCountAllAlgorithmsAgainstReference(t *testing.T) {
	g := randomGraph(t, 1, 200, 1500)
	for _, algo := range Algorithms {
		for _, threads := range []int{1, 4} {
			res, err := Count(g, Options{Algorithm: algo, Threads: threads, TaskSize: 64})
			if err != nil {
				t.Fatalf("%v/%d: %v", algo, threads, err)
			}
			if err := verify.CheckCounts(g, res.Counts); err != nil {
				t.Fatalf("%v/%d: %v", algo, threads, err)
			}
		}
	}
}

func TestCountReorderedGraph(t *testing.T) {
	// BMP-RF's range filter wants the degree-descending ordering; counting
	// must be correct on both the original and the reordered labeling, and
	// MapCounts must translate between them.
	g := randomGraph(t, 2, 150, 1200)
	rg, r := graph.ReorderByDegree(g)
	for _, algo := range Algorithms {
		res, err := Count(rg, Options{Algorithm: algo, Threads: 2, TaskSize: 32})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if err := verify.CheckCounts(rg, res.Counts); err != nil {
			t.Fatalf("%v on reordered: %v", algo, err)
		}
		mapped := graph.MapCounts(g, rg, r, res.Counts)
		if err := verify.CheckCounts(g, mapped); err != nil {
			t.Fatalf("%v mapped back: %v", algo, err)
		}
	}
}

func TestCountSymmetry(t *testing.T) {
	g := randomGraph(t, 3, 100, 700)
	res, err := Count(g, Options{Algorithm: AlgoMPS, Threads: 3})
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.NumVertices(); u++ {
		for i := g.Off[u]; i < g.Off[u+1]; i++ {
			v := g.Dst[i]
			rev, ok := g.EdgeOffset(v, graph.VertexID(u))
			if !ok {
				t.Fatalf("missing reverse edge (%d,%d)", v, u)
			}
			if res.Counts[i] != res.Counts[rev] {
				t.Fatalf("cnt[e(%d,%d)]=%d != cnt[e(%d,%d)]=%d",
					u, v, res.Counts[i], v, u, res.Counts[rev])
			}
		}
	}
}

func TestCountTriangleIdentity(t *testing.T) {
	g := randomGraph(t, 4, 120, 900)
	res, err := Count(g, Options{Algorithm: AlgoBMP, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.CheckTriangleIdentity(g, res.Counts); err != nil {
		t.Fatal(err)
	}
	if res.TriangleCount() != verify.Triangles(g) {
		t.Errorf("TriangleCount = %d, want %d", res.TriangleCount(), verify.Triangles(g))
	}
}

func TestCountPropertyAlgorithmsAgree(t *testing.T) {
	// Property: all four algorithms produce identical count arrays on any
	// random graph, across thread counts and task sizes.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(80)
		m := rng.Intn(500)
		edges := make([]graph.Edge, m)
		for i := range edges {
			edges[i] = graph.Edge{U: graph.VertexID(rng.Intn(n)), V: graph.VertexID(rng.Intn(n))}
		}
		g, err := graph.FromEdges(n, edges)
		if err != nil {
			return false
		}
		base, err := Count(g, Options{Algorithm: AlgoM, Threads: 1})
		if err != nil {
			return false
		}
		for _, algo := range []Algorithm{AlgoMPS, AlgoBMP, AlgoBMPRF} {
			res, err := Count(g, Options{
				Algorithm: algo,
				Threads:   1 + rng.Intn(4),
				TaskSize:  1 + rng.Intn(100),
				Lanes:     []int{1, 4, 8, 16}[rng.Intn(4)],
			})
			if err != nil {
				return false
			}
			for e := range base.Counts {
				if res.Counts[e] != base.Counts[e] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// minDegreeSum returns Σ min(d_u, d_v) over g's undirected edges.
func minDegreeSum(g *graph.CSR) uint64 {
	var sum uint64
	for u := graph.VertexID(0); int(u) < g.NumVertices(); u++ {
		for _, v := range g.Neighbors(u) {
			if u < v {
				sum += uint64(min(g.Degree(u), g.Degree(v)))
			}
		}
	}
	return sum
}

// TestCountBMPProbesMinDegree pins the orientation rule: on any vertex
// order BMP indexes the larger row and probes the smaller one, so its
// bitmap tests sum to Σ min(d_u, d_v). The star's hub has the largest ID:
// computing the u < v edges instead would probe the hub's row from every
// leaf, (n-1)² tests instead of n-1.
func TestCountBMPProbesMinDegree(t *testing.T) {
	const n = 50
	star := make([]graph.Edge, n-1)
	for i := range star {
		star[i] = graph.Edge{U: graph.VertexID(i), V: n - 1}
	}
	g, err := graph.FromEdges(n, star)
	if err != nil {
		t.Fatal(err)
	}
	for _, threads := range []int{1, 4} {
		tests := func(g *graph.CSR) uint64 {
			res, err := Count(g, Options{Algorithm: AlgoBMP, Threads: threads, TaskSize: 1, CollectWork: true})
			if err != nil {
				t.Fatal(err)
			}
			return res.Work.BitmapTests
		}
		if got := tests(g); got != n-1 {
			t.Errorf("threads=%d: star bitmap tests = %d, want %d", threads, got, n-1)
		}
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			g := randomGraph(t, seed, 5+rng.Intn(80), rng.Intn(500))
			return tests(g) == minDegreeSum(g)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
			t.Errorf("threads=%d: %v", threads, err)
		}
	}
}

func TestCountCollectWork(t *testing.T) {
	g := randomGraph(t, 5, 100, 600)
	for _, algo := range Algorithms {
		res, err := Count(g, Options{Algorithm: algo, Threads: 2, CollectWork: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Work.Intersections == 0 {
			t.Errorf("%v: no intersections recorded", algo)
		}
		// Every undirected edge is one intersection.
		var want uint64
		for u := 0; u < g.NumVertices(); u++ {
			for _, v := range g.Neighbors(graph.VertexID(u)) {
				if graph.VertexID(u) < v {
					want++
				}
			}
		}
		if res.Work.Intersections != want {
			t.Errorf("%v: %d intersections recorded, want %d", algo, res.Work.Intersections, want)
		}
		// Sum of matches equals sum of counts over one direction.
		var matchSum uint64
		for u := 0; u < g.NumVertices(); u++ {
			for i := g.Off[u]; i < g.Off[u+1]; i++ {
				if graph.VertexID(u) < g.Dst[i] {
					matchSum += uint64(res.Counts[i])
				}
			}
		}
		if res.Work.Matches != matchSum {
			t.Errorf("%v: matches %d, want %d", algo, res.Work.Matches, matchSum)
		}
	}
}

func TestCountWorkDistinguishesAlgorithms(t *testing.T) {
	// On a skewed graph MPS must do far fewer comparisons than M, and BMP
	// must replace comparisons with bitmap probes — the mechanism behind
	// the paper's Figure 3.
	p, err := gen.ProfileByName("TW")
	if err != nil {
		t.Fatal(err)
	}
	g, err := p.Generate(0.05)
	if err != nil {
		t.Fatal(err)
	}
	rg, _ := graph.ReorderByDegree(g)

	m, _ := Count(rg, Options{Algorithm: AlgoM, Threads: 1, CollectWork: true})
	mps, _ := Count(rg, Options{Algorithm: AlgoMPS, Threads: 1, CollectWork: true})
	bmp, _ := Count(rg, Options{Algorithm: AlgoBMP, Threads: 1, CollectWork: true})

	if mps.Work.TotalOps() >= m.Work.TotalOps() {
		t.Errorf("MPS ops %d not below M ops %d on skewed graph",
			mps.Work.TotalOps(), m.Work.TotalOps())
	}
	if bmp.Work.BitmapTests == 0 {
		t.Error("BMP recorded no bitmap probes")
	}
	if bmp.Work.Comparisons >= m.Work.Comparisons {
		t.Errorf("BMP comparisons %d not below M %d", bmp.Work.Comparisons, m.Work.Comparisons)
	}

	// Lanes reaches only the work count: balanced MPS pairs are tallied as
	// VB blocks of that width (the input of Figure 4), while the counts
	// match a run that collects nothing.
	plain, err := Count(rg, Options{Algorithm: AlgoMPS, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, lanes := range []int{1, 8} {
		res, err := Count(rg, Options{Algorithm: AlgoMPS, Threads: 1, Lanes: lanes, CollectWork: true})
		if err != nil {
			t.Fatal(err)
		}
		if blocks := res.Work.VectorBlocks; (lanes == 1) != (blocks == 0) {
			t.Errorf("MPS at %d lanes recorded %d vector blocks", lanes, blocks)
		}
		for e := range plain.Counts {
			if res.Counts[e] != plain.Counts[e] {
				t.Fatalf("MPS at %d lanes: cnt[%d] = %d, uncollected run %d",
					lanes, e, res.Counts[e], plain.Counts[e])
			}
		}
	}
}

// countVertexBMP is the literal sequential BMP of the paper's Algorithm 2:
// for each vertex u in order, build the bitmap index of N(u), intersect it
// with N(v) for every neighbor v > u (assigning the count symmetrically),
// then clear the bitmap by flipping the same bits back. It is the
// pseudocode-faithful oracle for the parallel engine, which reaches the
// same result through the edge-range skeleton (Algorithm 3).
func countVertexBMP(g *graph.CSR) []uint32 {
	counts := make([]uint32, g.NumEdges())
	n := g.NumVertices()
	b := bitmap.New(uint32(n))
	for u := 0; u < n; u++ {
		nu := g.Neighbors(graph.VertexID(u))
		// Lines 3-4: set v's bit for every v ∈ N(u).
		b.SetList(nu)
		// Lines 5-7: count for each neighbor v with u < v, assign both
		// directions.
		for i, v := range nu {
			if graph.VertexID(u) >= v {
				continue
			}
			var c uint32
			for _, w := range g.Neighbors(v) {
				if b.Test(w) {
					c++
				}
			}
			counts[g.Off[u]+int64(i)] = c
			if rev, ok := g.EdgeOffset(v, graph.VertexID(u)); ok {
				counts[rev] = c
			}
		}
		// Lines 8-9: flip v's bit for every v ∈ N(u).
		b.ClearList(nu)
	}
	return counts
}

func TestCountVertexBMPMatchesEngine(t *testing.T) {
	// The literal Algorithm 2 and the parallel skeleton must agree on any
	// graph.
	for seed := int64(0); seed < 4; seed++ {
		g := randomGraph(t, 40+seed, 150, 1100)
		want := countVertexBMP(g)
		if err := verify.CheckCounts(g, want); err != nil {
			t.Fatalf("seed %d: Algorithm 2 reference wrong: %v", seed, err)
		}
		res, err := Count(g, Options{Algorithm: AlgoBMP, Threads: 3, TaskSize: 50})
		if err != nil {
			t.Fatal(err)
		}
		for e := range want {
			if res.Counts[e] != want[e] {
				t.Fatalf("seed %d: engine disagrees with Algorithm 2 at offset %d", seed, e)
			}
		}
	}
}

func TestCountOptionsValidation(t *testing.T) {
	g := randomGraph(t, 6, 10, 20)
	if _, err := Count(g, Options{Algorithm: Algorithm(99)}); err == nil {
		t.Error("want error for unknown algorithm")
	}
	if _, err := Count(g, Options{Algorithm: AlgoMPS, Lanes: 100}); err == nil {
		t.Error("want error for absurd lane width")
	}
	if _, err := Count(g, Options{Algorithm: AlgoMPS, SkewThreshold: math.NaN()}); err == nil {
		t.Error("want error for NaN skew threshold")
	}
}

func TestCountEmptyAndTinyGraphs(t *testing.T) {
	for _, algo := range Algorithms {
		g, err := graph.FromEdges(3, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Count(g, Options{Algorithm: algo})
		if err != nil {
			t.Fatalf("%v on empty: %v", algo, err)
		}
		if len(res.Counts) != 0 {
			t.Errorf("%v: counts on empty graph", algo)
		}

		g, err = graph.FromEdges(2, []graph.Edge{{U: 0, V: 1}})
		if err != nil {
			t.Fatal(err)
		}
		res, err = Count(g, Options{Algorithm: algo})
		if err != nil {
			t.Fatalf("%v on single edge: %v", algo, err)
		}
		if res.Counts[0] != 0 || res.Counts[1] != 0 {
			t.Errorf("%v: single edge has common neighbors", algo)
		}
	}
}

func TestCountCompleteGraph(t *testing.T) {
	// K5: every edge has exactly 3 common neighbors.
	var edges []graph.Edge
	for u := 0; u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			edges = append(edges, graph.Edge{U: graph.VertexID(u), V: graph.VertexID(v)})
		}
	}
	g, err := graph.FromEdges(5, edges)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range Algorithms {
		res, err := Count(g, Options{Algorithm: algo, Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		for e, c := range res.Counts {
			if c != 3 {
				t.Fatalf("%v: cnt[%d] = %d, want 3", algo, e, c)
			}
		}
		if res.TriangleCount() != 10 {
			t.Errorf("%v: triangles = %d, want 10", algo, res.TriangleCount())
		}
	}
}

func TestAlgorithmString(t *testing.T) {
	want := map[Algorithm]string{AlgoM: "M", AlgoMPS: "MPS", AlgoBMP: "BMP", AlgoBMPRF: "BMP-RF"}
	for a, s := range want {
		if a.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(a), a.String(), s)
		}
	}
	if Algorithm(42).String() == "" {
		t.Error("unknown algorithm stringer empty")
	}
}

// TestCountSymmetryUnderStealing forces heavy cross-deque stealing — a tiny
// task size over many workers on one physical core — and asserts the
// symmetric assignment cnt[e(u,v)] == cnt[e(v,u)] still holds with exact
// counts. Run with -race this pins that steal-migrated edge ranges never
// double-write or skip the reverse offset. The degree-reordered profiles
// add skewed inputs whose hubs span many stolen tasks, so BMP's inline
// warm-source check must notice every source change a steal brings.
func TestCountSymmetryUnderStealing(t *testing.T) {
	type input struct {
		name     string
		g        *graph.CSR
		taskSize int
	}
	inputs := []input{{"random", randomGraph(t, 7, 300, 3000), 16}}
	for _, p := range gen.Profiles {
		g0, err := p.Generate(0.05)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		g, _ := graph.ReorderByDegree(g0)
		inputs = append(inputs, input{p.Name, g, 32})
	}
	for _, in := range inputs {
		g := in.g
		for _, algo := range []Algorithm{AlgoMPS, AlgoBMP} {
			res, err := Count(g, Options{Algorithm: algo, Threads: 8, TaskSize: in.taskSize})
			if err != nil {
				t.Fatal(err)
			}
			if err := verify.CheckCounts(g, res.Counts); err != nil {
				t.Fatalf("%s/%s under stealing: %v", in.name, algo, err)
			}
			for u := 0; u < g.NumVertices(); u++ {
				for i := g.Off[u]; i < g.Off[u+1]; i++ {
					v := g.Dst[i]
					rev, ok := g.EdgeOffset(v, graph.VertexID(u))
					if !ok {
						t.Fatalf("%s: missing reverse edge (%d,%d)", in.name, v, u)
					}
					if res.Counts[i] != res.Counts[rev] {
						t.Fatalf("%s/%s: cnt[e(%d,%d)]=%d != cnt[e(%d,%d)]=%d",
							in.name, algo, u, v, res.Counts[i], v, u, res.Counts[rev])
					}
				}
			}
		}
	}
}

// TestLog2IsFloor pins log2 to ⌊log2 d⌋, the binary search step count
// the work model has always charged: a shift loop is the reference.
func TestLog2IsFloor(t *testing.T) {
	floor := func(d int64) uint64 {
		var s uint64
		for ; d > 1; d >>= 1 {
			s++
		}
		return s
	}
	for _, d := range []int64{1, 2, 3, 4, 5, 7, 8, 9, 1023, 1024, 1025, 1 << 40, math.MaxInt64} {
		if got, want := log2(d), floor(d); got != want {
			t.Errorf("log2(%d) = %d, want %d", d, got, want)
		}
	}
}

// TestCountBMPProbePaths runs BMP's edge loop with both of its probe
// kernels, the AVX-512 pass that also ranks u where the host has it and
// the inlined scalar loop with a binary search, against the reference. The graph's average degree is 50,
// so most probed lists hold whole 16-ID blocks and a tail.
func TestCountBMPProbePaths(t *testing.T) {
	g := randomGraph(t, 7, 120, 3000)
	paths := []bool{false}
	if simd.AVX512 {
		paths = append(paths, true)
	}
	defer func(host bool) { simd.AVX512 = host }(simd.AVX512)
	for _, on := range paths {
		simd.AVX512 = on
		res, err := Count(g, Options{Algorithm: AlgoBMP, Threads: 2})
		if err != nil {
			t.Fatalf("AVX512=%v: %v", on, err)
		}
		if err := verify.CheckCounts(g, res.Counts); err != nil {
			t.Fatalf("AVX512=%v: %v", on, err)
		}
	}
}
