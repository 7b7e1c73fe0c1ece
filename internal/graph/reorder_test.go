package graph_test

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"cncount/internal/gen"
	"cncount/internal/graph"
)

// sortReorder relabels by sorting: it orders the vertices with less, then
// copies and sorts every relabeled row. It is the oracle that the counting
// sort and the transposition in relabel must match bit for bit.
func sortReorder(g *graph.CSR, less func(a, b graph.VertexID) bool) (*graph.CSR, *graph.Reordering) {
	n := g.NumVertices()
	order := make([]graph.VertexID, n)
	for i := range order {
		order[i] = graph.VertexID(i)
	}
	sort.Slice(order, func(i, j int) bool { return less(order[i], order[j]) })
	r := &graph.Reordering{NewID: make([]graph.VertexID, n), OldID: order}
	for newID, oldID := range order {
		r.NewID[oldID] = graph.VertexID(newID)
	}
	off := make([]int64, n+1)
	for newID := 0; newID < n; newID++ {
		off[newID+1] = off[newID] + g.Degree(order[newID])
	}
	dst := make([]graph.VertexID, len(g.Dst))
	for newID := 0; newID < n; newID++ {
		out := dst[off[newID]:off[newID+1]]
		for i, v := range g.Neighbors(order[newID]) {
			out[i] = r.NewID[v]
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	}
	return &graph.CSR{Off: off, Dst: dst}, r
}

// byDegree orders by degree descending, ties by ID.
func byDegree(g *graph.CSR) func(a, b graph.VertexID) bool {
	return func(a, b graph.VertexID) bool {
		if da, db := g.Degree(a), g.Degree(b); da != db {
			return da > db
		}
		return a < b
	}
}

// byDegeneracy orders by core number descending, then degree descending,
// then ID.
func byDegeneracy(g *graph.CSR) func(a, b graph.VertexID) bool {
	core := graph.CoreNumbers(g)
	deg := byDegree(g)
	return func(a, b graph.VertexID) bool {
		if core[a] != core[b] {
			return core[a] > core[b]
		}
		return deg(a, b)
	}
}

// searchMapCounts maps counts back with one EdgeOffset search per directed
// edge, the oracle for MapCounts.
func searchMapCounts(original, reordered *graph.CSR, r *graph.Reordering, counts []uint32) []uint32 {
	out := make([]uint32, original.NumEdges())
	for u := 0; u < original.NumVertices(); u++ {
		for i := original.Off[u]; i < original.Off[u+1]; i++ {
			e, _ := reordered.EdgeOffset(r.NewID[u], r.NewID[original.Dst[i]])
			out[i] = counts[e]
		}
	}
	return out
}

// checkAgainstOracle compares both reorderings of g, and MapCounts of a
// symmetric count array on each, with the oracles.
func checkAgainstOracle(g *graph.CSR) error {
	for _, tc := range []struct {
		name    string
		reorder func(*graph.CSR) (*graph.CSR, *graph.Reordering)
		less    func(a, b graph.VertexID) bool
	}{
		{"degree", graph.ReorderByDegree, byDegree(g)},
		{"degeneracy", graph.ReorderByDegeneracy, byDegeneracy(g)},
	} {
		rg, r := tc.reorder(g)
		wg, wr := sortReorder(g, tc.less)
		if !slices.Equal(rg.Off, wg.Off) || !slices.Equal(rg.Dst, wg.Dst) {
			return fmt.Errorf("%s: reordered CSR differs from the sort-based relabel", tc.name)
		}
		if !slices.Equal(r.OldID, wr.OldID) || !slices.Equal(r.NewID, wr.NewID) {
			return fmt.Errorf("%s: permutation differs from the sort-based order", tc.name)
		}
		// A symmetric array whose value tells the undirected edges apart.
		n := uint32(g.NumVertices())
		counts := make([]uint32, rg.NumEdges())
		for nu := 0; nu < rg.NumVertices(); nu++ {
			for e := rg.Off[nu]; e < rg.Off[nu+1]; e++ {
				ou, ov := r.OldID[nu], r.OldID[rg.Dst[e]]
				counts[e] = min(ou, ov)*n + max(ou, ov)
			}
		}
		got := graph.MapCounts(g, rg, r, counts)
		if want := searchMapCounts(g, rg, r, counts); !slices.Equal(got, want) {
			return fmt.Errorf("%s: MapCounts differs from the per-edge search", tc.name)
		}
	}
	return nil
}

func randomGraph(rng *rand.Rand, n, m int) (*graph.CSR, error) {
	edges := make([]graph.Edge, 0, m)
	for i := 0; i < m; i++ {
		edges = append(edges, graph.Edge{U: graph.VertexID(rng.Intn(n)), V: graph.VertexID(rng.Intn(n))})
	}
	return graph.FromEdges(n, edges)
}

// TestReorderMatchesSortOracle holds the sort-free reorder and the
// search-free mapping to the sort-based relabel and the per-edge search, on
// random graphs (|V| from 0, sparse enough to leave isolated vertices) and
// on the five profiles.
func TestReorderMatchesSortOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(64)
		g, err := randomGraph(rng, n, rng.Intn(3*n+1))
		if err != nil {
			t.Log(err)
			return false
		}
		if err := checkAgainstOracle(g); err != nil {
			t.Logf("|V|=%d |E|=%d: %v", n, g.NumEdges(), err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	for _, tc := range []struct {
		n     int
		edges []graph.Edge
	}{{0, nil}, {1, nil}, {2, nil}, {2, []graph.Edge{{U: 0, V: 1}}}} {
		g, err := graph.FromEdges(tc.n, tc.edges)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkAgainstOracle(g); err != nil {
			t.Errorf("|V|=%d |E|=%d: %v", tc.n, g.NumEdges(), err)
		}
	}
	for _, p := range gen.Profiles {
		g, err := p.Generate(0.05)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkAgainstOracle(g); err != nil {
			t.Errorf("%s ×0.05: %v", p.Name, err)
		}
	}
}

// TestReorderAllocsIndependentOfSize holds both passes to a fixed number
// of allocations at two graph sizes. A per-row sort or any per-vertex
// buffer makes the count grow with |V|.
func TestReorderAllocsIndependentOfSize(t *testing.T) {
	const maxReorder, maxMap = 8, 2
	for _, n := range []int{500, 5000} {
		g, err := randomGraph(rand.New(rand.NewSource(int64(n))), n, 8*n)
		if err != nil {
			t.Fatal(err)
		}
		rg, r := graph.ReorderByDegree(g)
		counts := make([]uint32, rg.NumEdges())
		reorder := testing.AllocsPerRun(3, func() { graph.ReorderByDegree(g) })
		mapping := testing.AllocsPerRun(3, func() { graph.MapCounts(g, rg, r, counts) })
		if reorder > maxReorder || mapping > maxMap {
			t.Errorf("|V|=%d: ReorderByDegree %v allocs (max %d), MapCounts %v (max %d)",
				n, reorder, maxReorder, mapping, maxMap)
		}
	}
}

var (
	sinkGraph  *graph.CSR
	sinkCounts []uint32
)

func twGraph(b *testing.B) *graph.CSR {
	b.Helper()
	p, err := gen.ProfileByName("TW")
	if err != nil {
		b.Fatal(err)
	}
	g, err := p.Generate(1)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkReorderByDegree times the degree reorder on TW ×1, the graph of
// the count-tw-bmp benchmark workload.
func BenchmarkReorderByDegree(b *testing.B) {
	g := twGraph(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkGraph, _ = graph.ReorderByDegree(g)
	}
}

// BenchmarkMapCounts times mapping a TW ×1 count array back to the
// original edge offsets.
func BenchmarkMapCounts(b *testing.B) {
	g := twGraph(b)
	rg, r := graph.ReorderByDegree(g)
	counts := make([]uint32, rg.NumEdges())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkCounts = graph.MapCounts(g, rg, r, counts)
	}
}
