package graph

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// triangle-with-tail test graph:
//
//	0 - 1
//	| \ |
//	3   2   4 (isolated)
var testEdges = []Edge{{0, 1}, {1, 2}, {0, 2}, {0, 3}}

func mustGraph(t *testing.T, n int, edges []Edge) *CSR {
	t.Helper()
	g, err := FromEdges(n, edges)
	if err != nil {
		t.Fatalf("FromEdges: %v", err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return g
}

func TestFromEdgesBasic(t *testing.T) {
	g := mustGraph(t, 5, testEdges)
	if got := g.NumVertices(); got != 5 {
		t.Errorf("NumVertices = %d, want 5", got)
	}
	if got := g.NumEdges(); got != 8 {
		t.Errorf("NumEdges = %d, want 8 (4 undirected edges)", got)
	}
	wantNbr := map[VertexID][]VertexID{
		0: {1, 2, 3},
		1: {0, 2},
		2: {0, 1},
		3: {0},
		4: {},
	}
	for u, want := range wantNbr {
		got := g.Neighbors(u)
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Neighbors(%d) = %v, want %v", u, got, want)
		}
	}
}

func TestFromEdgesDedupAndSelfLoops(t *testing.T) {
	edges := []Edge{{0, 1}, {1, 0}, {0, 1}, {2, 2}, {1, 2}}
	g := mustGraph(t, 3, edges)
	if got := g.NumEdges(); got != 4 {
		t.Errorf("NumEdges = %d, want 4 (edges {0,1},{1,2} both directions)", got)
	}
	if g.HasEdge(2, 2) {
		t.Error("self-loop (2,2) survived")
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("undirected edge (0,1) missing a direction")
	}
}

func TestFromEdgesOutOfRange(t *testing.T) {
	if _, err := FromEdges(2, []Edge{{0, 5}}); err == nil {
		t.Fatal("want error for out-of-range vertex, got nil")
	}
}

// TestFromEdgesRejectsSentinelIDSpace: a vertex count past MaxUint32 would
// make the ID ^uint32(0) a legal vertex, and the uint32(g.NumVertices())
// that sizes the counting bitmaps would wrap 2^32 to 0. The in-memory
// constructor must reject it with the typed error before allocating
// anything count-proportional, matching the file loaders' semantics.
func TestFromEdgesRejectsSentinelIDSpace(t *testing.T) {
	tooMany := int(int64(math.MaxUint32) + 1)
	if int64(tooMany) != int64(math.MaxUint32)+1 {
		t.Skip("32-bit int cannot express an out-of-range vertex count")
	}
	_, err := FromEdges(tooMany, []Edge{{math.MaxUint32, 0}})
	if err == nil {
		t.Fatal("FromEdges accepted vertex ID MaxUint32")
	}
	var vre *VertexRangeError
	if !errors.As(err, &vre) {
		t.Fatalf("error %v is not a *VertexRangeError", err)
	}
	if vre.NumVertices != tooMany {
		t.Errorf("NumVertices = %d, want %d", vre.NumVertices, tooMany)
	}
	if !strings.Contains(err.Error(), "out of range") {
		t.Errorf("error %q does not match the loader wording", err)
	}
	// The last representable count still passes validation; checked
	// directly because actually building it would allocate ~32 GB.
	if err := checkVertexCount(math.MaxUint32); err != nil {
		t.Errorf("checkVertexCount(MaxUint32): %v", err)
	}
}

func TestEdgeOffset(t *testing.T) {
	g := mustGraph(t, 5, testEdges)
	e, ok := g.EdgeOffset(0, 2)
	if !ok {
		t.Fatal("EdgeOffset(0,2): edge should exist")
	}
	if g.Dst[e] != 2 {
		t.Errorf("Dst[e(0,2)] = %d, want 2", g.Dst[e])
	}
	if _, ok := g.EdgeOffset(3, 2); ok {
		t.Error("EdgeOffset(3,2) reported a nonexistent edge")
	}
	if _, ok := g.EdgeOffset(4, 0); ok {
		t.Error("EdgeOffset on isolated vertex reported an edge")
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	g := mustGraph(t, 5, testEdges)
	edges := g.Edges()
	g2 := mustGraph(t, 5, edges)
	if !reflect.DeepEqual(g.Off, g2.Off) || !reflect.DeepEqual(g.Dst, g2.Dst) {
		t.Error("Edges() round trip changed the graph")
	}
}

// randomEdges returns a reproducible random edge list over n vertices.
func randomEdges(rng *rand.Rand, n, m int) []Edge {
	edges := make([]Edge, m)
	for i := range edges {
		edges[i] = Edge{VertexID(rng.Intn(n)), VertexID(rng.Intn(n))}
	}
	return edges
}

func TestFromEdgesPropertyValid(t *testing.T) {
	// Property: FromEdges always yields a CSR passing Validate, for any
	// random edge soup (duplicates, self-loops, any order).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(60)
		m := rng.Intn(300)
		g, err := FromEdges(n, randomEdges(rng, n, m))
		if err != nil {
			return false
		}
		return g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestFindSrcSequentialScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := mustGraph(t, 50, randomEdges(rng, 50, 200))
	f := NewSrcFinder(g)
	for e := int64(0); e < g.NumEdges(); e++ {
		u := f.Find(e)
		if e < g.Off[u] || e >= g.Off[u+1] {
			t.Fatalf("Find(%d) = %d with range [%d,%d)", e, u, g.Off[u], g.Off[u+1])
		}
	}
}

func TestFindSrcRandomJumps(t *testing.T) {
	// FindSrc must be correct under arbitrary forward and backward jumps,
	// including graphs with zero-degree vertices.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		g, err := FromEdges(n, randomEdges(rng, n, rng.Intn(120)))
		if err != nil || g.NumEdges() == 0 {
			return true
		}
		finder := NewSrcFinder(g)
		for trial := 0; trial < 50; trial++ {
			e := rng.Int63n(g.NumEdges())
			u := finder.Find(e)
			if e < g.Off[u] || e >= g.Off[u+1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestCloneIndependence(t *testing.T) {
	g := mustGraph(t, 5, testEdges)
	c := g.Clone()
	c.Dst[0] = 99
	if g.Dst[0] == 99 {
		t.Error("Clone shares Dst storage")
	}
}

func TestMemoryBytes(t *testing.T) {
	g := mustGraph(t, 5, testEdges)
	want := int64(6*8 + 8*4)
	if got := g.MemoryBytes(); got != want {
		t.Errorf("MemoryBytes = %d, want %d", got, want)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	cases := map[string]func(*CSR){
		"unsorted adjacency": func(g *CSR) { g.Dst[0], g.Dst[1] = g.Dst[1], g.Dst[0] },
		"out of range dst":   func(g *CSR) { g.Dst[0] = 100 },
		"broken symmetry":    func(g *CSR) { g.Dst[len(g.Dst)-1] = 1 },
		"nonmonotone off":    func(g *CSR) { g.Off[1] = g.Off[2] + 1 },
	}
	for name, corrupt := range cases {
		g := mustGraph(t, 5, testEdges)
		corrupt(g)
		if err := g.Validate(); err == nil {
			t.Errorf("%s: Validate accepted corrupted graph", name)
		}
	}
}

func TestSummarize(t *testing.T) {
	g := mustGraph(t, 5, testEdges)
	s := Summarize("tiny", g)
	if s.NumVertices != 5 || s.NumEdges != 8 || s.MaxDegree != 3 {
		t.Errorf("Summarize = %+v", s)
	}
	if s.AvgDegree != 8.0/5.0 {
		t.Errorf("AvgDegree = %g, want %g", s.AvgDegree, 8.0/5.0)
	}
}

func TestSkewPercent(t *testing.T) {
	// Star graph: hub 0 with 100 leaves, leaves have degree 1 so each edge
	// has ratio 100 > 50: 100% skewed.
	var edges []Edge
	for v := 1; v <= 100; v++ {
		edges = append(edges, Edge{0, VertexID(v)})
	}
	g := mustGraph(t, 101, edges)
	if got := SkewPercent(g, 50); got != 100 {
		t.Errorf("star SkewPercent = %g, want 100", got)
	}
	// Cycle: all degrees 2, no skew.
	edges = nil
	for v := 0; v < 10; v++ {
		edges = append(edges, Edge{VertexID(v), VertexID((v + 1) % 10)})
	}
	g = mustGraph(t, 10, edges)
	if got := SkewPercent(g, 50); got != 0 {
		t.Errorf("cycle SkewPercent = %g, want 0", got)
	}
}

func TestDegreeHistogram(t *testing.T) {
	g := mustGraph(t, 5, testEdges)
	h := DegreeHistogram(g)
	want := map[int64]int{3: 1, 2: 2, 1: 1, 0: 1}
	if !reflect.DeepEqual(h, want) {
		t.Errorf("DegreeHistogram = %v, want %v", h, want)
	}
}

func TestReorderByDegree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := mustGraph(t, 60, randomEdges(rng, 60, 400))
	rg, r := ReorderByDegree(g)
	if err := rg.Validate(); err != nil {
		t.Fatalf("reordered graph invalid: %v", err)
	}
	if !IsDegreeDescending(rg) {
		t.Error("reordered graph is not degree-descending")
	}
	// The permutation is a bijection.
	seen := make(map[VertexID]bool)
	for _, old := range r.OldID {
		if seen[old] {
			t.Fatalf("OldID repeats vertex %d", old)
		}
		seen[old] = true
	}
	for old, n := range r.NewID {
		if r.OldID[n] != VertexID(old) {
			t.Fatalf("NewID/OldID not inverse at %d", old)
		}
	}
	// Degrees are preserved under relabeling.
	for u := 0; u < g.NumVertices(); u++ {
		if g.Degree(VertexID(u)) != rg.Degree(r.NewID[u]) {
			t.Fatalf("degree of %d changed under reordering", u)
		}
	}
	// Edge set is preserved.
	for u := 0; u < g.NumVertices(); u++ {
		for _, v := range g.Neighbors(VertexID(u)) {
			if !rg.HasEdge(r.NewID[u], r.NewID[v]) {
				t.Fatalf("edge (%d,%d) lost under reordering", u, v)
			}
		}
	}
}

func TestReorderPropertyDescending(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(50)
		g, err := FromEdges(n, randomEdges(rng, n, rng.Intn(200)))
		if err != nil {
			return false
		}
		rg, _ := ReorderByDegree(g)
		return IsDegreeDescending(rg) && rg.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMapCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := mustGraph(t, 30, randomEdges(rng, 30, 120))
	rg, r := ReorderByDegree(g)
	// Synthesize a recognizable count array on the reordered graph: the
	// count of e(u,v) is min(u,v)*1000+max(u,v) in original labels. It is
	// symmetric, as MapCounts requires, and unique to each undirected edge.
	counts := make([]uint32, rg.NumEdges())
	for nu := 0; nu < rg.NumVertices(); nu++ {
		for i := rg.Off[nu]; i < rg.Off[nu+1]; i++ {
			ou := r.OldID[nu]
			ov := r.OldID[rg.Dst[i]]
			counts[i] = min(ou, ov)*1000 + max(ou, ov)
		}
	}
	mapped := MapCounts(g, rg, r, counts)
	for u := 0; u < g.NumVertices(); u++ {
		for i := g.Off[u]; i < g.Off[u+1]; i++ {
			v := g.Dst[i]
			want := min(VertexID(u), v)*1000 + max(VertexID(u), v)
			if mapped[i] != want {
				t.Fatalf("mapped[%d] = %d, want %d", i, mapped[i], want)
			}
		}
	}
}

func TestIsDegreeDescendingNegative(t *testing.T) {
	// Path 0-1-2: degrees 1,2,1 — not descending.
	g := mustGraph(t, 3, []Edge{{0, 1}, {1, 2}})
	if IsDegreeDescending(g) {
		t.Error("path graph misreported as degree-descending")
	}
}

func sortEdges(es []Edge) {
	sort.Slice(es, func(i, j int) bool {
		if es[i].U != es[j].U {
			return es[i].U < es[j].U
		}
		return es[i].V < es[j].V
	})
}

func TestEdgesSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := mustGraph(t, 40, randomEdges(rng, 40, 150))
	es := g.Edges()
	sorted := append([]Edge(nil), es...)
	sortEdges(sorted)
	if !reflect.DeepEqual(es, sorted) {
		t.Error("Edges() not emitted in sorted order")
	}
}
