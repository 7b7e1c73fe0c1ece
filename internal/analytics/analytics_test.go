package analytics

import (
	"math"
	"math/rand"
	"testing"

	"cncount/internal/graph"
	"cncount/internal/verify"
)

// triangleGraph: 0-1-2 triangle with pendant 3 on vertex 0.
func triangleGraph(t *testing.T) (*graph.CSR, []uint32) {
	t.Helper()
	g, err := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}, {U: 0, V: 3}})
	if err != nil {
		t.Fatal(err)
	}
	return g, verify.Counts(g)
}

func randomCase(t *testing.T, seed int64, n, m int) (*graph.CSR, []uint32) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	edges := make([]graph.Edge, m)
	for i := range edges {
		edges[i] = graph.Edge{U: graph.VertexID(rng.Intn(n)), V: graph.VertexID(rng.Intn(n))}
	}
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g, verify.Counts(g)
}

func TestStructuralSimilarity(t *testing.T) {
	g, cnt := triangleGraph(t)
	sim, err := StructuralSimilarity(g, cnt)
	if err != nil {
		t.Fatal(err)
	}
	// Edge (1,2): cnt=1, Γ sizes 3 and 3 → 3/3 = 1.
	e, _ := g.EdgeOffset(1, 2)
	if math.Abs(sim[e]-1.0) > 1e-12 {
		t.Errorf("σ(1,2) = %g, want 1", sim[e])
	}
	// Edge (0,3): cnt=0, Γ sizes 4 and 2 → 2/√8.
	e, _ = g.EdgeOffset(0, 3)
	want := 2 / math.Sqrt(8)
	if math.Abs(sim[e]-want) > 1e-12 {
		t.Errorf("σ(0,3) = %g, want %g", sim[e], want)
	}
	// Similarity is symmetric and in (0, 1].
	for u := 0; u < g.NumVertices(); u++ {
		for e := g.Off[u]; e < g.Off[u+1]; e++ {
			rev, _ := g.EdgeOffset(g.Dst[e], graph.VertexID(u))
			if sim[e] != sim[rev] {
				t.Fatalf("similarity asymmetric at edge %d", e)
			}
			if sim[e] <= 0 || sim[e] > 1 {
				t.Fatalf("σ = %g out of (0,1]", sim[e])
			}
		}
	}
}

func TestSimilarityLengthMismatch(t *testing.T) {
	g, cnt := triangleGraph(t)
	if _, err := StructuralSimilarity(g, cnt[:1]); err == nil {
		t.Error("short counts accepted")
	}
	if _, err := Jaccard(g, cnt[:1]); err == nil {
		t.Error("short counts accepted by Jaccard")
	}
	if _, err := ClusteringCoefficients(g, cnt[:1]); err == nil {
		t.Error("short counts accepted by ClusteringCoefficients")
	}
	if _, err := TopKNeighbors(g, cnt[:1], 0, 3); err == nil {
		t.Error("short counts accepted by TopKNeighbors")
	}
}

func TestJaccard(t *testing.T) {
	g, cnt := triangleGraph(t)
	sim, err := Jaccard(g, cnt)
	if err != nil {
		t.Fatal(err)
	}
	// Edge (1,2): N(1)={0,2}, N(2)={0,1}: intersection 1, union 3 → 1/3.
	e, _ := g.EdgeOffset(1, 2)
	if math.Abs(sim[e]-1.0/3) > 1e-12 {
		t.Errorf("J(1,2) = %g, want 1/3", sim[e])
	}
	// Pendant edge: no common neighbors → 0.
	e, _ = g.EdgeOffset(0, 3)
	if sim[e] != 0 {
		t.Errorf("J(0,3) = %g, want 0", sim[e])
	}
}

func TestTriangles(t *testing.T) {
	_, cnt := triangleGraph(t)
	if got := Triangles(cnt); got != 1 {
		t.Errorf("Triangles = %d, want 1", got)
	}
	g2, cnt2 := randomCase(t, 3, 60, 400)
	if got, want := Triangles(cnt2), verify.Triangles(g2); got != want {
		t.Errorf("Triangles = %d, want %d", got, want)
	}
}

func TestClusteringCoefficients(t *testing.T) {
	g, cnt := triangleGraph(t)
	cc, err := ClusteringCoefficients(g, cnt)
	if err != nil {
		t.Fatal(err)
	}
	// Vertex 1 has neighbors {0,2} which are connected: cc = 1.
	if math.Abs(cc[1]-1) > 1e-12 {
		t.Errorf("cc[1] = %g, want 1", cc[1])
	}
	// Vertex 0 has 3 neighbors, 1 triangle among them: cc = 2*1/(3*2) = 1/3.
	if math.Abs(cc[0]-1.0/3) > 1e-12 {
		t.Errorf("cc[0] = %g, want 1/3", cc[0])
	}
	// Degree-1 vertex: 0 by convention.
	if cc[3] != 0 {
		t.Errorf("cc[3] = %g, want 0", cc[3])
	}
}

func TestTopKNeighbors(t *testing.T) {
	g, cnt := triangleGraph(t)
	recs, err := TopKNeighbors(g, cnt, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d recommendations", len(recs))
	}
	// Vertex 0's strongest ties are 1 and 2 (count 1 each); pendant 3 has
	// count 0 and must rank last.
	if recs[0].Neighbor != 1 || recs[1].Neighbor != 2 {
		t.Errorf("top-2 = %v", recs)
	}
	// k beyond degree returns all neighbors.
	recs, err = TopKNeighbors(g, cnt, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Errorf("got %d of 3 neighbors", len(recs))
	}
	if recs[2].Neighbor != 3 || recs[2].Count != 0 {
		t.Errorf("weakest tie = %+v", recs[2])
	}
	// Out-of-range vertex errors.
	if _, err := TopKNeighbors(g, cnt, 99, 1); err == nil {
		t.Error("out-of-range vertex accepted")
	}
}

func TestTopKDeterministicTieBreak(t *testing.T) {
	g, cnt := randomCase(t, 7, 40, 200)
	a, err := TopKNeighbors(g, cnt, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := TopKNeighbors(g, cnt, 0, -1)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic ranking")
		}
	}
	for i := 1; i < len(a); i++ {
		if a[i].Count > a[i-1].Count {
			t.Fatal("not sorted by count")
		}
		if a[i].Count == a[i-1].Count && a[i].Neighbor < a[i-1].Neighbor {
			t.Fatal("tie not broken by vertex ID")
		}
	}
}
