package scan

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"cncount/internal/graph"
	"cncount/internal/verify"
)

func twoCliquesBridge(t *testing.T) *graph.CSR {
	t.Helper()
	var edges []graph.Edge
	clique := func(base graph.VertexID) {
		for i := graph.VertexID(0); i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				edges = append(edges, graph.Edge{U: base + i, V: base + j})
			}
		}
	}
	clique(0)
	clique(4)
	edges = append(edges, graph.Edge{U: 3, V: 4})
	g, err := graph.FromEdges(8, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestRunTwoCliques(t *testing.T) {
	g := twoCliquesBridge(t)
	res, err := Run(g, Params{Eps: 0.6, Mu: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 2 {
		t.Fatalf("NumClusters = %d, want 2 (%v)", res.NumClusters, res.ClusterOf)
	}
	// Every vertex shares its clique's cluster, and the bridge never
	// merges the two cliques.
	for u := 0; u < 8; u++ {
		if base := u / 4 * 4; res.ClusterOf[u] != res.ClusterOf[base] {
			t.Errorf("clique %d split at vertex %d: %v", base/4, u, res.ClusterOf)
		}
	}
	if res.ClusterOf[0] == res.ClusterOf[4] {
		t.Errorf("cliques merged: %v", res.ClusterOf)
	}
	if res.EdgesTotal != 13 {
		t.Errorf("EdgesTotal = %d, want 13", res.EdgesTotal)
	}
}

func TestParamsValidation(t *testing.T) {
	g := twoCliquesBridge(t)
	for _, p := range []Params{
		{Eps: 0, Mu: 3},
		{Eps: 1.5, Mu: 3},
		{Eps: -0.1, Mu: 3},
		{Eps: 0.5, Mu: 1},
	} {
		if _, err := Run(g, p); err == nil {
			t.Errorf("params %+v accepted", p)
		}
		if _, err := FromCounts(g, verify.Counts(g), p); err == nil {
			t.Errorf("params %+v accepted by FromCounts", p)
		}
	}
	if _, err := FromCounts(g, nil, Params{Eps: 0.5, Mu: 2}); err == nil {
		t.Error("short counts accepted")
	}
}

// refEpsEdge decides σ(u,v) ≥ eps from first principles.
func refEpsEdge(g *graph.CSR, counts []uint32, e int64, u, v graph.VertexID, eps float64) bool {
	sigma := (float64(counts[e]) + 2) /
		math.Sqrt(float64(g.Degree(u)+1)*float64(g.Degree(v)+1))
	return sigma >= eps-1e-12
}

// TestRunMatchesFromCounts is the pruning-correctness gate: the pruned
// on-demand evaluation must produce exactly the clustering that the
// precomputed-counts path does, for random graphs and parameters.
func TestRunMatchesFromCounts(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(60)
		m := rng.Intn(500)
		edges := make([]graph.Edge, m)
		for i := range edges {
			edges[i] = graph.Edge{U: graph.VertexID(rng.Intn(n)), V: graph.VertexID(rng.Intn(n))}
		}
		g, err := graph.FromEdges(n, edges)
		if err != nil {
			return false
		}
		eps := 0.1 + 0.8*rng.Float64()
		mu := 2 + rng.Intn(4)
		counts := verify.Counts(g)

		a, err := Run(g, Params{Eps: eps, Mu: mu, Workers: 1 + rng.Intn(3)})
		if err != nil {
			return false
		}
		b, err := FromCounts(g, counts, Params{Eps: eps, Mu: mu})
		if err != nil {
			return false
		}
		if a.NumClusters != b.NumClusters {
			return false
		}
		for v := 0; v < n; v++ {
			if a.Cores[v] != b.Cores[v] || a.Hubs[v] != b.Hubs[v] || a.Outliers[v] != b.Outliers[v] {
				return false
			}
			// Cluster IDs may be numbered differently; compare co-membership
			// against vertex 0's cluster ID mapping instead.
		}
		// Co-membership must agree for every edge.
		for u := 0; u < n; u++ {
			for _, w := range g.Neighbors(graph.VertexID(u)) {
				sameA := a.ClusterOf[u] != -1 && a.ClusterOf[u] == a.ClusterOf[w]
				sameB := b.ClusterOf[u] != -1 && b.ClusterOf[u] == b.ClusterOf[w]
				if sameA != sameB {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPruningSkipsChecks(t *testing.T) {
	// On a star graph with eps high, every hub-leaf edge is prunable
	// (degree bound) without any intersection.
	var edges []graph.Edge
	for v := 1; v <= 200; v++ {
		edges = append(edges, graph.Edge{U: 0, V: graph.VertexID(v)})
	}
	g, err := graph.FromEdges(201, edges)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(g, Params{Eps: 0.9, Mu: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.SimilarityChecks != 0 {
		t.Errorf("star graph needed %d intersections, want 0 (all pruned)", res.SimilarityChecks)
	}
	if res.NumClusters != 0 {
		t.Errorf("NumClusters = %d, want 0", res.NumClusters)
	}
	// Everything is an outlier: no clusters exist so no hubs either.
	for v, out := range res.Outliers {
		if !out {
			t.Fatalf("vertex %d not an outlier", v)
		}
	}
}

func TestEpsNeeded(t *testing.T) {
	// eps=0.5, du=dv=3: need cnt+2 >= 0.5*4 = 2 → cnt >= 0.
	if got := epsNeeded(0.5, 3, 3); got != 0 {
		t.Errorf("epsNeeded(0.5,3,3) = %d, want 0", got)
	}
	// eps=1, du=dv=3: cnt+2 >= 4 → cnt >= 2.
	if got := epsNeeded(1, 3, 3); got != 2 {
		t.Errorf("epsNeeded(1,3,3) = %d, want 2", got)
	}
	// Property: the threshold is the exact boundary of the σ ≥ ε test.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		du := int64(1 + rng.Intn(100))
		dv := int64(1 + rng.Intn(100))
		eps := 0.05 + 0.9*rng.Float64()
		need := epsNeeded(eps, du, dv)
		denom := math.Sqrt(float64(du+1) * float64(dv+1))
		// cnt = need satisfies; cnt = need-1 does not.
		if need >= 0 {
			if (float64(need)+2)/denom < eps-1e-9 {
				return false
			}
		}
		if need >= 1 {
			if (float64(need-1)+2)/denom >= eps+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestFromCountsHubsAndOutliers(t *testing.T) {
	// Two triangles joined through vertex 6, pendant 7: at strict eps, 6 is
	// unclustered but bridges both clusters (hub) and 7 is an outlier.
	edges := []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2},
		{U: 3, V: 4}, {U: 4, V: 5}, {U: 3, V: 5},
		{U: 6, V: 0}, {U: 6, V: 3}, {U: 6, V: 7},
	}
	g, err := graph.FromEdges(8, edges)
	if err != nil {
		t.Fatal(err)
	}
	res, err := FromCounts(g, verify.Counts(g), Params{Eps: 0.7, Mu: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 2 || !res.Hubs[6] || !res.Outliers[7] {
		t.Errorf("clusters=%d hubs=%v outliers=%v", res.NumClusters, res.Hubs, res.Outliers)
	}
	if res.ClusterOf[6] != -1 || res.ClusterOf[7] != -1 {
		t.Errorf("hub or outlier clustered: %v", res.ClusterOf)
	}
	if res.Outliers[6] || res.Hubs[7] {
		t.Errorf("hub/outlier classes overlap: hubs=%v outliers=%v", res.Hubs, res.Outliers)
	}
	// Clustered vertices are neither hubs nor outliers.
	for u := 0; u < 6; u++ {
		if res.ClusterOf[u] == -1 || res.Hubs[u] || res.Outliers[u] {
			t.Errorf("triangle vertex %d misclassified: %v", u, res.ClusterOf)
		}
	}
}
