// Package analytics implements the downstream graph analytics the paper
// cites as consumers of all-edge common neighbor counts (§1): SCAN
// structural similarity [8, 9, 27], edge similarity queries (cosine and
// Jaccard), local clustering coefficients, exact triangle counting, and
// common-neighbor-strength recommendation for co-purchasing graphs.
// Structural clustering itself lives in internal/scan, whose FromCounts
// consumes the same count array.
//
// Every function consumes a count array indexed by edge offset, as produced
// by the counting engine, so the expensive intersection work is done once
// and reused across analyses — the usage pattern that makes the counting
// operation worth accelerating.
package analytics

import (
	"fmt"
	"math"
	"sort"

	"cncount/internal/graph"
)

// StructuralSimilarity returns the SCAN structural similarity of every
// edge: σ(u,v) = |Γ(u) ∩ Γ(v)| / √(|Γ(u)|·|Γ(v)|) with the closed
// neighborhoods Γ(x) = N(x) ∪ {x}, so for adjacent u,v the numerator is
// cnt[e(u,v)] + 2. The result is indexed by edge offset like counts.
func StructuralSimilarity(g *graph.CSR, counts []uint32) ([]float64, error) {
	if int64(len(counts)) != g.NumEdges() {
		return nil, fmt.Errorf("analytics: %d counts for %d edges", len(counts), g.NumEdges())
	}
	sim := make([]float64, len(counts))
	n := g.NumVertices()
	for u := 0; u < n; u++ {
		du := float64(g.Degree(graph.VertexID(u))) + 1
		for e := g.Off[u]; e < g.Off[u+1]; e++ {
			v := g.Dst[e]
			dv := float64(g.Degree(v)) + 1
			sim[e] = (float64(counts[e]) + 2) / math.Sqrt(du*dv)
		}
	}
	return sim, nil
}

// Jaccard returns the Jaccard similarity |N(u)∩N(v)| / |N(u)∪N(v)| of every
// edge, indexed by edge offset.
func Jaccard(g *graph.CSR, counts []uint32) ([]float64, error) {
	if int64(len(counts)) != g.NumEdges() {
		return nil, fmt.Errorf("analytics: %d counts for %d edges", len(counts), g.NumEdges())
	}
	sim := make([]float64, len(counts))
	n := g.NumVertices()
	for u := 0; u < n; u++ {
		du := g.Degree(graph.VertexID(u))
		for e := g.Off[u]; e < g.Off[u+1]; e++ {
			union := du + g.Degree(g.Dst[e]) - int64(counts[e])
			if union > 0 {
				sim[e] = float64(counts[e]) / float64(union)
			}
		}
	}
	return sim, nil
}

// Triangles returns the exact triangle count Σcnt/6 (paper §2.2.2).
func Triangles(counts []uint32) uint64 {
	var sum uint64
	for _, c := range counts {
		sum += uint64(c)
	}
	return sum / 6
}

// ClusteringCoefficients returns each vertex's local clustering coefficient
// 2·tri(u) / (d_u·(d_u−1)), where tri(u) = Σ_{v∈N(u)} cnt[e(u,v)] / 2.
func ClusteringCoefficients(g *graph.CSR, counts []uint32) ([]float64, error) {
	if int64(len(counts)) != g.NumEdges() {
		return nil, fmt.Errorf("analytics: %d counts for %d edges", len(counts), g.NumEdges())
	}
	n := g.NumVertices()
	cc := make([]float64, n)
	for u := 0; u < n; u++ {
		d := g.Degree(graph.VertexID(u))
		if d < 2 {
			continue
		}
		var twiceTri uint64
		for e := g.Off[u]; e < g.Off[u+1]; e++ {
			twiceTri += uint64(counts[e])
		}
		// twiceTri = 2·tri(u): each triangle through u is counted once via
		// each of its two edges at u.
		cc[u] = float64(twiceTri) / float64(d*(d-1))
	}
	return cc, nil
}

// Recommendation is one ranked edge of a recommendation list.
type Recommendation struct {
	Neighbor graph.VertexID
	Count    uint32
	Score    float64 // Jaccard-normalized strength
}

// TopKNeighbors ranks u's neighbors by common-neighbor strength — the
// co-purchasing recommendation primitive from the paper's introduction
// ("recommend products of potential interest to the user while the user is
// shopping"). Ties break toward smaller vertex IDs for determinism.
func TopKNeighbors(g *graph.CSR, counts []uint32, u graph.VertexID, k int) ([]Recommendation, error) {
	if int64(len(counts)) != g.NumEdges() {
		return nil, fmt.Errorf("analytics: %d counts for %d edges", len(counts), g.NumEdges())
	}
	if int(u) >= g.NumVertices() {
		return nil, fmt.Errorf("analytics: vertex %d out of range |V|=%d", u, g.NumVertices())
	}
	du := g.Degree(u)
	recs := make([]Recommendation, 0, du)
	for e := g.Off[u]; e < g.Off[u+1]; e++ {
		v := g.Dst[e]
		union := du + g.Degree(v) - int64(counts[e])
		score := 0.0
		if union > 0 {
			score = float64(counts[e]) / float64(union)
		}
		recs = append(recs, Recommendation{Neighbor: v, Count: counts[e], Score: score})
	}
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].Count != recs[j].Count {
			return recs[i].Count > recs[j].Count
		}
		return recs[i].Neighbor < recs[j].Neighbor
	})
	if k >= 0 && k < len(recs) {
		recs = recs[:k]
	}
	return recs, nil
}
