package cncount

import (
	"cncount/internal/analytics"
)

// StructuralSimilarity returns the SCAN structural similarity
// σ(u,v) = |Γ(u)∩Γ(v)| / √(|Γ(u)|·|Γ(v)|) of every edge, indexed by edge
// offset like the count array.
func StructuralSimilarity(g *Graph, counts []uint32) ([]float64, error) {
	return analytics.StructuralSimilarity(g, counts)
}

// Jaccard returns the per-edge Jaccard similarity |N(u)∩N(v)|/|N(u)∪N(v)|.
func Jaccard(g *Graph, counts []uint32) ([]float64, error) {
	return analytics.Jaccard(g, counts)
}

// Triangles returns the graph's exact triangle count, Σcnt/6.
func Triangles(counts []uint32) uint64 { return analytics.Triangles(counts) }

// ClusteringCoefficients returns each vertex's local clustering
// coefficient derived from the counts.
func ClusteringCoefficients(g *Graph, counts []uint32) ([]float64, error) {
	return analytics.ClusteringCoefficients(g, counts)
}

// Recommendation is one entry of a ranked neighbor list.
type Recommendation = analytics.Recommendation

// TopKNeighbors ranks u's neighbors by common-neighbor strength, the
// co-purchasing recommendation primitive of the paper's introduction.
func TopKNeighbors(g *Graph, counts []uint32, u VertexID, k int) ([]Recommendation, error) {
	return analytics.TopKNeighbors(g, counts, u, k)
}
