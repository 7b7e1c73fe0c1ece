package graph

// Reordering records a vertex relabeling produced by ReorderByDegree. NewID
// maps an original vertex ID to its new ID and OldID is the inverse
// permutation.
type Reordering struct {
	NewID []VertexID
	OldID []VertexID
}

// ReorderByDegree relabels vertices in degree-descending order and returns
// the relabeled graph along with the permutation (paper §2.1,
// "Degree-Descending Graph Ordering").
//
// The ordering guarantees u < v ⇒ d_u ≥ d_v, which lets BMP build the bitmap
// index on the larger-degree endpoint and loop over the smaller-degree
// neighbor list, bounding every bitmap-array intersection by
// O(min(d_u, d_v)). Ties are broken by original ID so the reordering is
// deterministic. The order comes from a stable counting sort on degree and
// the rows from relabel, so the whole pass is O(|V|+|E|). g must be
// symmetric, which Validate checks.
func ReorderByDegree(g *CSR) (*CSR, *Reordering) {
	n := g.NumVertices()
	var maxDeg int64
	for u := 0; u < n; u++ {
		maxDeg = max(maxDeg, g.Degree(VertexID(u)))
	}
	// first[d] becomes the first new ID of the degree-d vertices: the
	// number of vertices with a larger degree.
	first := make([]int64, maxDeg+1)
	for u := 0; u < n; u++ {
		first[g.Degree(VertexID(u))]++
	}
	var next int64
	for d := maxDeg; d >= 0; d-- {
		first[d], next = next, next+first[d]
	}
	order := make([]VertexID, n)
	for u := 0; u < n; u++ {
		d := g.Degree(VertexID(u))
		order[first[d]] = VertexID(u)
		first[d]++
	}
	return relabel(g, order)
}

// relabel renumbers g so that order[i] becomes vertex i. It visits the old
// vertices x in new-ID order and appends newID(x) to row newID(y) for each
// neighbor y, so every row fills in ascending order without a sort. g must
// be symmetric, which Validate checks: row newID(y) then receives exactly
// deg(y) entries.
func relabel(g *CSR, order []VertexID) (*CSR, *Reordering) {
	n := len(order)
	r := &Reordering{NewID: make([]VertexID, n), OldID: order}
	off := make([]int64, n+1)
	for nx, x := range order {
		r.NewID[x] = VertexID(nx)
		off[nx+1] = off[nx] + g.Degree(x)
	}
	next := append([]int64(nil), off[:n]...)
	dst := make([]VertexID, len(g.Dst))
	for nx, x := range order {
		for _, y := range g.Neighbors(x) {
			ny := r.NewID[y]
			dst[next[ny]] = VertexID(nx)
			next[ny]++
		}
	}
	return &CSR{Off: off, Dst: dst}, r
}

// IsDegreeDescending reports whether vertex IDs are already ordered by
// non-increasing degree (the property ReorderByDegree establishes).
func IsDegreeDescending(g *CSR) bool {
	n := g.NumVertices()
	for u := 1; u < n; u++ {
		if g.Degree(VertexID(u)) > g.Degree(VertexID(u-1)) {
			return false
		}
	}
	return true
}

// MapCounts translates a per-edge-offset count array computed on a
// reordered graph back to the edge offsets of the original graph. reordered
// must be the CSR that ReorderByDegree or ReorderByDegeneracy returned for
// original with the same Reordering, and counts must be symmetric,
// counts[e(u,v)] == counts[e(v,u)], as every count array Count produces is.
//
// MapCounts replays relabel's walk over original: the k-th visit to row ny
// is reordered offset Off[ny]+k, the edge (ny, nx), whose count by symmetry
// is that of original offset i = e(x, y). No offset is searched for.
func MapCounts(original, reordered *CSR, r *Reordering, counts []uint32) []uint32 {
	out := make([]uint32, original.NumEdges())
	next := append([]int64(nil), reordered.Off[:len(r.OldID)]...)
	for _, x := range r.OldID {
		for i := original.Off[x]; i < original.Off[x+1]; i++ {
			ny := r.NewID[original.Dst[i]]
			out[i] = counts[next[ny]]
			next[ny]++
		}
	}
	return out
}
