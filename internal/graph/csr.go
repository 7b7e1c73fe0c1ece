// Package graph provides the graph substrate for all-edge common neighbor
// counting: the compressed sparse row (CSR) representation, edge-list
// construction, degree-descending reordering, reverse-edge lookup, and the
// degree/skew statistics reported in the paper's Tables 1 and 2.
//
// Conventions follow the paper (§2.1): the graph is undirected, vertex IDs
// are 32-bit unsigned integers in [0, |V|), both directions (u,v) and (v,u)
// of every undirected edge are stored, and each adjacency list is sorted in
// ascending vertex-ID order. |E| counts directed edges, i.e. twice the
// number of undirected edges.
package graph

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// VertexID identifies a vertex. All IDs are dense in [0, NumVertices).
type VertexID = uint32

// Edge is one undirected edge of an input edge list.
type Edge struct {
	U, V VertexID
}

// CSR is a compressed sparse row adjacency structure.
//
// Off has NumVertices+1 entries; the neighbors of vertex u occupy
// Dst[Off[u]:Off[u+1]] and are sorted ascending. An "edge offset" e(u,v) is
// an index into Dst, as in the paper.
type CSR struct {
	Off []int64
	Dst []VertexID
}

// NumVertices returns |V|.
func (g *CSR) NumVertices() int { return len(g.Off) - 1 }

// NumEdges returns |E|, the number of directed edges (twice the undirected
// edge count).
func (g *CSR) NumEdges() int64 { return g.Off[len(g.Off)-1] }

// Degree returns d_u = |N(u)|.
func (g *CSR) Degree(u VertexID) int64 { return g.Off[u+1] - g.Off[u] }

// Neighbors returns N(u), the ascending-sorted neighbor slice of u. The
// returned slice aliases the CSR and must not be modified.
func (g *CSR) Neighbors(u VertexID) []VertexID {
	return g.Dst[g.Off[u]:g.Off[u+1]]
}

// EdgeOffset returns e(u,v), the index into Dst of the directed edge (u,v),
// found by binary search on the sorted N(u). The boolean reports whether the
// edge exists.
func (g *CSR) EdgeOffset(u, v VertexID) (int64, bool) {
	lo, hi := g.Off[u], g.Off[u+1]
	for lo < hi {
		mid := (lo + hi) / 2
		if g.Dst[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < g.Off[u+1] && g.Dst[lo] == v {
		return lo, true
	}
	return lo, false
}

// HasEdge reports whether (u,v) is an edge.
func (g *CSR) HasEdge(u, v VertexID) bool {
	_, ok := g.EdgeOffset(u, v)
	return ok
}

// Validate checks structural invariants: monotone offsets, in-range
// destinations, sorted adjacency without duplicates or self-loops, and
// symmetry (every (u,v) has a (v,u)). It is O(|E| log d) and intended for
// tests and load-time verification.
func (g *CSR) Validate() error {
	if len(g.Off) == 0 {
		return errors.New("graph: empty offset array")
	}
	if g.Off[0] != 0 {
		return fmt.Errorf("graph: Off[0] = %d, want 0", g.Off[0])
	}
	n := g.NumVertices()
	if g.Off[n] != int64(len(g.Dst)) {
		return fmt.Errorf("graph: Off[|V|] = %d, want len(Dst) = %d", g.Off[n], len(g.Dst))
	}
	// Bounds-check the whole offset array before any slicing: a corrupted
	// file may hold arbitrary offsets.
	for u := 0; u < n; u++ {
		if g.Off[u] > g.Off[u+1] {
			return fmt.Errorf("graph: offsets not monotone at vertex %d", u)
		}
		if g.Off[u+1] > int64(len(g.Dst)) || g.Off[u] < 0 {
			return fmt.Errorf("graph: offset of vertex %d out of bounds", u)
		}
	}
	for u := 0; u < n; u++ {
		nbr := g.Dst[g.Off[u]:g.Off[u+1]]
		for i, v := range nbr {
			if int(v) >= n {
				return fmt.Errorf("graph: edge (%d,%d) out of range |V|=%d", u, v, n)
			}
			if VertexID(u) == v {
				return fmt.Errorf("graph: self-loop at vertex %d", u)
			}
			if i > 0 && nbr[i-1] >= v {
				return fmt.Errorf("graph: adjacency of %d not strictly ascending at position %d", u, i)
			}
		}
	}
	for u := 0; u < n; u++ {
		for _, v := range g.Neighbors(VertexID(u)) {
			if !g.HasEdge(v, VertexID(u)) {
				return fmt.Errorf("graph: edge (%d,%d) has no reverse edge", u, v)
			}
		}
	}
	return nil
}

// VertexRangeError reports a vertex count whose ID space exceeds what the
// uint32 VertexID can represent. The top ID MaxUint32 is additionally
// reserved: the file loaders reject it (ReadEdgeList, ReadBinary), and the
// in-memory constructors must match, because a graph holding that ID has
// 2^32 vertices, and the bitmap sizing in core.Count, archsim and gpusim
// (uint32(g.NumVertices())) would wrap that count to 0 rather than fail
// loudly.
type VertexRangeError struct {
	// NumVertices is the rejected vertex count.
	NumVertices int
}

func (e *VertexRangeError) Error() string {
	return fmt.Sprintf("graph: vertex count %d out of range (max %d): vertex ID %d is reserved",
		e.NumVertices, int64(math.MaxUint32), uint64(math.MaxUint32))
}

// checkVertexCount rejects vertex counts whose ID space would include the
// reserved ID MaxUint32, before any count-proportional allocation happens.
func checkVertexCount(numVertices int) error {
	if numVertices < 0 {
		return fmt.Errorf("graph: negative vertex count %d", numVertices)
	}
	if int64(numVertices) > math.MaxUint32 {
		return &VertexRangeError{NumVertices: numVertices}
	}
	return nil
}

// FromEdges builds a CSR from an undirected edge list with numVertices
// vertices. Self-loops are dropped and duplicate edges are merged. Each
// surviving undirected edge contributes both directions.
func FromEdges(numVertices int, edges []Edge) (*CSR, error) {
	if err := checkVertexCount(numVertices); err != nil {
		return nil, err
	}
	for _, e := range edges {
		if int(e.U) >= numVertices || int(e.V) >= numVertices {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range |V|=%d", e.U, e.V, numVertices)
		}
	}
	deg := make([]int64, numVertices)
	for _, e := range edges {
		if e.U == e.V {
			continue
		}
		deg[e.U]++
		deg[e.V]++
	}
	off := make([]int64, numVertices+1)
	for u := 0; u < numVertices; u++ {
		off[u+1] = off[u] + deg[u]
	}
	dst := make([]VertexID, off[numVertices])
	cursor := make([]int64, numVertices)
	copy(cursor, off[:numVertices])
	for _, e := range edges {
		if e.U == e.V {
			continue
		}
		dst[cursor[e.U]] = e.V
		cursor[e.U]++
		dst[cursor[e.V]] = e.U
		cursor[e.V]++
	}
	g := &CSR{Off: off, Dst: dst}
	g.sortAndDedup()
	return g, nil
}

// sortAndDedup sorts every adjacency list and removes duplicate neighbors,
// compacting Dst in place and rebuilding Off.
func (g *CSR) sortAndDedup() {
	n := g.NumVertices()
	newOff := make([]int64, n+1)
	w := int64(0)
	for u := 0; u < n; u++ {
		start := w
		nbr := g.Dst[g.Off[u]:g.Off[u+1]]
		sort.Slice(nbr, func(i, j int) bool { return nbr[i] < nbr[j] })
		for i, v := range nbr {
			if i > 0 && nbr[i-1] == v {
				continue
			}
			g.Dst[w] = v
			w++
		}
		newOff[u] = start
	}
	newOff[n] = w
	// newOff currently stores starts; shift to the CSR convention where
	// Off[u] is the start and Off[u+1] the end.
	g.Off = newOff
	g.Dst = g.Dst[:w]
}

// Clone returns a deep copy of g.
func (g *CSR) Clone() *CSR {
	off := make([]int64, len(g.Off))
	copy(off, g.Off)
	dst := make([]VertexID, len(g.Dst))
	copy(dst, g.Dst)
	return &CSR{Off: off, Dst: dst}
}

// Edges returns the undirected edge list (u < v once per edge), mainly for
// tests and round-tripping.
func (g *CSR) Edges() []Edge {
	var edges []Edge
	n := g.NumVertices()
	for u := 0; u < n; u++ {
		for _, v := range g.Neighbors(VertexID(u)) {
			if VertexID(u) < v {
				edges = append(edges, Edge{VertexID(u), v})
			}
		}
	}
	return edges
}

// MemoryBytes returns the in-memory footprint of the CSR arrays (offsets +
// destinations), used by the GPU multi-pass planner (Table 6).
func (g *CSR) MemoryBytes() int64 {
	return int64(len(g.Off))*8 + int64(len(g.Dst))*4
}
