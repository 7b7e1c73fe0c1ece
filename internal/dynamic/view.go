package dynamic

import (
	"slices"

	"cncount/internal/graph"
)

// View is one published state of a Graph: the base, the last compacted
// CSR, plus an overlay holding every adjacency row that changed since that
// compaction. A View is immutable, so readers may keep it while the graph
// moves on. It carries no counts.
type View struct {
	base  *graph.CSR
	rows  map[graph.VertexID][]graph.VertexID
	edges int64 // directed
}

// ViewOf wraps a static CSR as a view with no overlay. g must not be
// modified afterwards.
func ViewOf(g *graph.CSR) *View { return &View{base: g, edges: g.NumEdges()} }

// NumVertices returns |V|.
func (v *View) NumVertices() int { return v.base.NumVertices() }

// NumEdges returns the number of directed edges, as CSR.NumEdges does.
func (v *View) NumEdges() int64 { return v.edges }

// Neighbors returns the sorted neighbor list of u (aliased; do not modify).
func (v *View) Neighbors(u graph.VertexID) []graph.VertexID {
	if row, ok := v.rows[u]; ok {
		return row
	}
	return v.base.Neighbors(u)
}

// HasEdge reports whether (u,w) is an edge.
func (v *View) HasEdge(u, w graph.VertexID) bool {
	_, ok := slices.BinarySearch(v.Neighbors(u), w)
	return ok
}

// CSR returns the view as one flat CSR: the base itself when the overlay
// is empty, otherwise a new CSR spliced from the base and the overlay,
// O(|E|) per call.
func (v *View) CSR() *graph.CSR {
	if len(v.rows) == 0 {
		return v.base
	}
	changed := make([]graph.VertexID, 0, len(v.rows))
	for u := range v.rows {
		changed = append(changed, u)
	}
	slices.Sort(changed)
	off := make([]int64, v.NumVertices()+1)
	for u := range v.NumVertices() {
		off[u+1] = off[u] + int64(len(v.Neighbors(graph.VertexID(u))))
	}
	dst := splice(off, v.base.Off, v.base.Dst, changed, func(u graph.VertexID) []graph.VertexID { return v.rows[u] })
	return &graph.CSR{Off: off, Dst: dst}
}
