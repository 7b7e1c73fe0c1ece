// Package dynamic maintains all-edge common neighbor counts under edge
// insertions and deletions — the "online graph analytics" setting the paper
// motivates in its introduction ("online platforms maintain graphs of user
// co-purchasing relations and analyze the data on the fly"): rather than
// recomputing all |E| counts when the graph changes, the counts are
// repaired incrementally.
//
// Inserting an edge (u,v) changes counts in three ways:
//
//  1. the new edge's own count is |N(u) ∩ N(v)|;
//  2. every common neighbor w of u and v closes two new triangles' worth of
//     common-neighbor relationships: cnt[(u,w)] and cnt[(v,w)] each grow by
//     one (w's neighborhood now contains one more of their neighbors);
//  3. no other edge is affected.
//
// Deletion is the exact inverse. InsertEdge and DeleteEdge apply this rule
// directly, at one walk of the shorter endpoint list plus
// O(|N(u) ∩ N(v)|) count updates. ApplyBatch instead recomputes every
// affected edge's count with the MPS kernel (pivot-skip for skewed pairs)
// in one parallel pass — the same primitive the batch algorithms optimize.
//
// The graph keeps the last CSR snapshot it handed out and splices the next
// one from it: rows untouched since then are bulk-copied, so a snapshot
// costs one pass of memory copies rather than a rebuild from an edge list.
package dynamic

import (
	"fmt"
	"slices"

	"cncount/internal/graph"
)

// Graph is a mutable undirected graph with per-edge common neighbor counts
// maintained across updates. Row u holds the sorted adjacency adj[u] and
// the aligned counts cnt[u]; both directions of every edge are stored, as
// in the CSR.
//
// Clean rows alias the last snapshot (the one FromCSR was given or ToCSR
// returned). Snapshot arrays are shared with their readers and never
// written: a row is copied on its first write and marked dirty, and the
// next ToCSR splices the dirty rows in.
//
// Graph is not safe for concurrent mutation.
type Graph struct {
	adj     [][]graph.VertexID
	cnt     [][]uint32
	dirty   []bool
	snap    *graph.CSR
	snapCnt []uint32
	// edges and sum are the running undirected edge count and count sum.
	edges int
	sum   uint64
}

// New returns an empty dynamic graph over n vertices.
func New(n int) *Graph {
	d, _ := FromCSR(&graph.CSR{Off: make([]int64, n+1)}, nil)
	return d
}

// FromCSR builds a dynamic graph from a static one and its per-edge counts.
// It copies neither: g and counts become the first snapshot and must not be
// modified afterwards.
func FromCSR(g *graph.CSR, counts []uint32) (*Graph, error) {
	if int64(len(counts)) != g.NumEdges() {
		return nil, fmt.Errorf("dynamic: %d counts for %d edges", len(counts), g.NumEdges())
	}
	n := g.NumVertices()
	d := &Graph{
		adj:   make([][]graph.VertexID, n),
		cnt:   make([][]uint32, n),
		dirty: make([]bool, n),
		edges: int(g.NumEdges() / 2),
	}
	for _, c := range counts {
		d.sum += uint64(c)
	}
	d.sum /= 2
	d.adopt(g, counts)
	return d, nil
}

// adopt makes (g, counts) the current snapshot and points every row at it.
// The full slice expressions cap each row at its end, so even an append
// could not write into the snapshot.
func (d *Graph) adopt(g *graph.CSR, counts []uint32) {
	d.snap, d.snapCnt = g, counts
	for u := range d.adj {
		lo, hi := g.Off[u], g.Off[u+1]
		d.adj[u], d.cnt[u] = g.Dst[lo:hi:hi], counts[lo:hi:hi]
	}
}

// NumVertices returns |V|.
func (d *Graph) NumVertices() int { return len(d.adj) }

// NumEdges returns the undirected edge count.
func (d *Graph) NumEdges() int { return d.edges }

// Neighbors returns the sorted neighbor list of u (aliased; do not modify).
func (d *Graph) Neighbors(u graph.VertexID) []graph.VertexID { return d.adj[u] }

// HasEdge reports whether (u,v) is an edge.
func (d *Graph) HasEdge(u, v graph.VertexID) bool {
	_, ok := d.Count(u, v)
	return ok
}

// Count returns the common neighbor count of edge (u,v); ok is false when
// (u,v) is not an edge.
func (d *Graph) Count(u, v graph.VertexID) (count uint32, ok bool) {
	if int(u) >= len(d.adj) || int(v) >= len(d.adj) {
		return 0, false
	}
	i, ok := slices.BinarySearch(d.adj[u], v)
	if !ok {
		return 0, false
	}
	return d.cnt[u][i], true
}

// InsertEdge adds the undirected edge (u,v) and repairs all affected
// counts. Inserting an existing edge is a no-op.
func (d *Graph) InsertEdge(u, v graph.VertexID) error {
	if err := ValidateOps(len(d.adj), []Op{{Kind: OpInsert, U: u, V: v}}); err != nil {
		return err
	}
	if !d.HasEdge(u, v) {
		d.link(u, v)
		d.bump(u, v, 1)
	}
	return nil
}

// DeleteEdge removes the undirected edge (u,v) and repairs all affected
// counts. Deleting a nonexistent edge is a no-op.
func (d *Graph) DeleteEdge(u, v graph.VertexID) error {
	if err := ValidateOps(len(d.adj), []Op{{Kind: OpDelete, U: u, V: v}}); err != nil {
		return err
	}
	if d.HasEdge(u, v) {
		d.unlink(u, v)
		d.bump(u, v, ^uint32(0))
	}
	return nil
}

// bump applies the update rule for a toggled pair (u,v): it adds delta
// (modulo 2³², so ^0 subtracts one) to cnt(u,w) and cnt(v,w) for every
// common neighbor w, and sets cnt(u,v) when the edge is present. The
// shorter list is walked and each element looked up in the longer, so a
// hub endpoint costs a binary search per neighbor of the other endpoint.
func (d *Graph) bump(u, v graph.VertexID, delta uint32) {
	if len(d.adj[u]) > len(d.adj[v]) {
		u, v = v, u
	}
	var common uint32
	for _, w := range d.adj[u] {
		if d.HasEdge(v, w) {
			common++
			for _, x := range [2]graph.VertexID{u, v} {
				c, _ := d.Count(x, w)
				d.setCount(x, w, c+delta)
			}
		}
	}
	if d.HasEdge(u, v) {
		d.setCount(u, v, common)
	}
}

// own makes row u private before its first write since the last snapshot.
func (d *Graph) own(u graph.VertexID) {
	if !d.dirty[u] {
		d.dirty[u] = true
		d.adj[u], d.cnt[u] = slices.Clone(d.adj[u]), slices.Clone(d.cnt[u])
	}
}

// setCount writes c as the count of edge (a,b) in both directed rows. A
// count that does not change leaves both rows clean.
func (d *Graph) setCount(a, b graph.VertexID, c uint32) {
	i, _ := slices.BinarySearch(d.adj[a], b)
	j, _ := slices.BinarySearch(d.adj[b], a)
	if old := d.cnt[a][i]; old != c {
		d.sum += uint64(c) - uint64(old)
		d.own(a)
		d.own(b)
		d.cnt[a][i], d.cnt[b][j] = c, c
	}
}

// link adds the absent edge (u,v) with count 0 to both directed rows.
func (d *Graph) link(u, v graph.VertexID) {
	for _, e := range [2][2]graph.VertexID{{u, v}, {v, u}} {
		a, b := e[0], e[1]
		d.own(a)
		i, _ := slices.BinarySearch(d.adj[a], b)
		d.adj[a] = slices.Insert(d.adj[a], i, b)
		d.cnt[a] = slices.Insert(d.cnt[a], i, 0)
	}
	d.edges++
}

// unlink removes the present edge (u,v) from both directed rows.
func (d *Graph) unlink(u, v graph.VertexID) {
	c, _ := d.Count(u, v)
	for _, e := range [2][2]graph.VertexID{{u, v}, {v, u}} {
		a, b := e[0], e[1]
		d.own(a)
		i, _ := slices.BinarySearch(d.adj[a], b)
		d.adj[a] = slices.Delete(d.adj[a], i, i+1)
		d.cnt[a] = slices.Delete(d.cnt[a], i, i+1)
	}
	d.edges--
	d.sum -= uint64(c)
}

// ToCSR freezes the dynamic graph into a static CSR plus a count array
// indexed by its edge offsets. The result is spliced from the previous
// snapshot: each run of clean rows is one bulk copy, each dirty row is
// copied from the working adjacency. With nothing dirty it returns the
// previous snapshot itself. Returned arrays are never written again, so
// readers may keep them across later updates.
func (d *Graph) ToCSR() (*graph.CSR, []uint32, error) {
	if !slices.Contains(d.dirty, true) {
		return d.snap, d.snapCnt, nil
	}
	n, prev := len(d.adj), d.snap
	off := make([]int64, n+1)
	for u, row := range d.adj {
		off[u+1] = off[u] + int64(len(row))
	}
	dst, cnt := make([]graph.VertexID, off[n]), make([]uint32, off[n])
	for u := 0; u < n; {
		if d.dirty[u] {
			copy(dst[off[u]:], d.adj[u])
			copy(cnt[off[u]:], d.cnt[u])
			d.dirty[u] = false
			u++
			continue
		}
		w := u + 1
		for w < n && !d.dirty[w] {
			w++
		}
		copy(dst[off[u]:off[w]], prev.Dst[prev.Off[u]:prev.Off[w]])
		copy(cnt[off[u]:off[w]], d.snapCnt[prev.Off[u]:prev.Off[w]])
		u = w
	}
	d.adopt(&graph.CSR{Off: off, Dst: dst}, cnt)
	return d.snap, cnt, nil
}

// Triangles returns the triangle count: each triangle adds one to the
// count of each of its three edges.
func (d *Graph) Triangles() uint64 { return d.sum / 3 }
