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
// Readers see the graph through Publish, which returns an immutable View:
// the base, the last compacted CSR, plus the adjacency rows changed since
// that compaction. A publish therefore costs the rows a batch touched, not
// a pass over every edge. Once the rows copied since the last compaction
// pass a fixed share of the base, Publish compacts: ToCSR splices a fresh
// base from the old one, bulk-copying the runs of rows that did not
// change, and the next view starts with an empty overlay.
package dynamic

import (
	"fmt"
	"maps"
	"slices"

	"cncount/internal/graph"
)

// Graph is a mutable undirected graph with per-edge common neighbor counts
// maintained across updates. Row u holds the sorted adjacency adj[u] and
// the aligned counts cnt[u]; both directions of every edge are stored, as
// in the CSR.
//
// Rows are copied on write, and nothing a reader may hold is ever written.
// Clean rows alias the base (the CSR FromCSR was given or ToCSR last
// returned). A count row is copied on its first write since the base was
// set and marked dirty; counts are never published, so it stays private
// until the next ToCSR splices it in. An adjacency row is copied on its
// first write since the last Publish and marked fresh; Publish hands the
// fresh rows to its view, after which they are shared and the next write
// copies them again.
//
// Graph is not safe for concurrent mutation.
type Graph struct {
	adj [][]graph.VertexID
	cnt [][]uint32
	// dirty marks the rows that differ from the base: their count rows
	// are private copies, and so may be their adjacency rows.
	dirty []bool
	// fresh marks the adjacency rows copied since the last publish,
	// which pending lists; no view holds them yet.
	fresh   []bool
	pending []graph.VertexID
	base    *graph.CSR
	baseCnt []uint32
	view    *View // the last published view
	// copied counts the row entries copied since the base was set.
	copied int64
	// edges and sum are the running undirected edge count and count sum.
	edges int
	sum   uint64
}

// compactShare sets when Publish compacts: once the entries copied since
// the last compaction pass 1/compactShare of the base's directed edges.
// On TW ×0.5 under 16-op batches a compaction then runs about every
// fifth or sixth batch. Measured there in-process, 1/8 halved the time
// per batch but kept about 0.5 B more heap per directed edge, most of
// the headroom serve-mixed's bytes_per_edge bound leaves; 1/32 doubled
// the time.
const compactShare = 16

// New returns an empty dynamic graph over n vertices.
func New(n int) *Graph {
	d, _ := FromCSR(&graph.CSR{Off: make([]int64, n+1)}, nil)
	return d
}

// FromCSR builds a dynamic graph from a static one and its per-edge counts.
// It copies neither: g and counts become the base and must not be
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
		fresh: make([]bool, n),
		edges: int(g.NumEdges() / 2),
	}
	for _, c := range counts {
		d.sum += uint64(c)
	}
	d.sum /= 2
	d.adopt(g, counts)
	return d, nil
}

// adopt makes (g, counts) the base, points every row at it and publishes
// it as a view with no overlay. The full slice expressions cap each row
// at its end, so even an append could not write into the base.
func (d *Graph) adopt(g *graph.CSR, counts []uint32) {
	d.base, d.baseCnt = g, counts
	for u := range d.adj {
		lo, hi := g.Off[u], g.Off[u+1]
		d.adj[u], d.cnt[u] = g.Dst[lo:hi:hi], counts[lo:hi:hi]
	}
	clear(d.dirty)
	clear(d.fresh)
	d.pending = d.pending[:0]
	d.copied = 0
	d.view = ViewOf(g)
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

// ownCounts makes row u's counts private before their first write since
// the base was set, with room for extra more entries.
func (d *Graph) ownCounts(u graph.VertexID, extra int) {
	if !d.dirty[u] {
		d.dirty[u] = true
		d.cnt[u] = clone(d.cnt[u], extra)
		d.copied += int64(len(d.cnt[u]))
	}
}

// own makes row u's adjacency and counts private before an edit that
// inserts or removes an entry; extra is the room to leave for inserts.
func (d *Graph) own(u graph.VertexID, extra int) {
	d.ownCounts(u, extra)
	if !d.fresh[u] {
		d.fresh[u] = true
		d.pending = append(d.pending, u)
		d.adj[u] = clone(d.adj[u], extra)
		d.copied += int64(len(d.adj[u]))
	}
}

// clone copies row into a new slice with capacity for extra more entries.
func clone[T any](row []T, extra int) []T {
	return append(make([]T, 0, len(row)+extra), row...)
}

// setCount writes c as the count of edge (a,b) in both directed rows. A
// count that does not change leaves both rows clean; one that does
// copies only the count rows.
func (d *Graph) setCount(a, b graph.VertexID, c uint32) {
	i, _ := slices.BinarySearch(d.adj[a], b)
	j, _ := slices.BinarySearch(d.adj[b], a)
	if old := d.cnt[a][i]; old != c {
		d.sum += uint64(c) - uint64(old)
		d.ownCounts(a, 0)
		d.ownCounts(b, 0)
		d.cnt[a][i], d.cnt[b][j] = c, c
	}
}

// link adds the absent edge (u,v) with count 0 to both directed rows.
func (d *Graph) link(u, v graph.VertexID) {
	for _, e := range [2][2]graph.VertexID{{u, v}, {v, u}} {
		a, b := e[0], e[1]
		d.own(a, 1)
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
		d.own(a, 0)
		i, _ := slices.BinarySearch(d.adj[a], b)
		d.adj[a] = slices.Delete(d.adj[a], i, i+1)
		d.cnt[a] = slices.Delete(d.cnt[a], i, i+1)
	}
	d.edges--
	d.sum -= uint64(c)
}

// Publish returns the graph as an immutable View and reports whether it
// compacted to do so. The view shares the base and its rows with the
// graph and with earlier views: the adjacency rows written since the last
// publish join the previous view's overlay and become shared, so the next
// write to one copies it again. A publish thus costs the rows changed
// since the last compaction, not |E|. Once the entries copied since the
// last compaction pass 1/compactShare of the base's directed edges,
// Publish compacts instead: ToCSR splices a fresh base, which the view
// returns with an empty overlay.
func (d *Graph) Publish() (v *View, compacted bool) {
	if d.copied*compactShare > d.base.NumEdges() {
		d.ToCSR()
		return d.view, true
	}
	if len(d.pending) > 0 {
		rows := make(map[graph.VertexID][]graph.VertexID, len(d.view.rows)+len(d.pending))
		maps.Copy(rows, d.view.rows)
		for _, u := range d.pending {
			rows[u] = d.adj[u]
			d.fresh[u] = false
		}
		d.pending = d.pending[:0]
		d.view = &View{base: d.base, rows: rows, edges: 2 * int64(d.edges)}
	}
	return d.view, false
}

// ToCSR freezes the dynamic graph into a static CSR plus a count array
// indexed by its edge offsets, and makes them the new base. The result is
// spliced from the previous base: each run of clean rows is one bulk
// copy, each dirty row is copied from the working rows. With nothing
// dirty it returns the previous base itself. Returned arrays are never
// written again, so readers may keep them across later updates. The
// error is always nil.
func (d *Graph) ToCSR() (*graph.CSR, []uint32, error) {
	var changed []graph.VertexID
	for u, dirty := range d.dirty {
		if dirty {
			changed = append(changed, graph.VertexID(u))
		}
	}
	if len(changed) == 0 {
		return d.base, d.baseCnt, nil
	}
	off := make([]int64, len(d.adj)+1)
	for u, row := range d.adj {
		off[u+1] = off[u] + int64(len(row))
	}
	dst := splice(off, d.base.Off, d.base.Dst, changed, func(u graph.VertexID) []graph.VertexID { return d.adj[u] })
	cnt := splice(off, d.base.Off, d.baseCnt, changed, func(u graph.VertexID) []uint32 { return d.cnt[u] })
	d.adopt(&graph.CSR{Off: off, Dst: dst}, cnt)
	return d.base, d.baseCnt, nil
}

// splice fills a new array laid out by off from base, laid out by
// baseOff, taking each row in changed (ascending) from row instead: each
// run of unchanged rows between two changed ones is one bulk copy.
func splice[T any](off, baseOff []int64, base []T, changed []graph.VertexID, row func(graph.VertexID) []T) []T {
	n := len(off) - 1
	out := make([]T, off[n])
	next := 0 // the first row not yet copied
	for _, u := range changed {
		copy(out[off[next]:off[u]], base[baseOff[next]:baseOff[u]])
		copy(out[off[u]:off[u+1]], row(u))
		next = int(u) + 1
	}
	copy(out[off[next]:], base[baseOff[next]:baseOff[n]])
	return out
}

// Triangles returns the triangle count: each triangle adds one to the
// count of each of its three edges.
func (d *Graph) Triangles() uint64 { return d.sum / 3 }
