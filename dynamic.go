package cncount

import (
	"cncount/internal/dynamic"
)

// DynamicGraph maintains all-edge common neighbor counts under edge
// insertions and deletions — the online-analytics setting from the paper's
// introduction. Each update costs one skew-aware set intersection plus one
// count repair per affected edge, instead of a full recount.
//
// Readers take the graph's state in one of two forms. ToCSR returns a
// flat Graph and its count array, spliced from the previous one in
// O(|E|). Publish returns a DynamicView: the last compacted Graph plus
// the adjacency rows changed since, at a cost of those rows. Once the
// row entries copied since the last compaction pass 1/16 of the
// directed edges, Publish compacts through ToCSR instead. Neither form
// is written again, so readers may keep them while updates continue.
type DynamicGraph = dynamic.Graph

// DynamicView is an immutable state of a DynamicGraph returned by
// Publish: Neighbors, HasEdge, NumVertices and NumEdges read it in
// place, and CSR flattens it into one Graph. It holds no counts.
type DynamicView = dynamic.View

// NewDynamicGraph returns an empty mutable graph over n vertices with
// count maintenance enabled.
func NewDynamicGraph(n int) *DynamicGraph { return dynamic.New(n) }

// DynamicFromGraph seeds a DynamicGraph from a static graph and its count
// array (as produced by Count), so a batch computation can be continued
// incrementally. Neither is copied, so neither may be modified afterwards.
func DynamicFromGraph(g *Graph, counts []uint32) (*DynamicGraph, error) {
	return dynamic.FromCSR(g, counts)
}
