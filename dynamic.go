package cncount

import (
	"cncount/internal/dynamic"
)

// DynamicGraph maintains all-edge common neighbor counts under edge
// insertions and deletions — the online-analytics setting from the paper's
// introduction. Each update costs one skew-aware set intersection plus one
// count repair per affected edge, instead of a full recount.
type DynamicGraph = dynamic.Graph

// NewDynamicGraph returns an empty mutable graph over n vertices with
// count maintenance enabled.
func NewDynamicGraph(n int) *DynamicGraph { return dynamic.New(n) }

// DynamicFromGraph seeds a DynamicGraph from a static graph and its count
// array (as produced by Count), so a batch computation can be continued
// incrementally. Neither is copied, so neither may be modified afterwards.
func DynamicFromGraph(g *Graph, counts []uint32) (*DynamicGraph, error) {
	return dynamic.FromCSR(g, counts)
}
