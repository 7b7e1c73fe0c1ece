package dynamic

import (
	"fmt"

	"cncount/internal/graph"
	"cncount/internal/intersect"
	"cncount/internal/sched"
	"cncount/internal/wal"
)

// The edge-op types are the WAL's, so a logged batch and an applied one
// are the same slice: no copy between the commit point and the repair.
type (
	// OpKind is a batch edge-operation kind.
	OpKind = wal.OpKind
	// Op is one edge mutation in a batch.
	Op = wal.Op
)

const (
	// OpInsert adds an undirected edge.
	OpInsert = wal.OpInsert
	// OpDelete removes an undirected edge.
	OpDelete = wal.OpDelete
)

type edgeKey struct{ u, v graph.VertexID } // u < v

func key(u, v graph.VertexID) edgeKey {
	if u > v {
		u, v = v, u
	}
	return edgeKey{u, v}
}

// BadOpError reports a structurally invalid op — an out-of-range vertex
// id, a self-loop, an unknown kind — with its batch index. The serving
// layer maps it to a 409 so a hostile or buggy client can never reach
// the repair path with an op that would corrupt it.
type BadOpError struct {
	// Index is the op's position in the submitted batch.
	Index int
	// Op is the offending op.
	Op Op
	// Reason says what is wrong with it.
	Reason string
}

func (e *BadOpError) Error() string {
	return fmt.Sprintf("dynamic: batch op %d (%s %d,%d): %s", e.Index, e.Op.Kind, e.Op.U, e.Op.V, e.Reason)
}

// ValidateOps checks every op of a batch against a graph of numVertices
// vertices, returning the first *BadOpError. The ingestion layer calls
// it before writing the batch to the WAL, so the log never holds a
// batch that replay would refuse.
func ValidateOps(numVertices int, ops []Op) error {
	for i, op := range ops {
		if op.Kind != OpInsert && op.Kind != OpDelete {
			return &BadOpError{Index: i, Op: op, Reason: fmt.Sprintf("unknown op kind %d", uint8(op.Kind))}
		}
		if int64(op.U) >= int64(numVertices) || int64(op.V) >= int64(numVertices) {
			return &BadOpError{Index: i, Op: op, Reason: fmt.Sprintf("vertex out of range |V|=%d", numVertices)}
		}
		if op.U == op.V {
			return &BadOpError{Index: i, Op: op, Reason: "self-loop"}
		}
	}
	return nil
}

// BatchResult summarizes one applied batch.
type BatchResult struct {
	// Applied counts the effective toggles (edges actually inserted or
	// deleted).
	Applied int
	// Deduped counts ops dropped because a later op in the same batch
	// addressed the same vertex pair (last write wins).
	Deduped int
	// NoOps counts surviving ops that matched the existing state
	// (inserting a present edge, deleting an absent one).
	NoOps int
	// Repaired counts the edges whose counts were recomputed by the
	// batch repair pass.
	Repaired int
}

// batchParallelMin is the affected-edge count below which the repair
// pass stays sequential: scheduling overhead would dominate.
const batchParallelMin = 256

// batchTaskSize is |T| for the repair pass's work-stealing schedule —
// smaller than the counting default because per-edge repair cost varies
// wildly with degree skew.
const batchTaskSize = 32

// ApplyBatch applies a batch of edge ops as one unit: ops are validated
// up front (an invalid batch leaves the graph untouched), deduplicated
// pair-wise (last write wins), no-op'd against the current state, and
// the surviving toggles are applied in one pass. Counts are then
// repaired by recomputing every affected edge's intersection on the
// final adjacency — one parallel, skew-aware repair pass on the
// work-stealing runtime, amortizing the intersections a per-edge
// update loop would redo per op. workers < 1 uses all cores, 1 repairs
// sequentially.
//
// The result is identical to applying the deduplicated ops one at a
// time through InsertEdge/DeleteEdge, in any order: counts are a pure
// function of the final adjacency, and the affected set is a superset
// of every edge whose intersection changed.
func (d *Graph) ApplyBatch(ops []Op, workers int) (BatchResult, error) {
	var res BatchResult
	if err := ValidateOps(len(d.adj), ops); err != nil {
		return res, err
	}
	if len(ops) == 0 {
		return res, nil
	}

	// Dedup: last op per (u,v) pair wins, first-seen order preserved.
	last := make(map[edgeKey]int, len(ops))
	var order []edgeKey
	for i, op := range ops {
		k := key(op.U, op.V)
		if _, seen := last[k]; !seen {
			order = append(order, k)
		} else {
			res.Deduped++
		}
		last[k] = i
	}

	// Drop no-ops against the pre-batch state; the survivors are real
	// toggles, each flipping its pair's presence exactly once.
	type toggle struct {
		u, v   graph.VertexID
		insert bool
	}
	var toggles []toggle
	for _, k := range order {
		op := ops[last[k]]
		insert := op.Kind == OpInsert
		if insert == d.HasEdge(k.u, k.v) {
			res.NoOps++
			continue
		}
		toggles = append(toggles, toggle{u: k.u, v: k.v, insert: insert})
	}
	if len(toggles) == 0 {
		return res, nil
	}
	res.Applied = len(toggles)

	// Snapshot pre-batch adjacency of every endpoint: the affected-edge
	// scan needs old neighbor lists, and the in-place sorted
	// insert/remove below would clobber them.
	oldAdj := make(map[graph.VertexID][]graph.VertexID, 2*len(toggles))
	for _, tg := range toggles {
		for _, x := range [2]graph.VertexID{tg.u, tg.v} {
			if _, ok := oldAdj[x]; !ok {
				oldAdj[x] = append([]graph.VertexID(nil), d.adj[x]...)
			}
		}
	}

	// Mutate adjacency. Inserted pairs get a placeholder count of 0 so
	// HasEdge sees the final edge set during the affected scan; the
	// repair pass overwrites the placeholder.
	for _, tg := range toggles {
		if tg.insert {
			d.link(tg.u, tg.v)
		} else {
			d.unlink(tg.u, tg.v)
		}
	}

	// Affected edges: toggling (u,v) changes cnt(u,x) only for x ∈ N(v)
	// (old or new — a deleted common neighbor still loses a count), and
	// symmetrically cnt(v,x) for x ∈ N(u). Recomputing a superset is
	// harmless — recomputed values are exact by construction — so the
	// scan unions old and new neighborhoods and filters to final edges.
	affected := make(map[edgeKey]struct{})
	addSide := func(a, b graph.VertexID) {
		// Edges (a,x) for x adjacent to b, old or new.
		for _, lst := range [2][]graph.VertexID{oldAdj[b], d.adj[b]} {
			for _, x := range lst {
				if x != a && d.HasEdge(a, x) {
					affected[key(a, x)] = struct{}{}
				}
			}
		}
	}
	for _, tg := range toggles {
		if tg.insert {
			affected[key(tg.u, tg.v)] = struct{}{}
		}
		addSide(tg.u, tg.v)
		addSide(tg.v, tg.u)
	}
	if len(affected) == 0 {
		return res, nil
	}
	res.Repaired = len(affected)

	keys := make([]edgeKey, 0, len(affected))
	for k := range affected {
		keys = append(keys, k)
	}
	vals := make([]uint32, len(keys))
	repair := func(lo, hi int64) {
		for i := lo; i < hi; i++ {
			k := keys[i]
			vals[i] = intersect.MPS(d.adj[k.u], d.adj[k.v], intersect.DefaultSkewThreshold)
		}
	}
	workers = sched.Workers(workers)
	if workers == 1 || len(keys) < batchParallelMin {
		repair(0, int64(len(keys)))
	} else {
		err := sched.Run(int64(len(keys)), batchTaskSize, workers, sched.Obs{},
			func(_ int, lo, hi int64) { repair(lo, hi) })
		if err != nil {
			return res, err
		}
	}
	for i, k := range keys {
		d.setCount(k.u, k.v, vals[i])
	}
	return res, nil
}
