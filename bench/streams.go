package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"

	"cncount"
	"cncount/internal/dynamic"
)

// Query kinds, indexes into servedEndpoints and spec.Mix.
const (
	qEdge = iota
	qPair
	qTopK
)

// topK is the k of every /v1/topk query.
const topK = 10

// query is one read request.
type query struct {
	kind uint8
	u, v uint32
}

// path is the request's URL path and query, the same form cncd's cache
// key canonicalizes.
func (q query) path() string {
	u := strconv.FormatUint(uint64(q.u), 10)
	switch q.kind {
	case qEdge:
		return "/v1/edge?u=" + u + "&v=" + strconv.FormatUint(uint64(q.v), 10)
	case qPair:
		return "/v1/pair?u=" + u + "&v=" + strconv.FormatUint(uint64(q.v), 10)
	default:
		return "/v1/topk?u=" + u + "&k=" + strconv.Itoa(topK)
	}
}

// cacheKey is the key cncd's result cache stores q under.
func (q query) cacheKey() string {
	u, v := q.u, q.v
	if u > v {
		u, v = v, u
	}
	switch q.kind {
	case qEdge:
		return fmt.Sprintf("edge:%d:%d", u, v)
	case qPair:
		return fmt.Sprintf("pair:%d:%d", u, v)
	default:
		return fmt.Sprintf("topk:%d:%d", q.u, topK)
	}
}

// queryStream draws n queries. Keys are Zipf(s) ranks over sp.Keys
// edges sampled uniformly from g; an edge query asks for a key's edge, a
// pair query pairs the source of one key with the target of another, and
// a top-k query asks about a key's source.
func queryStream(g *cncount.Graph, sp spec, rng *rand.Rand, n int) []query {
	keys := make([][2]uint32, sp.Keys)
	for i := range keys {
		off := rng.Int63n(g.NumEdges())
		keys[i] = [2]uint32{srcOf(g, off), g.Dst[off]}
	}
	zipf := rand.NewZipf(rng, sp.ZipfS, 1, uint64(sp.Keys-1))
	total := sp.Mix[0] + sp.Mix[1] + sp.Mix[2]
	out := make([]query, n)
	for i := range out {
		k := keys[zipf.Uint64()]
		switch r := rng.Intn(total); {
		case r < sp.Mix[0]:
			out[i] = query{kind: qEdge, u: k[0], v: k[1]}
		case r < sp.Mix[0]+sp.Mix[1]:
			out[i] = query{kind: qPair, u: k[0], v: keys[zipf.Uint64()][1]}
		default:
			out[i] = query{kind: qTopK, u: k[0]}
		}
	}
	return out
}

// srcOf returns the vertex whose adjacency holds directed edge offset off.
func srcOf(g *cncount.Graph, off int64) uint32 {
	return uint32(sort.Search(g.NumVertices(), func(u int) bool { return g.Off[u+1] > off }))
}

// updater generates the update stream: each batch deletes the oldest
// edges the stream inserted (up to half the batch) and inserts fresh
// random non-edges, so the graph stays within one batch of its base size
// and never loses a base edge.
type updater struct {
	rng      *rand.Rand
	g        *cncount.Graph
	batchOps int
	live     [][2]uint32 // inserted and not yet deleted, oldest first
	liveSet  map[[2]uint32]bool
}

func newUpdater(g *cncount.Graph, seed int64, batchOps int) *updater {
	return &updater{
		rng:      rand.New(rand.NewSource(seed)),
		g:        g,
		batchOps: batchOps,
		liveSet:  map[[2]uint32]bool{},
	}
}

func (u *updater) next() []dynamic.Op {
	ops := make([]dynamic.Op, 0, u.batchOps)
	dels := min(len(u.live), u.batchOps/2)
	for _, e := range u.live[:dels] {
		ops = append(ops, dynamic.Op{Kind: dynamic.OpDelete, U: e[0], V: e[1]})
	}
	n := u.g.NumVertices()
	for len(ops) < u.batchOps {
		a, b := uint32(u.rng.Intn(n)), uint32(u.rng.Intn(n))
		if a > b {
			a, b = b, a
		}
		e := [2]uint32{a, b}
		// liveSet still holds this batch's deletes, so no pair is both
		// deleted and inserted in one batch.
		if a == b || u.liveSet[e] || u.g.HasEdge(a, b) {
			continue
		}
		u.liveSet[e] = true
		u.live = append(u.live, e)
		ops = append(ops, dynamic.Op{Kind: dynamic.OpInsert, U: a, V: b})
	}
	for _, e := range u.live[:dels] {
		delete(u.liveSet, e)
	}
	u.live = u.live[dels:]
	return ops
}

// history is the reference for a graph under updates: the base graph plus
// every accepted batch, tagged with the epoch the batch installed, so the
// count any epoch served can be recomputed.
type history struct {
	g       *cncount.Graph
	changes map[uint32][]change
	net     map[[2]uint32]bool // inserted edges present after the last batch
}

type change struct {
	other  uint32
	epoch  uint64
	insert bool
}

func newHistory(g *cncount.Graph) *history {
	return &history{g: g, changes: map[uint32][]change{}, net: map[[2]uint32]bool{}}
}

// record adds an accepted batch that installed epoch.
func (h *history) record(ops []dynamic.Op, epoch uint64) {
	for _, op := range ops {
		ins := op.Kind == dynamic.OpInsert
		h.changes[op.U] = append(h.changes[op.U], change{other: op.V, epoch: epoch, insert: ins})
		h.changes[op.V] = append(h.changes[op.V], change{other: op.U, epoch: epoch, insert: ins})
		e := [2]uint32{min(op.U, op.V), max(op.U, op.V)}
		if ins {
			h.net[e] = true
		} else {
			delete(h.net, e)
		}
	}
}

// neighbors returns N(x) as of epoch.
func (h *history) neighbors(x uint32, epoch uint64) []uint32 {
	base := h.g.Neighbors(x)
	var set map[uint32]bool
	for _, c := range h.changes[x] {
		if c.epoch > epoch {
			continue
		}
		if set == nil {
			set = make(map[uint32]bool, len(base)+1)
			for _, y := range base {
				set[y] = true
			}
		}
		if c.insert {
			set[c.other] = true
		} else {
			delete(set, c.other)
		}
	}
	if set == nil {
		return base
	}
	out := make([]uint32, 0, len(set))
	for y := range set {
		out = append(out, y)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// count returns |N(u) ∩ N(v)| as of epoch, by a plain merge kept
// independent of the kernels under test.
func (h *history) count(u, v uint32, epoch uint64) uint32 {
	return uint32(mergeCount(h.neighbors(u, epoch), h.neighbors(v, epoch)))
}

// triangles recounts the graph after the last batch from scratch with
// the sequential merge algorithm.
func (h *history) triangles() (uint64, error) {
	edges := h.g.Edges()
	for e := range h.net {
		edges = append(edges, cncount.Edge{U: e[0], V: e[1]})
	}
	g, err := cncount.NewGraph(h.g.NumVertices(), edges)
	if err != nil {
		return 0, err
	}
	res, err := cncount.Count(g, cncount.Options{Algorithm: cncount.AlgoM, Threads: 1})
	if err != nil {
		return 0, err
	}
	return res.TriangleCount(), nil
}
