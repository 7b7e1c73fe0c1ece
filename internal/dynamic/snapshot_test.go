package dynamic

import (
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"

	"cncount/internal/core"
	"cncount/internal/graph"
)

// countedGraph builds a random graph over n vertices, with vertex 0 a hub
// adjacent to about half of them, and counts it with the batch engine.
func countedGraph(t *testing.T, rng *rand.Rand, n, m int) (*graph.CSR, []uint32) {
	t.Helper()
	var edges []graph.Edge
	for i := 0; i < m; i++ {
		edges = append(edges, graph.Edge{U: graph.VertexID(rng.Intn(n)), V: graph.VertexID(rng.Intn(n))})
	}
	for v := 1; v < n; v += 2 {
		edges = append(edges, graph.Edge{U: 0, V: graph.VertexID(v)})
	}
	return recount(t, n, edges)
}

// recount builds the CSR of an edge list and counts it sequentially.
func recount(t *testing.T, n int, edges []graph.Edge) (*graph.CSR, []uint32) {
	t.Helper()
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Count(g, core.Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	return g, res.Counts
}

// mixedBatch draws a batch over the current edge set: fresh inserts,
// deletes of present edges, a pair submitted twice with opposite kinds,
// no-ops (present inserts, absent deletes), and ops on the hub vertex 0.
func mixedBatch(rng *rand.Rand, n int, present []graph.Edge) []Op {
	pair := func() (graph.VertexID, graph.VertexID) {
		u := graph.VertexID(rng.Intn(n))
		v := graph.VertexID(rng.Intn(n - 1))
		if v >= u {
			v++
		}
		return u, v
	}
	var ops []Op
	for i := 0; i < 3+rng.Intn(6); i++ {
		u, v := pair()
		ops = append(ops, Op{Kind: OpInsert, U: u, V: v})
	}
	for i := 0; i < 2+rng.Intn(5) && len(present) > 0; i++ {
		e := present[rng.Intn(len(present))]
		ops = append(ops, Op{Kind: OpDelete, U: e.V, V: e.U})
	}
	if len(present) > 0 {
		e := present[rng.Intn(len(present))]
		ops = append(ops, Op{Kind: OpInsert, U: e.U, V: e.V}) // no-op
	}
	u, v := pair()
	ops = append(ops,
		Op{Kind: OpInsert, U: u, V: v}, Op{Kind: OpDelete, U: v, V: u}, // duplicate pair
		Op{Kind: OpInsert, U: 0, V: graph.VertexID(1 + rng.Intn(n-1))}, // hub
		Op{Kind: OpDelete, U: graph.VertexID(1 + rng.Intn(n-1)), V: 0})
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// noOpBatch returns ops that all match the current state.
func noOpBatch(d *Graph, present []graph.Edge) []Op {
	ops := []Op{{Kind: OpInsert, U: present[0].U, V: present[0].V}}
	for v := graph.VertexID(1); int(v) < d.NumVertices(); v++ {
		if !d.HasEdge(0, v) {
			return append(ops, Op{Kind: OpDelete, U: 0, V: v})
		}
	}
	return ops
}

// edgeList returns the undirected edges of d.
func edgeList(d *Graph) []graph.Edge {
	var edges []graph.Edge
	for u, row := range d.adj {
		for _, v := range row {
			if graph.VertexID(u) < v {
				edges = append(edges, graph.Edge{U: graph.VertexID(u), V: v})
			}
		}
	}
	return edges
}

// apply runs a batch through ApplyBatch or, on odd steps, op by op through
// InsertEdge/DeleteEdge, whose final state must be the same.
func apply(t *testing.T, d *Graph, ops []Op, step int) {
	t.Helper()
	if step%2 == 0 {
		if _, err := d.ApplyBatch(ops, 1+step%3); err != nil {
			t.Fatal(err)
		}
		return
	}
	for _, op := range ops {
		var err error
		if op.Kind == OpInsert {
			err = d.InsertEdge(op.U, op.V)
		} else {
			err = d.DeleteEdge(op.U, op.V)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestSnapshotsMatchRecount is the splice's property test: after every
// batch, the snapshot ToCSR returns equals graph.FromEdges over the
// current edge set plus a sequential batch count, edge by edge.
func TestSnapshotsMatchRecount(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 30 + rng.Intn(90)
		d, err := FromCSR(countedGraph(t, rng, n, 2*n))
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 30; step++ {
			present := edgeList(d)
			ops := mixedBatch(rng, n, present)
			if step == 7 {
				ops = noOpBatch(d, present)
			}
			apply(t, d, ops, step)

			g, counts, err := d.ToCSR()
			if err != nil {
				t.Fatal(err)
			}
			want, wantCounts := recount(t, n, edgeList(d))
			if !slices.Equal(g.Off, want.Off) || !slices.Equal(g.Dst, want.Dst) {
				t.Fatalf("seed %d step %d: snapshot CSR differs from FromEdges", seed, step)
			}
			for e := range wantCounts {
				if counts[e] != wantCounts[e] {
					t.Fatalf("seed %d step %d: count at offset %d = %d, recount %d",
						seed, step, e, counts[e], wantCounts[e])
				}
			}
			var sum uint64
			for _, c := range wantCounts {
				sum += uint64(c)
			}
			if int64(d.NumEdges())*2 != want.NumEdges() || d.Triangles() != sum/6 {
				t.Fatalf("seed %d step %d: totals %d edges, %d triangles; recount %d, %d",
					seed, step, d.NumEdges(), d.Triangles(), want.NumEdges()/2, sum/6)
			}
		}
	}
}

// digest hashes a snapshot's three arrays.
func digest(g *graph.CSR, counts []uint32) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(x uint64) {
		for i := range b {
			b[i] = byte(x >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, o := range g.Off {
		put(uint64(o))
	}
	for _, v := range g.Dst {
		put(uint64(v))
	}
	for _, c := range counts {
		put(uint64(c))
	}
	return h.Sum64()
}

// TestSnapshotsImmutable pins the aliasing contract: neither the CSR and
// counts given to FromCSR nor any snapshot ToCSR returned changes while
// later batches insert and delete edges through the rows they alias.
func TestSnapshotsImmutable(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 80
	base, baseCounts := countedGraph(t, rng, n, 3*n)
	d, err := FromCSR(base, baseCounts)
	if err != nil {
		t.Fatal(err)
	}
	type held struct {
		g      *graph.CSR
		counts []uint32
		sum    uint64
	}
	kept := []held{{base, baseCounts, digest(base, baseCounts)}}
	for step := 0; step < 10; step++ {
		apply(t, d, mixedBatch(rng, n, edgeList(d)), step)
		g, counts, err := d.ToCSR()
		if err != nil {
			t.Fatal(err)
		}
		if step < 5 {
			kept = append(kept, held{g, counts, digest(g, counts)})
		}
	}
	for i, h := range kept {
		if digest(h.g, h.counts) != h.sum {
			t.Errorf("snapshot %d changed after later batches", i)
		}
	}
}
