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

// publishBatch returns a mixed batch on every fourth step and otherwise
// one insert away from the hub vertex 0 (a no-op batch if the pair is
// taken), so the overlay grows over several publishes before a mixed
// batch pushes it past the compaction share.
func publishBatch(rng *rand.Rand, d *Graph, n, step int) []Op {
	if step%4 == 0 {
		return mixedBatch(rng, n, edgeList(d))
	}
	u, v := graph.VertexID(1+rng.Intn(n-1)), graph.VertexID(1+rng.Intn(n-1))
	if u == v || d.HasEdge(u, v) {
		return noOpBatch(d, edgeList(d))
	}
	return []Op{{Kind: OpInsert, U: u, V: v}}
}

// TestPublishMatchesRecount is Publish's property test: after every batch
// the view equals graph.FromEdges over the current edge set, row by row
// and flattened, and the maintained counts equal a recount. Small batches
// away from the hub leave the overlay below the compaction share, the
// mixed ones push it past, so both kinds of publish are covered.
func TestPublishMatchesRecount(t *testing.T) {
	overlays, compactions := 0, 0
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 300 + rng.Intn(100)
		d, err := FromCSR(countedGraph(t, rng, n, 6*n))
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 40; step++ {
			apply(t, d, publishBatch(rng, d, n, step), step)

			v, compacted := d.Publish()
			if compacted {
				compactions++
			} else if len(v.rows) > 0 {
				overlays++
			}
			want, wantCounts := recount(t, n, edgeList(d))
			if v.NumVertices() != n || v.NumEdges() != want.NumEdges() {
				t.Fatalf("seed %d step %d: view has %d vertices, %d edges; recount %d, %d",
					seed, step, v.NumVertices(), v.NumEdges(), n, want.NumEdges())
			}
			for u := graph.VertexID(0); int(u) < n; u++ {
				if !slices.Equal(v.Neighbors(u), want.Neighbors(u)) {
					t.Fatalf("seed %d step %d: view row %d = %v, recount %v",
						seed, step, u, v.Neighbors(u), want.Neighbors(u))
				}
				for e := want.Off[u]; e < want.Off[u+1]; e++ {
					if c, ok := d.Count(u, want.Dst[e]); !ok || c != wantCounts[e] {
						t.Fatalf("seed %d step %d: count(%d,%d) = %d, %v; recount %d",
							seed, step, u, want.Dst[e], c, ok, wantCounts[e])
					}
				}
			}
			flat := v.CSR()
			if !slices.Equal(flat.Off, want.Off) || !slices.Equal(flat.Dst, want.Dst) {
				t.Fatalf("seed %d step %d: flattened view differs from FromEdges", seed, step)
			}
		}
	}
	t.Logf("%d overlay publishes, %d compactions", overlays, compactions)
	if overlays == 0 || compactions < 3 {
		t.Fatalf("%d overlay publishes and %d compactions; want both kinds, and several compactions",
			overlays, compactions)
	}
}

// viewDigest hashes every row of a view as Neighbors returns it.
func viewDigest(v *View) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for u := graph.VertexID(0); int(u) < v.NumVertices(); u++ {
		row := v.Neighbors(u)
		for _, x := range append([]graph.VertexID{graph.VertexID(len(row))}, row...) {
			for i := range b {
				b[i] = byte(x >> (8 * i))
			}
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// TestViewsImmutable pins the sharing contract of Publish: a view keeps
// its rows while later batches edit them through the graph, and across a
// compaction that replaces the base. A single insert is undone by the
// next batch, whose delete would shift the published row in place if
// Publish left it private.
func TestViewsImmutable(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 300
	d, err := FromCSR(countedGraph(t, rng, n, 6*n))
	if err != nil {
		t.Fatal(err)
	}
	type held struct {
		v    *View
		flat *graph.CSR
		sum  uint64
	}
	var kept []held
	compactedAfterHold := false
	var last []Op
	for step := 0; step < 32; step++ {
		ops := publishBatch(rng, d, n, step)
		if step%4 == 2 && len(last) == 1 && last[0].Kind == OpInsert {
			ops = []Op{{Kind: OpDelete, U: last[0].V, V: last[0].U}}
		}
		last = ops
		apply(t, d, ops, step)
		v, compacted := d.Publish()
		if len(kept) > 0 && compacted {
			compactedAfterHold = true
		}
		if len(v.rows) > 0 && len(kept) < 8 {
			kept = append(kept, held{v, v.CSR(), viewDigest(v)})
		}
	}
	if len(kept) == 0 || !compactedAfterHold {
		t.Fatalf("held %d views with an overlay, compaction after the first: %v; want both",
			len(kept), compactedAfterHold)
	}
	for i, h := range kept {
		if viewDigest(h.v) != h.sum {
			t.Errorf("view %d: rows changed after later batches", i)
		}
		if flat := h.v.CSR(); !slices.Equal(flat.Off, h.flat.Off) || !slices.Equal(flat.Dst, h.flat.Dst) {
			t.Errorf("view %d: flattening changed after later batches", i)
		}
	}
}
