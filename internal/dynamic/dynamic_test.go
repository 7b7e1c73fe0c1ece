package dynamic

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"cncount/internal/graph"
	"cncount/internal/verify"
)

// checkAgainstBatch rebuilds the graph statically and compares every count.
func checkAgainstBatch(t *testing.T, d *Graph) {
	t.Helper()
	g, counts, err := d.ToCSR()
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.CheckCounts(g, counts); err != nil {
		t.Fatalf("incremental counts diverged: %v", err)
	}
}

func TestInsertTriangle(t *testing.T) {
	d := New(4)
	for _, e := range [][2]graph.VertexID{{0, 1}, {1, 2}, {0, 2}, {0, 3}} {
		if err := d.InsertEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	want := map[[2]graph.VertexID]uint32{
		{0, 1}: 1, {1, 2}: 1, {0, 2}: 1, {0, 3}: 0,
	}
	for e, w := range want {
		c, ok := d.Count(e[0], e[1])
		if !ok {
			t.Fatalf("edge %v missing", e)
		}
		if c != w {
			t.Errorf("cnt%v = %d, want %d", e, c, w)
		}
	}
	if d.Triangles() != 1 {
		t.Errorf("Triangles = %d, want 1", d.Triangles())
	}
	checkAgainstBatch(t, d)
}

func TestInsertIdempotent(t *testing.T) {
	d := New(3)
	if err := d.InsertEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := d.InsertEdge(1, 0); err != nil {
		t.Fatal(err)
	}
	if d.NumEdges() != 1 {
		t.Errorf("NumEdges = %d, want 1", d.NumEdges())
	}
}

func TestDeleteRestoresCounts(t *testing.T) {
	// Insert a K4, delete one edge, verify against batch; re-insert and
	// verify the counts return.
	d := New(4)
	var all [][2]graph.VertexID
	for u := graph.VertexID(0); u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			all = append(all, [2]graph.VertexID{u, v})
			if err := d.InsertEdge(u, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	if c, _ := d.Count(0, 1); c != 2 {
		t.Fatalf("K4 cnt(0,1) = %d, want 2", c)
	}
	if err := d.DeleteEdge(2, 3); err != nil {
		t.Fatal(err)
	}
	if d.HasEdge(2, 3) {
		t.Fatal("edge (2,3) survived deletion")
	}
	checkAgainstBatch(t, d)
	if err := d.InsertEdge(3, 2); err != nil {
		t.Fatal(err)
	}
	if c, _ := d.Count(2, 3); c != 2 {
		t.Errorf("reinserted cnt(2,3) = %d, want 2", c)
	}
	checkAgainstBatch(t, d)
}

func TestDeleteNonexistent(t *testing.T) {
	d := New(3)
	if err := d.DeleteEdge(0, 1); err != nil {
		t.Fatalf("deleting a nonexistent edge must be a no-op, got %v", err)
	}
}

func TestValidation(t *testing.T) {
	d := New(3)
	if err := d.InsertEdge(0, 0); err == nil {
		t.Error("self-loop accepted")
	}
	if err := d.InsertEdge(0, 9); err == nil {
		t.Error("out-of-range vertex accepted")
	}
	if err := d.DeleteEdge(9, 0); err == nil {
		t.Error("out-of-range deletion accepted")
	}
}

func TestFromCSR(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	edges := make([]graph.Edge, 300)
	for i := range edges {
		edges[i] = graph.Edge{U: graph.VertexID(rng.Intn(50)), V: graph.VertexID(rng.Intn(50))}
	}
	g, err := graph.FromEdges(50, edges)
	if err != nil {
		t.Fatal(err)
	}
	counts := verify.Counts(g)
	d, err := FromCSR(g, counts)
	if err != nil {
		t.Fatal(err)
	}
	if int64(d.NumEdges())*2 != g.NumEdges() {
		t.Errorf("NumEdges = %d, want %d", d.NumEdges(), g.NumEdges()/2)
	}
	// Continue mutating from the imported state.
	if err := d.InsertEdge(0, 49); err != nil {
		t.Fatal(err)
	}
	if err := d.DeleteEdge(0, 49); err != nil {
		t.Fatal(err)
	}
	checkAgainstBatch(t, d)

	if _, err := FromCSR(g, counts[:1]); err == nil {
		t.Error("short count array accepted")
	}
}

// TestPropertyRandomUpdateStream is the main invariant test: after any
// random sequence of insertions and deletions, the incremental counts match
// a from-scratch recomputation.
func TestPropertyRandomUpdateStream(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(30)
		d := New(n)
		for op := 0; op < 120; op++ {
			u := graph.VertexID(rng.Intn(n))
			v := graph.VertexID(rng.Intn(n))
			if u == v {
				continue
			}
			if rng.Intn(3) == 0 {
				if err := d.DeleteEdge(u, v); err != nil {
					return false
				}
			} else {
				if err := d.InsertEdge(u, v); err != nil {
					return false
				}
			}
		}
		if d.NumEdges() == 0 {
			return true
		}
		g, counts, err := d.ToCSR()
		if err != nil {
			return false
		}
		want := verify.Counts(g)
		for e := range want {
			if counts[e] != want[e] {
				return false
			}
		}
		return d.Triangles() == verify.Triangles(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSkewedUpdatePath(t *testing.T) {
	// A hub with a long adjacency list: each insert walks the short
	// endpoint's row and looks its entries up in the hub's.
	n := 3000
	d := New(n)
	for v := 1; v < n; v++ {
		if err := d.InsertEdge(0, graph.VertexID(v)); err != nil {
			t.Fatal(err)
		}
	}
	// A small clique overlapping the hub's neighborhood.
	for _, e := range [][2]graph.VertexID{{1, 2}, {2, 3}, {1, 3}} {
		if err := d.InsertEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	// Edge (1,2): common neighbors are 0 and 3.
	if c, _ := d.Count(1, 2); c != 2 {
		t.Errorf("cnt(1,2) = %d, want 2", c)
	}
	// Hub edge (0,1): common neighbors 2 and 3.
	if c, _ := d.Count(0, 1); c != 2 {
		t.Errorf("cnt(0,1) = %d, want 2", c)
	}
	checkAgainstBatch(t, d)
}

func TestAccessors(t *testing.T) {
	d := New(5)
	if d.NumVertices() != 5 {
		t.Errorf("NumVertices = %d", d.NumVertices())
	}
	if err := d.InsertEdge(1, 3); err != nil {
		t.Fatal(err)
	}
	nbr := d.Neighbors(1)
	if len(nbr) != 1 || nbr[0] != 3 {
		t.Errorf("Neighbors(1) = %v", nbr)
	}
	if d.HasEdge(0, 99) || d.HasEdge(99, 0) {
		t.Error("out-of-range HasEdge true")
	}
	if !d.HasEdge(3, 1) {
		t.Error("HasEdge not symmetric")
	}
	if _, ok := d.Count(0, 1); ok {
		t.Error("Count reported a nonexistent edge")
	}
}

func TestCommonNeighborsSkewBranches(t *testing.T) {
	// Force both argument orders of a skewed pair, long-short and
	// short-long, with common neighbors at both ends of the short row.
	n := 2000
	d := New(n)
	// Vertex 0: hub over evens; vertex 1: small odd set plus some evens.
	for v := 2; v < n; v += 2 {
		if err := d.InsertEdge(0, graph.VertexID(v)); err != nil {
			t.Fatal(err)
		}
	}
	for _, v := range []graph.VertexID{2, 500, 1998, 3, 5} {
		if err := d.InsertEdge(1, v); err != nil {
			t.Fatal(err)
		}
	}
	// Insert (0,1): its count must equal |N(0) ∩ N(1)| = {2,500,1998}.
	if err := d.InsertEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if c, _ := d.Count(0, 1); c != 3 {
		t.Errorf("cnt(0,1) = %d, want 3", c)
	}
	checkAgainstBatch(t, d)
	// And the reverse skew: a new hub edge whose small side is first arg.
	if err := d.InsertEdge(1, 1999); err != nil {
		t.Fatal(err)
	}
	checkAgainstBatch(t, d)
}

// TestInsertRemoveSortedHelpers pins the row helpers: link and unlink keep
// each adjacency row sorted with its counts aligned, in both directions.
func TestInsertRemoveSortedHelpers(t *testing.T) {
	d := New(6)
	for i, v := range []graph.VertexID{5, 1, 3, 2} {
		d.link(0, v)
		d.setCount(0, v, uint32(10+i))
	}
	if want := []graph.VertexID{1, 2, 3, 5}; !slices.Equal(d.adj[0], want) {
		t.Fatalf("adj[0] = %v, want %v", d.adj[0], want)
	}
	if want := []uint32{11, 13, 12, 10}; !slices.Equal(d.cnt[0], want) {
		t.Fatalf("cnt[0] = %v, want %v", d.cnt[0], want)
	}
	if c, ok := d.Count(3, 0); !ok || c != 12 {
		t.Fatalf("reverse count (3,0) = %d,%v, want 12", c, ok)
	}
	d.unlink(3, 0)
	if want := []graph.VertexID{1, 2, 5}; !slices.Equal(d.adj[0], want) || len(d.adj[3]) != 0 {
		t.Fatalf("after unlink: adj[0] = %v, adj[3] = %v", d.adj[0], d.adj[3])
	}
	if want := []uint32{11, 13, 10}; !slices.Equal(d.cnt[0], want) {
		t.Fatalf("after unlink: cnt[0] = %v, want %v", d.cnt[0], want)
	}
	if d.NumEdges() != 3 || d.sum != 11+13+10 {
		t.Fatalf("running totals: %d edges, sum %d", d.NumEdges(), d.sum)
	}
}
