package cncount_test

import (
	"fmt"

	"cncount"
)

// The K4 graph: every edge has exactly two common neighbors.
func k4() *cncount.Graph {
	var edges []cncount.Edge
	for u := cncount.VertexID(0); u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			edges = append(edges, cncount.Edge{U: u, V: v})
		}
	}
	g, err := cncount.NewGraph(4, edges)
	if err != nil {
		panic(err)
	}
	return g
}

func ExampleCount() {
	g := k4()
	res, err := cncount.Count(g, cncount.Options{Algorithm: cncount.AlgoBMP})
	if err != nil {
		panic(err)
	}
	e, _ := g.EdgeOffset(0, 1)
	fmt.Println("common neighbors of (0,1):", res.Counts[e])
	fmt.Println("triangles:", res.TriangleCount())
	// Output:
	// common neighbors of (0,1): 2
	// triangles: 4
}

func ExampleCountEdge() {
	g := k4()
	c, err := cncount.CountEdge(g, 1, 2)
	if err != nil {
		panic(err)
	}
	fmt.Println(c)
	// Output:
	// 2
}

func ExampleSCANFromCounts() {
	// Two triangles joined by one bridge edge.
	g, err := cncount.NewGraph(6, []cncount.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2},
		{U: 3, V: 4}, {U: 4, V: 5}, {U: 3, V: 5},
		{U: 2, V: 3},
	})
	if err != nil {
		panic(err)
	}
	res, err := cncount.Count(g, cncount.Options{Algorithm: cncount.AlgoMPS})
	if err != nil {
		panic(err)
	}
	clu, err := cncount.SCANFromCounts(g, res.Counts, cncount.ScanParams{Eps: 0.7, Mu: 3})
	if err != nil {
		panic(err)
	}
	fmt.Println("clusters:", clu.NumClusters)
	fmt.Println("0 and 1 together:", clu.ClusterOf[0] == clu.ClusterOf[1])
	fmt.Println("0 and 5 together:", clu.ClusterOf[0] == clu.ClusterOf[5])
	// Output:
	// clusters: 2
	// 0 and 1 together: true
	// 0 and 5 together: false
}

func ExampleNewDynamicGraph() {
	dg := cncount.NewDynamicGraph(4)
	for _, e := range [][2]cncount.VertexID{{0, 1}, {1, 2}, {0, 2}, {0, 3}} {
		if err := dg.InsertEdge(e[0], e[1]); err != nil {
			panic(err)
		}
	}
	c, _ := dg.Count(0, 1)
	fmt.Println("cnt(0,1) after inserts:", c)
	if err := dg.DeleteEdge(1, 2); err != nil {
		panic(err)
	}
	c, _ = dg.Count(0, 1)
	fmt.Println("cnt(0,1) after deleting (1,2):", c)
	// Output:
	// cnt(0,1) after inserts: 1
	// cnt(0,1) after deleting (1,2): 0
}

func ExampleTopKNeighbors() {
	// A wedge-heavy graph: vertex 0's tie to 1 closes two triangles, the
	// tie to 4 none.
	g, err := cncount.NewGraph(5, []cncount.Edge{
		{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 0, V: 4},
		{U: 1, V: 2}, {U: 1, V: 3},
	})
	if err != nil {
		panic(err)
	}
	res, err := cncount.Count(g, cncount.Options{Algorithm: cncount.AlgoM})
	if err != nil {
		panic(err)
	}
	recs, err := cncount.TopKNeighbors(g, res.Counts, 0, 2)
	if err != nil {
		panic(err)
	}
	for _, r := range recs {
		fmt.Printf("neighbor %d: %d common\n", r.Neighbor, r.Count)
	}
	// Output:
	// neighbor 1: 2 common
	// neighbor 2: 1 common
}
