// Quickstart: generate a graph, count common neighbors for every edge, and
// query the results.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"cncount"
)

func main() {
	// Generate a small Twitter-profile graph (scale 0.1 ≈ 1/10,000 of the
	// real twitter graph, with the same degree-skew structure). Any text
	// edge list loads the same way via cncount.LoadGraph.
	g, err := cncount.GenerateProfile("TW", 0.1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(cncount.Summarize("twitter-profile", g))

	// Count |N(u) ∩ N(v)| for every edge with BMP, the paper's best CPU
	// algorithm. It orients each edge by degree itself, so it needs no
	// reordering.
	res, err := cncount.Count(g, cncount.Options{Algorithm: cncount.AlgoBMP})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("counted %d directed edges in %v on %d threads\n",
		len(res.Counts), res.Elapsed, res.Threads)
	fmt.Printf("the graph has %d triangles (= Σcnt/6)\n", res.TriangleCount())

	// The count array is indexed by edge offset; look up one edge.
	var u cncount.VertexID
	for v := 0; v < g.NumVertices(); v++ {
		if g.Degree(cncount.VertexID(v)) > 0 {
			u = cncount.VertexID(v)
			break
		}
	}
	v := g.Neighbors(u)[0]
	e, _ := g.EdgeOffset(u, v)
	fmt.Printf("edge (%d,%d) has %d common neighbors\n", u, v, res.Counts[e])

	// Spot queries avoid the full computation.
	single, err := cncount.CountEdge(g, u, v)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("CountEdge agrees: %d\n", single)

	// All four algorithms produce identical counts; compare two.
	mps, err := cncount.Count(g, cncount.Options{Algorithm: cncount.AlgoMPS})
	if err != nil {
		log.Fatal(err)
	}
	for i := range res.Counts {
		if res.Counts[i] != mps.Counts[i] {
			log.Fatalf("BMP and MPS disagree at offset %d", i)
		}
	}
	fmt.Println("BMP and MPS agree on every edge")
}
