// Online maintenance: keep all-edge common neighbor counts fresh while the
// graph changes — the "analyze the data on the fly... while the user is
// shopping" scenario of the paper's introduction, taken literally.
//
// The batch algorithms recount everything in tens of seconds on
// billion-edge graphs; for a stream of individual updates, incremental
// maintenance answers in microseconds per update. This example seeds a
// graph with a batch count, applies a stream of insertions and deletions,
// and shows the maintained counts agree with a full recount.
//
// Run with:
//
//	go run ./examples/online
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"cncount"
)

func main() {
	// Seed: a LiveJournal-profile graph, batch-counted once.
	g, err := cncount.GenerateProfile("LJ", 0.5)
	if err != nil {
		log.Fatal(err)
	}
	res, err := cncount.Count(g, cncount.Options{Algorithm: cncount.AlgoBMP})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("batch count of %v: %v (triangles %d)\n",
		cncount.Summarize("LJ", g), res.Elapsed, res.TriangleCount())

	dg, err := cncount.DynamicFromGraph(g, res.Counts)
	if err != nil {
		log.Fatal(err)
	}

	// A stream of user actions: 2000 random co-purchase links appear,
	// some disappear.
	rng := rand.New(rand.NewSource(99))
	n := g.NumVertices()
	start := time.Now()
	inserts, deletes := 0, 0
	for op := 0; op < 2000; op++ {
		u := cncount.VertexID(rng.Intn(n))
		v := cncount.VertexID(rng.Intn(n))
		if u == v {
			continue
		}
		if rng.Intn(4) == 0 && dg.HasEdge(u, v) {
			if err := dg.DeleteEdge(u, v); err != nil {
				log.Fatal(err)
			}
			deletes++
		} else {
			if err := dg.InsertEdge(u, v); err != nil {
				log.Fatal(err)
			}
			inserts++
		}
	}
	elapsed := time.Since(start)
	fmt.Printf("applied %d inserts + %d deletes in %v (%.1fµs/update)\n",
		inserts, deletes, elapsed, float64(elapsed.Microseconds())/float64(inserts+deletes))
	fmt.Printf("maintained triangle count: %d\n", dg.Triangles())

	// Cross-check against a from-scratch batch recount.
	g2, counts2, err := dg.ToCSR()
	if err != nil {
		log.Fatal(err)
	}
	batch, err := cncount.Count(g2, cncount.Options{Algorithm: cncount.AlgoMPS})
	if err != nil {
		log.Fatal(err)
	}
	for e := range counts2 {
		if counts2[e] != batch.Counts[e] {
			log.Fatalf("divergence at edge offset %d", e)
		}
	}
	fmt.Println("incremental counts match a full batch recount on every edge")

	// The maintained counts keep analytics fresh: current strongest tie.
	recs, err := cncount.TopKNeighbors(g2, counts2, 0, 1)
	if err != nil {
		log.Fatal(err)
	}
	if len(recs) > 0 {
		fmt.Printf("vertex 0's strongest current tie: %d (count %d)\n",
			recs[0].Neighbor, recs[0].Count)
	}
}
