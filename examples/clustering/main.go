// Structural graph clustering driven by all-edge common neighbor counts —
// the SCAN-family use case from the paper's introduction ([8, 9, 27]).
//
// The expensive part of SCAN-style clustering is exactly the all-edge
// common neighbor counting; once the counts exist, similarity thresholding
// and core detection are linear passes. This example clusters a planted
// community graph and verifies the communities are recovered.
//
// Run with:
//
//	go run ./examples/clustering
package main

import (
	"fmt"
	"log"
	"math/rand"

	"cncount"
)

// plantedCommunities samples a graph of `k` dense communities of size
// `size` with sparse random edges between them.
func plantedCommunities(k, size int, pIn, pOut float64, seed int64) (*cncount.Graph, []int) {
	rng := rand.New(rand.NewSource(seed))
	n := k * size
	truth := make([]int, n)
	var edges []cncount.Edge
	for u := 0; u < n; u++ {
		truth[u] = u / size
		for v := u + 1; v < n; v++ {
			p := pOut
			if truth[u] == v/size {
				p = pIn
			}
			if rng.Float64() < p {
				edges = append(edges, cncount.Edge{U: cncount.VertexID(u), V: cncount.VertexID(v)})
			}
		}
	}
	g, err := cncount.NewGraph(n, edges)
	if err != nil {
		log.Fatal(err)
	}
	return g, truth
}

func main() {
	const (
		communities = 8
		size        = 64
		eps         = 0.35
		mu          = 4
	)
	g, truth := plantedCommunities(communities, size, 0.4, 0.005, 7)
	fmt.Println(cncount.Summarize("planted", g))

	// Step 1 (the expensive one): all-edge common neighbor counting.
	res, err := cncount.Count(g, cncount.Options{Algorithm: cncount.AlgoBMPRF, Reorder: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("counting took %v\n", res.Elapsed)

	// Step 2: SCAN structural clustering on top of the counts.
	clu, err := cncount.SCANFromCounts(g, res.Counts, cncount.ScanParams{Eps: eps, Mu: mu})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("found %d clusters (eps=%.2f, mu=%d)\n", clu.NumClusters, eps, mu)

	// Evaluate against the planted truth: majority cluster per community.
	correct, clustered := 0, 0
	for comm := 0; comm < communities; comm++ {
		votes := map[int32]int{}
		for u := comm * size; u < (comm+1)*size; u++ {
			if id := clu.ClusterOf[u]; id >= 0 {
				votes[id]++
				clustered++
			}
		}
		bestID, bestVotes := int32(-1), 0
		for id, v := range votes {
			if v > bestVotes {
				bestID, bestVotes = id, v
			}
		}
		for u := comm * size; u < (comm+1)*size; u++ {
			if clu.ClusterOf[u] == bestID {
				correct++
			}
		}
		_ = truth
	}
	fmt.Printf("%d/%d vertices clustered, %.1f%% agree with their community's majority cluster\n",
		clustered, g.NumVertices(), 100*float64(correct)/float64(g.NumVertices()))

	// Edge similarities are reusable for other queries, e.g. the strongest
	// intra-cluster tie.
	sim, err := cncount.StructuralSimilarity(g, res.Counts)
	if err != nil {
		log.Fatal(err)
	}
	bestE, bestSim := -1, 0.0
	for e, s := range sim {
		if s > bestSim {
			bestE, bestSim = e, s
		}
	}
	fmt.Printf("strongest structural tie: σ = %.3f at edge offset %d\n", bestSim, bestE)
}
