package graph

import "sort"

// ConnectedComponents labels each vertex with its connected component ID
// (dense IDs in discovery order) and returns the component count. Isolated
// vertices get their own components.
func ConnectedComponents(g *CSR) (compOf []int32, numComponents int) {
	n := g.NumVertices()
	compOf = make([]int32, n)
	for i := range compOf {
		compOf[i] = -1
	}
	var stack []VertexID
	next := int32(0)
	for s := 0; s < n; s++ {
		if compOf[s] != -1 {
			continue
		}
		compOf[s] = next
		stack = append(stack[:0], VertexID(s))
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, v := range g.Neighbors(u) {
				if compOf[v] == -1 {
					compOf[v] = next
					stack = append(stack, v)
				}
			}
		}
		next++
	}
	return compOf, int(next)
}

// InducedSubgraph returns the subgraph induced by keep (any order,
// duplicates ignored) together with the mapping from new vertex IDs back to
// the original ones. Vertices are renumbered densely in ascending original
// order.
func InducedSubgraph(g *CSR, keep []VertexID) (*CSR, []VertexID, error) {
	n := g.NumVertices()
	inSet := make([]bool, n)
	for _, v := range keep {
		if int(v) < n {
			inSet[v] = true
		}
	}
	oldID := make([]VertexID, 0, len(keep))
	newID := make([]int32, n)
	for i := range newID {
		newID[i] = -1
	}
	for v := 0; v < n; v++ {
		if inSet[v] {
			newID[v] = int32(len(oldID))
			oldID = append(oldID, VertexID(v))
		}
	}
	var edges []Edge
	for _, u := range oldID {
		for _, v := range g.Neighbors(u) {
			if u < v && inSet[v] {
				edges = append(edges, Edge{VertexID(newID[u]), VertexID(newID[v])})
			}
		}
	}
	sub, err := FromEdges(len(oldID), edges)
	if err != nil {
		return nil, nil, err
	}
	return sub, oldID, nil
}

// LargestComponent returns the induced subgraph of the largest connected
// component and the new→old vertex mapping.
func LargestComponent(g *CSR) (*CSR, []VertexID, error) {
	compOf, num := ConnectedComponents(g)
	if num == 0 {
		return g.Clone(), nil, nil
	}
	sizes := make([]int, num)
	for _, c := range compOf {
		sizes[c]++
	}
	best := 0
	for c, s := range sizes {
		if s > sizes[best] {
			best = c
		}
	}
	var keep []VertexID
	for v, c := range compOf {
		if c == int32(best) {
			keep = append(keep, VertexID(v))
		}
	}
	return InducedSubgraph(g, keep)
}

// CoreNumbers returns each vertex's core number (the largest k such that
// the vertex survives in the k-core) via the standard peeling algorithm,
// O(|E|) with bucketed degrees.
func CoreNumbers(g *CSR) []int32 {
	n := g.NumVertices()
	deg := make([]int32, n)
	maxDeg := int32(0)
	for v := 0; v < n; v++ {
		deg[v] = int32(g.Degree(VertexID(v)))
		if deg[v] > maxDeg {
			maxDeg = deg[v]
		}
	}
	// Bucket sort vertices by degree.
	binStart := make([]int32, maxDeg+2)
	for _, d := range deg {
		binStart[d+1]++
	}
	for i := int32(1); i <= maxDeg+1; i++ {
		binStart[i] += binStart[i-1]
	}
	pos := make([]int32, n)
	order := make([]VertexID, n)
	fill := append([]int32(nil), binStart[:maxDeg+1]...)
	for v := 0; v < n; v++ {
		p := fill[deg[v]]
		order[p] = VertexID(v)
		pos[v] = p
		fill[deg[v]]++
	}

	core := make([]int32, n)
	cur := append([]int32(nil), deg...)
	for i := 0; i < n; i++ {
		u := order[i]
		core[u] = cur[u]
		for _, v := range g.Neighbors(u) {
			if cur[v] > cur[u] {
				// Move v one bucket down: swap it with the first vertex of
				// its current bucket, then shrink the bucket.
				dv := cur[v]
				pw := binStart[dv]
				w := order[pw]
				if w != v {
					order[pos[v]], order[pw] = w, v
					pos[w], pos[v] = pos[v], pw
				}
				binStart[dv]++
				cur[v]--
			}
		}
	}
	return core
}

// ReorderByDegeneracy relabels vertices by descending core number (ties by
// descending degree, then ID) — an alternative to ReorderByDegree for the
// bitmap algorithms, compared in the ordering ablation benchmark. Returns
// the relabeled graph and the permutation. g must be symmetric, which
// Validate checks.
func ReorderByDegeneracy(g *CSR) (*CSR, *Reordering) {
	n := g.NumVertices()
	core := CoreNumbers(g)
	order := make([]VertexID, n)
	for i := range order {
		order[i] = VertexID(i)
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if core[a] != core[b] {
			return core[a] > core[b]
		}
		da, db := g.Degree(a), g.Degree(b)
		if da != db {
			return da > db
		}
		return a < b
	})
	return relabel(g, order)
}
