// Package triangle implements exact triangle counting, the problem the
// paper contrasts with all-edge common neighbor counting (§2.2.2): with the
// order constraint u < v < w and symmetry breaking, triangle counting only
// intersects the truncated neighborhoods N⁺(u) and N⁺(v) and keeps no
// per-edge value, whereas the all-edge operation intersects full
// neighborhoods and stores all |E| counts.
//
// Three counters are provided, mirroring the multicore triangle-counting
// literature the paper cites [23]:
//
//   - MergeCount: merge-based intersection of N⁺ lists;
//   - HashCount: hash-index-based intersection of N⁺ lists;
//   - FromEdgeCounts: derives the count from a precomputed all-edge common
//     neighbor count array via Σcnt/6 — free once the counts exist.
//
// The benchmark suite compares them to quantify how much extra work the
// all-edge operation does for its per-edge outputs.
package triangle

import (
	"cncount/internal/graph"
	"cncount/internal/intersect"
	"cncount/internal/sched"
)

// forward returns N⁺(u): the suffix of N(u) with IDs greater than u.
func forward(g *graph.CSR, u graph.VertexID) []graph.VertexID {
	nu := g.Neighbors(u)
	lo, hi := 0, len(nu)
	for lo < hi {
		mid := (lo + hi) / 2
		if nu[mid] <= u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return nu[lo:]
}

// MergeCount counts triangles with the ordered merge method: for every
// edge (u,v) with u < v, |N⁺(u) ∩ N⁺(v)| triangles have u as their smallest
// vertex and v as their middle one. workers < 1 uses all cores.
func MergeCount(g *graph.CSR, workers int) uint64 {
	n := int64(g.NumVertices())
	partial := make([]uint64, sched.Workers(workers)*8) // padded slots
	sched.Run(n, 256, workers, sched.Obs{}, func(worker int, lo, hi int64) {
		var local uint64
		for ui := lo; ui < hi; ui++ {
			u := graph.VertexID(ui)
			fu := forward(g, u)
			for _, v := range fu {
				fv := forward(g, v)
				local += uint64(intersect.Merge(fu, fv))
			}
		}
		partial[worker*8] += local
	})
	var total uint64
	for i := 0; i < len(partial); i += 8 {
		total += partial[i]
	}
	return total
}

// HashCount counts triangles with a per-worker hash index over N⁺(u),
// probed by each N⁺(v) — the hash variant of [23]. workers < 1 uses all
// cores.
func HashCount(g *graph.CSR, workers int) uint64 {
	n := int64(g.NumVertices())
	w := sched.Workers(workers)
	partial := make([]uint64, w*8)
	indexes := make([]*intersect.HashIndex, w)
	sched.Run(n, 256, workers, sched.Obs{}, func(worker int, lo, hi int64) {
		if indexes[worker] == nil {
			indexes[worker] = intersect.NewHashIndex(64)
		}
		idx := indexes[worker]
		var local uint64
		for ui := lo; ui < hi; ui++ {
			u := graph.VertexID(ui)
			fu := forward(g, u)
			if len(fu) == 0 {
				continue
			}
			idx.Rebuild(fu)
			for _, v := range fu {
				local += uint64(intersect.HashCount(idx, forward(g, v)))
			}
		}
		partial[worker*8] += local
	})
	var total uint64
	for i := 0; i < len(partial); i += 8 {
		total += partial[i]
	}
	return total
}

// FromEdgeCounts derives the triangle count from an all-edge common
// neighbor count array: Σcnt = 6·triangles, since each triangle {u,v,w}
// contributes one common neighbor to each of its six directed edges.
func FromEdgeCounts(counts []uint32) uint64 {
	var sum uint64
	for _, c := range counts {
		sum += uint64(c)
	}
	return sum / 6
}
