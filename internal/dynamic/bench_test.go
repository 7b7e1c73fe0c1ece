package dynamic

import (
	"fmt"
	"math/rand"
	"testing"

	"cncount/internal/core"
	"cncount/internal/gen"
	"cncount/internal/graph"
)

// liveUpdates generates serve-mixed's update stream: each batch deletes
// the oldest edges the stream inserted (up to half the batch) and inserts
// random non-edges, so the graph stays within one batch of its base.
type liveUpdates struct {
	rng  *rand.Rand
	live []Op // inserted and not yet deleted, oldest first
}

func (s *liveUpdates) next(d *Graph, batchOps int) []Op {
	dels := min(len(s.live), batchOps/2)
	ops := make([]Op, 0, batchOps)
	for _, op := range s.live[:dels] {
		ops = append(ops, Op{Kind: OpDelete, U: op.U, V: op.V})
	}
	s.live = s.live[dels:]
	inserted := map[edgeKey]bool{}
	n := d.NumVertices()
	for len(ops) < batchOps {
		u, v := graph.VertexID(s.rng.Intn(n)), graph.VertexID(s.rng.Intn(n))
		if u == v || inserted[key(u, v)] || d.HasEdge(u, v) {
			continue
		}
		inserted[key(u, v)] = true
		op := Op{Kind: OpInsert, U: u, V: v}
		s.live = append(s.live, op)
		ops = append(ops, op)
	}
	return ops
}

// BenchmarkIngestBatch times one serve-mixed batch of 16 ops on TW, from
// the repair to a state readers can hold: "publish" is cncd's write path
// (ApplyBatch, then Publish, which compacts now and then), "splice" makes
// a full CSR after every batch (ApplyBatch, then ToCSR).
func BenchmarkIngestBatch(b *testing.B) {
	for _, scale := range []float64{0.5, 2} {
		p, err := gen.ProfileByName("TW")
		if err != nil {
			b.Fatal(err)
		}
		g, err := p.Generate(scale)
		if err != nil {
			b.Fatal(err)
		}
		res, err := core.Count(g, core.Options{Algorithm: core.AlgoBMP})
		if err != nil {
			b.Fatal(err)
		}
		for _, mode := range []string{"publish", "splice"} {
			b.Run(fmt.Sprintf("TWx%g/%s", scale, mode), func(b *testing.B) {
				// FromCSR never writes g or its counts, so every
				// sub-benchmark may start from them.
				d, err := FromCSR(g, res.Counts)
				if err != nil {
					b.Fatal(err)
				}
				stream := &liveUpdates{rng: rand.New(rand.NewSource(1))}
				compactions := 0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					ops := stream.next(d, 16)
					b.StartTimer()
					if _, err := d.ApplyBatch(ops, 0); err != nil {
						b.Fatal(err)
					}
					if mode == "splice" {
						d.ToCSR()
					} else if _, compacted := d.Publish(); compacted {
						compactions++
					}
				}
				b.ReportMetric(float64(compactions)/float64(b.N), "compactions/op")
			})
		}
	}
}
