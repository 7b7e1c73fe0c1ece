package main

import (
	"sync"
	"sync/atomic"

	"cncount"
)

// A shared host's speed drifts by tens of percent over minutes, and by up
// to three times when a neighbour thrashes the memory system (README.md
// has measurements). So every timed operation is followed by one pass of a
// fixed reference kernel over the run's own graph, and each timing is
// reported divided by the slowdown that pass measured. A slower host slows
// the operation and the reference alike, and the ratio cancels it. The
// kernel is the benchmark's own code, so a change to the program under
// test moves the timings but not the reference.
const (
	// refCap bounds how many leading neighbours of each endpoint the
	// reference merges, so the hubs a seed happens to draw do not set its
	// cost.
	refCap = 64
	// refStride: the reference merges every refStride-th edge.
	refStride = 4
	// refThreads is the reference's worker count, the counting threads
	// and client connections a workload may use on the smallest host it
	// accepts.
	refThreads = 2
)

// refChunk is how many vertices a reference worker claims at a time.
const refChunk = 1024

// refKernel is the reference pass over one graph.
type refKernel struct {
	g *cncount.Graph
	// work is the number of elements one pass merges: fixed by the graph.
	work uint64
	// nominalNs is the workload's spec.RefNs.
	nominalNs float64
}

func newRefKernel(g *cncount.Graph, nominalNs float64) *refKernel {
	k := &refKernel{g: g, nominalNs: nominalNs}
	for u := 0; u < g.NumVertices(); u++ {
		du := min(g.Off[u+1]-g.Off[u], refCap)
		for e := g.Off[u]; e < g.Off[u+1]; e += refStride {
			v := g.Dst[e]
			k.work += uint64(du + min(g.Off[v+1]-g.Off[v], refCap))
		}
	}
	return k
}

// slowdown runs one pass and returns its time per merged element relative
// to the nominal: 2 means the host currently runs at half the speed the
// nominal was measured at.
func (k *refKernel) slowdown(tr *cncount.Tracer) float64 {
	d, _ := timed(tr, "ref.pass", func() error {
		k.pass()
		return nil
	})
	return float64(d.Nanoseconds()) / float64(max(k.work, 1)) / k.nominalNs
}

// setHost reports the run's median slowdown, and as a note the end-to-end
// timings as measured, before the division by the slowdown.
func setHost(out *outcome, slows []float64, rawOpMs, rawSetupS float64) {
	out.set("host.slowdown", median(slows), len(slows))
	out.notef("host slowdown %.4g, median of %d reference passes; as measured, op_p50_ms %.6g and setup_s %.6g",
		median(slows), len(slows), rawOpMs, rawSetupS)
}

// pass merges, for every refStride-th edge (u, v), the first refCap
// neighbours of u with those of v, on refThreads workers.
func (k *refKernel) pass() uint64 {
	g := k.g
	n := g.NumVertices()
	var next atomic.Int64
	var total atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < refThreads; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var common uint64
			for {
				lo := int(next.Add(1)-1) * refChunk
				if lo >= n {
					break
				}
				for u := lo; u < min(lo+refChunk, n); u++ {
					nu := g.Dst[g.Off[u]:g.Off[u+1]]
					nu = nu[:min(len(nu), refCap)]
					for e := g.Off[u]; e < g.Off[u+1]; e += refStride {
						v := g.Dst[e]
						nv := g.Dst[g.Off[v]:g.Off[v+1]]
						common += mergeCount(nu, nv[:min(len(nv), refCap)])
					}
				}
			}
			total.Add(common)
		}()
	}
	wg.Wait()
	return total.Load()
}

// mergeCount returns |a ∩ b| of two sorted lists.
func mergeCount(a, b []uint32) uint64 {
	var c uint64
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			c++
			i++
			j++
		}
	}
	return c
}
