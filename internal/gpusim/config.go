// Package gpusim is a functional simulator of the paper's GPU execution
// (Algorithms 4-6): coarse-grained vertex-per-thread-block scheduling,
// warp-synchronous merge and bitmap kernels, a global-memory bitmap pool
// with occupancy-status acquisition, shared-memory range filtering,
// CUDA-unified-memory paging, and the multi-pass processing technique.
//
// The simulator computes exact counts (it executes the real intersection
// work with the real decomposition) while charging time through a
// TITAN-Xp-like cost model with capacity parameters scaled to the dataset
// scale, so the GPU experiments (Tables 5-7, Figures 8-9) reproduce the
// paper's shapes: BMP beats MPS on the GPU, too few passes thrash the
// unified memory on Friendster, and warps-per-block tuning helps BMP until
// occupancy saturates.
//
// Each thread block computes the edges its vertex owns under core.Owns,
// the CPU engine's orientation rule, with internal/intersect's kernels,
// whose work tallies also charge the pivot-skip and range-filter kernels;
// a host pass then copies each count to its reverse edge.
package gpusim

import (
	"fmt"
	"math"

	"cncount/internal/archsim"
	"cncount/internal/bitmap"
	"cncount/internal/core"
	"cncount/internal/graph"
	"cncount/internal/intersect"
	"cncount/internal/metrics"
	"cncount/internal/trace"
)

const (
	// WarpSize is the number of threads per warp.
	WarpSize = 32
	// MaxThreadsPerSM and MaxBlocksPerSM bound occupancy as on the paper's
	// TITAN Xp ("2048 threads per SM", "16 is the maximum number of thread
	// blocks simultaneously scheduled on a SM").
	MaxThreadsPerSM = 2048
	MaxBlocksPerSM  = 16
	// DefaultWarpsPerBlock is the paper's default tuning ("we use 4 warps
	// per thread block", 100% theoretical occupancy).
	DefaultWarpsPerBlock = 4
	// globalMemBytes is the TITAN Xp's global memory (Mem_global) and
	// reservedMemBytes the paper's Mem_reserved, both before CapacityScale.
	globalMemBytes   = 12 << 30
	reservedMemBytes = 500 << 20
	// PageBytes is the unified-memory migration granularity.
	PageBytes = 64 << 10
	// pageFaultLatencySec is the service time of one on-demand unified-
	// memory page fault (fault handling plus PCIe migration of one page).
	pageFaultLatencySec = 30e-6
	// pcieBandwidth is the sustained bulk-migration rate for sequentially
	// prefetched unified-memory streams, in bytes/second.
	pcieBandwidth = 12e9
)

// Config parameterizes one simulated GPU run on the paper's TITAN Xp
// (archsim.GPU).
type Config struct {
	// Algorithm is core.AlgoMPS, core.AlgoBMP or core.AlgoBMPRF. AlgoM runs
	// the merge kernel without the PS kernel split.
	Algorithm core.Algorithm

	// CapacityScale scales the modeled memory capacities to the dataset
	// scale: Mem_global is 12 GB and Mem_reserved, the memory kept for
	// sequential CSR/count streaming, 500 MB, both times CapacityScale.
	// <= 0 means 1.
	CapacityScale float64

	// WarpsPerBlock is blockDim.y; 0 means DefaultWarpsPerBlock.
	WarpsPerBlock int

	// Passes forces the multi-pass count; 0 plans it with the paper's
	// formula ceil(Mem_CSR / (Mem_global - Mem_reserved - Mem_BA)).
	Passes int

	// SkewThreshold is MPS's t; <= 0 uses the paper's 50
	// (intersect.DefaultSkewThreshold). NaN is rejected.
	SkewThreshold float64

	// RangeScale configures the shared-memory range filter for AlgoBMPRF;
	// <= 0 uses 64.
	RangeScale int

	// CoProcessing models the CPU-GPU co-processing of the symmetric
	// assignment (Algorithm 4): the CPU finds the reverse offsets while
	// the kernels run, leaving only the final remap after them. When
	// false the reverse offsets are binary-searched after the kernels,
	// the slow path of Table 5. Either way the counts are the same.
	CoProcessing bool

	// Metrics, when non-nil, receives the kernel passes' per-worker
	// scheduler tallies (including steal counts) under scope
	// "gpusim.kernel". Nil records nothing.
	Metrics *metrics.Collector

	// Trace, when non-nil, receives one span per simulated thread-block
	// task (and per steal) on each host worker's timeline row, named
	// "gpusim.kernel". Nil records nothing.
	Trace *trace.Tracer
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.CapacityScale <= 0 {
		c.CapacityScale = 1
	}
	if c.WarpsPerBlock <= 0 {
		c.WarpsPerBlock = DefaultWarpsPerBlock
	}
	if c.SkewThreshold <= 0 {
		c.SkewThreshold = intersect.DefaultSkewThreshold
	}
	return c
}

// validate rejects incoherent configurations.
func (c Config) validate() error {
	switch c.Algorithm {
	case core.AlgoM, core.AlgoMPS, core.AlgoBMP, core.AlgoBMPRF:
	default:
		return fmt.Errorf("gpusim: unknown algorithm %d", int(c.Algorithm))
	}
	if c.WarpsPerBlock > MaxThreadsPerSM/WarpSize {
		return fmt.Errorf("gpusim: %d warps per block exceed %d threads per SM",
			c.WarpsPerBlock, MaxThreadsPerSM)
	}
	if c.Passes < 0 {
		return fmt.Errorf("gpusim: negative pass count %d", c.Passes)
	}
	if math.IsNaN(c.SkewThreshold) {
		return fmt.Errorf("gpusim: skew threshold is NaN")
	}
	return nil
}

// ConcurrentBlocksPerSM returns how many thread blocks an SM runs at once
// for the configured block size: limited by the thread budget and the
// hardware block slots.
func (c Config) ConcurrentBlocksPerSM() int {
	byThreads := MaxThreadsPerSM / (WarpSize * c.WarpsPerBlock)
	if byThreads < 1 {
		byThreads = 1
	}
	if byThreads > MaxBlocksPerSM {
		return MaxBlocksPerSM
	}
	return byThreads
}

// Occupancy returns the fraction of the SM's thread capacity the
// configuration keeps resident (the latency-hiding resource of Figure 9).
func (c Config) Occupancy() float64 {
	resident := c.ConcurrentBlocksPerSM() * c.WarpsPerBlock * WarpSize
	return float64(resident) / MaxThreadsPerSM
}

// MemoryPlan is the Table 6 memory breakdown and pass estimate.
type MemoryPlan struct {
	CSRBytes      int64 // off + dst arrays
	CountBytes    int64 // the |E| count array
	BitmapBytes   int64 // Mem_BA: the bitmap pool (BMP only)
	ReservedBytes int64 // Mem_reserved
	GlobalBytes   int64 // Mem_global
	NumBitmaps    int
	Passes        int
}

// PlanPasses computes the paper's pass estimate
// ceil(Mem_CSR / (Mem_global - Mem_reserved - Mem_BA)) for the graph and
// configuration (§4.2.2).
func PlanPasses(g *graph.CSR, cfg Config) MemoryPlan {
	cfg = cfg.withDefaults()
	plan := MemoryPlan{
		CSRBytes:      g.MemoryBytes(),
		CountBytes:    g.NumEdges() * 4,
		ReservedBytes: int64(reservedMemBytes * cfg.CapacityScale),
		GlobalBytes:   int64(globalMemBytes * cfg.CapacityScale),
	}
	if cfg.Algorithm == core.AlgoBMP || cfg.Algorithm == core.AlgoBMPRF {
		plan.NumBitmaps = archsim.GPU.Cores * cfg.ConcurrentBlocksPerSM()
		perBitmap, _ := bitmap.MemoryFootprint(uint32(g.NumVertices()), cfg.RangeScale)
		plan.BitmapBytes = int64(plan.NumBitmaps) * perBitmap
	}
	avail := plan.GlobalBytes - plan.ReservedBytes - plan.BitmapBytes
	if avail <= 0 {
		// The pool alone overflows memory; one vertex range per pass would
		// still thrash, so report the degenerate maximum.
		plan.Passes = g.NumVertices()
		return plan
	}
	passes := (plan.CSRBytes + avail - 1) / avail
	if passes < 1 {
		passes = 1
	}
	plan.Passes = int(passes)
	return plan
}
