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
	// SharedMemPerSM is the on-chip shared memory available to the range
	// filter ("48KB per SM"). On-chip SRAM is not scaled with the dataset.
	SharedMemPerSM = 48 << 10
	// DefaultWarpsPerBlock is the paper's default tuning ("we use 4 warps
	// per thread block", 100% theoretical occupancy).
	DefaultWarpsPerBlock = 4
	// PageBytes is the unified-memory migration granularity.
	PageBytes = 64 << 10
	// pageFaultLatencySec is the service time of one on-demand unified-
	// memory page fault (fault handling plus PCIe migration of one page).
	pageFaultLatencySec = 30e-6
	// pcieBandwidth is the sustained bulk-migration rate for sequentially
	// prefetched unified-memory streams, in bytes/second.
	pcieBandwidth = 12e9
)

// Config parameterizes one simulated GPU run.
type Config struct {
	// Algorithm is core.AlgoMPS, core.AlgoBMP or core.AlgoBMPRF. AlgoM runs
	// the merge kernel without the PS kernel split.
	Algorithm core.Algorithm

	// Spec is the GPU being modeled; zero value means archsim.GPU.
	Spec archsim.Spec

	// CapacityScale scales the global-memory capacity to the dataset scale
	// (see archsim.Spec.ScaledCapacity); <= 0 means 1.
	CapacityScale float64

	// GlobalMemBytes overrides the modeled global-memory capacity after
	// scaling; 0 means 12 GB * CapacityScale (the TITAN Xp).
	GlobalMemBytes int64

	// ReservedBytes is Mem_reserved, the tunable memory kept for sequential
	// CSR/count streaming (paper: 500 MB); 0 means 500 MB * CapacityScale.
	ReservedBytes int64

	// WarpsPerBlock is blockDim.y; 0 means DefaultWarpsPerBlock.
	WarpsPerBlock int

	// Passes forces the multi-pass count; 0 plans it with the paper's
	// formula ceil(Mem_CSR / (Mem_global - Mem_reserved - Mem_BA)).
	Passes int

	// SkewThreshold is MPS's t; <= 0 uses the paper's 50
	// (intersect.DefaultSkewThreshold). NaN is rejected.
	SkewThreshold float64

	// RangeScale configures the shared-memory range filter for AlgoBMPRF;
	// <= 0 picks the smallest power of two whose filter fits shared memory.
	RangeScale int

	// CoProcessing enables the CPU-GPU co-processing of the symmetric
	// assignment (Algorithm 4); when false the reverse offsets are resolved
	// by binary search after the kernels, the slow path of Table 5.
	CoProcessing bool

	// HostThreads is the CPU-side worker count for the post-processing
	// phase; < 1 means GOMAXPROCS.
	HostThreads int

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
	if c.Spec.Name == "" {
		c.Spec = archsim.GPU
	}
	if c.CapacityScale <= 0 {
		c.CapacityScale = 1
	}
	if c.GlobalMemBytes == 0 {
		c.GlobalMemBytes = int64(12 * float64(1<<30) * c.CapacityScale)
	}
	if c.ReservedBytes == 0 {
		c.ReservedBytes = int64(500 * float64(1<<20) * c.CapacityScale)
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
		ReservedBytes: cfg.ReservedBytes,
		GlobalBytes:   cfg.GlobalMemBytes,
	}
	if cfg.Algorithm == core.AlgoBMP || cfg.Algorithm == core.AlgoBMPRF {
		plan.NumBitmaps = cfg.Spec.Cores * cfg.ConcurrentBlocksPerSM()
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

// FitRangeScale returns the smallest power-of-two range scale whose filter
// bitmap fits the SM shared memory for a graph with n vertices.
func FitRangeScale(n uint32) int {
	scale := 1
	for {
		_, filterBytes := bitmap.MemoryFootprint(n, scale)
		if filterBytes <= SharedMemPerSM {
			return scale
		}
		scale <<= 1
	}
}
