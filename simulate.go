package cncount

import (
	"fmt"
	"time"

	"cncount/internal/archsim"
	"cncount/internal/core"
	"cncount/internal/gpusim"
)

// Processor selects which of the paper's three processors to model.
type Processor int

const (
	// ProcCPU is the paper's dual 14-core Xeon E5-2680 v4 server (AVX2).
	ProcCPU Processor = iota
	// ProcKNL is the 64-core Xeon Phi 7210 with AVX-512 and MCDRAM.
	ProcKNL
	// ProcGPU is the Nvidia TITAN Xp (30 SMs, 12 GB, unified memory).
	ProcGPU
)

// String names the processor as in the paper.
func (p Processor) String() string {
	switch p {
	case ProcCPU:
		return "CPU"
	case ProcKNL:
		return "KNL"
	case ProcGPU:
		return "GPU"
	default:
		return fmt.Sprintf("Processor(%d)", int(p))
	}
}

// Processors lists the three processors in the paper's order.
var Processors = []Processor{ProcCPU, ProcKNL, ProcGPU}

// MemoryMode selects the KNL MCDRAM configuration.
type MemoryMode = archsim.MemoryMode

// The KNL memory modes of the paper's HBW experiments.
const (
	ModeDDR   = archsim.ModeDDR
	ModeFlat  = archsim.ModeFlat
	ModeCache = archsim.ModeCache
)

// DefaultCapacityScale matches the default dataset profiles: graphs are
// ~1/1000 of the paper's, so capacity-dependent hardware parameters (cache
// capacity, GPU global memory) are scaled by the same factor to preserve
// the working-set-to-capacity ratios that drive the paper's results.
// Bandwidths and latencies, which are scale-free, are not scaled.
const DefaultCapacityScale = 0.001

// SimOptions configures Simulate.
type SimOptions struct {
	// Processor picks the modeled hardware.
	Processor Processor

	// Algorithm is the counting algorithm.
	Algorithm Algorithm

	// Threads is the modeled software thread count (CPU/KNL). <= 0 uses
	// the processor's full hardware thread count.
	Threads int

	// Lanes is the modeled vector width (CPU/KNL); <= 0 uses the
	// processor's native width (8 on CPU, 16 on KNL). 1 models the scalar
	// merge.
	Lanes int

	// MemMode is the KNL MCDRAM mode (ignored elsewhere).
	MemMode MemoryMode

	// WarpsPerBlock and Passes tune the GPU run (0 = defaults / planned).
	WarpsPerBlock int
	Passes        int

	// CoProcessing enables CPU-GPU co-processing of the symmetric
	// assignment on the GPU.
	CoProcessing bool

	// SkewThreshold, TaskSize and RangeScale mirror Options; RangeScale
	// <= 0 uses 64, which preserves the paper's per-range neighbor density
	// at the profiles' 1/1000 scale.
	SkewThreshold float64
	TaskSize      int
	RangeScale    int

	// CapacityScale overrides DefaultCapacityScale; use 1.0 when modeling a
	// full-size dataset.
	CapacityScale float64

	// Trace, when non-nil, receives a span per estimation pass
	// ("archsim.model.CPU", "archsim.model.KNL", "gpusim.run") on the
	// main timeline row, plus the instrumented counting run's own spans —
	// for the GPU, per-task and per-steal "gpusim.kernel" spans on each
	// host worker's row.
	Trace *Tracer

	// Metrics, when non-nil, receives the GPU kernel passes' per-worker
	// scheduler tallies (scope "gpusim.kernel", including steal counts).
	Metrics *Metrics
}

// SimResult is a modeled run: exact counts plus modeled elapsed time.
type SimResult struct {
	// Counts is the exact count array (identical across processors).
	Counts []uint32

	// Modeled is the modeled elapsed time on the selected processor.
	Modeled time.Duration

	// Breakdown decomposes the CPU/KNL model (zero for the GPU).
	Breakdown archsim.Breakdown

	// GPU is the detailed GPU report (nil for CPU/KNL).
	GPU *gpusim.Report
}

// Simulate runs the algorithm with instrumentation and models its elapsed
// time on one of the paper's processors. The counts are computed exactly on
// the host; only the timing is modeled. Every processor's model orients
// each edge by degree, as core's edge loop does, so BMP has its
// O(min(d_u, d_v)) bound on any vertex order.
func Simulate(g *Graph, opts SimOptions) (*SimResult, error) {
	capScale := opts.CapacityScale
	if capScale <= 0 {
		capScale = DefaultCapacityScale
	}
	rangeScale := opts.RangeScale
	if rangeScale <= 0 {
		rangeScale = 64
	}

	switch opts.Processor {
	case ProcCPU, ProcKNL:
		spec := archsim.CPU
		if opts.Processor == ProcKNL {
			spec = archsim.KNL
		}
		spec = spec.ScaledCapacity(capScale)
		threads := opts.Threads
		if threads <= 0 {
			threads = spec.Cores * spec.SMTWays
		}
		lanes := opts.Lanes
		if lanes <= 0 {
			lanes = spec.VectorLanes
		}
		coreOpts := core.Options{
			Algorithm:     opts.Algorithm,
			SkewThreshold: opts.SkewThreshold,
			TaskSize:      opts.TaskSize,
			Lanes:         lanes,
			RangeScale:    rangeScale,
			Trace:         opts.Trace,
		}
		span := opts.Trace.Span("archsim.model." + opts.Processor.String())
		res, bd, err := archsim.ModelRun(g, coreOpts, spec, archsim.RunConfig{
			Threads: threads,
			Lanes:   lanes,
			MemMode: opts.MemMode,
		})
		span()
		if err != nil {
			return nil, err
		}
		return &SimResult{Counts: res.Counts, Modeled: bd.Total, Breakdown: bd}, nil

	case ProcGPU:
		span := opts.Trace.Span("gpusim.run")
		rep, err := gpusim.Run(g, gpusim.Config{
			Algorithm:     opts.Algorithm,
			CapacityScale: capScale,
			WarpsPerBlock: opts.WarpsPerBlock,
			Passes:        opts.Passes,
			SkewThreshold: opts.SkewThreshold,
			RangeScale:    rangeScale,
			CoProcessing:  opts.CoProcessing,
			Metrics:       opts.Metrics,
			Trace:         opts.Trace,
		})
		span()
		if err != nil {
			return nil, err
		}
		return &SimResult{Counts: rep.Counts, Modeled: rep.TotalTime, GPU: rep}, nil

	default:
		return nil, fmt.Errorf("cncount: unknown processor %d", int(opts.Processor))
	}
}
