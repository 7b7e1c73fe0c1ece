// Package core implements the paper's primary contribution: the all-edge
// common neighbor counting engine, i.e. cnt[e(u,v)] = |N(u) ∩ N(v)| for
// every edge of an undirected CSR graph.
//
// It realizes Algorithms 1-3 of the paper on the host CPU:
//
//   - the baseline merge M and the combined merge MPS (Algorithm 1) with
//     the degree-skew threshold t,
//   - the dynamic-bitmap-index algorithm BMP (Algorithm 2), optionally with
//     range filtering (RF),
//   - the OpenMP-style parallel skeleton with fine-grained edge-range tasks,
//     dynamic scheduling, amortized source-vertex recovery (FindSrc), and
//     static thread-local bitmaps (Algorithm 3),
//   - the symmetric assignment cnt[e(v,u)] ← cnt[e(u,v)] that halves the
//     intersection workload.
//
// The simulated-processor executions (KNL memory modes, GPU kernels) build
// on this package from internal/archsim and internal/gpusim.
package core

import (
	"context"
	"fmt"
	"math"

	"cncount/internal/bitmap"
	"cncount/internal/intersect"
	"cncount/internal/metrics"
	"cncount/internal/sched"
	"cncount/internal/trace"
)

// Algorithm selects the counting algorithm.
type Algorithm int

const (
	// AlgoM is the baseline scalar merge without skew handling.
	AlgoM Algorithm = iota
	// AlgoMPS is the merge-based pivot-skip algorithm: merge for balanced
	// pairs, pivot-skip for degree-skewed pairs.
	AlgoMPS
	// AlgoBMP is the dynamic bitmap-index algorithm.
	AlgoBMP
	// AlgoBMPRF is BMP with the bitmap range filtering optimization.
	AlgoBMPRF
)

// String returns the paper's name for the algorithm.
func (a Algorithm) String() string {
	switch a {
	case AlgoM:
		return "M"
	case AlgoMPS:
		return "MPS"
	case AlgoBMP:
		return "BMP"
	case AlgoBMPRF:
		return "BMP-RF"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Algorithms lists all supported algorithms in presentation order.
var Algorithms = []Algorithm{AlgoM, AlgoMPS, AlgoBMP, AlgoBMPRF}

// Options configures a counting run. The zero value selects the baseline
// merge on all available cores with the paper's default tuning constants.
type Options struct {
	// Algorithm is the counting algorithm.
	Algorithm Algorithm

	// Context, when non-nil, cancels the run cooperatively: workers check
	// it at task-pop and steal boundaries, so a canceled run stops within
	// one task, joins all workers, and Count returns a *CanceledError
	// wrapping the partial result. Nil (or a never-canceled context) adds
	// no hot-path cost beyond a per-task nil check.
	Context context.Context

	// MemoryBudgetBytes, when > 0, caps the per-run index allocation of
	// the bitmap algorithms: if BMP/BMP-RF would allocate more than this
	// many bytes of thread-local bitmap state, the run downgrades to MPS
	// (recorded in Result.Downgraded and the core.bmp_downgrades metric)
	// instead of allocating unboundedly. 0 means no budget.
	MemoryBudgetBytes int64

	// Threads is the worker count; < 1 means GOMAXPROCS. Threads == 1 runs
	// the strictly sequential implementation.
	Threads int

	// TaskSize is |T|, the number of edge offsets per dynamically scheduled
	// task; <= 0 uses sched.DefaultTaskSize.
	TaskSize int

	// SkewThreshold is t, MPS's degree-skew ratio for switching from the
	// merge to pivot-skip; <= 0 uses intersect.DefaultSkewThreshold (50,
	// the paper's empirical choice). +Inf never switches; NaN is rejected.
	SkewThreshold float64

	// Lanes is the modeled VB lane width (1 = scalar merge, 8 ≈ AVX2,
	// 16 ≈ AVX-512); <= 0 uses 8. It changes only the work MPS counts
	// under CollectWork, where balanced pairs are tallied as VB blocks of
	// this width; executed MPS always merges.
	Lanes int

	// RangeScale is the RF size ratio between the big bitmap and the
	// filter; <= 0 uses bitmap.DefaultRangeScale (4096).
	RangeScale int

	// CollectWork enables the instrumented kernels, filling Result.Work
	// with the abstract operation counts archsim consumes. It slows the run
	// and is off by default.
	CollectWork bool

	// Metrics, when non-nil, receives phase timings (setup, counting,
	// reduction), per-algorithm kernel counters, and the per-worker
	// scheduler tallies with their imbalance summary. Nil disables all
	// collection at negligible cost.
	Metrics *metrics.Collector

	// Trace, when non-nil, receives execution spans: the three Count
	// phases on the main timeline row and one span per scheduled task
	// (named "core.count.<algorithm>", with its queue-wait split and a
	// ".steal" span per cross-deque steal) on each worker's row. Nil
	// disables all tracing at negligible cost.
	Trace *trace.Tracer

	// Progress, when non-nil, receives live progress from the counting
	// region: remaining edge offsets and per-worker heartbeats, the feed
	// behind the observability plane's /progress endpoint. Nil disables
	// it at negligible cost.
	Progress *sched.Progress
}

// withDefaults returns a copy of o with all unset fields defaulted.
func (o Options) withDefaults() Options {
	if o.TaskSize <= 0 {
		o.TaskSize = sched.DefaultTaskSize
	}
	if o.SkewThreshold <= 0 {
		o.SkewThreshold = intersect.DefaultSkewThreshold
	}
	if o.Lanes <= 0 {
		o.Lanes = intersect.LanesAVX2
	}
	if o.RangeScale <= 0 {
		o.RangeScale = bitmap.DefaultRangeScale
	}
	o.Threads = sched.Workers(o.Threads)
	return o
}

// validate rejects incoherent option combinations.
func (o Options) validate() error {
	switch o.Algorithm {
	case AlgoM, AlgoMPS, AlgoBMP, AlgoBMPRF:
	default:
		return fmt.Errorf("core: unknown algorithm %d", int(o.Algorithm))
	}
	if o.Lanes > 64 {
		return fmt.Errorf("core: lane width %d out of range (max 64)", o.Lanes)
	}
	if math.IsNaN(o.SkewThreshold) {
		return fmt.Errorf("core: skew threshold is NaN")
	}
	return nil
}
