package archsim

import (
	"fmt"
	"time"

	"cncount/internal/stats"
)

// Per-operation compute costs in cycles. These are the only calibrated
// constants in the model; everything else comes from the Spec sheet and the
// measured work counts.
const (
	cyclesCompare    = 5.0 // branchy scalar merge comparison (~50% mispredicts)
	cyclesSearchStep = 3.0 // one galloping or binary-search step
	cyclesBitmapOp   = 2.0 // bitmap set/clear/test (shift+mask+load)
	cyclesFilterTest = 5.0 // small-filter probe: L1 load plus range index
	//                        arithmetic and a poorly predicted skip branch
	cyclesLinear    = 1.0 // per element of the vectorized linear window
	blockCycleBase  = 8.0 // fixed cost of one all-pair vector block...
	blockCyclePerLn = 1.6 // ...plus this per lane (shuffle depth)
)

// RunConfig describes the execution whose time is being modeled.
type RunConfig struct {
	// Threads is the software thread count (1 for the sequential runs of
	// Figures 3-4).
	Threads int

	// Lanes is the vector lane width the VB work was counted at. It must
	// match the Lanes option given to core.Count so that VectorBlocks are
	// charged consistently. <= 1 means scalar.
	Lanes int

	// MemMode selects the KNL MCDRAM mode; ignored by specs without HBM.
	MemMode MemoryMode

	// RandomWorkingSetBytes is the total size of the randomly accessed
	// structures across all threads (thread-local bitmaps for BMP, the far
	// ends of gallop targets for MPS). It decides whether latency-bound
	// accesses hit the last-level cache or memory.
	RandomWorkingSetBytes int64
}

// Breakdown is the modeled time of one run, split by bottleneck. Total is
// max(Compute, Bandwidth) + Latency: compute and streaming overlap fully on
// all three processors, while latency-bound stalls (pointer-chase-like
// bitmap probes beyond the MLP window) serialize against both.
type Breakdown struct {
	Compute   time.Duration
	Bandwidth time.Duration
	Latency   time.Duration
	Total     time.Duration
}

func (b Breakdown) String() string {
	return fmt.Sprintf("total=%v (compute=%v bandwidth=%v latency=%v)",
		b.Total, b.Compute, b.Bandwidth, b.Latency)
}

// Estimate converts measured work into modeled elapsed time on spec.
func Estimate(w stats.Work, spec Spec, cfg RunConfig) Breakdown {
	threads := cfg.Threads
	if threads < 1 {
		threads = 1
	}
	lanes := cfg.Lanes
	if lanes < 1 {
		lanes = 1
	}

	// --- Compute term: scalar and vector cycles charged through the
	// spec's respective pipeline throughputs, divided by the delivered
	// core-equivalents.
	scalarCycles := float64(w.Comparisons) * cyclesCompare
	scalarCycles += float64(w.GallopSteps+w.BinarySteps) * cyclesSearchStep
	scalarCycles += float64(w.BitmapSets+w.BitmapClears+w.BitmapTests) * cyclesBitmapOp
	scalarCycles += float64(w.FilterTests) * cyclesFilterTest
	// Sub-block tails run under a vector mask at roughly half the branchy
	// merge cost.
	scalarCycles += float64(w.TailComparisons) * cyclesCompare / 2

	vectorCycles := float64(w.VectorBlocks) * (blockCycleBase + blockCyclePerLn*float64(lanes))
	// The pivot-skip lower bound's linear window is always implemented with
	// the vectorized linear search (§3.1); it is intrinsic to PS, not part
	// of the VB lane-width choice, so it is charged at the spec's full
	// vector width regardless of cfg.Lanes.
	vectorCycles += float64(w.LinearProbes) * cyclesLinear / float64(spec.VectorLanes)

	eff := spec.EffectiveParallelism(threads)
	cycles := scalarCycles/spec.IPC + vectorCycles/spec.VecIPC
	computeSec := cycles / (spec.FreqGHz * 1e9 * eff)

	// --- Bandwidth term: streamed bytes, plus a discounted cache line per
	// random access that misses the last-level cache (misses consume
	// channel bandwidth too — this is what makes thread-local bitmaps
	// beyond the cache capacity degrade scaling, the paper's KNL-BMP
	// observation). The discount models short-term line reuse: hot bitmap
	// lines refetched by one probe often serve neighbors of the next.
	const lineReuse = 0.4
	lat, missRate := blendedLatencyNs(spec, cfg)
	missBytes := float64(w.RandomAccesses) * 64 * missRate * lineReuse
	bwSec := (float64(w.BytesStreamed) + missBytes) / spec.Bandwidth(cfg.MemMode, threads)

	// --- Latency term: random accesses pay the blended latency of the
	// level their working set fits in; MLP and thread count overlap them.
	maxThreads := spec.Cores * spec.SMTWays
	overlap := float64(min(threads, maxThreads)) * spec.MLP
	latSec := float64(w.RandomAccesses) * lat * 1e-9 / overlap

	total := computeSec
	if bwSec > total {
		total = bwSec
	}
	total += latSec
	return Breakdown{
		Compute:   secToDur(computeSec),
		Bandwidth: secToDur(bwSec),
		Latency:   secToDur(latSec),
		Total:     secToDur(total),
	}
}

// blendedLatencyNs returns the average latency of one random access given
// how much of the working set fits in the last-level cache, along with the
// cache miss rate. A working set of zero means cache-resident.
func blendedLatencyNs(spec Spec, cfg RunConfig) (latNs, missRate float64) {
	memLat := spec.MemLatencyNs(cfg.MemMode)
	ws := cfg.RandomWorkingSetBytes
	if ws <= 0 {
		return spec.CacheLatencyNs, 0
	}
	fit := float64(spec.CacheBytes) / float64(ws)
	if fit > 1 {
		fit = 1
	}
	return fit*spec.CacheLatencyNs + (1-fit)*memLat, 1 - fit
}

func secToDur(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}
