package gpusim

import (
	"fmt"
	"sync/atomic"
	"time"

	"cncount/internal/archsim"
	"cncount/internal/bitmap"
	"cncount/internal/core"
	"cncount/internal/graph"
	"cncount/internal/intersect"
	"cncount/internal/sched"
	"cncount/internal/stats"
)

// Report is the outcome of one simulated GPU run.
type Report struct {
	// Counts holds cnt[e] for every directed edge offset, identical to the
	// host algorithms' output (the simulation is functionally exact).
	Counts []uint32

	// KernelTime is the modeled GPU time of the counting kernels across
	// all passes, excluding page migration.
	KernelTime time.Duration

	// SwapTime is the modeled unified-memory page migration time.
	SwapTime time.Duration

	// TotalTime is KernelTime + SwapTime + the non-overlapped host
	// post-processing time.
	TotalTime time.Duration

	// PostTime is the modeled CPU time of the symmetric-assignment
	// post-processing (the quantity of Table 5), charged on the paper's
	// CPU spec. With co-processing only the final re-mapping pass remains;
	// without it the reverse offsets are binary-searched after the kernels.
	PostTime time.Duration

	// AssignTime is the modeled CPU time of the co-processing offset
	// assignment; it overlaps the GPU kernels and is excluded from
	// TotalTime (reported for Table 5's analysis).
	AssignTime time.Duration

	// Passes, PageFaults, Thrashed describe the multi-pass behaviour.
	Passes     int
	PageFaults int64
	Thrashed   bool

	// KernelBreakdown reports each kernel's share of the modeled work —
	// the merge kernel (warp-wise block merge), the pivot-skip kernel
	// (divergent thread-per-edge), and the bitmap kernel — matching the
	// paper's analysis that "the pivot-skip merge kernel for MPS on the
	// GPU is inefficient due to irregular memory gathering".
	KernelBreakdown KernelBreakdown

	// Plan is the Table 6 memory breakdown used.
	Plan MemoryPlan

	// Occupancy is the SM thread occupancy of the block-size configuration.
	Occupancy float64
}

// KernelBreakdown splits the modeled kernel work by kernel type.
type KernelBreakdown struct {
	// MergeEdges, PSEdges and BitmapEdges count the edges each kernel
	// processed.
	MergeEdges  uint64
	PSEdges     uint64
	BitmapEdges uint64
	// MergeBytes, PSBytes and BitmapBytes are each kernel's global-memory
	// traffic.
	MergeBytes  uint64
	PSBytes     uint64
	BitmapBytes uint64
}

// gpuWork tallies modeled GPU work. All counters are integers so parallel
// accumulation is deterministic.
type gpuWork struct {
	warpInstr      uint64 // coherent warp instructions issued
	divergentOps   uint64 // scalar ops in divergent thread-per-edge kernels
	globalBytes    uint64 // global-memory traffic of the kernels
	atomicOps      uint64 // bitmap-pool acquisition and construction atomics
	edgesProcessed uint64
	kernels        KernelBreakdown
	_              [64]byte // avoid false sharing between worker slots
}

func (w *gpuWork) add(o *gpuWork) {
	w.warpInstr += o.warpInstr
	w.divergentOps += o.divergentOps
	w.globalBytes += o.globalBytes
	w.atomicOps += o.atomicOps
	w.edgesProcessed += o.edgesProcessed
	w.kernels.MergeEdges += o.kernels.MergeEdges
	w.kernels.PSEdges += o.kernels.PSEdges
	w.kernels.BitmapEdges += o.kernels.BitmapEdges
	w.kernels.MergeBytes += o.kernels.MergeBytes
	w.kernels.PSBytes += o.kernels.PSBytes
	w.kernels.BitmapBytes += o.kernels.BitmapBytes
}

// Run executes the configured algorithm on the simulated GPU.
func Run(g *graph.CSR, cfg Config) (*Report, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if cfg.RangeScale <= 0 {
		cfg.RangeScale = 64
	}
	plan := PlanPasses(g, cfg)
	passes := cfg.Passes
	if passes == 0 {
		passes = plan.Passes
	}
	n := g.NumVertices()
	if passes > n && n > 0 {
		passes = n
	}
	numEdges := g.NumEdges()
	counts := make([]uint32, numEdges)
	rep := &Report{Passes: passes, Plan: plan, Occupancy: cfg.Occupancy()}

	// GPU counting kernels, one pass per destination-vertex range. Each
	// edge is computed once, from the row that owns it (core.Owns).
	work := runKernels(g, counts, cfg, passes)

	// Post-processing on the CPU (Table 5): the symmetric assignment.
	// Co-processing changes only when the reverse offsets are found, so
	// the counts come from one mirror pass either way and the model
	// charges the two schedules.
	mirrorCounts(g, counts)
	rep.AssignTime, rep.PostTime = modelPostTimes(g, cfg)

	rep.Counts = counts
	rep.KernelBreakdown = work.kernels
	modelTimes(rep, &work, cfg, g, passes)
	return rep, nil
}

// modelPostTimes charges the CPU-side phases on the paper's CPU spec at
// its full thread count, one reverse-offset lookup per edge the kernels
// did not compute: the binary-search pass (the co-processing assignment,
// or the whole post phase when co-processing is off) and the cheap final
// remap pass cnt[e] = cnt[cnt[e]].
func modelPostTimes(g *graph.CSR, cfg Config) (assign, post time.Duration) {
	var search, remap stats.Work
	n := uint32(g.NumVertices())
	for u := uint32(0); u < n; u++ {
		du := g.Degree(u)
		for e := g.Off[u]; e < g.Off[u+1]; e++ {
			v := g.Dst[e]
			if d := g.Degree(v); !core.Owns(du, d, u, v) {
				var steps uint64
				for ; d > 1; d >>= 1 {
					steps++
				}
				search.BinarySteps += steps
				search.RandomAccesses += 1 + steps/2
				search.BytesStreamed += 8
				remap.RandomAccesses++
				remap.BytesStreamed += 8
			}
		}
	}
	cpu := archsim.CPU.ScaledCapacity(cfg.CapacityScale)
	rc := archsim.RunConfig{
		Threads: cpu.Cores * cpu.SMTWays,
		// The searched adjacency lists and the randomly written count array
		// span the CSR.
		RandomWorkingSetBytes: g.MemoryBytes(),
	}
	searchTime := archsim.Estimate(search, cpu, rc).Total
	remapTime := archsim.Estimate(remap, cpu, rc).Total
	if cfg.CoProcessing {
		return searchTime, remapTime
	}
	return 0, searchTime + remapTime
}

// mirrorCounts is the symmetric assignment: every edge the kernels did
// not compute takes the count of its reverse edge, cnt[e(u,v)] =
// cnt[e(v,u)], in parallel on the host.
func mirrorCounts(g *graph.CSR, counts []uint32) {
	sched.Run(int64(g.NumVertices()), sched.DefaultTaskSize, sched.Workers(0), sched.Obs{}, func(_ int, lo, hi int64) {
		for ui := lo; ui < hi; ui++ {
			u := uint32(ui)
			du := g.Degree(u)
			for e := g.Off[u]; e < g.Off[u+1]; e++ {
				v := g.Dst[e]
				if core.Owns(du, g.Degree(v), u, v) {
					continue
				}
				if rev, ok := g.EdgeOffset(v, u); ok {
					counts[e] = counts[rev]
				}
			}
		}
	})
}

// runKernels executes the counting for every pass, tallying modeled work.
// Thread blocks (one per source vertex) are distributed over host workers;
// each worker owns one simulated bitmap, standing in for the bitmap its
// resident thread block acquires from the pool.
func runKernels(g *graph.CSR, counts []uint32, cfg Config, passes int) gpuWork {
	hostThreads := sched.Workers(0)
	n := g.NumVertices()
	numV := uint32(n)
	t := cfg.SkewThreshold
	isBMP := cfg.Algorithm == core.AlgoBMP || cfg.Algorithm == core.AlgoBMPRF
	useRF := cfg.Algorithm == core.AlgoBMPRF

	workers := make([]gpuWork, hostThreads)
	bitmaps := make([]*bitmap.Bitmap, hostThreads)
	filters := make([]*bitmap.RangeFiltered, hostThreads)
	// Bitmap-pool acquisition contention counter (the atomicCAS loop of
	// Algorithm 6 lines 22-26).
	var poolCAS atomic.Int64

	// One recorder spans all passes: the per-worker tallies (and steal
	// counts) accumulate across them into a single "gpusim.kernel"
	// snapshot.
	rec := cfg.Metrics.SchedRecorder("gpusim.kernel", hostThreads)
	obs := sched.Obs{Rec: rec, Trace: cfg.Trace, Scope: "gpusim.kernel"}
	for p := 0; p < passes; p++ {
		vLo := uint32(int64(p) * int64(n) / int64(passes))
		vHi := uint32(int64(p+1) * int64(n) / int64(passes))
		sched.Run(int64(n), 64, hostThreads, obs, func(worker int, lo, hi int64) {
			w := &workers[worker]
			for ui := lo; ui < hi; ui++ {
				u := uint32(ui)
				nu := g.Neighbors(u)
				if len(nu) == 0 {
					continue
				}
				blockWork(g, u, nu, vLo, vHi, counts, cfg, w,
					t, isBMP, useRF, numV, worker, bitmaps, filters, &poolCAS)
			}
		})
	}

	rec.Commit()

	var total gpuWork
	for i := range workers {
		total.add(&workers[i])
	}
	total.atomicOps += uint64(poolCAS.Load())
	return total
}

// blockWork simulates one thread block's processing of vertex u within the
// pass's destination range [vLo, vHi).
func blockWork(g *graph.CSR, u uint32, nu []uint32, vLo, vHi uint32,
	counts []uint32, cfg Config, w *gpuWork, t float64,
	isBMP, useRF bool, numV uint32, worker int,
	bitmaps []*bitmap.Bitmap, filters []*bitmap.RangeFiltered, poolCAS *atomic.Int64) {

	du := int64(len(nu))
	built := false
	for i := g.Off[u]; i < g.Off[u+1]; i++ {
		v := g.Dst[i]
		if !core.Owns(du, g.Degree(v), u, v) || v < vLo || v >= vHi {
			continue
		}
		nv := g.Neighbors(v)
		var c uint32
		switch {
		case isBMP:
			if !built {
				// Acquire a bitmap from the pool and construct the N(u)
				// index with warp-parallel atomic-or (Algorithm 6 lines
				// 6-9). One simulated bitmap per host worker stands in for
				// the pool slot.
				poolCAS.Add(1)
				if useRF {
					if filters[worker] == nil {
						filters[worker] = bitmap.NewRangeFiltered(numV, cfg.RangeScale)
					}
					filters[worker].SetList(nu)
				} else {
					if bitmaps[worker] == nil {
						bitmaps[worker] = bitmap.New(numV)
					}
					bitmaps[worker].SetList(nu)
				}
				built = true
				w.atomicOps += uint64(len(nu))
				w.warpInstr += warpIters(len(nu)) * 3
				w.globalBytes += uint64(len(nu)) * 36 // N(u) load + scattered atomic-or
			}
			if useRF {
				// Probes answered by the shared-memory filter cost no
				// global traffic; survivors load a 32B sector each.
				var rf stats.Work
				c = intersect.BitmapRFStats(filters[worker], nv, &rf)
				w.warpInstr += warpIters(len(nv))*3 + 5
				bytes := uint64(len(nv))*4 + (rf.FilterTests-rf.FilterSkips)*32
				w.globalBytes += bytes
				w.kernels.BitmapEdges++
				w.kernels.BitmapBytes += bytes
			} else {
				c = intersect.Bitmap(bitmaps[worker], nv)
				w.warpInstr += warpIters(len(nv))*3 + 5
				bytes := uint64(len(nv))*4 + uint64(len(nv))*32
				w.globalBytes += bytes
				w.kernels.BitmapEdges++
				w.kernels.BitmapBytes += bytes
			}

		case cfg.Algorithm == core.AlgoMPS && intersect.Skewed(len(nu), len(nv), t):
			// PSKernel: one thread per edge; the irregular searches
			// diverge, so each executed lower-bound stage and comparison
			// is charged on the divergent path, and each random access
			// gathers a 32B sector.
			var ps stats.Work
			c = intersect.PivotSkipStats(nu, nv, &ps)
			w.divergentOps += ps.ScalarOps()
			bytes := uint64(len(nv))*4 + ps.RandomAccesses*32
			w.globalBytes += bytes
			w.kernels.PSEdges++
			w.kernels.PSBytes += bytes

		default:
			// MKernel: warp-wise block merge (the warp handles one edge,
			// loading 32-element tiles into shared memory). The count comes
			// from the scalar merge; the warp tiles are charged from the
			// list lengths.
			c = intersect.Merge(nu, nv)
			steps := warpIters(len(nu)) + warpIters(len(nv))
			w.warpInstr += steps*36 + 5 // all-pair tile compare + reduction
			bytes := uint64(len(nu)+len(nv)) * 4
			w.globalBytes += bytes
			w.kernels.MergeEdges++
			w.kernels.MergeBytes += bytes
		}
		counts[i] = c
		w.globalBytes += 4 // count write
		w.edgesProcessed++
	}
	if built {
		// Clear and release the bitmap (Algorithm 6 line 21).
		if useRF {
			filters[worker].ClearList(nu)
		} else {
			bitmaps[worker].ClearList(nu)
		}
		w.atomicOps += uint64(len(nu))
		w.warpInstr += warpIters(len(nu)) * 3
		w.globalBytes += uint64(len(nu)) * 32
	}
}

// warpIters returns how many warp-wide iterations cover k elements.
func warpIters(k int) uint64 {
	return uint64((k + WarpSize - 1) / WarpSize)
}

// modelTimes converts the tallied work into modeled kernel, swap and total
// times.
func modelTimes(rep *Report, w *gpuWork, cfg Config, g *graph.CSR, passes int) {
	spec := archsim.GPU

	// Compute: coherent warp instructions issue at spec.IPC per SM-cycle,
	// derated by occupancy-driven latency hiding; divergent thread ops
	// issue one lane at a time (warp-serialized).
	occ := cfg.Occupancy()
	// Latency hiding grows with resident warps and saturates; it derates
	// both issue throughput and achievable memory bandwidth (too few
	// resident warps cannot keep the GDDR channel busy) — the mechanism of
	// the paper's block-size tuning (Figure 9).
	hiding := occ / (occ + 0.35) * (1 + 0.35)
	issue := float64(spec.Cores) * spec.IPC * spec.FreqGHz * 1e9 * hiding
	divergencePenalty := 4.0
	instr := float64(w.warpInstr) + float64(w.atomicOps)*2 +
		float64(w.divergentOps)*divergencePenalty/WarpSize*8
	computeSec := instr / issue

	// Bandwidth: kernel traffic plus the per-pass rescan of the CSR (every
	// pass iterates all edges to test the destination range), over the
	// occupancy-derated GDDR bandwidth.
	scanBytes := float64(rep.Plan.CSRBytes) * float64(passes)
	bwSec := (float64(w.globalBytes) + scanBytes) / (spec.DDRBandwidth * 1e9 * 0.8 * hiding)

	kernelSec := computeSec
	if bwSec > kernelSec {
		kernelSec = bwSec
	}
	rep.KernelTime = time.Duration(kernelSec * float64(time.Second))

	// Unified-memory paging (§4.2.2): each pass streams the offset and
	// destination arrays once (cold/streaming faults) and holds the pass's
	// destination rows plus the count slice as its hot set. If the hot set
	// exceeds what global memory has left after the bitmap pool and the
	// reservation, on-demand migration thrashes: a fraction of every
	// destination-list access faults.
	avail := rep.Plan.GlobalBytes - rep.Plan.BitmapBytes - rep.Plan.ReservedBytes
	csr := float64(rep.Plan.CSRBytes)
	cnt := float64(rep.Plan.CountBytes)

	// Sequential migration: when everything fits it is moved in once;
	// otherwise every pass re-streams the CSR and its count slice over
	// PCIe. Prefetched sequential streams move at bulk bandwidth.
	var streamBytes float64
	if csr+cnt <= float64(avail) {
		streamBytes = csr + cnt
	} else {
		streamBytes = (csr + cnt/float64(passes)) * float64(passes)
	}
	swapSec := streamBytes / pcieBandwidth

	// The pass's hot set is its destination-vertex rows, which are accessed
	// repeatedly (once per incoming edge) and must stay resident; the
	// sequentially streamed arrays are covered by Mem_reserved, matching
	// the paper's pass-estimation formula. An overflowing hot set thrashes:
	// a fraction of every destination-list access takes an on-demand fault.
	var faults float64
	hot := csr / float64(passes)
	if avail <= 0 {
		rep.Thrashed = true
		faults = float64(w.edgesProcessed)
	} else if hot > float64(avail) {
		rep.Thrashed = true
		missFrac := 1 - float64(avail)/hot
		faults = float64(w.edgesProcessed) * missFrac
	}
	swapSec += faults * pageFaultLatencySec
	rep.PageFaults = int64(streamBytes/PageBytes + faults)
	rep.SwapTime = time.Duration(swapSec * float64(time.Second))

	rep.TotalTime = rep.KernelTime + rep.SwapTime + rep.PostTime
}

// String summarizes a report.
func (r *Report) String() string {
	return fmt.Sprintf("total=%v (kernel=%v swap=%v post=%v passes=%d faults=%d occ=%.0f%% thrash=%v)",
		r.TotalTime, r.KernelTime, r.SwapTime, r.PostTime,
		r.Passes, r.PageFaults, 100*r.Occupancy, r.Thrashed)
}
