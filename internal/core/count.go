package core

import (
	"errors"
	"math/bits"
	"slices"
	"time"

	"cncount/internal/bitmap"
	"cncount/internal/graph"
	"cncount/internal/intersect"
	"cncount/internal/sched"
	"cncount/internal/simd"
	"cncount/internal/stats"
)

// Result reports one counting run.
type Result struct {
	// Counts holds cnt[e] for every directed edge offset e, with
	// cnt[e(u,v)] == cnt[e(v,u)].
	Counts []uint32

	// Elapsed is the in-memory processing time, measured as in the paper:
	// from after graph load to completion of all counts.
	Elapsed time.Duration

	// Work holds the aggregated abstract operation counts when
	// Options.CollectWork was set.
	Work stats.Work

	// Threads is the resolved worker count.
	Threads int

	// Algorithm is the algorithm that actually ran, which differs from
	// Options.Algorithm when a memory-budget downgrade fired.
	Algorithm Algorithm

	// Downgraded reports that the requested bitmap algorithm was demoted
	// to MPS because its index would have exceeded
	// Options.MemoryBudgetBytes.
	Downgraded bool
}

// TriangleCount returns Σcnt/6, the exact triangle count of the graph
// (paper §2.2.2).
func (r *Result) TriangleCount() uint64 {
	var sum uint64
	for _, c := range r.Counts {
		sum += uint64(c)
	}
	return sum / 6
}

// workerCtx is the static thread-local state of one scheduler worker
// (Algorithm 3): the stashed source vertex inside SrcFinder, and for the
// bitmap algorithms the thread-local bitmap index with the last-indexed
// vertex pu.
type workerCtx struct {
	finder *graph.SrcFinder
	bm     *bitmap.Bitmap
	rf     *bitmap.RangeFiltered
	pu     int64 // last vertex whose neighbors the bitmap indexes; -1 = none
	work   stats.Work
	// kernelCalls counts intersections this worker computed (the edges
	// its rows own); tallied only when Options.Metrics is set.
	kernelCalls uint64
	// attr is the worker's per-degree-bucket attribution row; nil unless
	// Options.Metrics is set.
	attr *attrRow
	// pad prevents false sharing between adjacent worker contexts in the
	// contexts slice when workers write their work tallies.
	_ [64]byte
}

// Count computes the all-edge common neighbor counts of g.
//
// Each edge is computed from its larger-degree endpoint's row (see owns),
// so BMP has the paper's O(min(d_u,d_v)) per-intersection bound on any
// vertex order. BMP-RF's range filter still depends on the ID layout and
// wants a degree-descending graph (graph.ReorderByDegree).
func Count(g *graph.CSR, opts Options) (*Result, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()

	mc := opts.Metrics
	tr := opts.Trace

	numEdgesTotal := g.NumEdges()
	if ctx := opts.Context; ctx != nil && ctx.Err() != nil {
		// Canceled before setup: skip the count-array allocation entirely.
		return nil, &CanceledError{Err: &sched.CancelError{
			Scope:          "core.count." + opts.Algorithm.String(),
			Cause:          ctx.Err(),
			RemainingUnits: numEdgesTotal,
			TotalUnits:     numEdgesTotal,
		}}
	}

	// BMP graceful degradation: the bitmap algorithms allocate index state
	// per worker, so their footprint scales with Threads × |V|. When a
	// budget is set and would be exceeded, demote to MPS — correct on any
	// graph, no index allocation — rather than allocating unboundedly.
	downgraded := false
	if opts.MemoryBudgetBytes > 0 {
		if need := indexBytes(opts, int64(g.NumVertices())); need > opts.MemoryBudgetBytes {
			opts.Algorithm = AlgoMPS
			downgraded = true
			mc.Add("core.bmp_downgrades", 1)
		}
	}

	// Phase "core.setup" is Algorithm 3's per-thread context construction
	// (lines 1-5): SrcFinder state and the static thread-local bitmaps.
	stopSetup := mc.StartPhase("core.setup")
	stopSetupSpan := tr.Span("core.setup")
	numEdges := g.NumEdges()
	counts := make([]uint32, numEdges)
	contexts := make([]workerCtx, opts.Threads)
	numV := uint32(g.NumVertices())
	for i := range contexts {
		contexts[i].finder = graph.NewSrcFinder(g)
		contexts[i].pu = -1
		if mc.Enabled() {
			contexts[i].attr = new(attrRow)
		}
		switch opts.Algorithm {
		case AlgoBMP:
			contexts[i].bm = bitmap.New(numV)
		case AlgoBMPRF:
			contexts[i].rf = bitmap.NewRangeFiltered(numV, opts.RangeScale)
		}
	}
	stopSetupSpan()
	stopSetup()

	// Phase "core.count" is the scheduled all-edge loop (Algorithm 3
	// lines 6-27), run under the work-stealing scheduler: each worker
	// drains a contiguous slab of edge offsets (keeping its SrcFinder
	// stash and bitmap warm) and steals from the fullest victim when it
	// runs dry. The recorder captures each worker's tasks, busy,
	// queue-wait and steal tallies for the imbalance summary, and the
	// tracer one span per task (plus one per steal) on the worker's row,
	// named after the kernel path (MPS merge vs BMP bitmap probes).
	obs := sched.Obs{
		Ctx:   opts.Context,
		Rec:   mc.SchedRecorder("core.count", opts.Threads),
		Trace: tr,
		Scope: "core.count." + opts.Algorithm.String(),
		Prog:  opts.Progress,
	}
	start := time.Now()
	body := makeBody(g, counts, contexts, opts)
	stopCount := mc.StartPhase("core.count")
	stopCountSpan := tr.Span("core.count")
	schedErr := sched.Run(numEdges, opts.TaskSize, opts.Threads, obs, body)
	stopCountSpan()
	stopCount()
	elapsed := time.Since(start)
	obs.Rec.Commit()

	// Phase "core.reduce" aggregates the per-worker tallies (the work
	// reduction after the parallel region). A canceled run still reduces:
	// the partial result must carry coherent tallies for the final flush.
	stopReduce := mc.StartPhase("core.reduce")
	stopReduceSpan := tr.Span("core.reduce")
	res := &Result{
		Counts:     counts,
		Elapsed:    elapsed,
		Threads:    opts.Threads,
		Algorithm:  opts.Algorithm,
		Downgraded: downgraded,
	}
	if opts.CollectWork {
		for i := range contexts {
			res.Work.Add(contexts[i].work)
		}
	}
	if mc.Enabled() {
		var kernels uint64
		for i := range contexts {
			kernels += contexts[i].kernelCalls
		}
		mc.Add("core.edges_scanned", uint64(numEdges))
		mc.Add("core.kernel_calls_"+opts.Algorithm.String(), kernels)
		mc.Add("core.symmetric_assignments", kernels)
		mc.RecordKernelAttr(foldAttribution(opts.Algorithm, contexts))
	}
	stopReduceSpan()
	stopReduce()
	if schedErr != nil {
		var ce *sched.CancelError
		if errors.As(schedErr, &ce) {
			return nil, &CanceledError{Partial: res, Err: ce}
		}
		return nil, schedErr
	}
	return res, nil
}

// indexBytes returns the thread-local index footprint of the bitmap
// algorithms for n vertices under the resolved options: BMP allocates one
// |V|-bit bitmap per worker; BMP-RF adds the range-filter bitmap and its
// uint16 per-range counters. The merge algorithms allocate no index.
func indexBytes(o Options, n int64) int64 {
	words := func(bits int64) int64 { return (bits + 63) / 64 }
	switch o.Algorithm {
	case AlgoBMP:
		return int64(o.Threads) * words(n) * 8
	case AlgoBMPRF:
		ranges := (n + int64(o.RangeScale) - 1) / int64(o.RangeScale)
		perWorker := words(n)*8 + words(ranges)*8 + ranges*2
		return int64(o.Threads) * perWorker
	default:
		return 0
	}
}

// makeBody builds the per-chunk edge loop of Algorithm 3 for the selected
// algorithm: recover the source vertex u of each edge offset, compute the
// count when u's row owns the edge (see owns), and symmetrically assign it
// to the reverse offset.
//
// With Options.Metrics set the loop additionally attributes every kernel
// call to its min-degree bucket and samples its wall time once per
// attrSampleEvery bucket hits; the unmetered loop is returned as a
// separate closure so the disabled path keeps the uninstrumented body.
func makeBody(g *graph.CSR, counts []uint32, contexts []workerCtx, opts Options) func(int, int64, int64) {
	kernel := makeKernel(g, contexts, opts)
	collect := opts.CollectWork
	if !opts.Metrics.Enabled() {
		return func(worker int, lo, hi int64) {
			ctx := &contexts[worker]
			for e := lo; e < hi; e++ {
				u, v := ctx.finder.Find(e), g.Dst[e]
				vLo, vHi := g.Off[v], g.Off[v+1]
				if !owns(g.Degree(u), vHi-vLo, u, v) {
					continue
				}
				nv := g.Dst[vLo:vHi]
				if collect {
					// The symmetric assignment writes two count-array entries —
					// the reverse one at an uncorrelated offset — and performs
					// a reverse-offset binary search; both are part of the cost
					// the paper measures.
					ctx.work.BytesStreamed += 8
					ctx.work.RandomAccesses++
					ctx.work.BinarySteps += log2(vHi - vLo)
				}
				c := kernel(ctx, u, nv)
				counts[e] = c
				if i, ok := slices.BinarySearch(nv, u); ok {
					counts[vLo+int64(i)] = c
				}
			}
		}
	}
	// Metered body: same loop plus attribution. owns puts the smaller
	// degree on v, so d_v's bit length is the min-degree bucket.
	return func(worker int, lo, hi int64) {
		ctx := &contexts[worker]
		attr := ctx.attr
		for e := lo; e < hi; e++ {
			u, v := ctx.finder.Find(e), g.Dst[e]
			vLo, vHi := g.Off[v], g.Off[v+1]
			if !owns(g.Degree(u), vHi-vLo, u, v) {
				continue
			}
			nv := g.Dst[vLo:vHi]
			ctx.kernelCalls++
			if collect {
				ctx.work.BytesStreamed += 8
				ctx.work.RandomAccesses++
				ctx.work.BinarySteps += log2(vHi - vLo)
			}
			cell := &attr[bits.Len64(uint64(vHi-vLo))]
			cell.count++
			var c uint32
			if cell.count&(attrSampleEvery-1) == 1 {
				start := time.Now()
				c = kernel(ctx, u, nv)
				cell.sampledNanos += uint64(time.Since(start))
				cell.samples++
			} else {
				c = kernel(ctx, u, nv)
			}
			counts[e] = c
			if i, ok := slices.BinarySearch(nv, u); ok {
				counts[vLo+int64(i)] = c
			}
		}
	}
}

// owns is the edge loop's orientation rule: edge (u,v) is computed from
// u's row when d_u > d_v, or d_u == d_v and u < v. Each undirected edge
// is computed once, and BMP's bitmap indexes the larger row, so every
// intersection probes min(d_u, d_v) elements on any vertex order. On a
// degree-descending graph (graph.ReorderByDegree) the owned edges are
// exactly those with u < v.
func owns(du, dv int64, u, v uint32) bool {
	return du > dv || du == dv && u < v
}

// makeKernel returns the per-edge ComputeCnt procedure for the algorithm.
func makeKernel(g *graph.CSR, contexts []workerCtx, opts Options) func(*workerCtx, uint32, []uint32) uint32 {
	switch opts.Algorithm {
	case AlgoM:
		if opts.CollectWork {
			return func(ctx *workerCtx, u uint32, nv []uint32) uint32 {
				return intersect.MergeStats(g.Neighbors(u), nv, &ctx.work)
			}
		}
		return func(_ *workerCtx, u uint32, nv []uint32) uint32 {
			return intersect.Merge(g.Neighbors(u), nv)
		}

	case AlgoMPS:
		t, lanes := opts.SkewThreshold, opts.Lanes
		if opts.CollectWork {
			return func(ctx *workerCtx, u uint32, nv []uint32) uint32 {
				return intersect.MPSStats(g.Neighbors(u), nv, t, lanes, &ctx.work)
			}
		}
		return func(_ *workerCtx, u uint32, nv []uint32) uint32 {
			return intersect.MPS(g.Neighbors(u), nv, t)
		}

	case AlgoBMP:
		if opts.CollectWork {
			return func(ctx *workerCtx, u uint32, nv []uint32) uint32 {
				refreshBitmap(g, ctx, u, true)
				return intersect.BitmapStats(ctx.bm, nv, &ctx.work)
			}
		}
		// Consecutive edges mostly share their source, so the warm-source
		// test runs inline and the refresh call is paid only when the
		// source changes. The scalar probe inlines here too: testing the
		// flag first spares hosts without AVX-512 a call per edge.
		return func(ctx *workerCtx, u uint32, nv []uint32) uint32 {
			if ctx.pu != int64(u) {
				refreshBitmap(g, ctx, u, false)
			}
			if simd.AVX512 {
				return intersect.Bitmap(ctx.bm, nv)
			}
			return ctx.bm.CountSet(nv)
		}

	case AlgoBMPRF:
		if opts.CollectWork {
			return func(ctx *workerCtx, u uint32, nv []uint32) uint32 {
				refreshRF(g, ctx, u, true)
				return intersect.BitmapRFStats(ctx.rf, nv, &ctx.work)
			}
		}
		return func(ctx *workerCtx, u uint32, nv []uint32) uint32 {
			refreshRF(g, ctx, u, false)
			return intersect.BitmapRF(ctx.rf, nv)
		}
	}
	panic("core: unreachable: options validated")
}

// refreshBitmap implements ComputeCntBMP's thread-local index maintenance
// (Algorithm 3 lines 19-24): when the processed source vertex changes,
// flip-clear the previous N(pu) bits and set the N(u) bits.
func refreshBitmap(g *graph.CSR, ctx *workerCtx, u uint32, collect bool) {
	if ctx.pu == int64(u) {
		return
	}
	if ctx.pu >= 0 {
		prev := g.Neighbors(uint32(ctx.pu))
		ctx.bm.ClearList(prev)
		if collect {
			ctx.work.BitmapClears += uint64(len(prev))
			ctx.work.RandomAccesses += uint64(len(prev))
		}
	}
	nu := g.Neighbors(u)
	ctx.bm.SetList(nu)
	if collect {
		// Construction and clearing stream N(u) once but scatter single-bit
		// writes across the whole bitmap: random accesses the range filter
		// cannot avoid.
		ctx.work.BitmapSets += uint64(len(nu))
		ctx.work.RandomAccesses += uint64(len(nu))
		ctx.work.BytesStreamed += uint64(len(nu)) * 4
	}
	ctx.pu = int64(u)
}

// refreshRF is refreshBitmap for the range-filtered index.
func refreshRF(g *graph.CSR, ctx *workerCtx, u uint32, collect bool) {
	if ctx.pu == int64(u) {
		return
	}
	if ctx.pu >= 0 {
		prev := g.Neighbors(uint32(ctx.pu))
		ctx.rf.ClearList(prev)
		if collect {
			// Each range-filtered clear touches the bitmap word AND the
			// per-range counter: twice the random traffic of a plain
			// bitmap. Filter maintenance is the price of filtering, which
			// is why RF's gain saturates (paper Fig 6).
			ctx.work.BitmapClears += uint64(len(prev))
			ctx.work.RandomAccesses += 2 * uint64(len(prev))
		}
	}
	nu := g.Neighbors(u)
	ctx.rf.SetList(nu)
	if collect {
		ctx.work.BitmapSets += uint64(len(nu))
		ctx.work.RandomAccesses += 2 * uint64(len(nu))
		ctx.work.BytesStreamed += uint64(len(nu)) * 4
	}
	ctx.pu = int64(u)
}

// log2 returns ⌊log2(d)⌋ for d ≥ 1, the binary search step count.
func log2(d int64) uint64 { return uint64(bits.Len64(uint64(d)) - 1) }
