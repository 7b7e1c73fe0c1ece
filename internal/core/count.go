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
// Each edge is computed from its larger-degree endpoint's row (see Owns),
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
// algorithm. FindSrc runs once per task, for the task's first offset;
// from there the loop walks the rows, stepping u at each row end past any
// empty rows, so d_u is read once per row. At a row's first owned edge
// (see Owns) the loop calls the kernel's enter, the bitmap algorithms'
// warm-source check, so a row that owns no edge indexes nothing. Each
// owned edge is computed by the kernel's edge, and the count is assigned
// symmetrically to the reverse offset at u's rank in N(v), once that
// entry is checked to be u.
//
// With Options.Metrics set the loop additionally attributes every kernel
// call to its min-degree bucket and samples its wall time once per
// attrSampleEvery bucket hits; the unmetered loop is returned as a
// separate closure so the disabled path keeps the uninstrumented body.
func makeBody(g *graph.CSR, counts []uint32, contexts []workerCtx, opts Options) func(int, int64, int64) {
	enter, kernel := makeKernel(g, opts)
	collect := opts.CollectWork
	if !opts.Metrics.Enabled() {
		return func(worker int, lo, hi int64) {
			ctx := &contexts[worker]
			u := ctx.finder.Find(lo)
			du, rowEnd := g.Degree(u), g.Off[u+1]
			cold := enter != nil // u's row has not called enter yet
			for e := lo; e < hi; e++ {
				if e == rowEnd {
					u, du, rowEnd = nextRow(g, u, e)
					cold = enter != nil
				}
				v := g.Dst[e]
				vLo, vHi := g.Off[v], g.Off[v+1]
				if !Owns(du, vHi-vLo, u, v) {
					continue
				}
				if cold {
					enter(ctx, u)
					cold = false
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
				c, rank := kernel(ctx, u, nv)
				counts[e] = c
				if r := vLo + int64(rank); r < vHi && g.Dst[r] == u {
					counts[r] = c
				}
			}
		}
	}
	// Metered body: same loop plus attribution. Owns puts the smaller
	// degree on v, so d_v's bit length is the min-degree bucket.
	return func(worker int, lo, hi int64) {
		ctx := &contexts[worker]
		attr := ctx.attr
		u := ctx.finder.Find(lo)
		du, rowEnd := g.Degree(u), g.Off[u+1]
		cold := enter != nil
		for e := lo; e < hi; e++ {
			if e == rowEnd {
				u, du, rowEnd = nextRow(g, u, e)
				cold = enter != nil
			}
			v := g.Dst[e]
			vLo, vHi := g.Off[v], g.Off[v+1]
			if !Owns(du, vHi-vLo, u, v) {
				continue
			}
			if cold {
				enter(ctx, u)
				cold = false
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
			var rank int
			if cell.count&(attrSampleEvery-1) == 1 {
				start := time.Now()
				c, rank = kernel(ctx, u, nv)
				cell.sampledNanos += uint64(time.Since(start))
				cell.samples++
			} else {
				c, rank = kernel(ctx, u, nv)
			}
			counts[e] = c
			if r := vLo + int64(rank); r < vHi && g.Dst[r] == u {
				counts[r] = c
			}
		}
	}
}

// nextRow returns the row that starts at offset e, the end of u's row:
// the first vertex past u whose row is non-empty, with its degree and
// end offset. e must be below the graph's edge count.
func nextRow(g *graph.CSR, u uint32, e int64) (next uint32, degree, end int64) {
	for u++; g.Off[u+1] == e; u++ {
	}
	return u, g.Off[u+1] - e, g.Off[u+1]
}

// Owns is the orientation rule of every edge loop, core's and gpusim's:
// edge (u,v) is computed from u's row when d_u > d_v, or d_u == d_v and
// u < v. Each undirected edge is computed once, and BMP's bitmap indexes
// the larger row, so every intersection probes min(d_u, d_v) elements on
// any vertex order. On a degree-descending graph (graph.ReorderByDegree)
// the owned edges are exactly those with u < v.
func Owns(du, dv int64, u, v uint32) bool {
	return du > dv || du == dv && u < v
}

// rankOf is u's index in the sorted row nv, found by binary search: the
// reverse offset of every kernel but BMP's AVX-512 probe, which counts
// it while it probes.
func rankOf(nv []uint32, u uint32) int {
	i, _ := slices.BinarySearch(nv, u)
	return i
}

// makeKernel returns the algorithm's ComputeCnt split where the edge loop
// calls it. enter readies the worker context for source u, once per row
// at the row's first owned edge: for the bitmap algorithms it is the
// warm-source check, which refreshes the index only when u differs from
// the vertex it holds; the merge algorithms keep no per-source state and
// return a nil enter. edge returns |N(u) ∩ N(v)| and u's rank in N(v),
// where the edge loop writes the reverse count.
func makeKernel(g *graph.CSR, opts Options) (enter func(*workerCtx, uint32), edge func(*workerCtx, uint32, []uint32) (uint32, int)) {
	collect := opts.CollectWork
	switch opts.Algorithm {
	case AlgoM:
		if collect {
			return nil, func(ctx *workerCtx, u uint32, nv []uint32) (uint32, int) {
				return intersect.MergeStats(g.Neighbors(u), nv, &ctx.work), rankOf(nv, u)
			}
		}
		return nil, func(_ *workerCtx, u uint32, nv []uint32) (uint32, int) {
			return intersect.Merge(g.Neighbors(u), nv), rankOf(nv, u)
		}

	case AlgoMPS:
		t, lanes := opts.SkewThreshold, opts.Lanes
		if collect {
			return nil, func(ctx *workerCtx, u uint32, nv []uint32) (uint32, int) {
				return intersect.MPSStats(g.Neighbors(u), nv, t, lanes, &ctx.work), rankOf(nv, u)
			}
		}
		return nil, func(_ *workerCtx, u uint32, nv []uint32) (uint32, int) {
			return intersect.MPS(g.Neighbors(u), nv, t), rankOf(nv, u)
		}

	case AlgoBMP:
		enter = func(ctx *workerCtx, u uint32) { refreshBitmap(g, ctx, u, collect) }
		switch {
		case collect:
			return enter, func(ctx *workerCtx, u uint32, nv []uint32) (uint32, int) {
				return intersect.BitmapStats(ctx.bm, nv, &ctx.work), rankOf(nv, u)
			}
		case simd.AVX512:
			// One pass of the probe also gives u's rank in N(v).
			return enter, func(ctx *workerCtx, u uint32, nv []uint32) (uint32, int) {
				return ctx.bm.CountSetVector(nv, u)
			}
		}
		// The scalar probe inlines here, and a binary search finds the rank.
		return enter, func(ctx *workerCtx, u uint32, nv []uint32) (uint32, int) {
			return ctx.bm.CountSet(nv), rankOf(nv, u)
		}

	case AlgoBMPRF:
		enter = func(ctx *workerCtx, u uint32) { refreshRF(g, ctx, u, collect) }
		if collect {
			return enter, func(ctx *workerCtx, u uint32, nv []uint32) (uint32, int) {
				return intersect.BitmapRFStats(ctx.rf, nv, &ctx.work), rankOf(nv, u)
			}
		}
		return enter, func(ctx *workerCtx, u uint32, nv []uint32) (uint32, int) {
			return intersect.BitmapRF(ctx.rf, nv), rankOf(nv, u)
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
