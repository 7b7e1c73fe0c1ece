package archsim

import (
	"cncount/internal/bitmap"
	"cncount/internal/core"
	"cncount/internal/graph"
)

// ScaledCapacity returns a copy of the spec with capacity parameters
// multiplied by f.
//
// The reproduction's datasets are ~1/1000 the size of the paper's, so the
// capacity-dependent physics (does the per-thread bitmap fit in cache? does
// the CSR fit in GPU global memory?) would trivially vanish at full
// hardware capacities. Scaling the capacities by the same factor as the
// dataset preserves the working-set-to-capacity ratios that drive the
// paper's Figures 5-8, while leaving per-byte bandwidth and per-access
// latency — which are scale-free — untouched.
func (s Spec) ScaledCapacity(f float64) Spec {
	if f > 0 {
		s.CacheBytes = int64(float64(s.CacheBytes) * f)
		if s.CacheBytes < 1 {
			s.CacheBytes = 1
		}
	}
	return s
}

// ModelRun executes one counting configuration on the host with
// instrumentation and returns the host result together with the modeled
// time on the given spec. The host thread count is free (work totals are
// schedule-independent); cfg.Threads is the thread count being modeled.
//
// The random working set is derived from the algorithm: the bitmap
// algorithms touch one thread-local bitmap per modeled thread; for the
// range-filtered variant only the occupied fraction of the big bitmap is
// hot, estimated from the measured filter skip rate.
func ModelRun(g *graph.CSR, opts core.Options, spec Spec, cfg RunConfig) (*core.Result, Breakdown, error) {
	opts.CollectWork = true
	if cfg.Lanes == 0 {
		cfg.Lanes = opts.Lanes
	} else {
		opts.Lanes = cfg.Lanes
	}
	res, err := core.Count(g, opts)
	if err != nil {
		return nil, Breakdown{}, err
	}
	cfg.RandomWorkingSetBytes = WorkingSet(g, opts, cfg, res)
	return res, Estimate(res.Work, spec, cfg), nil
}

// WorkingSet estimates the total randomly accessed bytes of a run across
// the modeled threads.
func WorkingSet(g *graph.CSR, opts core.Options, cfg RunConfig, res *core.Result) int64 {
	threads := cfg.Threads
	if threads < 1 {
		threads = 1
	}
	numV := uint32(g.NumVertices())
	switch opts.Algorithm {
	case core.AlgoBMP:
		bm, _ := bitmap.MemoryFootprint(numV, 0)
		return bm * int64(threads)
	case core.AlgoBMPRF:
		bm, filter := bitmap.MemoryFootprint(numV, opts.RangeScale)
		hot := 1.0
		if res != nil && res.Work.FilterTests > 0 {
			hot = 1 - float64(res.Work.FilterSkips)/float64(res.Work.FilterTests)
		}
		return (int64(float64(bm)*hot) + filter) * int64(threads)
	default:
		// The merge algorithms' random accesses (gallop targets) land in
		// adjacency lists that are being streamed anyway: cache-resident.
		return 0
	}
}
