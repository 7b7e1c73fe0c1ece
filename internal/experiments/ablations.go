package experiments

import (
	"fmt"
	"strings"

	"cncount/internal/archsim"
	"cncount/internal/core"
)

// Ablations sweeps the tunable design constants DESIGN.md calls out,
// through the same measured-work + cost-model pipeline as the figures: the
// MPS degree-skew threshold t and the RF range scale. (Lane width goes
// through the same pipeline in Figure 4 and BenchmarkFig4Vectorization.
// Task size, clearing discipline, gallop window and scheduling policy are
// swept by the wall-clock ablation benchmarks instead, since their effects
// are scheduling- and microarchitecture-level rather than work-level.)
func (c *Context) Ablations() (string, error) {
	var b strings.Builder

	// --- Skew threshold t (paper: 50). Small t sends balanced pairs
	// through pivot-skip; large t sends skewed pairs through the merge.
	g, err := c.Graph("TW")
	if err != nil {
		return "", err
	}
	b.WriteString("MPS skew threshold t on TW (single-threaded CPU, modeled; paper uses 50):\n")
	for _, t := range []float64{2, 10, 50, 250, 1e12} {
		res, err := core.Count(g, core.Options{
			Algorithm:     core.AlgoMPS,
			SkewThreshold: t,
			Lanes:         8,
			RangeScale:    c.RangeScale,
			CollectWork:   true,
			Context:       c.Ctx,
		})
		if err != nil {
			return "", err
		}
		bd := archsim.Estimate(res.Work, archsim.CPU.ScaledCapacity(c.CapacityScale),
			archsim.RunConfig{Threads: 1, Lanes: 8})
		label := fmt.Sprintf("%g", t)
		if t >= 1e12 {
			label = "inf (merge only)"
		}
		fmt.Fprintf(&b, "  t=%-18s %s\n", label, fmtSec(bd.Total.Seconds()))
	}

	// --- RF range scale (library default 4096 at paper scale; experiments
	// use 64 at profile scale).
	gFR, err := c.Graph("FR")
	if err != nil {
		return "", err
	}
	b.WriteString("RF range scale on FR (64 threads CPU, modeled; profile-scale default 64):\n")
	for _, scale := range []int{4, 16, 64, 512, 4096} {
		res, err := core.Count(gFR, core.Options{
			Algorithm:   core.AlgoBMPRF,
			RangeScale:  scale,
			CollectWork: true,
			Context:     c.Ctx,
		})
		if err != nil {
			return "", err
		}
		cfg := archsim.RunConfig{Threads: 64, Lanes: 1}
		cfg.RandomWorkingSetBytes = archsim.WorkingSet(gFR,
			core.Options{Algorithm: core.AlgoBMPRF, RangeScale: scale}, cfg, res)
		bd := archsim.Estimate(res.Work, archsim.CPU.ScaledCapacity(c.CapacityScale), cfg)
		skip := 0.0
		if res.Work.FilterTests > 0 {
			skip = 100 * float64(res.Work.FilterSkips) / float64(res.Work.FilterTests)
		}
		fmt.Fprintf(&b, "  scale=%-6d %-10s (filter skips %.1f%%)\n",
			scale, fmtSec(bd.Total.Seconds()), skip)
	}
	return b.String(), nil
}
