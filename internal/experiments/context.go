// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) on the synthetic dataset profiles and simulated
// processors. Each experiment returns a formatted text block that reports
// the measured/modeled values next to the paper's, and cmd/experiments
// assembles them into EXPERIMENTS.md.
//
// Counting work is measured exactly (instrumented kernels on the real
// workload); processor times are modeled by internal/archsim and
// internal/gpusim with capacities scaled to the dataset scale. Absolute
// numbers are therefore not comparable to the paper's seconds; the shapes —
// which algorithm wins where, and by roughly what factor — are the
// reproduction target.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"cncount/internal/archsim"
	"cncount/internal/core"
	"cncount/internal/gen"
	"cncount/internal/graph"
	"cncount/internal/metrics"
	"cncount/internal/sched"
	"cncount/internal/trace"
)

// Context caches generated graphs and instrumented counting runs across
// experiments. It is safe for sequential use; experiments share cached
// work, so running All is much cheaper than the sum of its parts.
type Context struct {
	// Scale is the dataset profile scale (1.0 = default, ~1/1000 paper).
	Scale float64
	// CapacityScale scales capacity-dependent hardware parameters; it
	// should track Scale/1000-relative sizing (0.001 at Scale 1.0).
	CapacityScale float64
	// RangeScale is the RF filter ratio used throughout (64 preserves the
	// paper's per-range neighbor density at profile scale).
	RangeScale int
	// Datasets restricts experiments that sweep datasets; nil = all five.
	Datasets []string

	// Metrics, when non-nil, receives phase timings (generation,
	// reordering, and the core counting phases) and scheduler tallies
	// from the work behind each experiment. Cached graphs and runs record
	// nothing on reuse, so a snapshot reflects work actually performed.
	Metrics *metrics.Collector

	// Trace, when non-nil, receives spans mirroring the Metrics phases
	// (generation, reordering, counting) plus per-task scheduler spans.
	// Like Metrics, cached graphs and runs emit nothing on reuse.
	Trace *trace.Tracer

	// Progress, when non-nil, is fed by each instrumented counting run's
	// parallel region so a live /progress endpoint can watch the sweep.
	// Cached runs, being instantaneous, report nothing on reuse.
	Progress *sched.Progress

	// Ctx, when non-nil, cancels the counting runs behind each experiment
	// cooperatively: a canceled sweep stops at the next scheduler task
	// boundary instead of finishing the dataset.
	Ctx context.Context

	mu     sync.Mutex
	graphs map[string]*graph.CSR
	runs   map[runKey]*core.Result
}

type runKey struct {
	dataset string
	algo    core.Algorithm
	lanes   int
}

// NewContext returns a Context with the default experiment configuration.
func NewContext() *Context {
	return &Context{
		Scale:         1.0,
		CapacityScale: 0.001,
		RangeScale:    64,
		graphs:        make(map[string]*graph.CSR),
		runs:          make(map[runKey]*core.Result),
	}
}

// datasets returns the selected dataset names in Table 1 order.
func (c *Context) datasets() []string {
	if len(c.Datasets) > 0 {
		return c.Datasets
	}
	names := make([]string, len(gen.Profiles))
	for i, p := range gen.Profiles {
		names[i] = p.Name
	}
	return names
}

// Graph returns the degree-descending-reordered profile graph, generating
// and caching it on first use. All experiments run on the reordered graph,
// as the paper's BMP requires and its MPS tolerates.
func (c *Context) Graph(name string) (*graph.CSR, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if g, ok := c.graphs[name]; ok {
		return g, nil
	}
	p, err := gen.ProfileByName(name)
	if err != nil {
		return nil, err
	}
	stop, span := c.Metrics.StartPhase("gen."+name), c.Trace.Span("gen."+name)
	g0, err := p.Generate(c.Scale)
	span()
	stop()
	if err != nil {
		return nil, err
	}
	stop, span = c.Metrics.StartPhase("reorder."+name), c.Trace.Span("reorder."+name)
	g, _ := graph.ReorderByDegree(g0)
	span()
	stop()
	c.graphs[name] = g
	return g, nil
}

// run returns the cached instrumented counting result for the dataset,
// algorithm and lane width. It collects on one thread: BMP and BMP-RF
// count one bitmap refresh per worker that visits a row, so a row a
// steal splits between two workers would be indexed twice and the tally
// would depend on the schedule. One thread's work counts serve every
// modeled thread count and memory mode.
func (c *Context) run(dataset string, algo core.Algorithm, lanes int) (*core.Result, error) {
	key := runKey{dataset, algo, lanes}
	c.mu.Lock()
	if r, ok := c.runs[key]; ok {
		c.mu.Unlock()
		return r, nil
	}
	c.mu.Unlock()

	g, err := c.Graph(dataset)
	if err != nil {
		return nil, err
	}
	res, err := core.Count(g, core.Options{
		Algorithm:   algo,
		Threads:     1,
		Lanes:       lanes,
		RangeScale:  c.RangeScale,
		CollectWork: true,
		Metrics:     c.Metrics,
		Trace:       c.Trace,
		Progress:    c.Progress,
		Context:     c.Ctx,
	})
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.runs[key] = res
	c.mu.Unlock()
	return res, nil
}

// model returns the modeled time in seconds for the cached run under the
// given spec/threads/mode.
func (c *Context) model(dataset string, algo core.Algorithm, lanes int,
	spec archsim.Spec, threads int, mode archsim.MemoryMode) (float64, error) {

	res, err := c.run(dataset, algo, lanes)
	if err != nil {
		return 0, err
	}
	g, err := c.Graph(dataset)
	if err != nil {
		return 0, err
	}
	cfg := archsim.RunConfig{Threads: threads, Lanes: lanes, MemMode: mode}
	cfg.RandomWorkingSetBytes = archsim.WorkingSet(g,
		core.Options{Algorithm: algo, RangeScale: c.RangeScale}, cfg, res)
	bd := archsim.Estimate(res.Work, spec.ScaledCapacity(c.CapacityScale), cfg)
	return bd.Total.Seconds(), nil
}

// cpu and knl return the processor specs; model applies the capacity
// scaling, so these stay unscaled.
func (c *Context) cpu() archsim.Spec { return archsim.CPU }
func (c *Context) knl() archsim.Spec { return archsim.KNL }

// Experiment is one reproducible table or figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(c *Context) (string, error)
}

// All lists every experiment in the paper's order.
var All = []Experiment{
	{"table1", "Table 1: Real-world graph statistics", (*Context).Table1},
	{"table2", "Table 2: Percentage of highly skewed set intersections", (*Context).Table2},
	{"table3", "Table 3: Memory consumption of each thread-local bitmap", (*Context).Table3},
	{"fig3", "Figure 3: Effect of degree skew handling (single threaded)", (*Context).Fig3},
	{"fig4", "Figure 4: Effect of vectorization", (*Context).Fig4},
	{"fig5", "Figure 5: Effect of parallelization (thread scalability)", (*Context).Fig5},
	{"fig6", "Figure 6: Effect of bitmap range filtering", (*Context).Fig6},
	{"fig7", "Figure 7: Effectiveness of MCDRAM utilization", (*Context).Fig7},
	{"table4", "Table 4: Comparison with the baseline M", (*Context).Table4},
	{"table5", "Table 5: Post-processing time on the CPU (co-processing)", (*Context).Table5},
	{"table6", "Table 6: Memory consumption and estimated number of passes", (*Context).Table6},
	{"fig8", "Figure 8: Effect of number of passes", (*Context).Fig8},
	{"table7", "Table 7: Effect of bitmap range filtering on the GPU", (*Context).Table7},
	{"fig9", "Figure 9: Effect of block size tuning", (*Context).Fig9},
	{"fig10", "Figure 10: Optimized algorithms on three processors", (*Context).Fig10},
	{"ablations", "Ablations: skew threshold and range scale", (*Context).Ablations},
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, error) {
	for _, e := range All {
		if e.ID == id {
			return e, nil
		}
	}
	ids := make([]string, len(All))
	for i, e := range All {
		ids[i] = e.ID
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("experiments: unknown id %q (have %s)", id, strings.Join(ids, ", "))
}
