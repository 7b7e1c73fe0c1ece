// Package cncount computes the common neighbor count |N(u) ∩ N(v)| for
// every edge (u,v) of an undirected graph — the all-edge common neighbor
// counting operation of Che et al., "Accelerating All-Edge Common Neighbor
// Counting on Three Processors" (ICPP 2019) — together with the downstream
// analytics that consume the counts (structural clustering, similarity
// queries, triangle counting, recommendation).
//
// Two algorithm families are provided, as in the paper:
//
//   - MPS, a merge-based algorithm combining a vectorizable block-wise
//     merge with a pivot-skip (galloping) merge for degree-skewed pairs;
//   - BMP, a bitmap-index algorithm that dynamically builds a bitmap over
//     N(u) and probes it for each neighbor list, optionally through a small
//     range-filter bitmap (RF) sized to stay cache-resident.
//
// Counting runs in parallel on the host with the paper's dynamic
// task-scheduling skeleton. The sub-packages internal/archsim and
// internal/gpusim additionally model the paper's three processors (Xeon
// CPU, Knights Landing, TITAN Xp GPU) to regenerate its evaluation; see
// the Simulate* functions.
//
// # Quick start
//
//	g, _ := cncount.GenerateProfile("TW", 0.1)
//	res, _ := cncount.Count(g, cncount.Options{Algorithm: cncount.AlgoBMP})
//	fmt.Println("triangles:", res.TriangleCount())
package cncount

import (
	"context"
	"errors"
	"fmt"

	"cncount/internal/core"
	"cncount/internal/gen"
	"cncount/internal/graph"
	"cncount/internal/intersect"
	"cncount/internal/metrics"
	"cncount/internal/sched"
	"cncount/internal/trace"
)

// Metrics is the runtime observability collector: phase timings, counters,
// and per-worker scheduler tallies, snapshottable as JSON. A nil *Metrics
// disables all collection; see Options.Metrics.
type Metrics = metrics.Collector

// MetricsSnapshot is the JSON-encodable view of a Metrics collector.
type MetricsSnapshot = metrics.Snapshot

// NewMetrics returns an enabled metrics collector.
func NewMetrics() *Metrics { return metrics.New() }

// Progress is a live progress source for a counting run: remaining units
// and per-worker heartbeats, sampled while the run is in flight. Pass one
// through Options.Progress and serve it with the observability plane
// (internal/obs) or poll (*Progress).Sample directly. A nil *Progress
// disables progress recording; see Options.Progress.
type Progress = sched.Progress

// ProgressSample is one point-in-time reading of a Progress source.
type ProgressSample = sched.ProgressSample

// NewProgress returns an enabled progress source.
func NewProgress() *Progress { return sched.NewProgress() }

// Manifest records the build, environment and resolved configuration a
// run executed under; embed it into metrics snapshots with
// (*Metrics).SetManifest. See metrics.Manifest.
type Manifest = metrics.Manifest

// NewManifest collects the build/environment manifest, attaching the
// given resolved run config (may be nil).
func NewManifest(config map[string]string) Manifest { return metrics.NewManifest(config) }

// Tracer is the span-level execution tracer: named spans on a per-worker
// timeline, serialized as Chrome trace-event JSON loadable in Perfetto or
// chrome://tracing. A nil *Tracer disables all tracing; see Options.Trace
// and (*Tracer).WriteJSON.
type Tracer = trace.Tracer

// NewTracer returns an enabled execution tracer whose epoch (timeline
// zero) is the moment of the call.
func NewTracer() *Tracer { return trace.New() }

// Graph is an undirected graph in CSR form. Both directions of every edge
// are stored and adjacency lists are sorted ascending; see
// (*Graph).Neighbors and (*Graph).EdgeOffset.
type Graph = graph.CSR

// Edge is one undirected edge of an edge list.
type Edge = graph.Edge

// VertexID identifies a vertex; IDs are dense in [0, NumVertices).
type VertexID = graph.VertexID

// Stats summarizes a graph (vertex/edge counts, average and maximum
// degree).
type Stats = graph.Stats

// Reordering records a vertex relabeling; see ReorderByDegree.
type Reordering = graph.Reordering

// ReorderByDegree relabels vertices in degree-descending order, the
// preprocessing the paper applies for BMP (§2.1), and returns the reordered
// graph with the permutation needed to map results back. g must be
// symmetric, as every Graph NewGraph, LoadGraph or GenerateProfile returns
// is.
func ReorderByDegree(g *Graph) (*Graph, *Reordering) { return graph.ReorderByDegree(g) }

// MapCounts translates a count array computed on a reordered graph back to
// the original graph's edge offsets. counts must be symmetric,
// counts[e(u,v)] == counts[e(v,u)], as every count array Count returns is.
func MapCounts(original, reordered *Graph, r *Reordering, counts []uint32) []uint32 {
	return graph.MapCounts(original, reordered, r, counts)
}

// NewGraph builds a Graph from an undirected edge list. Self-loops are
// dropped and duplicate edges merged.
func NewGraph(numVertices int, edges []Edge) (*Graph, error) {
	return graph.FromEdges(numVertices, edges)
}

// ConnectedComponents labels each vertex with its connected component and
// returns the component count.
func ConnectedComponents(g *Graph) (compOf []int32, numComponents int) {
	return graph.ConnectedComponents(g)
}

// LargestComponent extracts the induced subgraph of the largest connected
// component, returning it with the new→old vertex mapping.
func LargestComponent(g *Graph) (*Graph, []VertexID, error) {
	return graph.LargestComponent(g)
}

// InducedSubgraph extracts the subgraph induced by the given vertices,
// renumbered densely, with the new→old vertex mapping.
func InducedSubgraph(g *Graph, keep []VertexID) (*Graph, []VertexID, error) {
	return graph.InducedSubgraph(g, keep)
}

// CoreNumbers returns each vertex's k-core number.
func CoreNumbers(g *Graph) []int32 { return graph.CoreNumbers(g) }

// ReorderByDegeneracy relabels vertices by descending core number — an
// alternative preprocessing to ReorderByDegree for the bitmap algorithms,
// compared in the ordering ablation benchmark.
func ReorderByDegeneracy(g *Graph) (*Graph, *Reordering) {
	return graph.ReorderByDegeneracy(g)
}

// LoadGraph reads a graph from a text edge list, or from the binary CSR
// format when the path ends in ".bin".
func LoadGraph(path string) (*Graph, error) { return graph.LoadFile(path) }

// LoadGraphObserved is LoadGraph recording parse/build phase durations
// into mc and emitting matching spans onto the tracer's timeline (either
// observer may be nil).
func LoadGraphObserved(path string, mc *Metrics, tr *Tracer) (*Graph, error) {
	return graph.LoadFileObserved(path, mc, tr)
}

// SaveGraph writes a graph in the format implied by the path extension.
func SaveGraph(path string, g *Graph) error { return graph.SaveFile(path, g) }

// Summarize computes Stats for g.
func Summarize(name string, g *Graph) Stats { return graph.Summarize(name, g) }

// SkewPercent returns the percentage of the graph's set intersections whose
// endpoint degree ratio exceeds threshold (the paper's Table 2 statistic;
// the paper uses threshold 50).
func SkewPercent(g *Graph, threshold float64) float64 {
	return graph.SkewPercent(g, threshold)
}

// GenerateProfile builds a synthetic stand-in for one of the paper's five
// datasets ("LJ", "OR", "WI", "TW", "FR") at the given scale; scale 1.0 is
// roughly 1/1000 of the original graph with the paper's average degree and
// degree-skew percentage preserved. Generation is deterministic.
func GenerateProfile(name string, scale float64) (*Graph, error) {
	p, err := gen.ProfileByName(name)
	if err != nil {
		return nil, err
	}
	return p.Generate(scale)
}

// ProfileNames lists the dataset profiles in the paper's Table 1 order.
func ProfileNames() []string {
	names := make([]string, len(gen.Profiles))
	for i, p := range gen.Profiles {
		names[i] = p.Name
	}
	return names
}

// Algorithm selects the counting algorithm.
type Algorithm = core.Algorithm

// The counting algorithms: the paper's baseline merge M, the combined
// merge-with-pivot-skip MPS (Algorithm 1), the dynamic bitmap index BMP
// (Algorithm 2), and BMP with range filtering.
const (
	AlgoM     = core.AlgoM
	AlgoMPS   = core.AlgoMPS
	AlgoBMP   = core.AlgoBMP
	AlgoBMPRF = core.AlgoBMPRF
)

// Algorithms lists all algorithms in presentation order.
var Algorithms = core.Algorithms

// Options configures Count. The zero value runs the baseline merge on all
// cores with the paper's default tuning.
type Options struct {
	// Algorithm is the counting algorithm (default AlgoM).
	Algorithm Algorithm

	// Context, when non-nil, cancels the run cooperatively: workers check
	// it at task-pop and steal boundaries, stop within one task, and join
	// before Count returns a *CanceledError wrapping the partial result.
	// errors.Is against ErrCanceled/ErrDeadline distinguishes an explicit
	// cancel (SIGINT, CancelFunc) from an expired deadline (-timeout). Nil
	// disables cancellation at negligible cost.
	Context context.Context

	// MemoryBudgetBytes, when > 0, bounds the per-run index allocation of
	// the bitmap algorithms: a BMP/BMP-RF run whose thread-local bitmaps
	// would exceed the budget downgrades to MPS (Result.Downgraded, metric
	// core.bmp_downgrades) instead of allocating unboundedly. 0 = no
	// budget.
	MemoryBudgetBytes int64

	// Threads is the worker count; < 1 means all cores, 1 is sequential.
	Threads int

	// TaskSize is |T|, the edge offsets per dynamically scheduled task;
	// <= 0 uses the default (2048).
	TaskSize int

	// SkewThreshold is MPS's degree-skew ratio t; <= 0 uses 50, +Inf
	// never switches to pivot-skip, and NaN is rejected.
	SkewThreshold float64

	// RangeScale is the RF bitmap-to-filter size ratio; <= 0 uses 4096.
	RangeScale int

	// Reorder relabels vertices in degree-descending order before counting
	// and maps the counts back. AlgoBMP orients each edge by degree itself
	// and has its O(min(d_u, d_v)) per-intersection bound on any vertex
	// order, so for it Reorder relabels nothing. What BMP gives up is the
	// layout: on TW with randomly permuted IDs (|V| 333K and 666K) its
	// count took 1.08x and 1.005x as long as on the degree-descending
	// relabeling, less than the relabel and mapping cost (EXPERIMENTS.md);
	// larger |V| is unmeasured. For AlgoM, AlgoMPS and AlgoBMPRF Reorder
	// works as described; recommended for AlgoBMPRF, whose range filter
	// depends on the ID layout.
	Reorder bool

	// CollectWork gathers abstract operation counts into Result.Work
	// (slower; used by the processor models).
	CollectWork bool

	// Metrics, when non-nil, receives phase timings (reorder, context
	// setup, counting, count mapping), kernel counters, and per-worker
	// scheduler tallies with an imbalance summary. Nil disables all
	// collection at negligible cost.
	Metrics *Metrics

	// Trace, when non-nil, receives execution spans: coarse phases
	// (reorder, setup, count, reduce, count mapping) on the main timeline
	// row and one span per scheduled task on each worker's row. Write the
	// result with (*Tracer).WriteJSON and open it in Perfetto. Nil
	// disables all tracing at negligible cost.
	Trace *Tracer

	// Progress, when non-nil, receives live progress from the counting
	// region (remaining units, per-worker heartbeats) for the
	// observability plane's /progress endpoint. Nil disables it at
	// negligible cost.
	Progress *Progress
}

// Result is a counting run's outcome.
type Result = core.Result

// ErrCanceled and ErrDeadline classify an interrupted Count: ErrCanceled
// when Options.Context was canceled outright (SIGINT, a watchdog abort,
// an explicit CancelFunc), ErrDeadline when its deadline expired. Test
// with errors.Is against the error Count returned.
var (
	ErrCanceled = sched.ErrCanceled
	ErrDeadline = sched.ErrDeadline
)

// CanceledError is the typed error an interrupted Count returns; its
// Partial field holds the run's partial result (finished counts, elapsed
// time, committed scheduler tallies). Retrieve it with errors.As.
type CanceledError = core.CanceledError

// Count computes cnt[e] = |N(u) ∩ N(v)| for every directed edge offset e of
// g. The count array is symmetric: cnt[e(u,v)] == cnt[e(v,u)].
func Count(g *Graph, opts Options) (*Result, error) {
	coreOpts := core.Options{
		Algorithm:         opts.Algorithm,
		Context:           opts.Context,
		MemoryBudgetBytes: opts.MemoryBudgetBytes,
		Threads:           opts.Threads,
		TaskSize:          opts.TaskSize,
		SkewThreshold:     opts.SkewThreshold,
		RangeScale:        opts.RangeScale,
		CollectWork:       opts.CollectWork,
		Metrics:           opts.Metrics,
		Trace:             opts.Trace,
		Progress:          opts.Progress,
	}
	// Core's degree orientation gives BMP its bound on any vertex order,
	// so relabeling would only add two O(|E|) passes. BMP-RF's range
	// filter depends on the ID layout, so it still relabels.
	if !opts.Reorder || opts.Algorithm == AlgoBMP {
		return core.Count(g, coreOpts)
	}
	stop, span := opts.Metrics.StartPhase("reorder"), opts.Trace.Span("reorder")
	rg, r := graph.ReorderByDegree(g)
	span()
	stop()
	res, err := core.Count(rg, coreOpts)
	if err != nil {
		// A canceled run computed its partial counts on the reordered
		// graph; map them back so the caller's partial result uses the
		// original edge offsets like a completed one would.
		var ce *CanceledError
		if errors.As(err, &ce) && ce.Partial != nil {
			ce.Partial.Counts = graph.MapCounts(g, rg, r, ce.Partial.Counts)
		}
		return nil, err
	}
	stop, span = opts.Metrics.StartPhase("map_counts"), opts.Trace.Span("map_counts")
	res.Counts = graph.MapCounts(g, rg, r, res.Counts)
	span()
	stop()
	return res, nil
}

// CountEdge computes the common neighbor count of the single edge (u,v),
// for spot queries. It returns an error when (u,v) is not an edge.
func CountEdge(g *Graph, u, v VertexID) (uint32, error) {
	if int(u) >= g.NumVertices() || int(v) >= g.NumVertices() {
		return 0, fmt.Errorf("cncount: vertex out of range")
	}
	if !g.HasEdge(u, v) {
		return 0, fmt.Errorf("cncount: (%d,%d) is not an edge", u, v)
	}
	return intersect.Merge(g.Neighbors(u), g.Neighbors(v)), nil
}
