package core

import (
	"math/rand"
	"testing"

	"cncount/internal/graph"
	"cncount/internal/metrics"
	"cncount/internal/verify"
)

// TestCountRecordsMetrics checks that a metered run produces the full
// observability picture: the three core phases, the kernel counters, and a
// scheduler snapshot whose tallies cover the whole edge range.
func TestCountRecordsMetrics(t *testing.T) {
	g := randomGraph(t, 7, 200, 2000)
	for _, algo := range Algorithms {
		t.Run(algo.String(), func(t *testing.T) {
			mc := metrics.New()
			res, err := Count(g, Options{Algorithm: algo, Threads: 4, TaskSize: 64, Metrics: mc})
			if err != nil {
				t.Fatal(err)
			}
			s := mc.Snapshot()
			for _, phase := range []string{"core.setup", "core.count", "core.reduce"} {
				if _, ok := s.Phase(phase); !ok {
					t.Errorf("phase %q missing from snapshot", phase)
				}
			}
			if got := s.Counters["core.edges_scanned"]; got != uint64(g.NumEdges()) {
				t.Errorf("edges_scanned = %d, want %d", got, g.NumEdges())
			}
			// Every undirected edge is intersected exactly once.
			wantKernels := uint64(g.NumEdges() / 2)
			if got := s.Counters["core.kernel_calls_"+algo.String()]; got != wantKernels {
				t.Errorf("kernel_calls = %d, want %d", got, wantKernels)
			}
			if len(s.Sched) != 1 {
				t.Fatalf("sched snapshots = %d, want 1", len(s.Sched))
			}
			sc := s.Sched[0]
			if sc.Scope != "core.count" || len(sc.Workers) != res.Threads {
				t.Fatalf("sched snapshot scope=%q workers=%d, want core.count/%d",
					sc.Scope, len(sc.Workers), res.Threads)
			}
			var units uint64
			for _, w := range sc.Workers {
				units += w.UnitsProcessed
			}
			if units != uint64(g.NumEdges()) {
				t.Errorf("worker units = %d, want %d", units, g.NumEdges())
			}
			if sc.Imbalance.MaxBusyNanos < sc.Imbalance.MeanBusyNanos {
				t.Errorf("imbalance max %d < mean %d", sc.Imbalance.MaxBusyNanos, sc.Imbalance.MeanBusyNanos)
			}
		})
	}
}

// TestCountRecordsAttribution checks every metered run attributes each
// kernel call to exactly one degree-bucket cell of one row: the bucket
// counts sum to the kernel-call counter, the row carries the algorithm's
// kernel label (the names bench's kernel.<k>.* metrics read), buckets
// ascend, and samples never exceed counts.
func TestCountRecordsAttribution(t *testing.T) {
	g := randomGraph(t, 7, 200, 2000)
	labels := map[Algorithm]string{AlgoM: "merge", AlgoMPS: "mps", AlgoBMP: "bitmap", AlgoBMPRF: "bitmap-rf"}
	for _, algo := range Algorithms {
		t.Run(algo.String(), func(t *testing.T) {
			mc := metrics.New()
			if _, err := Count(g, Options{Algorithm: algo, Threads: 4, TaskSize: 64, Metrics: mc}); err != nil {
				t.Fatal(err)
			}
			s := mc.Snapshot()
			if len(s.Attribution) != 1 {
				t.Fatalf("attribution rows = %d, want 1", len(s.Attribution))
			}
			var total uint64
			for _, row := range s.Attribution {
				if row.Scope != "core.count" {
					t.Errorf("row scope = %q, want core.count", row.Scope)
				}
				if want := labels[algo]; row.Kernel != want {
					t.Errorf("row kernel %q, want %q", row.Kernel, want)
				}
				prev := 0
				for _, b := range row.Buckets {
					if b.MinDegLen <= prev && prev != 0 {
						t.Errorf("%s buckets not ascending: %d after %d", row.Kernel, b.MinDegLen, prev)
					}
					prev = b.MinDegLen
					if b.MinDegLen < 1 || b.MinDegLen > 64 {
						t.Errorf("%s bucket min_deg_len %d out of range", row.Kernel, b.MinDegLen)
					}
					if b.Samples > b.Count {
						t.Errorf("%s bucket %d: samples %d > count %d", row.Kernel, b.MinDegLen, b.Samples, b.Count)
					}
					if b.Samples == 0 && b.SampledNanos != 0 {
						t.Errorf("%s bucket %d: nanos without samples", row.Kernel, b.MinDegLen)
					}
					total += b.Count
				}
			}
			if want := s.Counters["core.kernel_calls_"+algo.String()]; total != want {
				t.Errorf("attributed calls = %d, want kernel_calls %d", total, want)
			}
			var samples uint64
			for _, row := range s.Attribution {
				for _, b := range row.Buckets {
					samples += b.Samples
				}
			}
			if samples == 0 {
				t.Error("no timed samples recorded on a 2000-edge graph")
			}
		})
	}
}

// TestCountAttributionAbsentWhenDisabled pins the off-switch: without a
// collector no attribution state is allocated at all.
func TestCountAttributionAbsentWhenDisabled(t *testing.T) {
	g := randomGraph(t, 3, 50, 300)
	var mc *metrics.Collector
	if _, err := Count(g, Options{Algorithm: AlgoMPS, Threads: 2, Metrics: mc}); err != nil {
		t.Fatal(err)
	}
	if s := mc.Snapshot(); len(s.Attribution) != 0 {
		t.Errorf("nil collector produced attribution: %+v", s.Attribution)
	}
}

// gappedHubGraph returns a graph whose rows are empty except for the
// vertices with ID % 7 in {2, 3, 4}: runs of isolated vertices lead the
// ID range, separate every three others and end it, so the edge loop
// must step past empty rows at row ends. Vertex 3 is a hub adjacent to
// every other non-isolated vertex; the rest are joined at random.
func gappedHubGraph(t *testing.T) *graph.CSR {
	t.Helper()
	const n = 310
	rng := rand.New(rand.NewSource(11))
	var live []graph.VertexID
	for v := graph.VertexID(0); v < n; v++ {
		if v%7 >= 2 && v%7 <= 4 {
			live = append(live, v)
		}
	}
	var edges []graph.Edge
	for _, v := range live {
		if v != 3 {
			edges = append(edges, graph.Edge{U: 3, V: v})
		}
	}
	for i := 0; i < 600; i++ {
		edges = append(edges, graph.Edge{U: live[rng.Intn(len(live))], V: live[rng.Intn(len(live))]})
	}
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestCountMetricsDisabledMatches runs every algorithm through both edge
// loop bodies, unmetered and metered, at task sizes 1 and 7 on 3
// threads, over a hub and runs of isolated vertices: tasks start inside
// rows and cross row ends, the hub's row spans many tasks, and each run
// must match the reference counts.
func TestCountMetricsDisabledMatches(t *testing.T) {
	g := gappedHubGraph(t)
	for _, algo := range Algorithms {
		for _, taskSize := range []int{1, 7} {
			for _, mc := range []*metrics.Collector{nil, metrics.New()} {
				res, err := Count(g, Options{Algorithm: algo, Threads: 3, TaskSize: taskSize, Metrics: mc})
				if err != nil {
					t.Fatal(err)
				}
				if err := verify.CheckCounts(g, res.Counts); err != nil {
					t.Errorf("%v, task size %d, metered=%v: %v", algo, taskSize, mc.Enabled(), err)
				}
			}
		}
	}
}
