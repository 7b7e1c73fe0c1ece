package cncount

import (
	"context"
	"errors"
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"cncount/internal/verify"
)

func testGraph(t *testing.T) *Graph {
	t.Helper()
	g, err := GenerateProfile("LJ", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// degreeAscending returns TW ×0.05 relabeled in degree-ascending order:
// ReorderByDegree, then every ID reversed.
func degreeAscending(t *testing.T) *Graph {
	t.Helper()
	g, err := GenerateProfile("TW", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	rg, _ := ReorderByDegree(g)
	n := rg.NumVertices()
	edges := rg.Edges()
	for i := range edges {
		edges[i] = Edge{U: VertexID(n-1) - edges[i].U, V: VertexID(n-1) - edges[i].V}
	}
	asc, err := NewGraph(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return asc
}

func TestCountAllAlgorithms(t *testing.T) {
	for name, g := range map[string]*Graph{"LJ": testGraph(t), "TW ascending": degreeAscending(t)} {
		want := verify.Counts(g)
		for _, algo := range Algorithms {
			for _, reorder := range []bool{false, true} {
				res, err := Count(g, Options{Algorithm: algo, Reorder: reorder, Threads: 2})
				if err != nil {
					t.Fatalf("%s %v reorder=%v: %v", name, algo, reorder, err)
				}
				for e := range want {
					if res.Counts[e] != want[e] {
						t.Fatalf("%s %v reorder=%v: cnt[%d] = %d, want %d",
							name, algo, reorder, e, res.Counts[e], want[e])
					}
				}
			}
		}
	}
}

// TestCountBMPAllocation guards BMP's reorder-free path: a Count with
// Reorder set allocates the count array and per-worker state, at most 5 B
// per directed edge. A relabeled CSR and a mapped count array would add
// about 9 B more.
func TestCountBMPAllocation(t *testing.T) {
	g, err := GenerateProfile("TW", 0.3)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := Count(g, Options{Algorithm: AlgoBMP, Reorder: true, Threads: 2}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	perEdge := float64(after.TotalAlloc-before.TotalAlloc) / float64(g.NumEdges())
	if perEdge > 5 {
		t.Errorf("BMP Count allocated %.2f B per directed edge, want <= 5", perEdge)
	}
}

func TestCountEdge(t *testing.T) {
	g, err := NewGraph(4, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}})
	if err != nil {
		t.Fatal(err)
	}
	c, err := CountEdge(g, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c != 1 {
		t.Errorf("CountEdge(0,1) = %d, want 1", c)
	}
	if _, err := CountEdge(g, 0, 3); err == nil {
		t.Error("non-edge accepted")
	}
	if _, err := CountEdge(g, 0, 99); err == nil {
		t.Error("out-of-range vertex accepted")
	}
}

func TestGenerateProfileNames(t *testing.T) {
	names := ProfileNames()
	if len(names) != 5 {
		t.Fatalf("ProfileNames = %v", names)
	}
	for _, n := range names {
		g, err := GenerateProfile(n, 0.02)
		if err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		if g.NumEdges() == 0 {
			t.Errorf("%s: empty graph", n)
		}
	}
	if _, err := GenerateProfile("bogus", 1); err == nil {
		t.Error("unknown profile accepted")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	g := testGraph(t)
	path := filepath.Join(t.TempDir(), "g.bin")
	if err := SaveGraph(path, g); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() || g2.NumVertices() != g.NumVertices() {
		t.Error("round trip changed the graph")
	}
}

func TestReorderByDegreeFacade(t *testing.T) {
	g := testGraph(t)
	rg, r := ReorderByDegree(g)
	if rg.NumEdges() != g.NumEdges() {
		t.Error("reordering changed edge count")
	}
	res, err := Count(rg, Options{Algorithm: AlgoBMP})
	if err != nil {
		t.Fatal(err)
	}
	mapped := MapCounts(g, rg, r, res.Counts)
	if err := verify.CheckCounts(g, mapped); err != nil {
		t.Fatal(err)
	}
}

// TestCountCanceledReorderedMapsPartialCounts cancels a reordered run
// mid-count and checks its partial counts come back at the original
// graph's edge offsets: every entry is either 0 (not reached before the
// cancel) or the full run's count at that offset. The merge relabels and
// maps the partial array back; BMP relabels nothing, so core's partial
// array is already at the original offsets.
func TestCountCanceledReorderedMapsPartialCounts(t *testing.T) {
	// A uniform random graph: reordering by degree relabels nearly every
	// vertex, so an unmapped partial array lands on the wrong offsets. The
	// instrumented kernels at task size 1 keep the region tens of ms long.
	rng := rand.New(rand.NewSource(11))
	edges := make([]Edge, 60000)
	for i := range edges {
		edges[i] = Edge{U: VertexID(rng.Intn(2000)), V: VertexID(rng.Intn(2000))}
	}
	g, err := NewGraph(2000, edges)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []Algorithm{AlgoM, AlgoBMP} {
		t.Run(algo.String(), func(t *testing.T) { cancelMidCount(t, g, algo) })
	}
}

// cancelMidCount is TestCountCanceledReorderedMapsPartialCounts for one
// algorithm.
func cancelMidCount(t *testing.T, g *Graph, algo Algorithm) {
	opts := Options{Algorithm: algo, Reorder: true, Threads: 4, TaskSize: 1, CollectWork: true}
	full, err := Count(g, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Cancel once a tenth of the offsets are done, so the partial array
	// holds many counts. A run that drains the range before the flag
	// lands legitimately succeeds, so retry until one attempt is caught
	// mid-run.
	for attempt := 0; attempt < 50; attempt++ {
		ctx, cancel := context.WithCancel(context.Background())
		prog := NewProgress()
		done := make(chan struct{})
		go func() {
			defer cancel()
			for {
				select {
				case <-done:
					return
				default:
				}
				if s := prog.Sample(); s.Active && s.DoneUnits >= g.NumEdges()/10 {
					return
				}
				time.Sleep(20 * time.Microsecond)
			}
		}()
		o := opts
		o.Context, o.Progress = ctx, prog
		_, err := Count(g, o)
		close(done)
		if err == nil {
			cancel()
			continue
		}
		var ce *CanceledError
		if !errors.As(err, &ce) || ce.Partial == nil {
			t.Fatalf("err = %v, want *CanceledError with a partial result", err)
		}
		if int64(len(ce.Partial.Counts)) != g.NumEdges() {
			t.Fatalf("partial counts len %d, want %d", len(ce.Partial.Counts), g.NumEdges())
		}
		nonzero := 0
		for e, c := range ce.Partial.Counts {
			if c == 0 {
				continue
			}
			if c != full.Counts[e] {
				t.Fatalf("partial cnt[%d] = %d, want 0 or the full run's %d", e, c, full.Counts[e])
			}
			nonzero++
		}
		if nonzero == 0 {
			t.Fatal("canceled run mapped back no nonzero counts")
		}
		return
	}
	t.Fatal("no attempt was caught mid-run in 50 tries")
}

func TestSimulateAllProcessors(t *testing.T) {
	g0 := testGraph(t)
	g, _ := ReorderByDegree(g0)
	want := verify.Counts(g)
	for _, proc := range Processors {
		sim, err := Simulate(g, SimOptions{
			Processor:    proc,
			Algorithm:    AlgoBMPRF,
			CoProcessing: true,
		})
		if err != nil {
			t.Fatalf("%v: %v", proc, err)
		}
		if sim.Modeled <= 0 {
			t.Errorf("%v: nonpositive modeled time", proc)
		}
		for e := range want {
			if sim.Counts[e] != want[e] {
				t.Fatalf("%v: wrong count at %d", proc, e)
			}
		}
		if proc == ProcGPU && sim.GPU == nil {
			t.Error("GPU simulation missing report")
		}
		if proc != ProcGPU && sim.GPU != nil {
			t.Errorf("%v: unexpected GPU report", proc)
		}
	}
	if _, err := Simulate(g, SimOptions{Processor: Processor(9)}); err == nil {
		t.Error("unknown processor accepted")
	}
}

func TestProcessorString(t *testing.T) {
	for p, want := range map[Processor]string{ProcCPU: "CPU", ProcKNL: "KNL", ProcGPU: "GPU"} {
		if p.String() != want {
			t.Errorf("%d.String() = %q", int(p), p.String())
		}
	}
	if Processor(9).String() == "" {
		t.Error("unknown processor stringer empty")
	}
}

func TestAnalyticsFacade(t *testing.T) {
	g := testGraph(t)
	res, err := Count(g, Options{Algorithm: AlgoBMP, Reorder: true})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := StructuralSimilarity(g, res.Counts)
	if err != nil {
		t.Fatal(err)
	}
	if len(sim) != len(res.Counts) {
		t.Error("similarity length mismatch")
	}
	jac, err := Jaccard(g, res.Counts)
	if err != nil {
		t.Fatal(err)
	}
	for e := range jac {
		if jac[e] < 0 || jac[e] > 1 {
			t.Fatalf("jaccard out of range at %d: %g", e, jac[e])
		}
	}
	if got, want := Triangles(res.Counts), res.TriangleCount(); got != want {
		t.Errorf("Triangles = %d, want %d", got, want)
	}
	if _, err := ClusteringCoefficients(g, res.Counts); err != nil {
		t.Fatal(err)
	}
	clu, err := SCANFromCounts(g, res.Counts, ScanParams{Eps: 0.5, Mu: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(clu.ClusterOf) != g.NumVertices() {
		t.Error("cluster assignment length mismatch")
	}
	var u VertexID
	for v := 0; v < g.NumVertices(); v++ {
		if g.Degree(VertexID(v)) > 0 {
			u = VertexID(v)
			break
		}
	}
	if _, err := TopKNeighbors(g, res.Counts, u, 3); err != nil {
		t.Fatal(err)
	}
}

func TestSkewPercentFacade(t *testing.T) {
	g, err := GenerateProfile("WI", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// WI keeps meaningful skew only near full scale, but the statistic must
	// at least be well-formed here.
	s := SkewPercent(g, 50)
	if s < 0 || s > 100 {
		t.Errorf("SkewPercent = %g", s)
	}
}
