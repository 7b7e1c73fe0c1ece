package gpusim

import (
	"math"
	"math/rand"
	"testing"

	"cncount/internal/core"
	"cncount/internal/gen"
	"cncount/internal/graph"
	"cncount/internal/verify"
)

func randomGraph(t testing.TB, seed int64, n, m int) *graph.CSR {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	edges := make([]graph.Edge, m)
	for i := range edges {
		edges[i] = graph.Edge{U: graph.VertexID(rng.Intn(n)), V: graph.VertexID(rng.Intn(n))}
	}
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestRunCorrectnessAllAlgorithms(t *testing.T) {
	g := randomGraph(t, 1, 200, 1500)
	rg, _ := graph.ReorderByDegree(g)
	for _, algo := range []core.Algorithm{core.AlgoM, core.AlgoMPS, core.AlgoBMP, core.AlgoBMPRF} {
		for _, cp := range []bool{false, true} {
			rep, err := Run(rg, Config{Algorithm: algo, CoProcessing: cp})
			if err != nil {
				t.Fatalf("%v cp=%v: %v", algo, cp, err)
			}
			if err := verify.CheckCounts(rg, rep.Counts); err != nil {
				t.Fatalf("%v cp=%v: %v", algo, cp, err)
			}
		}
	}
}

func TestRunMultiPassCorrectness(t *testing.T) {
	// Splitting the destination range over passes must not change any
	// count: every u<v edge is processed in exactly one pass.
	g := randomGraph(t, 2, 300, 2000)
	rg, _ := graph.ReorderByDegree(g)
	want, err := Run(rg, Config{Algorithm: core.AlgoBMP, Passes: 1, CoProcessing: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, passes := range []int{2, 3, 7, 299} {
		rep, err := Run(rg, Config{Algorithm: core.AlgoBMP, Passes: passes, CoProcessing: true})
		if err != nil {
			t.Fatalf("passes=%d: %v", passes, err)
		}
		for e := range want.Counts {
			if rep.Counts[e] != want.Counts[e] {
				t.Fatalf("passes=%d: cnt[%d] = %d, want %d", passes, e, rep.Counts[e], want.Counts[e])
			}
		}
	}
}

func TestRunPassesExceedingVertices(t *testing.T) {
	g := randomGraph(t, 3, 10, 30)
	rep, err := Run(g, Config{Algorithm: core.AlgoMPS, Passes: 1000, CoProcessing: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Passes > g.NumVertices() {
		t.Errorf("passes %d exceeds |V| %d", rep.Passes, g.NumVertices())
	}
	if err := verify.CheckCounts(g, rep.Counts); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	g := randomGraph(t, 4, 10, 20)
	if _, err := Run(g, Config{Algorithm: core.Algorithm(42)}); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if _, err := Run(g, Config{Algorithm: core.AlgoMPS, WarpsPerBlock: 65}); err == nil {
		t.Error("oversize block accepted")
	}
	if _, err := Run(g, Config{Algorithm: core.AlgoMPS, Passes: -1}); err == nil {
		t.Error("negative passes accepted")
	}
	if _, err := Run(g, Config{Algorithm: core.AlgoMPS, SkewThreshold: math.NaN()}); err == nil {
		t.Error("NaN skew threshold accepted")
	}
}

func TestOccupancyAndBlocks(t *testing.T) {
	cases := []struct {
		warps  int
		blocks int
		occ    float64
	}{
		{1, 16, 0.25},
		{2, 16, 0.5},
		{4, 16, 1.0},
		{8, 8, 1.0},
		{32, 2, 1.0},
		{64, 1, 1.0},
	}
	for _, c := range cases {
		cfg := Config{WarpsPerBlock: c.warps}
		if got := cfg.ConcurrentBlocksPerSM(); got != c.blocks {
			t.Errorf("warps=%d: blocks = %d, want %d", c.warps, got, c.blocks)
		}
		if got := cfg.Occupancy(); got != c.occ {
			t.Errorf("warps=%d: occupancy = %g, want %g", c.warps, got, c.occ)
		}
	}
}

func TestPlanPasses(t *testing.T) {
	g := randomGraph(t, 5, 500, 4000)
	// Plenty of memory: one pass.
	plan := PlanPasses(g, Config{Algorithm: core.AlgoMPS, GlobalMemBytes: 1 << 30, ReservedBytes: 1})
	if plan.Passes != 1 {
		t.Errorf("roomy plan = %d passes", plan.Passes)
	}
	// Tight memory: more passes, and BMP needs more than MPS because of
	// the bitmap pool.
	tight := Config{GlobalMemBytes: g.MemoryBytes()/2 + 4096, ReservedBytes: 1024}
	tight.Algorithm = core.AlgoMPS
	mps := PlanPasses(g, tight)
	tight.Algorithm = core.AlgoBMP
	bmp := PlanPasses(g, tight)
	if mps.Passes < 2 {
		t.Errorf("tight MPS plan = %d passes, want >= 2", mps.Passes)
	}
	if bmp.Passes < mps.Passes {
		t.Errorf("BMP passes %d below MPS %d despite bitmap pool", bmp.Passes, mps.Passes)
	}
	if bmp.BitmapBytes <= 0 || mps.BitmapBytes != 0 {
		t.Errorf("bitmap accounting: mps=%d bmp=%d", mps.BitmapBytes, bmp.BitmapBytes)
	}
	// Pool larger than memory: degenerate plan, not a crash.
	broke := Config{Algorithm: core.AlgoBMP, GlobalMemBytes: 8192, ReservedBytes: 0}
	if p := PlanPasses(g, broke); p.Passes != g.NumVertices() {
		t.Errorf("degenerate plan = %d passes", p.Passes)
	}
}

func TestThrashingDetection(t *testing.T) {
	g := randomGraph(t, 6, 400, 5000)
	// Force a memory budget smaller than the per-pass hot set. MPS has no
	// bitmap pool, so enough passes can always shrink the hot set back
	// under the budget.
	cfg := Config{
		Algorithm:      core.AlgoMPS,
		GlobalMemBytes: g.MemoryBytes() / 4,
		ReservedBytes:  1,
		Passes:         1,
		CoProcessing:   true,
	}
	rep, err := Run(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Thrashed {
		t.Error("1-pass run with tiny memory did not thrash")
	}
	// Counts stay exact even when thrashing.
	if err := verify.CheckCounts(g, rep.Counts); err != nil {
		t.Fatal(err)
	}
	// Enough passes cure the thrash (or at least reduce faults).
	cfg.Passes = 64
	rep64, err := Run(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep64.PageFaults >= rep.PageFaults {
		t.Errorf("64 passes (%d faults) not below 1 pass (%d)", rep64.PageFaults, rep.PageFaults)
	}
}

func TestCoProcessingReducesPostTime(t *testing.T) {
	g := randomGraph(t, 7, 500, 6000)
	with, err := Run(g, Config{Algorithm: core.AlgoBMP, CoProcessing: true})
	if err != nil {
		t.Fatal(err)
	}
	without, err := Run(g, Config{Algorithm: core.AlgoBMP, CoProcessing: false})
	if err != nil {
		t.Fatal(err)
	}
	if with.PostTime >= without.PostTime {
		t.Errorf("co-processing post %v not below plain %v", with.PostTime, without.PostTime)
	}
	if with.AssignTime <= 0 {
		t.Error("co-processing run has no overlapped assign time")
	}
	if without.AssignTime != 0 {
		t.Error("plain run reports overlapped assign time")
	}
}

func TestKernelBreakdown(t *testing.T) {
	// A hub-and-spoke graph forces MPS to split edges between the merge
	// and pivot-skip kernels; BMP routes everything through the bitmap
	// kernel.
	var edges []graph.Edge
	for v := 1; v <= 400; v++ {
		edges = append(edges, graph.Edge{U: 0, V: graph.VertexID(v)})
	}
	for v := 1; v < 50; v++ {
		edges = append(edges, graph.Edge{U: graph.VertexID(v), V: graph.VertexID(v + 1)})
	}
	g0, err := graph.FromEdges(401, edges)
	if err != nil {
		t.Fatal(err)
	}
	g, _ := graph.ReorderByDegree(g0)

	mps, err := Run(g, Config{Algorithm: core.AlgoMPS, SkewThreshold: 50})
	if err != nil {
		t.Fatal(err)
	}
	kb := mps.KernelBreakdown
	if kb.PSEdges == 0 {
		t.Error("MPS routed no edges to the PS kernel despite 100x skew")
	}
	if kb.MergeEdges == 0 {
		t.Error("MPS routed no edges to the merge kernel")
	}
	if kb.BitmapEdges != 0 {
		t.Error("MPS recorded bitmap-kernel edges")
	}
	undirected := uint64(g.NumEdges() / 2)
	if kb.PSEdges+kb.MergeEdges != undirected {
		t.Errorf("kernel edges %d + %d != %d", kb.PSEdges, kb.MergeEdges, undirected)
	}

	bmp, err := Run(g, Config{Algorithm: core.AlgoBMP})
	if err != nil {
		t.Fatal(err)
	}
	if bmp.KernelBreakdown.BitmapEdges != undirected {
		t.Errorf("BMP bitmap edges = %d, want %d", bmp.KernelBreakdown.BitmapEdges, undirected)
	}
	if bmp.KernelBreakdown.MergeEdges != 0 || bmp.KernelBreakdown.PSEdges != 0 {
		t.Error("BMP recorded merge/PS kernel edges")
	}
}

func TestReportString(t *testing.T) {
	g := randomGraph(t, 8, 50, 200)
	rep, err := Run(g, Config{Algorithm: core.AlgoMPS})
	if err != nil {
		t.Fatal(err)
	}
	if rep.String() == "" {
		t.Error("empty report string")
	}
	if rep.TotalTime < rep.KernelTime {
		t.Error("total below kernel time")
	}
}

// TestPaperShapeGPUFavorsBMPOnSkewedGraphs checks the Figure 10 GPU
// finding on the Twitter profile: the bitmap algorithm beats MPS.
func TestPaperShapeGPUFavorsBMPOnSkewedGraphs(t *testing.T) {
	if testing.Short() {
		t.Skip("profile generation is slow")
	}
	p, err := gen.ProfileByName("TW")
	if err != nil {
		t.Fatal(err)
	}
	g0, err := p.Generate(1.0)
	if err != nil {
		t.Fatal(err)
	}
	g, _ := graph.ReorderByDegree(g0)
	base := Config{CapacityScale: 0.001, CoProcessing: true}

	cfg := base
	cfg.Algorithm = core.AlgoMPS
	mps, err := Run(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Algorithm = core.AlgoBMPRF
	bmp, err := Run(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if bmp.TotalTime >= mps.TotalTime {
		t.Errorf("GPU BMP-RF (%v) not faster than MPS (%v) on TW", bmp.TotalTime, mps.TotalTime)
	}
}
