package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"cncount"
	"cncount/internal/gen"
	"cncount/internal/serve"
)

// minTimedReps keeps a count run's sample large enough for a tail
// percentile even when one Count call outlasts the measured time.
const minTimedReps = tailBeyond + 1

// countPhases are the collector phases of one Count call, in call order:
// cncount.Count times reorder and map_counts, core.Count the rest.
var countPhases = []struct{ phase, metric string }{
	{"reorder", "graph.reorder_ms"},
	{"core.setup", "core.setup_ms"},
	{"core.count", "core.count_ms"},
	{"core.reduce", "core.reduce_ms"},
	{"map_counts", "graph.map_counts_ms"},
}

// generateGraph builds the workload's graph from the profile with the
// run's seed and saves it as binary CSR; the program under test only ever
// reads that file.
func generateGraph(sp spec, seed int64, dir string) (*cncount.Graph, string, error) {
	p, err := gen.ProfileByName(sp.Profile)
	if err != nil {
		return nil, "", err
	}
	p.Seed = seed
	g, err := p.Generate(sp.Scale)
	if err != nil {
		return nil, "", err
	}
	path := filepath.Join(dir, "graph.bin")
	if err := cncount.SaveGraph(path, g); err != nil {
		return nil, "", err
	}
	return g, path, nil
}

// loadGraph loads path reps times and returns the last graph with the
// load times.
func loadGraph(path string, reps int, tr *cncount.Tracer) (*cncount.Graph, []float64, error) {
	var g *cncount.Graph
	var times []float64
	for i := 0; i < reps; i++ {
		d, err := timed(tr, "graph.load", func() (err error) {
			g, err = cncount.LoadGraph(path)
			return err
		})
		if err != nil {
			return nil, nil, err
		}
		times = append(times, secs(d))
	}
	return g, times, nil
}

// digest summarizes a count array: the triangle total Σcnt/6 and an
// FNV-1a hash over the counts in edge-offset order.
type digest struct{ triangles, hash uint64 }

func digestOf(counts []uint32) digest {
	var sum uint64
	h := uint64(14695981039346656037)
	for _, c := range counts {
		sum += uint64(c)
		h = (h ^ uint64(c)) * 1099511628211
	}
	return digest{triangles: sum / 6, hash: h}
}

// runCount times cncount.Count on the loaded graph: warm-up reps, then
// reps until the measured time is used, each followed by a reference pass.
// Every rep's counts are checked against a sequential merge reference
// outside the timed region.
func runCount(cfg runConfig) (*outcome, error) {
	sp := cfg.spec
	out := newOutcome()
	tr := newTracer(cfg)
	out.tr = tr
	algo, err := serve.ParseAlgo(sp.Algo)
	if err != nil {
		return nil, err
	}
	generated, path, err := generateGraph(sp, cfg.seed, cfg.workdir)
	if err != nil {
		return nil, err
	}
	ref := newRefKernel(generated, sp.RefNs)
	var g *cncount.Graph
	var loads, setups, slows []float64
	for i := 0; i < sp.SetupReps; i++ {
		var t []float64
		if g, t, err = loadGraph(path, 1, tr); err != nil {
			return nil, err
		}
		s := ref.slowdown(tr)
		loads = append(loads, t[0])
		setups = append(setups, t[0]/s)
		slows = append(slows, s)
	}
	out.set("setup_s", median(setups), len(setups))
	out.set("graph.load_ms", 1e3*median(loads), len(loads))

	var want digest
	if _, err := timed(tr, "reference", func() error {
		seq, err := cncount.Count(g, cncount.Options{Algorithm: cncount.AlgoM, Threads: 1})
		if err != nil {
			return fmt.Errorf("reference count: %w", err)
		}
		want = digestOf(seq.Counts)
		return nil
	}); err != nil {
		return nil, err
	}
	edges := float64(g.NumEdges())

	opts := cncount.Options{Algorithm: algo, Reorder: sp.Reorder, Threads: sp.Threads}
	check := func(res *cncount.Result, err error) {
		out.attempted++
		if err != nil {
			out.failed++
			out.notef("count failed: %v", err)
			return
		}
		stop := tr.Span("check")
		if got := digestOf(res.Counts); got != want {
			out.wrongf("count: triangles=%d hash=%x, want triangles=%d hash=%x",
				got.triangles, got.hash, want.triangles, want.hash)
		}
		stop()
	}
	for i := 0; i < sp.Warmup; i++ {
		check(cncount.Count(g, opts))
	}

	// walls are the measured Count times, norm the same divided by the
	// slowdown the reference pass after each measured.
	var walls, norm []float64
	var alloc uint64
	var snaps []cncount.MetricsSnapshot
	var ms0, ms1 runtime.MemStats
	deadline := time.Now().Add(sp.Duration)
	for len(walls) < minTimedReps || time.Now().Before(deadline) {
		if cfg.traced {
			opts.Metrics = cncount.NewMetrics()
		}
		var res *cncount.Result
		runtime.ReadMemStats(&ms0)
		d, err := timed(tr, "count", func() (err error) {
			res, err = cncount.Count(g, opts)
			return err
		})
		runtime.ReadMemStats(&ms1)
		alloc += ms1.TotalAlloc - ms0.TotalAlloc
		s := ref.slowdown(tr)
		walls = append(walls, ms(d))
		norm = append(norm, ms(d)/s)
		slows = append(slows, s)
		check(res, err)
		if cfg.traced {
			snaps = append(snaps, opts.Metrics.Snapshot())
		}
	}

	n := len(walls)
	var total, normTotal float64
	for i := range walls {
		total += walls[i]
		normTotal += norm[i]
	}
	out.set("op_p50_ms", median(norm), n)
	if v, pct, ok := tail(walls); ok {
		out.set("op_tail_ms", v, n)
		out.notef("op_tail_ms is p%.4g of %d reps", pct, n)
	}
	out.set("count_ms_p90", nearestRank(sortedFloats(walls), 90), n)
	out.set("throughput_per_s", edges*float64(n)/(normTotal/1e3), n)
	out.set("bytes_per_edge", float64(alloc)/float64(n)/edges, n)
	setHost(out, slows, median(walls), median(loads))
	if cfg.traced {
		countLayers(out, snaps, total)
	}
	return out, nil
}

// countLayers turns the per-rep collector snapshots into the graph, core,
// sched and kernel metrics, and reconciles the phases against the summed
// Count wall time (wallMs).
func countLayers(out *outcome, snaps []cncount.MetricsSnapshot, wallMs float64) {
	n := len(snaps)
	var phaseSum float64
	for _, p := range countPhases {
		var v []float64
		for _, s := range snaps {
			nanos, _ := s.Phase(p.phase)
			v = append(v, float64(nanos)/1e6)
			phaseSum += float64(nanos) / 1e6
		}
		out.set(p.metric, median(v), n)
	}
	out.set("unattributed_share", 1-phaseSum/wallMs, n)

	var imb, steals, taskP99 []float64
	calls := map[string]float64{}
	sampled := map[string]float64{}
	samples := map[string]float64{}
	for _, s := range snaps {
		for _, sc := range s.Sched {
			imb = append(imb, sc.Imbalance.Ratio)
			steals = append(steals, float64(sc.Steals))
			taskP99 = append(taskP99, float64(sc.TaskNanos.P99Nanos)/1e3)
		}
		for _, row := range s.Attribution {
			for _, b := range row.Buckets {
				calls[row.Kernel] += float64(b.Count)
				sampled[row.Kernel] += float64(b.SampledNanos)
				samples[row.Kernel] += float64(b.Samples)
			}
		}
	}
	out.set("sched.imbalance_ratio", median(imb), len(imb))
	out.set("sched.steals", median(steals), len(steals))
	out.set("sched.task_p99_us", median(taskP99), len(taskP99))
	for _, k := range kernelNames {
		out.set("kernel."+k+".calls", calls[k]/float64(n), n)
		if samples[k] > 0 {
			out.set("kernel."+k+".ns_per_call", sampled[k]/samples[k], int(samples[k]))
		}
	}
}
