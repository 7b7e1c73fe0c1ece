// Command cnc runs all-edge common neighbor counting on a graph and prints
// timing, work statistics and result checksums.
//
// Usage:
//
//	cnc -graph graph.txt -algo bmp -reorder
//	cnc -profile TW -scale 0.5 -algo mps -threads 8
//	cnc -profile LJ -processor knl -algo mps    # modeled KNL time
//	cnc -profile TW -algo bmp -metrics -        # JSON metrics snapshot
//	cnc -profile TW -algo bmp -trace out.json   # Perfetto-loadable timeline
//	cnc -profile FR -http localhost:6060        # live observability plane
//
// With -http, cnc mounts the observability plane (internal/obs) for the
// lifetime of the run: /metrics (Prometheus text exposition), /progress
// (percent complete, units/sec, ETA, per-worker stall flags and tallies),
// /healthz, /trace.json (live timeline snapshot when -trace is also set),
// /dashboard (embedded live HTML view), and /debug/pprof/* — all on a
// dedicated mux. Log output is structured (log/slog); -logfmt json turns
// the text stream into machine-tailable JSON records.
//
// cnc exits 0 only when the whole run succeeded: a -verify mismatch, a
// failed metrics or trace write, or an output I/O error all exit non-zero.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"cncount"
	"cncount/internal/logx"
	"cncount/internal/obs"
)

// appConfig mirrors the flag set so the whole run is testable without
// touching globals or os.Exit.
type appConfig struct {
	graphPath  string
	profile    string
	scale      float64
	algoName   string
	calibrate  bool
	threads    int
	taskSize   int
	lanes      int
	skew       float64
	rangeScale int
	reorder    bool
	work       bool
	processor  string
	verify     bool
	metricsOut string
	traceOut   string
	httpAddr   string
	httpWait   time.Duration
	timeout    time.Duration
	watchdog   time.Duration
	memBudget  int64
	bundleDir  string
	logFormat  string
	// logger receives structured events (watchdog reports, cancellation
	// notices, plane lifecycle). run() defaults a nil logger to stderr in
	// cfg.logFormat, so test call sites need not set it.
	logger *slog.Logger
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("cnc: ")

	var cfg appConfig
	flag.StringVar(&cfg.graphPath, "graph", "", "graph file (text edge list, or binary CSR with .bin)")
	flag.StringVar(&cfg.profile, "profile", "", "generate a dataset profile instead: "+strings.Join(cncount.ProfileNames(), ", "))
	flag.Float64Var(&cfg.scale, "scale", 1.0, "profile scale (1.0 ≈ 1/1000 of the paper's dataset)")
	flag.StringVar(&cfg.algoName, "algo", "bmp", "algorithm: m, mps, bmp, bmprf, adaptive")
	flag.BoolVar(&cfg.calibrate, "calibrate", false, "measure the adaptive kernel crossover table on this host and print it as JSON; with -algo adaptive the run uses the measured table (standalone -calibrate just prints it)")
	flag.IntVar(&cfg.threads, "threads", 0, "worker count (0 = all cores, 1 = sequential)")
	flag.IntVar(&cfg.taskSize, "tasksize", 0, "edge offsets per scheduled task (0 = default)")
	flag.IntVar(&cfg.lanes, "lanes", 0, "block-merge lane width (0 = default 8)")
	flag.Float64Var(&cfg.skew, "skew", 0, "MPS degree-skew threshold t (0 = default 50)")
	flag.IntVar(&cfg.rangeScale, "rangescale", 0, "RF bitmap:filter ratio (0 = default)")
	flag.BoolVar(&cfg.reorder, "reorder", true, "degree-descending reordering before counting")
	flag.BoolVar(&cfg.work, "work", false, "collect and print abstract work counters")
	flag.StringVar(&cfg.processor, "processor", "", "also model elapsed time on: cpu, knl, gpu")
	flag.BoolVar(&cfg.verify, "verify", false, "cross-check against the reference counter (slow)")
	flag.StringVar(&cfg.metricsOut, "metrics", "", `write a JSON metrics snapshot (phase timings, scheduler tallies) to this file ("-" = stdout)`)
	flag.StringVar(&cfg.traceOut, "trace", "", "write a Chrome trace-event JSON timeline (open in Perfetto) to this file")
	flag.StringVar(&cfg.httpAddr, "http", "", "serve the live observability plane (/metrics, /progress, /healthz, /trace.json, /dashboard, /debug/pprof/) on this address while running (e.g. localhost:6060)")
	flag.StringVar(&cfg.logFormat, "logfmt", "text", "log output format: "+logx.Formats)
	flag.DurationVar(&cfg.httpWait, "httpwait", 0, "keep the -http plane serving this long after the run completes (lets short runs be scraped)")
	flag.DurationVar(&cfg.timeout, "timeout", 0, "abort the run after this long (0 = no deadline); a timed-out run flushes its final metrics/trace snapshot and exits non-zero")
	flag.DurationVar(&cfg.watchdog, "watchdog", 0, "abort the run when no worker heartbeat arrives for this long (0 = disabled); a stall writes a diagnostic bundle and exits non-zero")
	flag.Int64Var(&cfg.memBudget, "membudget", 0, "memory budget in bytes for the bitmap index; a BMP/BMP-RF run exceeding it downgrades to MPS (0 = unlimited)")
	flag.StringVar(&cfg.bundleDir, "bundledir", "", "directory for the watchdog's diagnostic bundle (default: a fresh temp dir)")
	flag.Parse()

	if cfg.graphPath == "" && cfg.profile == "" && !cfg.calibrate {
		flag.Usage()
		os.Exit(2)
	}
	// SIGINT/SIGTERM cancel the run's context: workers stop at the next
	// task boundary, the final metrics/trace snapshot is flushed, and cnc
	// exits non-zero. A second signal kills the process the hard way
	// (NotifyContext restores default handling after the first).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, cfg, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run executes one counting run. Every failure — including a -verify
// mismatch, an unbindable -http address, a canceled or timed-out run,
// and any error writing the printed output or the metrics snapshot — is
// returned so main can exit non-zero. Cancellation of ctx (SIGINT,
// SIGTERM, or test-driven) stops the count cooperatively and still
// flushes the requested metrics/trace outputs from the partial run.
func run(ctx context.Context, cfg appConfig, stdout io.Writer) error {
	logger := cfg.logger
	if logger == nil {
		var err error
		if logger, err = logx.New(os.Stderr, cfg.logFormat, "cnc"); err != nil {
			return err
		}
	}
	if cfg.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.timeout)
		defer cancel()
	}
	// runCtx is the context the count actually runs under; abort lets the
	// watchdog cancel it independently of signals and -timeout.
	runCtx, abort := context.WithCancel(ctx)
	defer abort()

	// The observability plane needs a live collector and progress source
	// even when no -metrics file was requested.
	var mc *cncount.Metrics
	if cfg.metricsOut != "" || cfg.httpAddr != "" {
		mc = cncount.NewMetrics()
	}
	var tr *cncount.Tracer
	if cfg.traceOut != "" {
		tr = cncount.NewTracer()
	}
	out := &errWriter{w: stdout}

	manifest := cncount.NewManifest(cfg.resolvedConfig())
	mc.SetManifest(manifest)

	var prog *cncount.Progress
	if cfg.httpAddr != "" || cfg.watchdog > 0 {
		prog = cncount.NewProgress()
	}
	var plane *obs.Plane
	if cfg.httpAddr != "" {
		planeOpts := obs.Options{
			Snapshot: mc.Snapshot,
			Progress: prog,
			Manifest: &manifest,
			Logf:     logx.Printf(logger),
		}
		if tr != nil {
			tr.SetLive()
			planeOpts.TraceJSON = tr.WriteJSON
		}
		plane = obs.New(planeOpts)
		addr, err := plane.Start(cfg.httpAddr)
		if err != nil {
			return fmt.Errorf("observability plane: %w", err)
		}
		defer func() {
			if cfg.httpWait > 0 {
				fmt.Fprintf(out, "holding observability plane for %v\n", cfg.httpWait)
				time.Sleep(cfg.httpWait)
			}
			if err := plane.Close(); err != nil {
				logger.Error("observability plane shutdown failed", "err", err)
			}
		}()
		fmt.Fprintf(out, "observability plane listening on http://%s/ (metrics, progress, healthz, trace.json, dashboard, debug/pprof)\n", addr)
		// On cancellation, flip /healthz to "draining" while the final
		// metrics/progress flush happens; the goroutine exits via the
		// deferred abort at the latest.
		go func() {
			<-runCtx.Done()
			plane.BeginDrain()
		}()
	}

	// The watchdog aborts a wedged run: when no worker heartbeat arrives
	// for -watchdog, it writes a diagnostic bundle (progress + metrics +
	// live trace snapshot) and cancels runCtx, so the run unwinds through
	// the same cooperative-cancellation path as SIGINT.
	if cfg.watchdog > 0 {
		wdOpts := obs.WatchdogOptions{
			Progress:   prog,
			StallAfter: cfg.watchdog,
			Snapshot:   mc.Snapshot,
			Logf:       logx.Printf(logger),
		}
		if tr != nil {
			wdOpts.TraceJSON = tr.WriteJSON
		}
		bundleDir := cfg.bundleDir
		wdOpts.OnStall = func(r obs.StallReport) {
			logger.Error("watchdog detected a stalled run",
				"scope", r.Scope,
				"stall_after", r.StallAfter,
				"worst_beat_age", r.WorstBeatAge,
				"stalled_workers", r.Progress.StalledWorkers,
				"remaining_units", r.Progress.RemainingUnits)
			dir := bundleDir
			if dir == "" {
				if d, err := os.MkdirTemp("", "cnc-stall-"); err == nil {
					dir = d
				}
			}
			if dir != "" {
				if err := r.WriteBundle(dir); err != nil {
					logger.Error("watchdog bundle write failed", "dir", dir, "err", err)
				} else {
					logger.Info("watchdog bundle written", "dir", dir)
				}
			}
			abort()
		}
		wd := obs.StartWatchdog(wdOpts)
		defer wd.Stop()
	}

	// -calibrate measures the adaptive crossover table up front and prints
	// it; a run with -algo adaptive then counts with the measured table
	// instead of the deterministic default. Standalone -calibrate (no graph
	// or profile) stops after printing.
	var calib *cncount.CalibrationTable
	if cfg.calibrate {
		stop := mc.StartPhase("calibrate")
		table, err := cncount.Calibrate()
		stop()
		if err != nil {
			return err
		}
		calib = table
		b, err := json.MarshalIndent(table, "", "  ")
		if err != nil {
			return err
		}
		out.Write(append(b, '\n'))
		if cfg.graphPath == "" && cfg.profile == "" {
			return out.err
		}
	}

	g, name, err := loadOrGenerate(cfg.graphPath, cfg.profile, cfg.scale, mc, tr)
	if err != nil {
		return err
	}
	algo, err := parseAlgo(cfg.algoName)
	if err != nil {
		return err
	}

	s := cncount.Summarize(name, g)
	fmt.Fprintln(out, s)
	fmt.Fprintf(out, "skewed intersections (>50x): %.2f%%\n", cncount.SkewPercent(g, 50))

	res, err := cncount.Count(g, cncount.Options{
		Algorithm:         algo,
		Context:           runCtx,
		MemoryBudgetBytes: cfg.memBudget,
		Threads:           cfg.threads,
		TaskSize:          cfg.taskSize,
		Lanes:             cfg.lanes,
		SkewThreshold:     cfg.skew,
		RangeScale:        cfg.rangeScale,
		Calibration:       calib,
		Reorder:           cfg.reorder,
		CollectWork:       cfg.work,
		Metrics:           mc,
		Trace:             tr,
		Progress:          prog,
	})
	if err != nil {
		// An interrupted run still flushes its final snapshots: the plane
		// is already draining (healthz 503), and the partial metrics and
		// trace go wherever -metrics/-trace pointed, so the abort is
		// diagnosable after the process exits.
		var ce *cncount.CanceledError
		if errors.As(err, &ce) {
			plane.BeginDrain()
			reason := "canceled"
			if errors.Is(err, cncount.ErrDeadline) {
				reason = "timed out after " + cfg.timeout.String()
			}
			logger.Warn("run did not complete", "reason", reason, "err", err)
			if ce.Partial != nil {
				fmt.Fprintf(out, "run %s with %d of %d edge offsets unprocessed (elapsed %v)\n",
					reason, ce.Err.RemainingUnits, ce.Err.TotalUnits, ce.Partial.Elapsed)
			}
			if flushErr := flushOutputs(cfg, mc, tr, out); flushErr != nil {
				logger.Error("final flush failed", "err", flushErr)
			}
		}
		return err
	}
	if res.Downgraded {
		fmt.Fprintf(out, "memory budget %d B: %v downgraded to %v\n", cfg.memBudget, algo, res.Algorithm)
	}
	var sum uint64
	for _, c := range res.Counts {
		sum += uint64(c)
	}
	fmt.Fprintf(out, "algorithm %v, %d threads: %v\n", algo, res.Threads, res.Elapsed)
	fmt.Fprintf(out, "count sum %d, triangles %d\n", sum, res.TriangleCount())
	if cfg.work {
		fmt.Fprintf(out, "work: %+v\n", res.Work)
	}

	if cfg.processor != "" {
		proc, err := parseProcessor(cfg.processor)
		if err != nil {
			return err
		}
		if proc == cncount.ProcGPU && algo == cncount.AlgoAdaptive {
			// The GPU model runs the paper's fixed-kernel passes; the
			// per-edge host dispatcher has no GPU counterpart to model.
			return fmt.Errorf("the gpu model does not support -algo adaptive (use mps, bmp or bmprf)")
		}
		sim, err := cncount.Simulate(g, cncount.SimOptions{
			Processor:    proc,
			Algorithm:    algo,
			CoProcessing: true,
			Metrics:      mc,
			Trace:        tr,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "modeled on %v: %v\n", proc, sim.Modeled)
	}

	if cfg.verify {
		base, err := cncount.Count(g, cncount.Options{Algorithm: cncount.AlgoM, Threads: 1})
		if err != nil {
			return err
		}
		if err := compareCounts(res.Counts, base.Counts); err != nil {
			return err
		}
		fmt.Fprintln(out, "verify: counts match the sequential baseline")
	}

	if err := flushOutputs(cfg, mc, tr, out); err != nil {
		return err
	}
	return out.err
}

// flushOutputs writes the -metrics and -trace files. It runs both on
// success and after a canceled run, so an interrupted cnc still leaves
// its final snapshots behind.
func flushOutputs(cfg appConfig, mc *cncount.Metrics, tr *cncount.Tracer, out *errWriter) error {
	if mc != nil && cfg.metricsOut != "" {
		if err := writeMetrics(cfg.metricsOut, mc, out); err != nil {
			return fmt.Errorf("writing metrics: %w", err)
		}
	}
	if tr != nil {
		if err := writeTrace(cfg.traceOut, tr); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
		fmt.Fprintf(out, "trace written to %s (open in https://ui.perfetto.dev)\n", cfg.traceOut)
	}
	return nil
}

// resolvedConfig records the run configuration for the manifest, so a
// metrics snapshot (and anything scraped from /metrics) names the exact
// flags that produced it.
func (cfg appConfig) resolvedConfig() map[string]string {
	m := map[string]string{
		"algo":    cfg.algoName,
		"threads": strconv.Itoa(cfg.threads),
		"reorder": strconv.FormatBool(cfg.reorder),
	}
	if cfg.graphPath != "" {
		m["graph"] = cfg.graphPath
	}
	if cfg.profile != "" {
		m["profile"] = cfg.profile
		m["scale"] = strconv.FormatFloat(cfg.scale, 'g', -1, 64)
	}
	if cfg.taskSize != 0 {
		m["tasksize"] = strconv.Itoa(cfg.taskSize)
	}
	if cfg.processor != "" {
		m["processor"] = cfg.processor
	}
	if cfg.calibrate {
		m["calibrate"] = "true"
	}
	return m
}

// compareCounts checks a computed count array against the reference,
// returning an error describing the first mismatch.
func compareCounts(got, want []uint32) error {
	if len(got) != len(want) {
		return fmt.Errorf("verify failed: %d counts, want %d", len(got), len(want))
	}
	for e := range want {
		if got[e] != want[e] {
			return fmt.Errorf("verify failed at edge offset %d: got %d, want %d", e, got[e], want[e])
		}
	}
	return nil
}

// writeMetrics writes the snapshot to path ("-" = stdout), surfacing
// write and close errors.
func writeMetrics(path string, mc *cncount.Metrics, stdout io.Writer) error {
	if path == "-" {
		return mc.WriteJSON(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := mc.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeTrace writes the Chrome trace-event timeline, surfacing write and
// close errors.
func writeTrace(path string, tr *cncount.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// errWriter latches the first write error so every ignored fmt.Fprintf
// result still surfaces as a non-zero exit at the end of the run.
type errWriter struct {
	w   io.Writer
	err error
}

func (w *errWriter) Write(p []byte) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	n, err := w.w.Write(p)
	if err != nil {
		w.err = err
	}
	return n, err
}

func loadOrGenerate(path, profile string, scale float64, mc *cncount.Metrics, tr *cncount.Tracer) (*cncount.Graph, string, error) {
	switch {
	case path != "" && profile != "":
		return nil, "", fmt.Errorf("pass either -graph or -profile, not both")
	case path != "":
		g, err := cncount.LoadGraphObserved(path, mc, tr)
		return g, path, err
	case profile != "":
		stop, span := mc.StartPhase("generate"), tr.Span("generate")
		g, err := cncount.GenerateProfile(profile, scale)
		span()
		stop()
		return g, profile, err
	default:
		return nil, "", errors.New("pass -graph or -profile")
	}
}

func parseAlgo(s string) (cncount.Algorithm, error) {
	switch strings.ToLower(s) {
	case "m", "merge":
		return cncount.AlgoM, nil
	case "mps":
		return cncount.AlgoMPS, nil
	case "bmp":
		return cncount.AlgoBMP, nil
	case "bmprf", "bmp-rf", "rf":
		return cncount.AlgoBMPRF, nil
	case "adaptive", "adapt":
		return cncount.AlgoAdaptive, nil
	default:
		return 0, fmt.Errorf("unknown algorithm %q: valid names are m, mps, bmp, bmprf, adaptive", s)
	}
}

func parseProcessor(s string) (cncount.Processor, error) {
	switch strings.ToLower(s) {
	case "cpu":
		return cncount.ProcCPU, nil
	case "knl":
		return cncount.ProcKNL, nil
	case "gpu":
		return cncount.ProcGPU, nil
	default:
		return 0, fmt.Errorf("unknown processor %q (want cpu, knl, gpu)", s)
	}
}
