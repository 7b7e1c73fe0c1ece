// Command experiments regenerates the paper's tables and figures on the
// synthetic dataset profiles and simulated processors.
//
// Usage:
//
//	experiments -experiment all            # everything, in paper order
//	experiments -experiment fig10          # one table or figure
//	experiments -experiment all -out EXPERIMENTS.md
//	experiments -experiment all -metrics metrics.json
//	experiments -experiment fig5 -trace-dir traces/
//	experiments -experiment all -http 127.0.0.1:8080
//
// With -metrics, each experiment additionally emits a JSON metrics
// snapshot (phase timings, per-worker scheduler tallies, imbalance
// summary) so the tables' results can be attributed to the paper's
// Algorithm 3 phases. With -trace-dir, each experiment writes a
// Perfetto-loadable Chrome trace-event timeline trace_<id>.json into the
// directory. Both reflect work actually performed: cached graphs and
// counting runs shared with earlier experiments record nothing on reuse.
//
// experiments exits 0 only when every experiment and every output write
// succeeded.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"cncount/internal/experiments"
	"cncount/internal/logx"
	"cncount/internal/metrics"
	"cncount/internal/obs"
	"cncount/internal/sched"
	"cncount/internal/trace"
)

// experimentMetrics pairs one experiment's id with its metrics snapshot.
type experimentMetrics struct {
	Experiment string           `json:"experiment"`
	Snapshot   metrics.Snapshot `json:"snapshot"`
}

// appConfig mirrors the flag set so the whole run is testable without
// touching globals or os.Exit.
type appConfig struct {
	id         string
	scale      float64
	out        string
	list       bool
	metricsOut string
	traceDir   string
	httpAddr   string
	timeout    time.Duration
	logFormat  string
	// logger receives the structured progress events (experiment done,
	// plane lifecycle). run() defaults a nil logger to stderr in
	// cfg.logFormat, so test call sites need not set it.
	logger *slog.Logger
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")

	var cfg appConfig
	flag.StringVar(&cfg.id, "experiment", "all", "experiment id (table1..table7, fig3..fig10) or 'all'")
	flag.Float64Var(&cfg.scale, "scale", 1.0, "dataset profile scale")
	flag.StringVar(&cfg.out, "out", "", "write output to this file instead of stdout")
	flag.BoolVar(&cfg.list, "list", false, "list experiment ids and exit")
	flag.StringVar(&cfg.metricsOut, "metrics", "", `write per-experiment metrics snapshots as a JSON array ("-" = stdout)`)
	flag.StringVar(&cfg.traceDir, "trace-dir", "", "write a Chrome trace-event timeline trace_<id>.json per experiment into this directory")
	flag.StringVar(&cfg.httpAddr, "http", "", "serve the observability plane (/metrics, /progress, ...) on this address while experiments run")
	flag.DurationVar(&cfg.timeout, "timeout", 0, "abort the run after this long (0 = no limit)")
	flag.StringVar(&cfg.logFormat, "logfmt", "text", "log output format: "+logx.Formats)
	flag.Parse()

	// SIGINT/SIGTERM cancel the sweep cooperatively: the current counting
	// run stops at the next task boundary and the exit code is non-zero.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if err := run(ctx, cfg, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run executes one invocation. Every failure — a failed experiment, an
// unwritable -out/-metrics/-trace-dir path, or an output I/O error — is
// returned so main can exit non-zero.
func run(runCtx context.Context, cfg appConfig, stdout io.Writer) error {
	if cfg.logger == nil {
		var err error
		if cfg.logger, err = logx.New(os.Stderr, cfg.logFormat, "experiments"); err != nil {
			return err
		}
	}
	out := &errWriter{w: stdout}
	if cfg.list {
		for _, e := range experiments.All {
			fmt.Fprintf(out, "%-8s %s\n", e.ID, e.Title)
		}
		return out.err
	}

	if cfg.timeout > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(runCtx, cfg.timeout)
		defer cancel()
	}

	var w io.Writer = out
	var outFile *os.File
	if cfg.out != "" {
		f, err := os.Create(cfg.out)
		if err != nil {
			return err
		}
		outFile = f
		w = f
	}
	err := runExperiments(runCtx, cfg, w, out)
	if outFile != nil {
		if cerr := outFile.Close(); err == nil && cerr != nil {
			err = cerr
		}
	}
	if err != nil {
		return err
	}
	return out.err
}

// runExperiments runs the selected experiments, writing report text to w
// and any -metrics "-" snapshot to stdout.
func runExperiments(runCtx context.Context, cfg appConfig, w io.Writer, stdout io.Writer) error {
	logger := cfg.logger
	if cfg.traceDir != "" {
		if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
			return fmt.Errorf("trace dir: %w", err)
		}
	}

	// A run-scoped cancel guarantees runCtx.Done() fires by the time this
	// function returns, bounding the plane's drain watcher below.
	runCtx, cancelRun := context.WithCancel(runCtx)
	defer cancelRun()

	ctx := experiments.NewContext()
	ctx.Scale = cfg.scale
	ctx.CapacityScale = 0.001 * cfg.scale
	ctx.Ctx = runCtx

	manifest := metrics.NewManifest(map[string]string{
		"harness":    "experiments",
		"experiment": cfg.id,
		"scale":      strconv.FormatFloat(cfg.scale, 'g', -1, 64),
	})

	// With -http, the observability plane scrapes whichever collector the
	// currently running experiment records into; liveMC tracks it across
	// the per-experiment resets that -metrics performs.
	var liveMC atomic.Pointer[metrics.Collector]
	if cfg.httpAddr != "" {
		ctx.Progress = sched.NewProgress()
		if cfg.metricsOut == "" {
			// Nothing else asked for metrics; keep one collector for the
			// whole run so /metrics still has phase timings to show.
			ctx.Metrics = metrics.New()
			ctx.Metrics.SetManifest(manifest)
			liveMC.Store(ctx.Metrics)
		}
		plane := obs.New(obs.Options{
			Snapshot: func() metrics.Snapshot {
				if mc := liveMC.Load(); mc != nil {
					return mc.Snapshot()
				}
				return metrics.Snapshot{}
			},
			Progress: ctx.Progress,
			Manifest: &manifest,
			Logf:     logx.Printf(logger),
		})
		addr, err := plane.Start(cfg.httpAddr)
		if err != nil {
			return fmt.Errorf("observability plane: %w", err)
		}
		logger.Info("observability plane listening on http://"+addr.String()+"/", "addr", addr.String())
		// Flip /healthz to "draining" the moment the run is canceled, so
		// pollers see the shutdown before the listener goes away. The
		// watcher always exits: cancelRun fires on return.
		go func() {
			<-runCtx.Done()
			plane.BeginDrain()
		}()
		defer func() {
			if err := plane.Close(); err != nil {
				logger.Error("observability plane shutdown failed", "err", err)
			}
		}()
	}

	var snaps []experimentMetrics
	runOne := func(e experiments.Experiment) error {
		// A canceled or timed-out invocation stops between experiments;
		// mid-experiment cancellation surfaces from the counting run
		// itself as a CanceledError.
		if err := runCtx.Err(); err != nil {
			return fmt.Errorf("aborted before %s: %w", e.ID, err)
		}
		if cfg.metricsOut != "" {
			ctx.Metrics = metrics.New()
			ctx.Metrics.SetManifest(manifest)
			liveMC.Store(ctx.Metrics)
		}
		if cfg.traceDir != "" {
			ctx.Trace = trace.New()
		}
		start := time.Now()
		text, err := e.Run(ctx)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		if _, err := fmt.Fprintf(w, "## %s\n\n```\n%s```\n\n", e.Title, text); err != nil {
			return err
		}
		logger.Info("experiment done", "id", e.ID, "elapsed", time.Since(start).Round(time.Millisecond))
		if cfg.metricsOut != "" {
			snaps = append(snaps, experimentMetrics{Experiment: e.ID, Snapshot: ctx.Metrics.Snapshot()})
		}
		if cfg.traceDir != "" {
			path := filepath.Join(cfg.traceDir, "trace_"+e.ID+".json")
			if err := writeTrace(path, ctx.Trace); err != nil {
				return fmt.Errorf("writing trace for %s: %w", e.ID, err)
			}
		}
		return nil
	}

	if strings.EqualFold(cfg.id, "all") {
		if _, err := fmt.Fprintf(w, "# Experiment results (profile scale %g, capacity scale %g)\n\n",
			ctx.Scale, ctx.CapacityScale); err != nil {
			return err
		}
		for _, e := range experiments.All {
			if err := runOne(e); err != nil {
				return err
			}
		}
	} else {
		e, err := experiments.ByID(cfg.id)
		if err != nil {
			return err
		}
		if err := runOne(e); err != nil {
			return err
		}
	}

	if cfg.metricsOut != "" {
		if err := writeSnapshots(cfg.metricsOut, snaps, stdout); err != nil {
			return fmt.Errorf("writing metrics: %w", err)
		}
	}
	return nil
}

// writeSnapshots writes the per-experiment snapshots as one JSON array,
// surfacing write and close errors.
func writeSnapshots(path string, snaps []experimentMetrics, stdout io.Writer) error {
	b, err := json.Marshal(snaps)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if path == "-" {
		_, err := stdout.Write(b)
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeTrace writes the experiment's timeline, surfacing write and close
// errors.
func writeTrace(path string, tr *trace.Tracer) error {
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
