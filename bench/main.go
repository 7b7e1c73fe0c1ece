// Command bench is the repository benchmark: it runs one named workload
// against the counting library or the cncd daemon, checks every answer
// against a reference, and prints each metric with its unit. The last
// line of standard output is one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"op_p50_ms":{"value":…,"unit":"ms"},…}}
//
// An untraced run (-trace 0) reports the end-to-end metrics; a traced run
// (-trace 1) reports the per-layer metrics, writes the benchmark's span
// trace as Chrome trace-event JSON, and prints its own end-to-end values
// so the tracing overhead can be read off against an untraced run.
//
// Usage (from the repository root; run.sh builds this command and cncd):
//
//	bash bench/run.sh --workload serve-mixed --seed 1 --seconds 30 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"cncount"
	"cncount/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// runConfig is one invocation: the workload spec plus where to find the
// daemon and where to put scratch files and outputs.
type runConfig struct {
	spec    spec
	seed    int64
	traced  bool
	cncd    string // cncd binary, required by serve workloads
	workdir string // scratch files for this run (removed at exit)
	outdir  string // trace JSON
	kids    *children
}

// outcome is what a workload measured. values holds every metric it
// computed, end-to-end and per-layer alike; samples the sample count
// behind each timing.
type outcome struct {
	values    map[string]float64
	samples   map[string]int
	attempted int64
	failed    int64
	// wrong lists answers that disagreed with the reference.
	wrong []string
	// notes are printed as informational lines before the result.
	notes []string
	tr    *cncount.Tracer
}

func newOutcome() *outcome {
	return &outcome{values: map[string]float64{}, samples: map[string]int{}}
}

func (o *outcome) set(name string, v float64, n int) {
	o.values[name] = v
	if n > 0 {
		o.samples[name] = n
	}
}

func (o *outcome) wrongf(format string, args ...any) {
	o.failed++
	o.wrong = append(o.wrong, fmt.Sprintf(format, args...))
}

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "seed for the graph, query and update streams")
	seconds := fs.Int("seconds", 25, "measured time per run")
	traceFlag := fs.Int("trace", 0, "1 reports per-layer metrics and writes the span trace")
	cncd := fs.String("cncd", "", "cncd binary (serve workloads)")
	workdir := fs.String("workdir", ".bench_build", "directory for scratch files and trace output")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(stderr, "bench: -trace must be 0 or 1")
		return 2
	}
	sp.Duration = time.Duration(*seconds) * time.Second
	if err := sp.validate(runtime.NumCPU()); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	cfg := runConfig{spec: sp, seed: *seed, traced: *traceFlag == 1, cncd: *cncd, outdir: *workdir}
	if sp.Kind == kindServe && cfg.cncd == "" {
		fmt.Fprintln(stderr, "bench: serve workloads need -cncd")
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	cfg.workdir, err = os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(cfg.workdir)

	// An interrupted run still stops the daemons it started.
	cfg.kids = &children{}
	interrupted := make(chan os.Signal, 1)
	signal.Notify(interrupted, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(interrupted)
	finished := make(chan struct{})
	defer close(finished)
	go func() {
		select {
		case s := <-interrupted:
			cfg.kids.stopAll()
			os.RemoveAll(cfg.workdir)
			fmt.Fprintln(stderr, "bench: interrupted by", s)
			os.Exit(1)
		case <-finished:
		}
	}()

	manifest, _ := json.Marshal(newManifest(cfg))
	fmt.Fprintf(stdout, "bench: manifest %s\n", manifest)
	out, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	res, err := report(cfg, out, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

func runWorkload(cfg runConfig) (*outcome, error) {
	if cfg.spec.Kind == kindCount {
		return runCount(cfg)
	}
	return runServe(cfg)
}

// report prints the informational lines, writes the trace of a traced
// run, and assembles the result from the metrics the mode reports.
func report(cfg runConfig, out *outcome, stdout io.Writer) (result, error) {
	defs := endToEnd
	if cfg.traced {
		defs = perLayer
		path := filepath.Join(cfg.outdir, fmt.Sprintf("trace-%s-seed%d.json", cfg.spec.Name, cfg.seed))
		if err := writeTrace(out.tr, path); err != nil {
			return result{}, err
		}
		fmt.Fprintf(stdout, "bench: trace %s\n", path)
		// The end-to-end values under tracing, for the overhead comparison.
		for _, d := range endToEnd {
			fmt.Fprintf(stdout, "bench: traced %s %.6g %s\n", d.Name, out.values[d.Name], d.Unit)
		}
	}
	for _, n := range out.notes {
		fmt.Fprintf(stdout, "bench: %s\n", n)
	}
	for _, w := range out.wrong {
		fmt.Fprintf(stdout, "bench: WRONG %s\n", w)
	}
	res := result{
		Correct:   len(out.wrong) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metric{},
	}
	for _, d := range defs {
		v, ok := out.values[d.Name]
		if !ok && !cfg.traced {
			return result{}, fmt.Errorf("%s did not measure %s", cfg.spec.Name, d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("%s measured %s = %g", cfg.spec.Name, d.Name, v)
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
		n := ""
		if s, ok := out.samples[d.Name]; ok {
			n = fmt.Sprintf(" n=%d", s)
		}
		fmt.Fprintf(stdout, "bench: %s %.6g %s%s\n", d.Name, v, d.Unit, n)
	}
	if res.Attempted < 1 {
		return result{}, errors.New("no operation was attempted")
	}
	return res, nil
}

// newTracer returns the run's span tracer, nil for an untraced run.
func newTracer(cfg runConfig) *cncount.Tracer {
	if !cfg.traced {
		return nil
	}
	return cncount.NewTracer()
}

// timed runs f inside a span on the tracer's main row and returns its
// wall time.
func timed(tr *cncount.Tracer, name string, f func() error) (time.Duration, error) {
	stop := tr.Span(name)
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	stop()
	return d, err
}

// writeTrace writes the run's span trace and checks it against the trace
// schema, so a truncated or malformed timeline fails the run.
func writeTrace(tr *cncount.Tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := tr.WriteJSON(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return trace.Validate(data)
}

// runManifest describes the host, build and configuration of one run.
type runManifest struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Traced     bool   `json:"traced"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Revision   string `json:"vcs_revision"`
	Modified   string `json:"vcs_modified"`
	Spec       spec   `json:"spec"`
}

func newManifest(cfg runConfig) runManifest {
	m := runManifest{
		Workload:   cfg.spec.Name,
		Seed:       cfg.seed,
		Traced:     cfg.traced,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Revision:   "unknown",
		Modified:   "unknown",
		Spec:       cfg.spec,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m.Revision = s.Value
			case "vcs.modified":
				m.Modified = s.Value
			}
		}
	}
	return m
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
