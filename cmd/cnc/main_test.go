package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"cncount"
	"cncount/internal/logx"
	"cncount/internal/trace"
)

func TestParseProcessor(t *testing.T) {
	cases := map[string]cncount.Processor{
		"cpu": cncount.ProcCPU, "KNL": cncount.ProcKNL, "gpu": cncount.ProcGPU,
	}
	for in, want := range cases {
		got, err := parseProcessor(in)
		if err != nil {
			t.Errorf("parseProcessor(%q): %v", in, err)
		}
		if got != want {
			t.Errorf("parseProcessor(%q) = %v, want %v", in, got, want)
		}
	}
	if _, err := parseProcessor("tpu"); err == nil {
		t.Error("unknown processor accepted")
	}
}

func TestLoadOrGenerate(t *testing.T) {
	if _, _, err := loadOrGenerate("x.txt", "TW", 1, nil, nil); err == nil {
		t.Error("both -graph and -profile accepted")
	}
	if _, _, err := loadOrGenerate("", "", 1, nil, nil); err == nil {
		t.Error("neither -graph nor -profile accepted")
	}
	g, name, err := loadOrGenerate("", "LJ", 0.05, nil, nil)
	if err != nil {
		t.Fatalf("profile generation: %v", err)
	}
	if name != "LJ" || g.NumEdges() == 0 {
		t.Errorf("generated %q with %d edges", name, g.NumEdges())
	}

	path := filepath.Join(t.TempDir(), "g.bin")
	if err := cncount.SaveGraph(path, g); err != nil {
		t.Fatal(err)
	}
	g2, name2, err := loadOrGenerate(path, "", 1, nil, nil)
	if err != nil {
		t.Fatalf("file load: %v", err)
	}
	if name2 != path || g2.NumEdges() != g.NumEdges() {
		t.Error("file round trip mismatch")
	}
}

// smallRun is an appConfig that finishes quickly for CLI-level tests.
func smallRun() appConfig {
	return appConfig{profile: "WI", scale: 0.1, algoName: "bmp", threads: 2, reorder: true}
}

// TestRunMetricsSnapshotToStdout drives `cnc -metrics -` end to end and
// validates the emitted JSON: phase durations, per-worker scheduler
// tallies, and the imbalance summary must all be present and coherent.
func TestRunMetricsSnapshotToStdout(t *testing.T) {
	cfg := smallRun()
	cfg.metricsOut = "-"
	var buf bytes.Buffer
	if err := run(context.Background(), cfg, &buf); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, buf.String())
	}

	snap := stdoutSnapshot(t, buf.String())
	for _, phase := range []string{"generate", "core.setup", "core.count", "core.reduce"} {
		if _, ok := snap.Phase(phase); !ok {
			t.Errorf("phase %q missing from snapshot", phase)
		}
	}
	// BMP orients each edge by degree itself, so -reorder relabels nothing
	// for it and the manifest says so (TestRunReorderPhases covers an
	// algorithm that relabels).
	for _, phase := range []string{"reorder", "map_counts"} {
		if _, ok := snap.Phase(phase); ok {
			t.Errorf("BMP run recorded phase %q", phase)
		}
	}
	if snap.Manifest == nil || snap.Manifest.Config["reorder"] != "false" {
		t.Errorf("BMP run's manifest does not record reorder=false: %+v", snap.Manifest)
	} else if snap.Manifest.SIMD == "" {
		t.Error("manifest does not record which kernels ran (simd)")
	}
	if snap.Counters["core.edges_scanned"] == 0 {
		t.Error("edges_scanned counter missing or zero")
	}
	if len(snap.Sched) != 1 {
		t.Fatalf("sched snapshots = %d, want 1", len(snap.Sched))
	}
	sc := snap.Sched[0]
	if sc.Scope != "core.count" || len(sc.Workers) != 2 {
		t.Errorf("sched scope=%q workers=%d, want core.count/2", sc.Scope, len(sc.Workers))
	}
	var units uint64
	for _, w := range sc.Workers {
		units += w.UnitsProcessed
	}
	if units != snap.Counters["core.edges_scanned"] {
		t.Errorf("worker units %d != edges scanned %d", units, snap.Counters["core.edges_scanned"])
	}
	if sc.Imbalance.Ratio < 1.0 {
		t.Errorf("imbalance ratio = %g, want >= 1 for a real run", sc.Imbalance.Ratio)
	}
}

// stdoutSnapshot decodes the metrics snapshot from cnc's stdout: the
// single line starting with '{' (everything else cnc prints is plain
// text).
func stdoutSnapshot(t *testing.T, out string) cncount.MetricsSnapshot {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var snap cncount.MetricsSnapshot
		if err := json.Unmarshal([]byte(line), &snap); err != nil {
			t.Fatalf("snapshot is not valid JSON: %v\n%s", err, line)
		}
		return snap
	}
	t.Fatalf("no JSON snapshot in output:\n%s", out)
	return cncount.MetricsSnapshot{}
}

// TestRunReorderPhases runs -reorder with MPS, which still relabels:
// the metrics snapshot and the trace both carry the reorder and
// map_counts phases, and the manifest records reorder=true.
func TestRunReorderPhases(t *testing.T) {
	cfg := smallRun()
	cfg.algoName = "mps"
	cfg.metricsOut = "-"
	cfg.traceOut = filepath.Join(t.TempDir(), "out.json")
	var buf bytes.Buffer
	if err := run(context.Background(), cfg, &buf); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, buf.String())
	}
	snap := stdoutSnapshot(t, buf.String())
	data, err := os.ReadFile(cfg.traceOut)
	if err != nil {
		t.Fatal(err)
	}
	_, names, err := trace.SpanCount(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, phase := range []string{"reorder", "map_counts"} {
		if _, ok := snap.Phase(phase); !ok {
			t.Errorf("phase %q missing from snapshot", phase)
		}
		if names[phase] == 0 {
			t.Errorf("phase span %q missing from trace; spans: %v", phase, names)
		}
	}
	if snap.Manifest == nil || snap.Manifest.Config["reorder"] != "true" {
		t.Errorf("MPS run's manifest does not record reorder=true: %+v", snap.Manifest)
	}
}

func TestRunMetricsSnapshotToFile(t *testing.T) {
	cfg := smallRun()
	cfg.metricsOut = filepath.Join(t.TempDir(), "metrics.json")
	var buf bytes.Buffer
	if err := run(context.Background(), cfg, &buf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(cfg.metricsOut)
	if err != nil {
		t.Fatal(err)
	}
	var snap cncount.MetricsSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("metrics file is not valid JSON: %v", err)
	}
	if len(snap.Phases) == 0 {
		t.Error("metrics file has no phases")
	}
}

func TestRunMetricsFileCreateErrorExitsNonZero(t *testing.T) {
	cfg := smallRun()
	cfg.metricsOut = filepath.Join(t.TempDir(), "missing-dir", "metrics.json")
	if err := run(context.Background(), cfg, io.Discard); err == nil {
		t.Error("unwritable metrics path did not fail the run")
	}
}

// TestRunTraceFile drives `cnc -graph saved.<ext> -trace out.json` end to
// end on a generated-then-saved graph and schema-checks the timeline:
// valid Chrome trace-event JSON, at least one span per sched worker, all
// three core phases, and the load phases of the file's format. A text
// edge list is parsed and then built into a CSR; a binary CSR is decoded
// straight into its arrays and then validated.
func TestRunTraceFile(t *testing.T) {
	g, err := cncount.GenerateProfile("WI", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		file       string
		load, skip string
	}{
		{"g.txt", "graph.build", "graph.validate"},
		{"g.bin", "graph.validate", "graph.build"},
	} {
		t.Run(tc.file, func(t *testing.T) {
			dir := t.TempDir()
			graphPath := filepath.Join(dir, tc.file)
			if err := cncount.SaveGraph(graphPath, g); err != nil {
				t.Fatal(err)
			}

			cfg := smallRun()
			cfg.profile = ""
			cfg.graphPath = graphPath
			cfg.traceOut = filepath.Join(dir, "out.json")
			var buf bytes.Buffer
			if err := run(context.Background(), cfg, &buf); err != nil {
				t.Fatalf("run: %v\noutput:\n%s", err, buf.String())
			}
			if !strings.Contains(buf.String(), "trace written to") {
				t.Error("trace path not announced")
			}

			data, err := os.ReadFile(cfg.traceOut)
			if err != nil {
				t.Fatal(err)
			}
			if err := trace.Validate(data); err != nil {
				t.Fatalf("trace fails schema check: %v\n%s", err, data)
			}
			perTid, names, err := trace.SpanCount(data)
			if err != nil {
				t.Fatal(err)
			}
			// threads=2 → sched workers 0 and 1 → trace rows tid 1 and 2,
			// each with at least one task span.
			for w := 0; w < cfg.threads; w++ {
				if perTid[w+1] == 0 {
					t.Errorf("sched worker %d (tid %d) has no spans; per-tid: %v", w, w+1, perTid)
				}
			}
			for _, phase := range []string{"graph.parse", tc.load, "core.setup", "core.count", "core.reduce"} {
				if names[phase] == 0 {
					t.Errorf("phase span %q missing from trace; spans: %v", phase, names)
				}
			}
			for _, phase := range []string{tc.skip, "reorder", "map_counts"} {
				if names[phase] != 0 {
					t.Errorf("phase span %q traced; spans: %v", phase, names)
				}
			}
		})
	}
}

// TestRunTraceFileCreateErrorExitsNonZero pins the exit contract for an
// unwritable -trace path.
func TestRunTraceFileCreateErrorExitsNonZero(t *testing.T) {
	cfg := smallRun()
	cfg.traceOut = filepath.Join(t.TempDir(), "missing-dir", "out.json")
	if err := run(context.Background(), cfg, io.Discard); err == nil {
		t.Error("unwritable trace path did not fail the run")
	}
}

func TestRunVerifyPasses(t *testing.T) {
	cfg := smallRun()
	cfg.verify = true
	var buf bytes.Buffer
	if err := run(context.Background(), cfg, &buf); err != nil {
		t.Fatalf("verify on a correct run failed: %v", err)
	}
	if !strings.Contains(buf.String(), "verify: counts match") {
		t.Error("verify success not reported")
	}
}

func TestCompareCountsMismatch(t *testing.T) {
	if err := compareCounts([]uint32{1, 2, 3}, []uint32{1, 2, 3}); err != nil {
		t.Errorf("equal counts rejected: %v", err)
	}
	err := compareCounts([]uint32{1, 9, 3}, []uint32{1, 2, 3})
	if err == nil {
		t.Fatal("mismatch accepted")
	}
	if !strings.Contains(err.Error(), "offset 1") {
		t.Errorf("error %q does not locate the mismatch", err)
	}
	if err := compareCounts([]uint32{1}, []uint32{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
}

// failAfterWriter fails every write after the first n bytes, modeling a
// full disk / closed pipe on stdout.
type failAfterWriter struct {
	n       int
	written int
}

func (w *failAfterWriter) Write(p []byte) (int, error) {
	if w.written+len(p) > w.n {
		return 0, errors.New("simulated write failure")
	}
	w.written += len(p)
	return len(p), nil
}

func TestRunOutputErrorExitsNonZero(t *testing.T) {
	cfg := smallRun()
	err := run(context.Background(), cfg, &failAfterWriter{n: 10})
	if err == nil {
		t.Fatal("output write failure did not fail the run")
	}
	if !strings.Contains(err.Error(), "simulated write failure") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestRunBadHTTPAddr(t *testing.T) {
	cfg := smallRun()
	cfg.httpAddr = "256.256.256.256:0"
	if err := run(context.Background(), cfg, io.Discard); err == nil {
		t.Error("invalid -http address accepted")
	}
}

// TestRunRejectsUnknownLogFormat pins that a bad -logfmt fails the run
// before any work starts.
func TestRunRejectsUnknownLogFormat(t *testing.T) {
	cfg := smallRun()
	cfg.logFormat = "yaml"
	if err := run(context.Background(), cfg, io.Discard); err == nil {
		t.Error("unknown -logfmt accepted")
	}
}

// TestRunStructuredLogOnCancel checks lifecycle events come out of the
// configured slog logger as structured records: a timed-out run emits a
// parseable JSON "run did not complete" event under -logfmt json.
func TestRunStructuredLogOnCancel(t *testing.T) {
	cfg := smallRun()
	cfg.timeout = time.Nanosecond // expires before the count starts
	var logBuf bytes.Buffer
	logger, err := logx.New(&logBuf, "json", "cnc")
	if err != nil {
		t.Fatal(err)
	}
	cfg.logger = logger
	if err := run(context.Background(), cfg, io.Discard); err == nil {
		t.Fatal("timed-out run returned nil")
	}
	found := false
	for _, line := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
		if line == "" {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line is not JSON: %v\n%s", err, line)
		}
		if rec["msg"] == "run did not complete" && rec["component"] == "cnc" {
			found = true
			if rec["reason"] == nil {
				t.Errorf("cancellation record lacks reason: %v", rec)
			}
		}
	}
	if !found {
		t.Errorf("no structured cancellation event:\n%s", logBuf.String())
	}
}

// syncBuffer is a bytes.Buffer safe for one writer and one poller.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestRunHTTPPlaneServesLive drives `cnc -http 127.0.0.1:0 -httpwait` and
// scrapes the plane while it is held open: /healthz answers ok, /metrics
// is non-empty Prometheus text with the run's phase series, /progress is
// JSON reporting the whole region done.
func TestRunHTTPPlaneServesLive(t *testing.T) {
	cfg := smallRun()
	cfg.httpAddr = "127.0.0.1:0"
	cfg.httpWait = 2 * time.Second
	var buf syncBuffer
	errc := make(chan error, 1)
	go func() { errc <- run(context.Background(), cfg, &buf) }()

	// The plane outlives the run by -httpwait; find its address.
	var base string
	deadline := time.Now().Add(10 * time.Second)
	for base == "" {
		if time.Now().After(deadline) {
			t.Fatalf("plane address never announced:\n%s", buf.String())
		}
		for _, line := range strings.Split(buf.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, "observability plane listening on "); ok {
				base = strings.TrimSuffix(strings.Fields(rest)[0], "/")
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Wait for the run itself to finish (the hold message) so /progress
	// reads the final state.
	for !strings.Contains(buf.String(), "holding observability plane") {
		if time.Now().After(deadline) {
			t.Fatalf("run never finished:\n%s", buf.String())
		}
		time.Sleep(10 * time.Millisecond)
	}

	get := func(path string) string {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d\n%s", path, resp.StatusCode, body)
		}
		return string(body)
	}
	if got := get("/healthz"); !strings.Contains(got, "ok") {
		t.Errorf("/healthz = %q", got)
	}
	metricsBody := get("/metrics")
	for _, series := range []string{
		"cncount_phase_seconds_total{phase=\"core.count\"}",
		"cncount_sched_worker_units_total",
		"cncount_progress_remaining_units 0",
		"cncount_build_info",
	} {
		if !strings.Contains(metricsBody, series) {
			t.Errorf("/metrics missing %q:\n%s", series, metricsBody)
		}
	}
	// Every non-comment line must look like `name{labels} value`.
	sample := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{.*\})? [^ ]+$`)
	for _, line := range strings.Split(strings.TrimSuffix(metricsBody, "\n"), "\n") {
		if !strings.HasPrefix(line, "#") && !sample.MatchString(line) {
			t.Errorf("/metrics has a malformed exposition line: %q", line)
		}
	}
	var status struct {
		Active         bool  `json:"active"`
		TotalUnits     int64 `json:"total_units"`
		RemainingUnits int64 `json:"remaining_units"`
		Runs           uint64
	}
	if err := json.Unmarshal([]byte(get("/progress")), &status); err != nil {
		t.Fatalf("/progress is not JSON: %v", err)
	}
	if status.Active || status.TotalUnits == 0 || status.RemainingUnits != 0 {
		t.Errorf("/progress after run = %+v, want done and inactive", status)
	}
	if got := get("/debug/pprof/cmdline"); got == "" {
		t.Error("/debug/pprof/cmdline empty")
	}
	if got := get("/dashboard"); !strings.Contains(got, "cncount dashboard") {
		t.Error("/dashboard lacks the embedded page")
	}

	// /trace.json is 404 without -trace.
	resp, err := http.Get(base + "/trace.json")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/trace.json without -trace: status %d, want 404", resp.StatusCode)
	}

	// Wait out the hold so the deferred plane shutdown is exercised too.
	if err := <-errc; err != nil {
		t.Fatalf("run: %v\n%s", err, buf.String())
	}
}

// TestRunTimeoutFlushesAndFails: an expired -timeout aborts the run with
// a typed cancellation, yet the -metrics snapshot is still flushed so the
// abort is diagnosable — the acceptance contract for interrupted runs.
func TestRunTimeoutFlushesAndFails(t *testing.T) {
	cfg := smallRun()
	cfg.timeout = time.Nanosecond // expires before the count starts
	cfg.metricsOut = filepath.Join(t.TempDir(), "metrics.json")
	var buf bytes.Buffer
	err := run(context.Background(), cfg, &buf)
	if err == nil {
		t.Fatalf("timed-out run returned nil\noutput:\n%s", buf.String())
	}
	if !errors.Is(err, cncount.ErrDeadline) {
		t.Errorf("err = %v, want ErrDeadline", err)
	}
	b, rerr := os.ReadFile(cfg.metricsOut)
	if rerr != nil {
		t.Fatalf("timed-out run did not flush metrics: %v", rerr)
	}
	var snap map[string]any
	if jerr := json.Unmarshal(b, &snap); jerr != nil {
		t.Fatalf("flushed metrics not JSON: %v", jerr)
	}
}

// TestRunCanceledContext: cancellation through the caller's context (the
// SIGINT path minus the signal) fails the run with ErrCanceled and still
// flushes the trace file.
func TestRunCanceledContext(t *testing.T) {
	cfg := smallRun()
	cfg.traceOut = filepath.Join(t.TempDir(), "trace.json")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var buf bytes.Buffer
	err := run(ctx, cfg, &buf)
	if !errors.Is(err, cncount.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled\noutput:\n%s", err, buf.String())
	}
	if _, serr := os.Stat(cfg.traceOut); serr != nil {
		t.Errorf("canceled run did not flush trace: %v", serr)
	}
}

// TestRunWatchdogFlagHealthy: a healthy run under -watchdog completes
// normally — the watchdog must never abort a live run.
func TestRunWatchdogFlagHealthy(t *testing.T) {
	cfg := smallRun()
	cfg.watchdog = 30 * time.Second
	var buf bytes.Buffer
	if err := run(context.Background(), cfg, &buf); err != nil {
		t.Fatalf("run under watchdog: %v\noutput:\n%s", err, buf.String())
	}
}

// TestRunMemoryBudgetDowngrade: -membudget 1 forces the BMP→MPS
// downgrade and the run reports it and still succeeds.
func TestRunMemoryBudgetDowngrade(t *testing.T) {
	cfg := smallRun()
	cfg.memBudget = 1
	var buf bytes.Buffer
	if err := run(context.Background(), cfg, &buf); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "downgraded to MPS") {
		t.Errorf("downgrade not reported:\n%s", buf.String())
	}
}

// TestSIGINTMidRunFlushesAndExitsNonZero pins the end-to-end signal
// contract on the real binary: SIGINT mid-count exits non-zero after
// flushing the final metrics snapshot.
func TestSIGINTMidRunFlushesAndExitsNonZero(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and interrupts the real binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "cnc")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	metricsPath := filepath.Join(dir, "metrics.json")
	cmd := exec.Command(bin,
		"-profile", "TW", "-scale", "2", "-algo", "m", "-threads", "2",
		"-reorder=false", "-metrics", metricsPath)
	var out syncBuffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Wait until the count phase has started (the skew line prints just
	// before Count), then interrupt mid-run.
	deadline := time.Now().Add(30 * time.Second)
	for !strings.Contains(out.String(), "skewed intersections") {
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatalf("count never started:\n%s", out.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
	time.Sleep(200 * time.Millisecond) // well inside the ~3s count
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	err := cmd.Wait()
	if err == nil {
		t.Fatalf("SIGINT-ed run exited zero:\n%s", out.String())
	}
	var snap map[string]any
	b, rerr := os.ReadFile(metricsPath)
	if rerr != nil {
		t.Fatalf("no final metrics snapshot after SIGINT: %v\noutput:\n%s", rerr, out.String())
	}
	if jerr := json.Unmarshal(b, &snap); jerr != nil {
		t.Fatalf("flushed snapshot not JSON: %v", jerr)
	}
	if !strings.Contains(out.String(), "unprocessed") {
		t.Errorf("no partial-progress report:\n%s", out.String())
	}
}
