package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cncount"
	"cncount/internal/benchfmt"
	"cncount/internal/chaos"
	"cncount/internal/logx"
	"cncount/internal/metrics"
)

// tinyRun is an appConfig whose matrix finishes in well under a second.
func tinyRun(out string) appConfig {
	return appConfig{
		label: "test", out: out,
		profiles: "WI", scale: 0.05,
		algos: "mps,bmp", workers: "1,2", reps: 1,
		threshold: 0.10,
	}
}

// captureLog points cfg's structured logger at a goroutine-safe buffer
// in text format and returns the buffer.
func captureLog(t *testing.T, cfg *appConfig) *syncBuffer {
	t.Helper()
	buf := &syncBuffer{}
	logger, err := logx.New(buf, "text", "benchrun")
	if err != nil {
		t.Fatal(err)
	}
	cfg.logger = logger
	return buf
}

// TestRunWritesSchemaVersionedReport drives the harness end to end and
// checks the written file loads under the schema gate with a full matrix.
func TestRunWritesSchemaVersionedReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	var buf bytes.Buffer
	if err := run(context.Background(), tinyRun(path), &buf); err != nil {
		t.Fatalf("run: %v\n%s", err, buf.String())
	}
	rep, err := benchfmt.LoadFile(path)
	if err != nil {
		t.Fatalf("written report fails schema load: %v", err)
	}
	if rep.Schema != benchfmt.Schema || rep.Label != "test" {
		t.Errorf("header = %q/%q", rep.Schema, rep.Label)
	}
	if len(rep.Results) != 4 { // 1 profile × 2 algos × 2 worker counts
		t.Fatalf("results = %d, want 4", len(rep.Results))
	}
	seen := map[benchfmt.Key]bool{}
	for _, r := range rep.Results {
		seen[r.Key()] = true
		if r.NsPerEdge <= 0 || r.ElapsedNanos <= 0 || r.Edges <= 0 {
			t.Errorf("%v: empty measurement %+v", r.Key(), r)
		}
		if r.Workers == 1 && r.SpeedupVs1 != 1.0 {
			t.Errorf("%v: speedup vs itself = %g, want 1", r.Key(), r.SpeedupVs1)
		}
		if r.Counters["core.edges_scanned"] == 0 {
			t.Errorf("%v: counters not captured", r.Key())
		}
	}
	if len(seen) != 4 {
		t.Errorf("duplicate cells: %v", seen)
	}
	if rep.Manifest == nil {
		t.Fatal("report carries no manifest")
	}
	if rep.Manifest.GoVersion == "" || rep.Manifest.GOMAXPROCS < 1 {
		t.Errorf("manifest environment empty: %+v", rep.Manifest)
	}
	for key, want := range map[string]string{
		"harness": "benchrun", "profiles": "WI", "workers": "1,2", "reps": "1",
	} {
		if got := rep.Manifest.Config[key]; got != want {
			t.Errorf("manifest config %s = %q, want %q", key, got, want)
		}
	}
}

// TestRunEmitsHeartbeats checks each matrix cell logs structured
// started/finished heartbeat events so a long run redirected to a file
// stays watchable on stderr.
func TestRunEmitsHeartbeats(t *testing.T) {
	cfg := tinyRun(filepath.Join(t.TempDir(), "out.json"))
	logBuf := captureLog(t, &cfg)
	if err := run(context.Background(), cfg, io.Discard); err != nil {
		t.Fatal(err)
	}
	logs := logBuf.String()
	for _, want := range []string{
		`msg="cell started"`, `msg="cell finished"`,
		"cell=WI/MPS/w1", "cell=WI/BMP/w2",
		"ns_per_edge=", "component=benchrun",
	} {
		if !strings.Contains(logs, want) {
			t.Errorf("heartbeat %q missing in:\n%s", want, logs)
		}
	}
}

// TestRunEmitsJSONHeartbeats checks -logfmt json makes every heartbeat
// one parseable JSON record, and a bad -logfmt fails the run.
func TestRunEmitsJSONHeartbeats(t *testing.T) {
	cfg := tinyRun(filepath.Join(t.TempDir(), "out.json"))
	cfg.logFormat = "yaml"
	if err := run(context.Background(), cfg, io.Discard); err == nil {
		t.Error("unknown -logfmt accepted")
	}

	cfg = tinyRun(filepath.Join(t.TempDir(), "out.json"))
	logBuf := &syncBuffer{}
	logger, err := logx.New(logBuf, "json", "benchrun")
	if err != nil {
		t.Fatal(err)
	}
	cfg.logger = logger
	if err := run(context.Background(), cfg, io.Discard); err != nil {
		t.Fatal(err)
	}
	started := 0
	for _, line := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line is not JSON: %v\n%s", err, line)
		}
		if rec["msg"] == "cell started" {
			started++
			if rec["cell"] == nil || rec["reps"] == nil {
				t.Errorf("started event lacks attrs: %v", rec)
			}
		}
	}
	if started != 4 {
		t.Errorf("started events = %d, want 4", started)
	}
}

// TestRunMultiPassMergesCells checks -passes repeats the matrix but the
// report still holds exactly one merged result per cell, with the pass
// count recorded in the manifest and per-pass heartbeats in the log.
func TestRunMultiPassMergesCells(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_passes.json")
	cfg := tinyRun(path)
	cfg.passes = 2
	logBuf := captureLog(t, &cfg)
	var buf bytes.Buffer
	if err := run(context.Background(), cfg, &buf); err != nil {
		t.Fatalf("run: %v\n%s", err, buf.String())
	}
	rep, err := benchfmt.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 4 { // 1 profile × 2 algos × 2 worker counts, merged
		t.Fatalf("results = %d, want 4 merged cells", len(rep.Results))
	}
	seen := map[benchfmt.Key]bool{}
	for _, r := range rep.Results {
		if seen[r.Key()] {
			t.Errorf("cell %v appears twice after merging", r.Key())
		}
		seen[r.Key()] = true
		if r.Failed || r.ElapsedNanos <= 0 {
			t.Errorf("%v: bad merged cell %+v", r.Key(), r)
		}
	}
	if got := rep.Manifest.Config["passes"]; got != "2" {
		t.Errorf("manifest passes = %q, want 2", got)
	}
	logs := logBuf.String()
	for _, want := range []string{
		"cell=WI/MPS/w1", "pass=1", "pass=2", "passes=2",
	} {
		if !strings.Contains(logs, want) {
			t.Errorf("heartbeat %q missing in:\n%s", want, logs)
		}
	}
}

// TestBaselineDiffWarnsOnManifestDivergence checks a cross-environment
// diff prints manifest warnings without failing the comparison.
func TestBaselineDiffWarnsOnManifestDivergence(t *testing.T) {
	dir := t.TempDir()
	basePath := filepath.Join(dir, "BENCH_base.json")
	if err := run(context.Background(), tinyRun(basePath), io.Discard); err != nil {
		t.Fatal(err)
	}
	head, err := benchfmt.LoadFile(basePath)
	if err != nil {
		t.Fatal(err)
	}
	head.Label = "head"
	head.Manifest.VCSRevision = "0000000000000000000000000000000000000000"
	head.Manifest.GOMAXPROCS++
	headPath := filepath.Join(dir, "BENCH_head.json")
	if err := benchfmt.WriteFile(headPath, head); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	cfg := appConfig{baseline: basePath, input: headPath, threshold: 0.10}
	if err := run(context.Background(), cfg, &buf); err != nil {
		t.Fatalf("divergence warnings failed the diff: %v\n%s", err, buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "warning: manifests diverge on gomaxprocs") ||
		!strings.Contains(out, "vcs_revision") {
		t.Errorf("divergence warnings missing:\n%s", out)
	}
	if !strings.Contains(out, "no regressions") {
		t.Errorf("diff verdict missing:\n%s", out)
	}
}

// TestRunHTTPPlaneServes checks -http mounts the plane for the duration
// of the run: the report still writes, and the harness logs the bound
// address. (Endpoint behavior itself is covered in internal/obs.)
func TestRunHTTPPlaneServes(t *testing.T) {
	cfg := tinyRun(filepath.Join(t.TempDir(), "out.json"))
	cfg.httpAddr = "127.0.0.1:0"
	logBuf := captureLog(t, &cfg)
	if err := run(context.Background(), cfg, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(logBuf.String(), "observability plane listening on") {
		t.Errorf("plane address not logged:\n%s", logBuf.String())
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for capturing log output.
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

// TestBaselineDiffDetectsInjectedRegression writes a report, injects a
// past-threshold slowdown into a copy, and checks the diff run fails.
func TestBaselineDiffDetectsInjectedRegression(t *testing.T) {
	dir := t.TempDir()
	basePath := filepath.Join(dir, "BENCH_base.json")
	var buf bytes.Buffer
	if err := run(context.Background(), tinyRun(basePath), &buf); err != nil {
		t.Fatal(err)
	}

	head, err := benchfmt.LoadFile(basePath)
	if err != nil {
		t.Fatal(err)
	}
	head.Label = "head"
	head.Results[0].NsPerEdge *= 1.5 // +50% ≫ 10% threshold
	headPath := filepath.Join(dir, "BENCH_head.json")
	if err := benchfmt.WriteFile(headPath, head); err != nil {
		t.Fatal(err)
	}

	cfg := appConfig{baseline: basePath, input: headPath, threshold: 0.10}
	buf.Reset()
	err = run(context.Background(), cfg, &buf)
	if err == nil {
		t.Fatalf("injected regression passed the diff:\n%s", buf.String())
	}
	if !strings.Contains(err.Error(), "regressed") {
		t.Errorf("unexpected error: %v", err)
	}
	if !strings.Contains(buf.String(), "REGRESSED") {
		t.Errorf("regressed cell not reported:\n%s", buf.String())
	}
}

// TestBaselineDiffIdenticalPasses diffs a report against itself.
func TestBaselineDiffIdenticalPasses(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_base.json")
	if err := run(context.Background(), tinyRun(path), io.Discard); err != nil {
		t.Fatal(err)
	}
	cfg := appConfig{baseline: path, input: path, threshold: 0.10}
	var buf bytes.Buffer
	if err := run(context.Background(), cfg, &buf); err != nil {
		t.Fatalf("self-diff failed: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "no regressions") {
		t.Errorf("verdict missing:\n%s", buf.String())
	}
}

// TestRunRejectsBadFlags covers the flag validation paths.
func TestRunRejectsBadFlags(t *testing.T) {
	for name, mutate := range map[string]func(*appConfig){
		"bad algo":     func(c *appConfig) { c.algos = "quantum" },
		"bad workers":  func(c *appConfig) { c.workers = "0" },
		"empty algos":  func(c *appConfig) { c.algos = "," },
		"zero reps":    func(c *appConfig) { c.reps = 0 },
		"bad profile":  func(c *appConfig) { c.profiles = "NOPE" },
		"missing base": func(c *appConfig) { c.baseline = "/nonexistent/b.json" },
	} {
		cfg := tinyRun(filepath.Join(t.TempDir(), "out.json"))
		mutate(&cfg)
		if err := run(context.Background(), cfg, io.Discard); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestRunCellTimeoutRecordsFailedCells forces every cell attempt to time
// out: each cell must be retried once, then recorded as failed (with the
// error string) in the written report, the matrix must still cover every
// cell, and the run must exit non-zero because cells failed.
func TestRunCellTimeoutRecordsFailedCells(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_fail.json")
	cfg := tinyRun(path)
	cfg.cellTimeout = 1 * time.Nanosecond
	logBuf := captureLog(t, &cfg)
	var buf bytes.Buffer
	err := run(context.Background(), cfg, &buf)
	if err == nil || !strings.Contains(err.Error(), "cells failed") {
		t.Fatalf("run err = %v, want failed-cell verdict\n%s", err, buf.String())
	}
	if !strings.Contains(err.Error(), "4 of 4") {
		t.Errorf("verdict = %v, want all 4 cells failed", err)
	}
	if !strings.Contains(logBuf.String(), "retrying once") {
		t.Errorf("retry heartbeat missing:\n%s", logBuf.String())
	}

	rep, lerr := benchfmt.LoadFile(path)
	if lerr != nil {
		t.Fatalf("failed-cell report not written: %v", lerr)
	}
	if len(rep.Results) != 4 {
		t.Fatalf("results = %d, want all 4 cells recorded", len(rep.Results))
	}
	for _, r := range rep.Results {
		if !r.Failed {
			t.Errorf("%v: not marked failed: %+v", r.Key(), r)
		}
		if !strings.Contains(r.Error, "deadline") && !strings.Contains(r.Error, "canceled") {
			t.Errorf("%v: error string %q lacks cause", r.Key(), r.Error)
		}
		if r.Graph == "" || r.Algo == "" {
			t.Errorf("failed cell lost identity: %+v", r)
		}
	}
	if !strings.Contains(buf.String(), "FAILED") {
		t.Errorf("failed cells not reported on stdout:\n%s", buf.String())
	}
}

// TestRunTimeoutAbortsMatrixButWritesPartialReport cancels the whole
// invocation up front: the matrix aborts rather than grinding through
// cells, yet a (possibly empty) report is still written and the error
// names the abort.
func TestRunTimeoutAbortsMatrixButWritesPartialReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_abort.json")
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled before the first cell
	err := run(ctx, tinyRun(path), io.Discard)
	if err == nil || !strings.Contains(err.Error(), "matrix aborted") {
		t.Fatalf("run err = %v, want matrix abort", err)
	}
	rep, lerr := benchfmt.LoadFile(path)
	if lerr != nil {
		t.Fatalf("partial report not written: %v", lerr)
	}
	if len(rep.Results) != 0 {
		t.Errorf("pre-canceled run measured %d cells", len(rep.Results))
	}
}

// TestBaselineDiffFlagsFailedHeadCells injects a failed cell into a head
// report copy and checks the diff run fails and names it.
func TestBaselineDiffFlagsFailedHeadCells(t *testing.T) {
	dir := t.TempDir()
	basePath := filepath.Join(dir, "BENCH_base.json")
	if err := run(context.Background(), tinyRun(basePath), io.Discard); err != nil {
		t.Fatal(err)
	}
	head, err := benchfmt.LoadFile(basePath)
	if err != nil {
		t.Fatal(err)
	}
	head.Label = "head"
	head.Results[0].Failed = true
	head.Results[0].Error = "injected failure"
	headPath := filepath.Join(dir, "BENCH_head.json")
	if err := benchfmt.WriteFile(headPath, head); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	cfg := appConfig{baseline: basePath, input: headPath, threshold: 0.10}
	err = run(context.Background(), cfg, &buf)
	if err == nil || !strings.Contains(err.Error(), "regressed") {
		t.Fatalf("failed head cell passed the diff: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "failed in head  REGRESSED") {
		t.Errorf("failed cell not reported:\n%s", buf.String())
	}
}

// TestRunOutputErrorExitsNonZero models a broken stdout pipe.
func TestRunOutputErrorExitsNonZero(t *testing.T) {
	cfg := tinyRun("-") // report to stdout, which fails immediately
	if err := run(context.Background(), cfg, failWriter{}); err == nil {
		t.Error("output write failure did not fail the run")
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) {
	return 0, io.ErrClosedPipe
}

// TestRetrySurvivingAttemptOnlySampleSet is the regression test for the
// retry-once report semantics: when a cell's first attempt fails and the
// retry succeeds, the report cell must carry exactly the surviving
// attempt's sample set — one result for the cell key, not marked failed,
// with counters and attribution identical to a fault-free control run —
// and never a mixture of the failed and surviving attempts' metrics.
// The failure is forced by a deterministic chaos schedule (one planned
// panic on the first counting call) injected through the countFn seam.
func TestRetrySurvivingAttemptOnlySampleSet(t *testing.T) {
	base := func(out string) appConfig {
		return appConfig{
			label: "retry", out: out,
			profiles: "WI", scale: 0.05,
			algos: "bmp", workers: "2", reps: 2,
			threshold: 0.10,
		}
	}

	// Control: the same cell with no faults.
	ctrlPath := filepath.Join(t.TempDir(), "BENCH_ctrl.json")
	if err := run(context.Background(), base(ctrlPath), io.Discard); err != nil {
		t.Fatalf("control run: %v", err)
	}
	ctrl, err := benchfmt.LoadFile(ctrlPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(ctrl.Results) != 1 {
		t.Fatalf("control results = %d, want 1", len(ctrl.Results))
	}

	// Chaos run: the injector's schedule fires one panic on counting call
	// index 0 (Steps=1 clamps the placement), i.e. the first attempt's
	// first rep. The seam converts the planned panic into the attempt
	// error a real mid-cell fault would produce.
	inj := chaos.New(chaos.Plan{Seed: 7, Steps: 1, Panics: 1})
	var calls atomic.Int64
	path := filepath.Join(t.TempDir(), "BENCH_retry.json")
	cfg := base(path)
	cfg.countFn = func(g *cncount.Graph, opts cncount.Options) (res *cncount.Result, err error) {
		calls.Add(1)
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("injected chaos fault: %v", p)
			}
		}()
		inj.Step()
		return cncount.Count(g, opts)
	}
	logBuf := captureLog(t, &cfg)
	if err := run(context.Background(), cfg, io.Discard); err != nil {
		t.Fatalf("run with retried cell must succeed, got: %v\n%s", err, logBuf.String())
	}
	if !strings.Contains(logBuf.String(), "retrying once") {
		t.Errorf("retry heartbeat missing:\n%s", logBuf.String())
	}
	// 1 failed call + 2 reps of the surviving attempt.
	if got := calls.Load(); got != 3 {
		t.Errorf("counting calls = %d, want 3 (1 failed + 2 surviving reps)", got)
	}

	rep, err := benchfmt.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 1 {
		t.Fatalf("results = %d, want exactly 1 for the retried cell", len(rep.Results))
	}
	got, want := rep.Results[0], ctrl.Results[0]
	if got.Failed {
		t.Fatalf("retried cell recorded as failed: %+v", got)
	}
	if got.Key() != want.Key() {
		t.Fatalf("cell key = %v, want %v", got.Key(), want.Key())
	}
	if got.ElapsedNanos <= 0 || got.NsPerEdge <= 0 {
		t.Errorf("surviving attempt lost its measurement: %+v", got)
	}
	// Deterministic counters must match the control exactly: any surplus
	// would be the failed attempt's work double-recorded into the cell.
	// Counters holding sampled wall-clock time (…_nanos_…) vary run to
	// run and are excluded, same as attribution nanos below.
	if g, w := workCounters(got.Counters), workCounters(want.Counters); !maps.Equal(g, w) {
		t.Errorf("retried cell counters = %v, want control %v", g, w)
	}
	// Attribution call counts likewise (sampled nanos are wall-clock and
	// excluded): compare total calls per (kernel, bucket).
	if g, w := attrCalls(got.Attribution), attrCalls(want.Attribution); !maps.Equal(g, w) {
		t.Errorf("retried cell attribution calls = %v, want control %v", g, w)
	}
}

// workCounters drops wall-clock-valued counters (key contains "nanos")
// and sampling-cadence counters (key contains "samples"): sampling is
// every-Nth-call per worker, so with >1 worker the sample total depends
// on how work stealing split the calls, not on the work done. Only the
// deterministic work counters remain for exact comparison.
func workCounters(c map[string]uint64) map[string]uint64 {
	out := map[string]uint64{}
	for k, v := range c {
		if !strings.Contains(k, "nanos") && !strings.Contains(k, "samples") {
			out[k] = v
		}
	}
	return out
}

// attrCalls flattens attribution rows into (scope/kernel/bucket) → calls.
func attrCalls(rows []metrics.KernelAttr) map[string]uint64 {
	out := map[string]uint64{}
	for _, r := range rows {
		for _, b := range r.Buckets {
			out[fmt.Sprintf("%s/%s/%d", r.Scope, r.Kernel, b.MinDegLen)] += b.Count
		}
	}
	return out
}

// TestRunIngestWritesReport drives -ingest end to end: the written
// report must carry one "ingest" row per worker count with a positive
// updates/sec, and its manifest must record the ingest shape so
// baseline diffs can check comparability.
func TestRunIngestWritesReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_ingest.json")
	cfg := appConfig{
		label: "ingest-test", out: path,
		profiles: "WI", scale: 0.05,
		algos: "mps", workers: "1,2", reps: 1,
		ingest: true, batches: 10, batchOps: 8, fsync: "off",
	}
	captureLog(t, &cfg)
	var buf bytes.Buffer
	if err := run(context.Background(), cfg, &buf); err != nil {
		t.Fatalf("run: %v\n%s", err, buf.String())
	}
	rep, err := benchfmt.LoadFile(path)
	if err != nil {
		t.Fatalf("written report fails schema load: %v", err)
	}
	if len(rep.Results) != 2 {
		t.Fatalf("results = %d, want 2 (1 profile x 2 worker counts)", len(rep.Results))
	}
	for _, r := range rep.Results {
		if r.Algo != "ingest" {
			t.Errorf("%v: algo = %q, want ingest", r.Key(), r.Algo)
		}
		if r.UpdatesPerSec <= 0 || r.NsPerEdge <= 0 || r.ElapsedNanos <= 0 {
			t.Errorf("%v: empty ingest measurement %+v", r.Key(), r)
		}
		if r.Edges != 10*8 {
			t.Errorf("%v: ops = %d, want 80", r.Key(), r.Edges)
		}
	}
	for key, want := range map[string]string{
		"mode": "ingest", "batches": "10", "batchops": "8", "fsync": "off",
	} {
		if got := rep.Manifest.Config[key]; got != want {
			t.Errorf("manifest config %s = %q, want %q", key, got, want)
		}
	}
}
