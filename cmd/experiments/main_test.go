package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"cncount/internal/experiments"
	"cncount/internal/trace"
)

func TestRunListWritesIDs(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), appConfig{list: true}, &buf); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"table1", "fig10", "ablations"} {
		if !strings.Contains(buf.String(), id) {
			t.Errorf("list output missing %q:\n%s", id, buf.String())
		}
	}
}

// TestRunSingleExperimentWithTraceAndMetrics drives one counting
// experiment end to end with both observers: the per-experiment trace
// file must pass the Chrome trace-event schema check and contain the
// generation and counting spans, and the metrics array must parse.
func TestRunSingleExperimentWithTraceAndMetrics(t *testing.T) {
	dir := t.TempDir()
	cfg := appConfig{id: "fig3", scale: 0.05, metricsOut: "-", traceDir: filepath.Join(dir, "traces")}
	var buf bytes.Buffer
	if err := run(context.Background(), cfg, &buf); err != nil {
		t.Fatalf("run: %v\n%s", err, buf.String())
	}

	data, err := os.ReadFile(filepath.Join(cfg.traceDir, "trace_fig3.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Validate(data); err != nil {
		t.Fatalf("experiment trace fails schema check: %v", err)
	}
	_, names, err := trace.SpanCount(data)
	if err != nil {
		t.Fatal(err)
	}
	var hasGen, hasCount bool
	for name := range names {
		if strings.HasPrefix(name, "gen.") {
			hasGen = true
		}
		if name == "core.count" {
			hasCount = true
		}
	}
	if !hasGen || !hasCount {
		t.Errorf("trace missing gen/count spans: %v", names)
	}

	// The metrics snapshot array is the line starting with '[' on stdout.
	var jsonLine string
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "[") {
			jsonLine = line
			break
		}
	}
	if jsonLine == "" {
		t.Fatalf("no metrics array in output:\n%s", buf.String())
	}
	var snaps []experimentMetrics
	if err := json.Unmarshal([]byte(jsonLine), &snaps); err != nil {
		t.Fatalf("metrics array is not valid JSON: %v", err)
	}
	if len(snaps) != 1 || snaps[0].Experiment != "fig3" {
		t.Errorf("snapshots = %+v, want one for fig3", snaps)
	}
}

// goldenAll is the output of `-experiment all -scale 0.1`. A change that
// moves a modeled cell regenerates it with
//
//	go run ./cmd/experiments -experiment all -scale 0.1 -out cmd/experiments/testdata/all_scale0.1.golden
//
// and lists the moved cells in its description.
const goldenAll = "testdata/all_scale0.1.golden"

// codeBlockRE matches one experiment's fenced output block.
var codeBlockRE = regexp.MustCompile("(?s)```\n(.*?)```")

// TestAllExperimentsMatchGolden pins every modeled table and figure: the
// whole run at scale 0.1 must reproduce the golden file byte for byte,
// and each experiment must render a non-empty block of finite values.
func TestAllExperimentsMatchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	var buf bytes.Buffer
	if err := run(context.Background(), appConfig{id: "all", scale: 0.1}, &buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	blocks := codeBlockRE.FindAllStringSubmatch(got, -1)
	if len(blocks) != len(experiments.All) {
		t.Errorf("%d output blocks for %d experiments", len(blocks), len(experiments.All))
	}
	for i, b := range blocks {
		if strings.TrimSpace(b[1]) == "" {
			t.Errorf("block %d is empty", i+1)
		}
	}
	if strings.Contains(got, "NaN") || strings.Contains(got, "+Inf") {
		t.Error("output holds non-finite values")
	}
	want, err := os.ReadFile(goldenAll)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range gotLines {
		if i >= len(wantLines) || gotLines[i] != wantLines[i] {
			var w string
			if i < len(wantLines) {
				w = wantLines[i]
			}
			t.Fatalf("output differs from %s at line %d:\n got: %s\nwant: %s", goldenAll, i+1, gotLines[i], w)
		}
	}
	t.Fatalf("output is a prefix of %s: %d lines, want %d", goldenAll, len(gotLines), len(wantLines))
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run(context.Background(), appConfig{id: "fig999"}, io.Discard); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunUnwritableOutExitsNonZero(t *testing.T) {
	cfg := appConfig{id: "table1", scale: 0.05, out: filepath.Join(t.TempDir(), "missing-dir", "out.md")}
	if err := run(context.Background(), cfg, io.Discard); err == nil {
		t.Error("unwritable -out path did not fail the run")
	}
}

func TestRunUnwritableTraceDirExitsNonZero(t *testing.T) {
	dir := t.TempDir()
	// A file where the trace directory should be makes MkdirAll fail.
	blocker := filepath.Join(dir, "blocker")
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := appConfig{id: "table1", scale: 0.05, traceDir: filepath.Join(blocker, "traces")}
	if err := run(context.Background(), cfg, io.Discard); err == nil {
		t.Error("unwritable -trace-dir did not fail the run")
	}
}

// TestRunCanceledContextAborts pins the cooperative-cancel contract: a
// dead context stops the sweep before the first experiment and surfaces
// as a non-zero exit naming the abort point.
func TestRunCanceledContextAborts(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := appConfig{id: "table1", scale: 0.05}
	err := run(ctx, cfg, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "aborted before table1") {
		t.Fatalf("run err = %v, want pre-experiment abort", err)
	}
}

// TestRunTimeoutFlagAborts exercises the -timeout wrapping: an
// already-expired deadline must abort the run with a deadline cause.
func TestRunTimeoutFlagAborts(t *testing.T) {
	cfg := appConfig{id: "table1", scale: 0.05, timeout: 1}
	err := run(context.Background(), cfg, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("run err = %v, want deadline abort", err)
	}
}

func TestRunOutputErrorExitsNonZero(t *testing.T) {
	cfg := appConfig{id: "table1", scale: 0.05}
	if err := run(context.Background(), cfg, failWriter{}); err == nil {
		t.Error("output write failure did not fail the run")
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) {
	return 0, io.ErrClosedPipe
}
