package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cncount/internal/benchfmt"
	"cncount/internal/metrics"
)

// writeReport marshals a report into dir and returns its path.
func writeReport(t *testing.T, dir, name string, r *benchfmt.Report) string {
	t.Helper()
	r.Schema = benchfmt.Schema
	path := filepath.Join(dir, name)
	if err := benchfmt.WriteFile(path, r); err != nil {
		t.Fatal(err)
	}
	return path
}

// history builds a two-report trajectory: WI/BMP/w4 slows past the
// threshold, WI/MPS/w4 holds steady, one cell exists only in the old
// report, and the newest report carries an attribution matrix.
func history(t *testing.T, dir string) (old, new string) {
	t.Helper()
	old = writeReport(t, dir, "BENCH_old.json", &benchfmt.Report{
		Label: "old", CreatedUnix: 1000, GoVersion: "go1.22",
		Results: []benchfmt.Result{
			{Graph: "WI", Algo: "BMP", Workers: 4, NsPerEdge: 10.0},
			{Graph: "WI", Algo: "MPS", Workers: 4, NsPerEdge: 100.0},
			{Graph: "OR", Algo: "BMP", Workers: 2, NsPerEdge: 5.0},
		},
	})
	new = writeReport(t, dir, "BENCH_new.json", &benchfmt.Report{
		Label: "new", CreatedUnix: 2000, GoVersion: "go1.22",
		Results: []benchfmt.Result{
			{Graph: "WI", Algo: "BMP", Workers: 4, NsPerEdge: 13.0,
				Attribution: []metrics.KernelAttr{
					{Scope: "core.count", Kernel: "merge", Buckets: []metrics.AttrBucket{
						{MinDegLen: 3, Count: 100, SampledNanos: 1000, Samples: 10},
					}},
					{Scope: "core.count", Kernel: "bitmap", Buckets: []metrics.AttrBucket{
						{MinDegLen: 8, Count: 10, SampledNanos: 9000, Samples: 10},
					}},
				}},
			{Graph: "WI", Algo: "MPS", Workers: 4, NsPerEdge: 101.0},
		},
	})
	return old, new
}

// TestRunTrendAndAttribution drives the full CLI path over a two-report
// history and pins the text report: time ordering regardless of argument
// order, regression highlighting, the missing-cell marker, and the
// attribution breakdown with the costliest kernel first.
func TestRunTrendAndAttribution(t *testing.T) {
	dir := t.TempDir()
	old, new := history(t, dir)

	var out strings.Builder
	// Newest first on the command line: the report must still order by
	// CreatedUnix.
	if err := run(appConfig{threshold: 0.10, files: []string{new, old}}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()

	if !strings.Contains(text, "WI/BMP/w4") || !strings.Contains(text, "10.00 -> 13.00") {
		t.Errorf("trend line missing or misordered:\n%s", text)
	}
	if !strings.Contains(text, "REGRESSED") {
		t.Errorf("+30%% slowdown not highlighted:\n%s", text)
	}
	if strings.Count(text, "REGRESSED") != 1 {
		t.Errorf("steady cell highlighted too:\n%s", text)
	}
	// OR/BMP/w2 exists only in the old report: a placeholder, not a silent drop.
	if !strings.Contains(text, "OR/BMP/w2") || !strings.Contains(text, "5.00 -> ·") {
		t.Errorf("cell missing from newest report not marked:\n%s", text)
	}
	if !strings.Contains(text, `kernel attribution (report "new")`) {
		t.Errorf("attribution section missing:\n%s", text)
	}
	// bitmap: est 900ns/sample * 10 calls = 9000; merge: 100ns * 100 = 10000.
	// merge is costlier, so it lists first.
	mi, bi := strings.Index(text, "merge"), strings.Index(text, "bitmap")
	if mi < 0 || bi < 0 || mi > bi {
		t.Errorf("kernels not ordered by estimated cost:\n%s", text)
	}
	if !strings.Contains(text, "min_deg_len=3") {
		t.Errorf("degree-bucket breakdown missing:\n%s", text)
	}
	if !strings.Contains(text, "1 of 3 cells slowed past +10%") {
		t.Errorf("summary line wrong:\n%s", text)
	}
}

// TestRunHTML checks -html writes a self-contained page carrying the
// same trend and attribution content.
func TestRunHTML(t *testing.T) {
	dir := t.TempDir()
	old, new := history(t, dir)
	htmlPath := filepath.Join(dir, "report.html")

	var out strings.Builder
	if err := run(appConfig{threshold: 0.10, htmlOut: htmlPath, files: []string{old, new}}, &out); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(htmlPath)
	if err != nil {
		t.Fatal(err)
	}
	page := string(b)
	for _, want := range []string{
		"<!DOCTYPE html>",
		"WI/BMP/w4",
		`class="regressed"`,
		"Kernel attribution",
		"merge",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("HTML report lacks %q", want)
		}
	}
	if strings.Contains(page, "http://") || strings.Contains(page, "https://") {
		t.Error("HTML report references external assets")
	}
}

// TestRunCommittedHistory runs the report over every BENCH_*.json
// committed at the repository root, so schema drift in either direction
// between benchfmt and the committed history fails here.
func TestRunCommittedHistory(t *testing.T) {
	files, err := filepath.Glob("../../BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no committed BENCH_*.json reports found")
	}
	cfg := appConfig{threshold: 0.10, htmlOut: filepath.Join(t.TempDir(), "report.html"), files: files}
	var out strings.Builder
	if err := run(cfg, &out); err != nil {
		t.Fatalf("report over %v: %v", files, err)
	}
}

// TestRunSingleReport checks the degenerate one-file invocation still
// renders (no deltas, no crash).
func TestRunSingleReport(t *testing.T) {
	dir := t.TempDir()
	path := writeReport(t, dir, "BENCH_one.json", &benchfmt.Report{
		Label: "one", CreatedUnix: 1500,
		Results: []benchfmt.Result{{Graph: "WI", Algo: "BMP", Workers: 1, NsPerEdge: 7.5}},
	})
	var out strings.Builder
	if err := run(appConfig{threshold: 0.10, files: []string{path}}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "7.50") {
		t.Errorf("single-report render missing the measurement:\n%s", out.String())
	}
	if strings.Contains(out.String(), "REGRESSED") {
		t.Errorf("single report cannot regress:\n%s", out.String())
	}
}

// TestRunErrors pins the failure modes: no inputs, an unreadable file,
// and a schema-incompatible file all fail the run.
func TestRunErrors(t *testing.T) {
	var out strings.Builder
	if err := run(appConfig{}, &out); err == nil {
		t.Error("no files accepted")
	}
	if err := run(appConfig{files: []string{"/does/not/exist.json"}}, &out); err == nil {
		t.Error("missing file accepted")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"schema":"other/v9"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(appConfig{files: []string{bad}}, &out); err == nil {
		t.Error("wrong-schema file accepted")
	}
}

// TestRunFailedCells checks failed cells render as such in the trend
// rather than as zero-ns measurements.
func TestRunFailedCells(t *testing.T) {
	dir := t.TempDir()
	path := writeReport(t, dir, "BENCH_f.json", &benchfmt.Report{
		Label: "f", CreatedUnix: 100,
		Results: []benchfmt.Result{
			{Graph: "WI", Algo: "BMP", Workers: 2, Failed: true, Error: "boom"},
		},
	})
	var out strings.Builder
	if err := run(appConfig{files: []string{path}}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "FAILED") {
		t.Errorf("failed cell not marked:\n%s", out.String())
	}
}
