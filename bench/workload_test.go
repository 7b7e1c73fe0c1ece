package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// cncdBin is the daemon the serve workloads spawn, built once by TestMain.
var cncdBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "bench-cncd-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	cncdBin = filepath.Join(dir, "cncd")
	build := exec.Command("go", "build", "-o", cncdBin, "cncount/cmd/cncd")
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	if err := build.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "building cncd:", err)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// tiny shrinks a workload to run end to end in a fraction of a second.
func tiny(t *testing.T, name string) spec {
	t.Helper()
	sp, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	sp.Scale = 0.05
	sp.Duration = 400 * time.Millisecond
	sp.SetupReps = 2
	sp.Warmup = 1
	sp.Keys = 512
	sp.WriteRate = 40
	return sp
}

// Every workload runs end to end, untraced and traced, at a tiny size:
// every answer checks out, every metric of the mode is reported, an
// end-to-end metric is never 0, and a traced run's layers account for its
// wall time.
func TestWorkloadsEndToEnd(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/traced=%v", w.Name, traced), func(t *testing.T) {
				dir := t.TempDir()
				cfg := runConfig{spec: tiny(t, w.Name), seed: 3, traced: traced, cncd: cncdBin, workdir: dir, outdir: dir}
				if err := cfg.spec.validate(runtime.NumCPU()); err != nil {
					t.Skip(err)
				}
				out, err := runWorkload(cfg)
				if err != nil {
					t.Fatal(err)
				}
				res, err := report(cfg, out, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 {
					t.Fatalf("correct=%v failed=%d of %d: %v %v", res.Correct, res.Failed, res.Attempted, out.wrong, out.notes)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("reported %d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("%s: got %+v, want unit %s", d.Name, m, d.Unit)
					}
					if !traced && m.Value <= 0 {
						t.Errorf("%s = %g, want > 0", d.Name, m.Value)
					}
				}
				if traced {
					if s := res.Metrics["unattributed_share"].Value; s < 0 || s > 0.10 {
						t.Errorf("unattributed_share = %g, want within [0, 0.10]", s)
					}
					if _, err := os.Stat(filepath.Join(dir, fmt.Sprintf("trace-%s-seed3.json", w.Name))); err != nil {
						t.Error(err)
					}
				}
			})
		}
	}
}

func TestValidateRejectsOversubscription(t *testing.T) {
	for _, w := range workloads {
		w.Duration = time.Second
		if err := w.validate(2); err != nil {
			t.Errorf("%s on 2 cores: %v", w.Name, err)
		}
		if err := w.validate(1); err == nil {
			t.Errorf("%s on 1 core: accepted %d threads, %d read connections", w.Name, w.Threads, w.ReadConns)
		}
	}
}

func TestRunRejectsBadInvocations(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "count-tw-bmp", "-trace", "2"},
		{"-workload", "serve-mixed"}, // no -cncd
	} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
	}
}
