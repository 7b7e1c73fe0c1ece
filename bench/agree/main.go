// Command agree checks that two sets of benchmark runs agree: for every
// workload and end-to-end metric it takes the median of each set and
// requires them to differ by no more than the metric's bound in
// BENCHMARK.json, as a share of the first set's median. It prints one row
// per (workload, metric) and exits 1 on any disagreement, on a metric one
// set lacks, or on a run that reported wrong answers or failures.
//
// Usage, from the bench directory:
//
//	go run ./agree -bench ../BENCHMARK.json SET_A SET_B
//
// A set is a directory of files, each holding the standard output of one
// untraced run (bash bench/run.sh ... --trace 0 > SET_A/<name>.txt).
// Traced runs in a set are skipped.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	fs := flag.NewFlagSet("agree", flag.ExitOnError)
	benchPath := fs.String("bench", "../BENCHMARK.json", "benchmark definition with the metric bounds")
	fs.Parse(os.Args[1:])
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: agree [-bench BENCHMARK.json] SET_A SET_B")
		os.Exit(2)
	}
	ok, err := agree(*benchPath, fs.Arg(0), fs.Arg(1), os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "agree:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// definition is the part of BENCHMARK.json agree reads.
type definition struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runSet maps workload → metric → one value per run.
type runSet map[string]map[string][]float64

func agree(benchPath, dirA, dirB string, w io.Writer) (bool, error) {
	data, err := os.ReadFile(benchPath)
	if err != nil {
		return false, err
	}
	var def definition
	if err := json.Unmarshal(data, &def); err != nil {
		return false, fmt.Errorf("%s: %w", benchPath, err)
	}
	a, okA, err := readSet(dirA, w)
	if err != nil {
		return false, err
	}
	b, okB, err := readSet(dirB, w)
	if err != nil {
		return false, err
	}
	ok := okA && okB
	fmt.Fprintf(w, "%-18s %-17s %-4s %14s %14s %8s %6s  %s\n",
		"workload", "metric", "unit", "median A (n)", "median B (n)", "B vs A", "bound", "verdict")
	for _, wl := range def.Workloads {
		for _, m := range def.EndToEnd {
			va, vb := a[wl.Name][m.Name], b[wl.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-18s %-17s %-4s %14s %14s %8s %5.0f%%  MISSING\n",
					wl.Name, m.Name, m.Unit, noMedian(va), noMedian(vb), "", 100*m.Bound)
				ok = false
				continue
			}
			ma, mb := median(va), median(vb)
			rel := (mb - ma) / ma
			verdict := "agree"
			if math.Abs(rel) > m.Bound {
				verdict = "DISAGREE"
				ok = false
			}
			fmt.Fprintf(w, "%-18s %-17s %-4s %14s %14s %+7.2f%% %5.0f%%  %s\n",
				wl.Name, m.Name, m.Unit,
				fmt.Sprintf("%.5g (%d)", ma, len(va)), fmt.Sprintf("%.5g (%d)", mb, len(vb)),
				100*rel, 100*m.Bound, verdict)
		}
	}
	return ok, nil
}

// noMedian renders a set that lacks a metric: no median, and its run count.
func noMedian(v []float64) string { return fmt.Sprintf("- (%d)", len(v)) }

// readSet reads every untraced run in dir. ok is false when a run
// reported wrong answers or failed operations.
func readSet(dir string, w io.Writer) (runSet, bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, false, err
	}
	set := runSet{}
	ok := true
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		path := filepath.Join(dir, e.Name())
		workload, traced, res, err := readRun(path)
		if err != nil {
			return nil, false, fmt.Errorf("%s: %w", path, err)
		}
		if traced {
			continue
		}
		if !res.Correct || res.Failed != 0 {
			fmt.Fprintf(w, "%s: correct=%v failed=%d of %d\n", path, res.Correct, res.Failed, res.Attempted)
			ok = false
		}
		if set[workload] == nil {
			set[workload] = map[string][]float64{}
		}
		for name, m := range res.Metrics {
			set[workload][name] = append(set[workload][name], m.Value)
		}
	}
	return set, ok, nil
}

type result struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// readRun parses one run's output: the manifest line names the workload,
// the last line is the result.
func readRun(path string) (workload string, traced bool, res result, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", false, res, err
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	for _, line := range lines {
		if m, found := strings.CutPrefix(line, "bench: manifest "); found {
			var man struct {
				Workload string `json:"workload"`
				Traced   bool   `json:"traced"`
			}
			if err := json.Unmarshal([]byte(m), &man); err != nil {
				return "", false, res, fmt.Errorf("manifest: %w", err)
			}
			workload, traced = man.Workload, man.Traced
		}
	}
	if workload == "" {
		return "", false, res, errors.New("no manifest line")
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return "", false, res, fmt.Errorf("result line: %w", err)
	}
	return workload, traced, res, nil
}

// median is the middle value, or the mean of the two middle values.
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
