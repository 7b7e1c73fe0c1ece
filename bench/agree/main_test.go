package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const def = `{"workloads":[{"name":"w"}],"end_to_end":[
 {"name":"lat_ms","unit":"ms","better":"lower","bound":0.1},
 {"name":"setup_s","unit":"s","better":"lower","bound":0.25}]}`

// writeRuns writes one output file per lat_ms value into a new directory.
func writeRuns(t *testing.T, lat []float64, failed int) string {
	t.Helper()
	dir := t.TempDir()
	for i, v := range lat {
		out := fmt.Sprintf("bench: manifest {\"workload\":\"w\",\"traced\":false}\nbench: lat_ms %g ms\n"+
			`{"correct":true,"attempted":10,"failed":%d,"metrics":{"lat_ms":{"value":%g,"unit":"ms"},"setup_s":{"value":1,"unit":"s"}}}`+"\n",
			v, failed, v)
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("run%d.txt", i)), []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// A traced run's per-layer metrics are not compared.
	traced := "bench: manifest {\"workload\":\"w\",\"traced\":true}\n" +
		`{"correct":true,"attempted":1,"failed":0,"metrics":{"core.count_ms":{"value":9,"unit":"ms"}}}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, "traced.txt"), []byte(traced), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestAgree(t *testing.T) {
	benchPath := filepath.Join(t.TempDir(), "BENCHMARK.json")
	if err := os.WriteFile(benchPath, []byte(def), 0o644); err != nil {
		t.Fatal(err)
	}
	base := writeRuns(t, []float64{10, 11, 10.5, 9, 30}, 0)
	for _, c := range []struct {
		name string
		lat  []float64
		fail int
		want bool
	}{
		{"within bound", []float64{10.9, 10.2, 11.3, 10.6, 2}, 0, true},
		{"median moved by more than the bound", []float64{11.8, 11.7, 12, 11.9, 11.6}, 0, false},
		{"better by more than the bound", []float64{9, 9.1, 9.2, 9.4, 9.3}, 0, false},
		{"failed operations", []float64{10.5, 10.5, 10.5}, 1, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			var out strings.Builder
			ok, err := agree(benchPath, base, writeRuns(t, c.lat, c.fail), &out)
			if err != nil {
				t.Fatal(err)
			}
			if ok != c.want {
				t.Errorf("agree = %v, want %v\n%s", ok, c.want, out.String())
			}
			if !strings.Contains(out.String(), "setup_s") {
				t.Errorf("no row for setup_s:\n%s", out.String())
			}
		})
	}
}
