package main

import (
	"encoding/json"
	"os"
	"testing"
)

// BENCHMARK.json and this command must name the same workloads and
// metrics, with the same units and directions.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	if len(def.Paths) != 1 || def.Paths[0] != "bench" {
		t.Errorf("paths = %q, want [bench]", def.Paths)
	}
	if len(def.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(def.Workloads), len(workloads))
	}
	for i, w := range def.Workloads {
		if w.Name != workloads[i].Name {
			t.Errorf("workload %d = %s, want %s", i, w.Name, workloads[i].Name)
		}
	}
	for _, c := range []struct {
		section   string
		got, want []metricDef
	}{{"end_to_end", def.EndToEnd, endToEnd}, {"per_layer", def.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: %d metrics, want %d", c.section, len(c.got), len(c.want))
			continue
		}
		for i := range c.got {
			if c.got[i] != c.want[i] {
				t.Errorf("%s[%d] = %+v, want %+v", c.section, i, c.got[i], c.want[i])
			}
		}
	}
}
