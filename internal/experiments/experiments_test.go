package experiments

import (
	"strings"
	"testing"
)

// smallContext runs the experiments at reduced scale so the whole suite
// stays test-sized. Capacity scale tracks the dataset scale.
func smallContext() *Context {
	c := NewContext()
	c.Scale = 0.1
	c.CapacityScale = 0.0001
	return c
}

func TestAllExperimentsProduceOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite is slow")
	}
	c := smallContext()
	for _, e := range All {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			out, err := e.Run(c)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if strings.TrimSpace(out) == "" {
				t.Fatalf("%s: empty output", e.ID)
			}
			if strings.Contains(out, "NaN") || strings.Contains(out, "+Inf") {
				t.Fatalf("%s: non-finite values in output:\n%s", e.ID, out)
			}
		})
	}
}

func TestByID(t *testing.T) {
	for _, e := range All {
		got, err := ByID(e.ID)
		if err != nil {
			t.Fatalf("ByID(%s): %v", e.ID, err)
		}
		if got.Title != e.Title {
			t.Errorf("ByID(%s) returned %q", e.ID, got.Title)
		}
	}
	if _, err := ByID("nope"); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestContextCachesRuns(t *testing.T) {
	c := smallContext()
	c.Datasets = []string{"LJ"}
	g1, err := c.Graph("LJ")
	if err != nil {
		t.Fatal(err)
	}
	g2, err := c.Graph("LJ")
	if err != nil {
		t.Fatal(err)
	}
	if g1 != g2 {
		t.Error("graph not cached")
	}
	r1, err := c.run("LJ", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.run("LJ", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("run not cached")
	}
}

func TestDatasetsSelection(t *testing.T) {
	c := NewContext()
	if got := c.datasets(); len(got) != 5 {
		t.Errorf("default datasets = %v", got)
	}
	c.Datasets = []string{"TW"}
	if got := c.datasets(); len(got) != 1 || got[0] != "TW" {
		t.Errorf("restricted datasets = %v", got)
	}
}

func TestGraphUnknownProfile(t *testing.T) {
	c := smallContext()
	if _, err := c.Graph("XX"); err == nil {
		t.Error("unknown profile accepted")
	}
}

func TestFmtSec(t *testing.T) {
	cases := map[float64]string{
		-1:     "N/A",
		2.5:    "2.50s",
		0.0021: "2.10ms",
		2.5e-6: "2µs",
	}
	for v, want := range cases {
		if got := fmtSec(v); got != want {
			t.Errorf("fmtSec(%g) = %q, want %q", v, got, want)
		}
	}
}

// TestModeledOutputRepeats renders Figure 3 twice, each time from a fresh
// context, and requires identical text: the work tallies behind its
// modeled times must not depend on how the scheduler split the rows.
func TestModeledOutputRepeats(t *testing.T) {
	e, err := ByID("fig3")
	if err != nil {
		t.Fatal(err)
	}
	var outs [2]string
	for i := range outs {
		if outs[i], err = e.Run(smallContext()); err != nil {
			t.Fatal(err)
		}
	}
	if outs[0] != outs[1] {
		t.Fatalf("two renderings differ:\n%s\n---\n%s", outs[0], outs[1])
	}
}
