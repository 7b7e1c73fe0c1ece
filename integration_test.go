package cncount_test

import (
	"testing"

	"cncount"
	"cncount/internal/verify"
)

// TestEndToEndAllAlgorithmsAllProcessors is the whole-system agreement
// gate: every algorithm on every execution target (host engine, modeled
// CPU, modeled KNL in every memory mode, simulated GPU with and without
// co-processing) must produce the identical count array on a profile
// graph, and that array must satisfy the reference checker and the
// triangle identity.
func TestEndToEndAllAlgorithmsAllProcessors(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end sweep is slow")
	}
	g0, err := cncount.GenerateProfile("LJ", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	g, _ := cncount.ReorderByDegree(g0)
	want := verify.Counts(g)
	if err := verify.CheckTriangleIdentity(g, want); err != nil {
		t.Fatal(err)
	}

	check := func(label string, counts []uint32) {
		t.Helper()
		if len(counts) != len(want) {
			t.Fatalf("%s: %d counts, want %d", label, len(counts), len(want))
		}
		for e := range want {
			if counts[e] != want[e] {
				t.Fatalf("%s: cnt[%d] = %d, want %d", label, e, counts[e], want[e])
			}
		}
	}

	for _, algo := range cncount.Algorithms {
		res, err := cncount.Count(g, cncount.Options{Algorithm: algo})
		if err != nil {
			t.Fatal(err)
		}
		check("host/"+algo.String(), res.Counts)

		for _, proc := range cncount.Processors {
			modes := []cncount.MemoryMode{cncount.ModeDDR}
			if proc == cncount.ProcKNL {
				modes = []cncount.MemoryMode{cncount.ModeDDR, cncount.ModeFlat, cncount.ModeCache}
			}
			for _, mode := range modes {
				for _, cp := range []bool{false, true} {
					if proc != cncount.ProcGPU && cp {
						continue // co-processing is a GPU-only concept
					}
					sim, err := cncount.Simulate(g, cncount.SimOptions{
						Processor:    proc,
						Algorithm:    algo,
						MemMode:      mode,
						CoProcessing: cp,
					})
					if err != nil {
						t.Fatalf("%v/%v/%v: %v", proc, algo, mode, err)
					}
					check(proc.String()+"/"+algo.String()+"/"+mode.String(), sim.Counts)
					if sim.Modeled <= 0 {
						t.Errorf("%v/%v: nonpositive modeled time", proc, algo)
					}
				}
			}
		}
	}

	// The SCAN pipelines and the dynamic maintainer must also agree with
	// the same counts.
	scanA, err := cncount.SCAN(g, cncount.ScanParams{Eps: 0.5, Mu: 3})
	if err != nil {
		t.Fatal(err)
	}
	scanB, err := cncount.SCANFromCounts(g, want, cncount.ScanParams{Eps: 0.5, Mu: 3})
	if err != nil {
		t.Fatal(err)
	}
	if scanA.NumClusters != scanB.NumClusters {
		t.Errorf("SCAN strategies disagree: %d vs %d clusters",
			scanA.NumClusters, scanB.NumClusters)
	}

	dg, err := cncount.DynamicFromGraph(g, want)
	if err != nil {
		t.Fatal(err)
	}
	if got := dg.Triangles(); got != verify.Triangles(g) {
		t.Errorf("dynamic triangles = %d, want %d", got, verify.Triangles(g))
	}
}
