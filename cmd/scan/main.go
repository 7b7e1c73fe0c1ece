// Command scan performs structural graph clustering (SCAN) driven by
// all-edge common neighbor counting.
//
// Usage:
//
//	scan -graph graph.txt -eps 0.6 -mu 4
//	scan -profile LJ -eps 0.5 -mu 3 -strategy counts
//
// Strategies: "pruned" evaluates similarities on demand with pSCAN pruning
// (best for a single query); "counts" first runs the batch all-edge
// counting and derives the clustering from it (best when sweeping ε/μ).
//
// scan exits 0 only when the whole run — loading, clustering, and the
// printed report — succeeded.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"strings"

	"cncount"
	"cncount/internal/scan"
)

// appConfig mirrors the flag set so the whole run is testable without
// touching globals or os.Exit.
type appConfig struct {
	graphPath string
	profile   string
	scale     float64
	eps       float64
	mu        int
	strategy  string
	top       int
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("scan: ")

	var cfg appConfig
	flag.StringVar(&cfg.graphPath, "graph", "", "graph file (text edge list or binary CSR)")
	flag.StringVar(&cfg.profile, "profile", "", "generate a dataset profile instead: "+strings.Join(cncount.ProfileNames(), ", "))
	flag.Float64Var(&cfg.scale, "scale", 1.0, "profile scale")
	flag.Float64Var(&cfg.eps, "eps", 0.6, "similarity threshold ε in (0,1]")
	flag.IntVar(&cfg.mu, "mu", 4, "core threshold μ ≥ 2")
	flag.StringVar(&cfg.strategy, "strategy", "pruned", "similarity strategy: pruned, counts")
	flag.IntVar(&cfg.top, "top", 10, "print the largest N clusters")
	flag.Parse()

	if cfg.graphPath == "" && cfg.profile == "" {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(cfg, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run executes one clustering run. Every failure — bad flags, loading,
// clustering, or an output I/O error — is returned so main can exit
// non-zero.
func run(cfg appConfig, stdout io.Writer) error {
	g, err := load(cfg.graphPath, cfg.profile, cfg.scale)
	if err != nil {
		return err
	}
	out := &errWriter{w: stdout}
	fmt.Fprintln(out, cncount.Summarize("input", g))

	var res *scan.Result
	switch cfg.strategy {
	case "pruned":
		res, err = scan.Run(g, scan.Params{Eps: cfg.eps, Mu: cfg.mu})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "pruning: %d of %d edges needed an intersection (%.1f%%)\n",
			res.SimilarityChecks, res.EdgesTotal,
			100*float64(res.SimilarityChecks)/float64(max(res.EdgesTotal, 1)))
	case "counts":
		cres, err := cncount.Count(g, cncount.Options{Algorithm: cncount.AlgoBMP})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "batch counting: %v\n", cres.Elapsed)
		res, err = scan.FromCounts(g, cres.Counts, scan.Params{Eps: cfg.eps, Mu: cfg.mu})
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown strategy %q (want pruned, counts)", cfg.strategy)
	}

	cores, hubs, outliers := 0, 0, 0
	for v := range res.Cores {
		switch {
		case res.Cores[v]:
			cores++
		case res.Hubs[v]:
			hubs++
		case res.Outliers[v]:
			outliers++
		}
	}
	fmt.Fprintf(out, "SCAN(ε=%.2f, μ=%d): %d clusters, %d cores, %d hubs, %d outliers\n",
		cfg.eps, cfg.mu, res.NumClusters, cores, hubs, outliers)

	sizes := make(map[int32]int)
	for _, c := range res.ClusterOf {
		if c >= 0 {
			sizes[c]++
		}
	}
	type cs struct {
		id   int32
		size int
	}
	var ranked []cs
	for id, s := range sizes {
		ranked = append(ranked, cs{id, s})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].size != ranked[j].size {
			return ranked[i].size > ranked[j].size
		}
		return ranked[i].id < ranked[j].id
	})
	for i, c := range ranked {
		if i >= cfg.top {
			break
		}
		fmt.Fprintf(out, "  cluster %-6d %d vertices\n", c.id, c.size)
	}
	return out.err
}

func load(path, profile string, scale float64) (*cncount.Graph, error) {
	switch {
	case path != "" && profile != "":
		return nil, fmt.Errorf("pass either -graph or -profile, not both")
	case path != "":
		return cncount.LoadGraph(path)
	case profile != "":
		return cncount.GenerateProfile(profile, scale)
	default:
		return nil, errors.New("pass -graph or -profile")
	}
}

func max(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// errWriter latches the first write error so every ignored fmt.Fprintf
// result still surfaces as a non-zero exit at the end of the run.
type errWriter struct {
	w   io.Writer
	err error
}

func (w *errWriter) Write(p []byte) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	n, err := w.w.Write(p)
	if err != nil {
		w.err = err
	}
	return n, err
}
