package main

import (
	"context"
	"fmt"
	"log/slog"
	"math/rand"
	"os"
	"runtime"
	"time"

	"cncount"
	"cncount/internal/benchfmt"
	"cncount/internal/dynamic"
	"cncount/internal/wal"
)

// runIngest executes the streaming-ingest benchmark matrix: for each
// profile × worker-count cell it boots a dynamic graph from the counted
// CSR, then drives a deterministic stream of edge-mutation batches
// through the durable write path — WAL append under the configured
// fsync policy, the batched incremental repair, then the CSR snapshot
// the daemon installs as the next epoch — and reports
// updates/sec alongside ns/op. The op stream is seeded per profile, so
// every worker count and rep of a profile ingests the identical batch
// sequence and "best of reps" compares like with like.
func runIngest(ctx context.Context, cfg appConfig, out *errWriter, manifest cncount.Manifest, logger *slog.Logger) (*benchfmt.Report, error) {
	profiles, err := splitList(cfg.profiles)
	if err != nil {
		return nil, err
	}
	workers, err := splitInts(cfg.workers)
	if err != nil {
		return nil, err
	}
	if cfg.reps < 1 {
		return nil, fmt.Errorf("reps %d < 1", cfg.reps)
	}
	if cfg.batches < 1 || cfg.batchOps < 1 || cfg.batchOps > wal.MaxBatchOps {
		return nil, fmt.Errorf("bad ingest shape: %d batches x %d ops", cfg.batches, cfg.batchOps)
	}
	syncPolicy, err := wal.ParseSyncPolicy(cfg.fsync)
	if err != nil {
		return nil, err
	}

	report := &benchfmt.Report{
		Schema:     benchfmt.Schema,
		Label:      cfg.label,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Manifest:   &manifest,
	}
	for pi, profile := range profiles {
		g, err := cncount.GenerateProfile(profile, cfg.scale)
		if err != nil {
			return nil, err
		}
		rg, _ := cncount.ReorderByDegree(g)
		// The boot count seeds the dynamic graph's maintained counts —
		// the same FromCSR path cncd takes before replaying its WAL.
		res, err := cfg.count(rg, cncount.Options{Threads: workers[len(workers)-1]})
		if err != nil {
			return nil, fmt.Errorf("boot count for %s: %w", profile, err)
		}
		stream := ingestStream(int64(pi+1), rg.NumVertices(), cfg.batches, cfg.batchOps)
		totalOps := int64(cfg.batches) * int64(cfg.batchOps)

		for _, w := range workers {
			if err := ctx.Err(); err != nil {
				return report, fmt.Errorf("ingest matrix aborted before cell %s/w%d: %w", profile, w, err)
			}
			cellLog := logger.With("cell", fmt.Sprintf("%s/ingest/w%d", profile, w))
			cellLog.Info("cell started", "batches", cfg.batches, "batch_ops", cfg.batchOps, "fsync", cfg.fsync)
			var best int64
			for rep := 0; rep < cfg.reps; rep++ {
				elapsed, err := ingestOnce(rg, res.Counts, stream, syncPolicy, w)
				if err != nil {
					return report, fmt.Errorf("cell %s/w%d: %w", profile, w, err)
				}
				if best == 0 || elapsed.Nanoseconds() < best {
					best = elapsed.Nanoseconds()
				}
			}
			row := benchfmt.Result{
				Graph:         profile,
				Scale:         cfg.scale,
				Algo:          "ingest",
				Workers:       w,
				Edges:         totalOps,
				Reps:          cfg.reps,
				ElapsedNanos:  best,
				NsPerEdge:     float64(best) / float64(totalOps),
				UpdatesPerSec: float64(totalOps) / (float64(best) / 1e9),
			}
			report.Results = append(report.Results, row)
			cellLog.Info("cell finished", "updates_per_sec", row.UpdatesPerSec)
			fmt.Fprintf(out, "%-4s ingest w%-2d  %9.2f ns/op  %10.0f updates/s  (fsync=%s)\n",
				profile, w, row.NsPerEdge, row.UpdatesPerSec, cfg.fsync)
		}
	}
	report.CreatedUnix = time.Now().Unix()
	return report, nil
}

// ingestOnce replays one full op stream through a fresh dynamic graph
// and a fresh WAL, returning the wall time of the durable apply loop
// (WAL append + batched repair + the snapshot cncd would serve; setup and
// teardown excluded).
func ingestOnce(rg *cncount.Graph, counts []uint32, stream [][]wal.Op, sync wal.SyncPolicy, workers int) (time.Duration, error) {
	dyn, err := dynamic.FromCSR(rg, counts)
	if err != nil {
		return 0, err
	}
	dir, err := os.MkdirTemp("", "benchrun-wal-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	log, err := wal.Open(dir, wal.Options{Sync: sync})
	if err != nil {
		return 0, err
	}
	defer log.Close()

	start := time.Now()
	for _, ops := range stream {
		if _, err := log.Append(ops); err != nil {
			return 0, err
		}
		if _, err := dyn.ApplyBatch(ops, workers); err != nil {
			return 0, err
		}
		if _, _, err := dyn.ToCSR(); err != nil {
			return 0, err
		}
	}
	elapsed := time.Since(start)
	return elapsed, log.Close()
}

// ingestStream draws a deterministic stream of edge-mutation batches:
// insert-biased random pairs, with deletes drawn from edges the stream
// itself inserted so a delete usually has something to remove.
func ingestStream(seed int64, numVertices, batches, batchOps int) [][]wal.Op {
	rng := rand.New(rand.NewSource(seed))
	var inserted [][2]uint32
	out := make([][]wal.Op, batches)
	for b := range out {
		ops := make([]wal.Op, batchOps)
		for i := range ops {
			if len(inserted) > 0 && rng.Intn(10) >= 7 {
				j := rng.Intn(len(inserted))
				e := inserted[j]
				inserted = append(inserted[:j], inserted[j+1:]...)
				ops[i] = wal.Op{Kind: wal.OpDelete, U: e[0], V: e[1]}
				continue
			}
			u := uint32(rng.Intn(numVertices))
			v := uint32(rng.Intn(numVertices - 1))
			if v >= u {
				v++
			}
			inserted = append(inserted, [2]uint32{u, v})
			ops[i] = wal.Op{Kind: wal.OpInsert, U: u, V: v}
		}
		out[b] = ops
	}
	return out
}
