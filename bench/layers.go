package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"time"

	"cncount"
	"cncount/internal/dynamic"
	"cncount/internal/metrics"
	"cncount/internal/obs"
	"cncount/internal/sched"
	"cncount/internal/serve"
	"cncount/internal/wal"
)

// serveProbeShare is the part of a traced serve-mixed run's in-process
// time given to the read path; the ingest pipeline gets the rest.
const serveProbeShare = 0.3

// cncdOptions are the serving options cncd passes with its default flags.
func cncdOptions() serve.Options {
	return serve.Options{
		Metrics:  metrics.New(),
		Requests: obs.NewRequestMetrics(),
		Progress: sched.NewProgress(),
	}
}

// serveLayers measures, in-process, the layers a traced serve run cannot
// see from outside cncd: the handler on the same query stream, the result
// cache and the edge compute on the same keys, the graph load, the boot
// path and every step of the ingest pipeline.
func serveLayers(cfg runConfig, out *outcome, g *cncount.Graph, graphPath string, queries []query, wr *writer) error {
	tr := out.tr
	budget := time.Duration(float64(cfg.spec.Duration) * (1 - tracedDaemonShare) * serveProbeShare)
	_, loads, err := loadGraph(graphPath, cfg.spec.SetupReps, tr)
	if err != nil {
		return err
	}
	out.set("graph.load_ms", 1e3*median(loads), len(loads))
	out.set("mem.csr_bytes", float64(g.MemoryBytes()), 1)

	h := serve.New(g, cfg.spec.Name, cncdOptions()).Handler()
	lat := make([][]float64, len(servedEndpoints))
	stop := tr.Span("inprocess.serve")
	deadline := time.Now().Add(budget)
	n := 0
	for n < len(queries) && time.Now().Before(deadline) {
		q := queries[n]
		req := httptest.NewRequest(http.MethodGet, q.path(), nil)
		rec := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		d := time.Since(t0)
		if rec.Code != http.StatusOK {
			stop()
			return fmt.Errorf("in-process %s: %d %s", q.path(), rec.Code, rec.Body)
		}
		lat[q.kind] = append(lat[q.kind], us(d))
		n++
	}
	stop()
	if n == 0 {
		return fmt.Errorf("%s: no queries to replay in-process", cfg.spec.Name)
	}
	for k, e := range servedEndpoints {
		out.set("serve.handler_us_p50."+e, median(lat[k]), len(lat[k]))
	}
	queries = queries[:n]

	// The cache on the keys the handler built for the same queries, with
	// a body the size of an edge answer.
	keys := make([]string, n)
	for i, q := range queries {
		keys[i] = q.cacheKey()
	}
	body := make([]byte, 64)
	c := serve.NewCache(serve.DefaultCacheEntries)
	for _, k := range keys {
		if _, ok := c.Get(1, k); !ok {
			c.Put(1, k, body)
		}
	}
	t0 := time.Now()
	for _, k := range keys {
		c.Get(1, k)
	}
	out.set("serve.cache_get_ns", float64(time.Since(t0).Nanoseconds())/float64(n), n)
	c = serve.NewCache(serve.DefaultCacheEntries)
	t0 = time.Now()
	for _, k := range keys {
		c.Put(1, k, body)
	}
	out.set("serve.cache_put_ns", float64(time.Since(t0).Nanoseconds())/float64(n), n)

	var edgeQs []query
	for _, q := range queries {
		if q.kind == qEdge {
			edgeQs = append(edgeQs, q)
		}
	}
	t0 = time.Now()
	for _, q := range edgeQs {
		if _, err := cncount.CountEdge(g, q.u, q.v); err != nil {
			return err
		}
	}
	if len(edgeQs) > 0 {
		out.set("serve.compute_edge_ns", float64(time.Since(t0).Nanoseconds())/float64(len(edgeQs)), len(edgeQs))
	}

	budget = time.Duration(float64(cfg.spec.Duration) * (1 - tracedDaemonShare) * (1 - serveProbeShare))
	return ingestLayers(out, g, newUpdater(g, updateSeed(cfg.seed), cfg.spec.BatchOps),
		max(wr.accepted, 1), filepath.Join(cfg.workdir, "wal-inprocess"), budget)
}

// ingestLayers replays the update stream in-process through the steps
// serve.Ingester.Apply runs for each batch, in its order, timing each
// step, after cncd's boot path for the update layer. It reconciles the
// steps against each batch's wall time and checks the maintained
// triangle count against a recount.
func ingestLayers(out *outcome, g *cncount.Graph, up *updater, batches int, walDir string, budget time.Duration) error {
	tr := out.tr
	var res *cncount.Result
	d, err := timed(tr, "boot.count", func() (err error) {
		res, err = cncount.Count(g, cncount.Options{})
		return err
	})
	if err != nil {
		return err
	}
	out.set("boot.count_ms", ms(d), 1)
	var dyn *dynamic.Graph
	d, err = timed(tr, "boot.from_csr", func() (err error) {
		dyn, err = dynamic.FromCSR(g, res.Counts)
		return err
	})
	if err != nil {
		return err
	}
	out.set("boot.from_csr_ms", ms(d), 1)

	srv := serve.New(g, "inprocess", cncdOptions())
	log, err := wal.Open(walDir, wal.Options{Sync: wal.SyncBatch})
	if err != nil {
		return err
	}
	defer log.Close()
	hist := newHistory(g)
	steps := map[string][]time.Duration{}
	var covered, wall time.Duration
	var repaired []float64
	ops := 0
	deadline := time.Now().Add(budget)
	for b := 0; b < batches && (b == 0 || time.Now().Before(deadline)); b++ {
		batch := up.next()
		var br dynamic.BatchResult
		var csr *cncount.Graph
		var epoch uint64
		t0 := time.Now()
		for _, s := range []struct {
			name string
			f    func() error
		}{
			{"validate", func() error { return dynamic.ValidateOps(dyn.NumVertices(), batch) }},
			{"wal_append", func() error {
				wops := make([]wal.Op, len(batch))
				for i, op := range batch {
					wops[i] = wal.Op{Kind: wal.OpKind(op.Kind), U: op.U, V: op.V}
				}
				_, err := log.Append(wops)
				return err
			}},
			{"apply", func() (err error) { br, err = dyn.ApplyBatch(batch, 0); return err }},
			{"rebuild", func() (err error) { csr, _, err = dyn.ToCSR(); return err }},
			{"swap", func() error { epoch = srv.SwapGraph(csr, "inprocess"); return nil }},
		} {
			d, err := timed(tr, "ingest."+s.name, s.f)
			if err != nil {
				return fmt.Errorf("in-process ingest %s: %w", s.name, err)
			}
			steps[s.name] = append(steps[s.name], d)
			covered += d
		}
		wall += time.Since(t0)
		hist.record(batch, epoch)
		repaired = append(repaired, float64(br.Repaired))
		ops += len(batch)
	}
	n := len(repaired)
	medianOf := func(name string, unit func(time.Duration) float64) float64 {
		v := make([]float64, len(steps[name]))
		for i, d := range steps[name] {
			v[i] = unit(d)
		}
		return median(v)
	}
	out.set("ingest.validate_us", medianOf("validate", us), n)
	out.set("ingest.wal_append_us", medianOf("wal_append", us), n)
	out.set("ingest.apply_ms", medianOf("apply", ms), n)
	out.set("ingest.rebuild_ms", medianOf("rebuild", ms), n)
	out.set("ingest.swap_us", medianOf("swap", us), n)
	out.set("ingest.repaired_per_batch", mean(repaired), n)
	out.set("wal.bytes_per_op", float64(log.Stats().Bytes)/float64(ops), n)
	out.set("unattributed_share", 1-float64(covered)/float64(wall), n)

	want, err := hist.triangles()
	if err != nil {
		return err
	}
	if got := dyn.Triangles(); got != want {
		out.wrongf("in-process ingest: maintained triangles %d, recount %d", got, want)
	}
	return nil
}
