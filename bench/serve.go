package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"cncount"
	"cncount/internal/dynamic"
	"cncount/internal/trace"
)

// tracedDaemonShare is the part of a traced serve run's measured time
// spent driving the daemon; the rest replays the same streams in-process
// through the serving and ingest layers.
const tracedDaemonShare = 0.6

// streamLen is the length of the precomputed query stream; a run that
// outruns it wraps around.
const streamLen = 1 << 17

// maxNotes bounds the failure messages kept per connection.
const maxNotes = 5

// updateSeed derives the update stream's seed from the run's seed, so
// queries and updates come from independent generators.
func updateSeed(seed int64) int64 { return seed ^ 0x5eed }

// runServe drives a cncd child with the workload's read stream and its
// update stream, then checks the served answers. Every spawn and every
// update batch is followed by a reference pass.
func runServe(cfg runConfig) (*outcome, error) {
	sp := cfg.spec
	out := newOutcome()
	tr := newTracer(cfg)
	out.tr = tr
	g, path, err := generateGraph(sp, cfg.seed, cfg.workdir)
	if err != nil {
		return nil, err
	}
	edges := float64(g.NumEdges())
	stream := queryStream(g, sp, rand.New(rand.NewSource(cfg.seed)), streamLen)
	hist := newHistory(g)
	ref := newRefKernel(g, sp.RefNs)

	d, spawns, slows, err := spawnDaemon(cfg, path, tr, ref)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	setups := make([]float64, len(spawns))
	for i := range spawns {
		setups[i] = spawns[i] / slows[i]
	}
	out.set("setup_s", median(setups), len(setups))

	phase := sp.Duration
	if cfg.traced {
		phase = time.Duration(float64(phase) * tracedDaemonShare)
	}
	warm := time.Duration(float64(phase) * sp.WarmShare)
	open := time.Duration(float64(phase) * sp.OpenShare)
	closed := phase - warm - open

	ctl := newClient(d.addr)
	defer ctl.close()
	rd := newReader(d.addr, sp, stream, tr)
	defer rd.close()
	wr := newWriter(d.addr, g, updateSeed(cfg.seed), sp.BatchOps, hist, ref, tr)
	defer wr.c.close()

	stop := tr.Span("warmup")
	nWarm := int(sp.ReadRate * warm.Seconds())
	openLoop(sp.ReadConns, sp.ReadRate, nWarm, rd.read)
	stop()

	// Open loop: reads next to updates.
	red0, err := redSums(ctl)
	if err != nil {
		return nil, err
	}
	hits0, served0 := rd.totals()
	nOpen := int(sp.ReadRate * open.Seconds())
	var writes []sample
	var wg sync.WaitGroup
	stop = tr.Span("open_loop")
	wg.Add(1)
	go func() {
		defer wg.Done()
		writes = openLoop(1, sp.WriteRate, int(sp.WriteRate*open.Seconds()), func(int, int) time.Time { return wr.post() })
	}()
	reads := openLoop(sp.ReadConns, sp.ReadRate, nOpen, func(c, i int) time.Time { return rd.read(c, nWarm+i) })
	wg.Wait()
	stop()
	red1, err := redSums(ctl)
	if err != nil {
		return nil, err
	}
	hits1, served1 := rd.totals()

	// Closed loop: updates only, each sent once the previous one and its
	// reference pass are done. The rate counts only the updates' own time.
	stop = tr.Span("closed_loop")
	first := len(wr.batches)
	end := time.Now().Add(closed)
	for {
		wr.post()
		if !time.Now().Before(end) {
			break
		}
	}
	stop()
	var accepted, busy float64
	for _, b := range wr.batches[first:] {
		accepted += float64(b.ops)
		busy += b.svc.Seconds() / b.slow
	}
	out.set("throughput_per_s", accepted/busy, len(wr.batches)-first)

	heap, err := heapInuse(ctl)
	if err != nil {
		return nil, err
	}
	out.set("bytes_per_edge", heap/edges, 1)

	stop = tr.Span("verify")
	err = verifyServe(out, ctl, rd, hist)
	stop()
	if err != nil {
		return nil, err
	}
	d.stop()

	out.attempted += rd.attempted() + wr.attempted
	out.failed += rd.failedCount() + wr.failed
	for _, n := range rd.failureNotes() {
		out.notef("read failed: %s", n)
	}
	for _, n := range wr.notes {
		out.notef("update failed: %s", n)
	}
	readLat := make([]float64, len(reads))
	svc := make([]time.Duration, len(reads))
	var lateMs []float64
	for i, s := range reads {
		readLat[i] = us(s.lat)
		svc[i] = s.svc
		lateMs = append(lateMs, ms(s.late))
	}
	p99, _, _ := tail(readLat)
	out.set("read_p50_us", median(readLat), len(readLat))
	out.set("read_p99_us", p99, len(readLat))
	if n := served1 - served0; n > 0 {
		out.set("serve.cache_hit_ratio", float64(hits1-hits0)/float64(n), int(n))
	}
	setServerSplit(out, red0, red1, svc)

	// Update latency from due time, divided by the slowdown the reference
	// pass after each update measured.
	raw := make([]float64, len(writes))
	norm := make([]float64, len(writes))
	for i, s := range writes {
		raw[i] = ms(s.lat)
		norm[i] = raw[i] / wr.batches[i].slow
		lateMs = append(lateMs, ms(s.late))
	}
	out.set("op_p50_ms", median(norm), len(norm))
	if v, pct, ok := tail(raw); ok {
		out.set("op_tail_ms", v, len(raw))
		out.notef("op_tail_ms is p%.4g of %d updates", pct, len(raw))
	}
	out.set("loadgen.late_ms_p99", nearestRank(sortedFloats(lateMs), 99), len(lateMs))
	for _, b := range wr.batches {
		slows = append(slows, b.slow)
	}
	setHost(out, slows, median(raw), median(spawns))

	if cfg.traced {
		if err := serveLayers(cfg, out, g, path, stream[:nWarm+nOpen], wr); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// setServerSplit reports the daemon's own mean time per read endpoint
// between two /metrics scrapes, and the network share: the client-side
// mean of the same requests minus the server-side mean.
func setServerSplit(out *outcome, before, after map[string][2]float64, client []time.Duration) {
	var sum, count float64
	for _, e := range servedEndpoints {
		s := after[e][0] - before[e][0]
		n := after[e][1] - before[e][1]
		if n > 0 {
			out.set("serve.server_us_mean."+e, 1e6*s/n, int(n))
		}
		sum += s
		count += n
	}
	if count == 0 || len(client) == 0 {
		return
	}
	var c time.Duration
	for _, l := range client {
		c += l
	}
	out.set("net.share_us", us(c)/float64(len(client))-1e6*sum/count, len(client))
}

// spawnDaemon starts cncd SetupReps times on the workload's graph, each
// spawn followed by a reference pass, and keeps the last daemon. It
// returns every spawn-to-ready time in seconds and the slowdown after it.
func spawnDaemon(cfg runConfig, graphPath string, tr *cncount.Tracer, ref *refKernel) (*daemon, []float64, []float64, error) {
	var setups, slows []float64
	for i := 0; i < cfg.spec.SetupReps; i++ {
		args := []string{"-graph", graphPath, "-listen", "127.0.0.1:0",
			"-wal", filepath.Join(cfg.workdir, "wal"+strconv.Itoa(i)), "-fsync", "batch"}
		stop := tr.Span("daemon.spawn")
		d, took, err := startDaemon(cfg.cncd, args, filepath.Join(cfg.workdir, "cncd"+strconv.Itoa(i)+".log"), cfg.kids)
		stop()
		if err != nil {
			return nil, nil, nil, err
		}
		setups = append(setups, secs(took))
		slows = append(slows, ref.slowdown(tr))
		if i == cfg.spec.SetupReps-1 {
			return d, setups, slows, nil
		}
		d.stop()
	}
	return nil, nil, nil, fmt.Errorf("%s: no set-up repetitions", cfg.spec.Name)
}

// checked is a served count kept for checking against the reference.
type checked struct {
	q     query
	epoch uint64
	count uint32
}

// connStats are one read connection's tallies; only its worker writes
// them until the phase ends.
type connStats struct {
	attempted, failed, hits, served int64
	checks                          []checked
	notes                           []string
	ring                            *trace.Ring
}

// reader issues the read stream, one client connection per worker.
type reader struct {
	clients []*client
	stream  []query
	every   int
	stats   []*connStats
}

func newReader(addr string, sp spec, stream []query, tr *cncount.Tracer) *reader {
	r := &reader{stream: stream, every: sp.CheckEvery}
	for c := 0; c < sp.ReadConns; c++ {
		st := &connStats{}
		if tr != nil {
			tr.NameThread(c+1, "reads "+strconv.Itoa(c))
			st.ring = tr.Ring(c + 1)
		}
		r.clients = append(r.clients, newClient(addr))
		r.stats = append(r.stats, st)
	}
	return r
}

func (r *reader) close() {
	for _, c := range r.clients {
		c.close()
	}
}

// read performs stream request idx on connection conn and returns when its
// response was read. One request in every CheckEvery is sampled: its span
// is traced and, for edge and pair queries, its count is kept for checking.
func (r *reader) read(conn, idx int) time.Time {
	q := r.stream[idx%len(r.stream)]
	st := r.stats[conn]
	st.attempted++
	sampled := idx%r.every == 0
	t0 := time.Now()
	resp, body, err := r.clients[conn].get(q.path())
	t1 := time.Now()
	if sampled {
		st.ring.Complete("read."+servedEndpoints[q.kind], t0, t1.Sub(t0))
	}
	if err != nil {
		st.fail("%s: %v", q.path(), err)
		return t1
	}
	if resp.StatusCode != http.StatusOK {
		st.fail("%s: %s: %s", q.path(), resp.Status, body)
		return t1
	}
	st.served++
	if resp.Header.Get("X-Cache") == "HIT" {
		st.hits++
	}
	if sampled && q.kind != qTopK {
		var b struct {
			Epoch uint64 `json:"epoch"`
			Count uint32 `json:"count"`
		}
		if err := json.Unmarshal(body, &b); err != nil {
			st.fail("%s: decoding %q: %v", q.path(), body, err)
			return t1
		}
		st.checks = append(st.checks, checked{q: q, epoch: b.Epoch, count: b.Count})
	}
	return t1
}

func (st *connStats) fail(format string, args ...any) {
	st.failed++
	if len(st.notes) < maxNotes {
		st.notes = append(st.notes, fmt.Sprintf(format, args...))
	}
}

// totals sums cache hits and successful reads; call between phases.
func (r *reader) totals() (hits, served int64) {
	for _, st := range r.stats {
		hits += st.hits
		served += st.served
	}
	return hits, served
}

func (r *reader) attempted() (n int64) {
	for _, st := range r.stats {
		n += st.attempted
	}
	return n
}

func (r *reader) failedCount() (n int64) {
	for _, st := range r.stats {
		n += st.failed
	}
	return n
}

func (r *reader) failureNotes() (notes []string) {
	for _, st := range r.stats {
		notes = append(notes, st.notes...)
	}
	return notes
}

// writer posts the update stream on one connection, records every
// accepted batch in the reference history, and runs a reference pass after
// every batch.
type writer struct {
	c                 *client
	up                *updater
	hist              *history
	ref               *refKernel
	tr                *cncount.Tracer
	ring              *trace.Ring
	batches           []batchTiming
	accepted          int
	attempted, failed int64
	notes             []string
}

// batchTiming is one posted batch: the time from sending it to reading the
// response, the slowdown the reference pass after it measured, and the ops
// the daemon accepted (0 if it refused the batch).
type batchTiming struct {
	svc  time.Duration
	slow float64
	ops  int
}

func newWriter(addr string, g *cncount.Graph, seed int64, batchOps int, hist *history, ref *refKernel, tr *cncount.Tracer) *writer {
	w := &writer{c: newClient(addr), up: newUpdater(g, seed, batchOps), hist: hist, ref: ref, tr: tr}
	if tr != nil {
		const tid = 100
		tr.NameThread(tid, "updates")
		w.ring = tr.Ring(tid)
	}
	return w
}

// post sends the stream's next batch, runs a reference pass, and returns
// when the batch's response was read.
func (w *writer) post() time.Time {
	ops := w.up.next()
	w.attempted++
	body, err := encodeOps(ops)
	t0 := time.Now()
	if err == nil {
		err = w.send(body, ops)
	}
	end := time.Now()
	w.ring.Complete("update", t0, end.Sub(t0))
	b := batchTiming{svc: end.Sub(t0), slow: w.ref.slowdown(w.tr)}
	if err != nil {
		w.failed++
		if len(w.notes) < maxNotes {
			w.notes = append(w.notes, err.Error())
		}
	} else {
		b.ops = len(ops)
	}
	w.batches = append(w.batches, b)
	return end
}

// send posts one encoded batch and, once the daemon accepted it, records
// it in the history under the epoch it installed.
func (w *writer) send(body []byte, ops []dynamic.Op) error {
	req, err := http.NewRequest(http.MethodPost, w.c.base+"/v1/update", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, reply, err := w.c.do(req)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("%s: %s", resp.Status, reply)
	}
	var b struct {
		Epoch uint64 `json:"epoch"`
	}
	if err := json.Unmarshal(reply, &b); err != nil {
		return fmt.Errorf("decoding %q: %v", reply, err)
	}
	w.hist.record(ops, b.Epoch)
	w.accepted++
	return nil
}

// encodeOps renders a batch as a /v1/update body.
func encodeOps(ops []dynamic.Op) ([]byte, error) {
	type wireOp struct {
		Op string `json:"op"`
		U  uint32 `json:"u"`
		V  uint32 `json:"v"`
	}
	wire := make([]wireOp, len(ops))
	for i, op := range ops {
		wire[i] = wireOp{Op: op.Kind.String(), U: op.U, V: op.V}
	}
	return json.Marshal(map[string][]wireOp{"ops": wire})
}

// verifyServe checks the sampled served counts against the reference at
// the epoch each was served under, and the daemon's triangle totals
// (maintained by ingest, and from a fresh /v1/count) against a local
// recount of the base graph plus every accepted batch.
func verifyServe(out *outcome, c *client, rd *reader, hist *history) error {
	for _, st := range rd.stats {
		for _, ck := range st.checks {
			if want := hist.count(ck.q.u, ck.q.v, ck.epoch); ck.count != want {
				out.wrongf("%s at epoch %d: count %d, want %d", ck.q.path(), ck.epoch, ck.count, want)
			}
		}
	}
	want, err := hist.triangles()
	if err != nil {
		return err
	}
	var recount struct {
		Triangles uint64 `json:"triangles"`
	}
	if err := c.getJSON("/v1/count", &recount); err != nil {
		return err
	}
	if recount.Triangles != want {
		out.wrongf("/v1/count triangles %d, want %d", recount.Triangles, want)
	}
	var info infoBody
	if err := c.getJSON("/v1/info", &info); err != nil {
		return err
	}
	if info.Ingest == nil || info.Ingest.Triangles != want {
		out.wrongf("/v1/info ingest triangles %+v, want %d", info.Ingest, want)
	}
	return nil
}
