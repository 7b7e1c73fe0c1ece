// Command cncd is the resident counting service: it loads a graph once
// into an immutable in-memory CSR and serves common-neighbor queries
// against it over HTTP/JSON until terminated.
//
// Usage:
//
//	cncd -profile TW -scale 0.5 -listen 127.0.0.1:8080
//	cncd -graph graph.bin -listen :8080 -inflight 128 -cache 65536
//
// Endpoints (all GET, all JSON):
//
//	/v1/edge?u=&v=          |N(u) ∩ N(v)| for an existing edge (u,v)
//	/v1/pair?u=&v=          the intersection for any vertex pair
//	/v1/topk?u=&k=          top-k non-adjacent recommendations for u
//	/v1/count?algo=&workers= full all-edge recount on the resident graph
//	/v1/sample?n=           n edges spaced through the offset range
//	/v1/info                graph name, epoch, sizes, cache and gate state
//	/v1/update              POST: an edge-mutation batch (with -wal or -updates)
//
// With -wal DIR the daemon keeps a write-ahead update log: every
// /v1/update batch is validated, appended to the log (fsynced per
// -fsync), applied to an in-memory dynamic graph with maintained
// per-edge counts, and installed as a new epoch. On boot the log is
// replayed before updates re-enable — torn tails are truncated and
// tolerated, mid-log corruption fails startup with a typed error —
// while /healthz reports 503 "recovering" with live replay progress
// and queries keep serving the loaded graph. -updates alone enables
// the same endpoint memory-only (mutations are lost on restart).
//
// plus the observability plane (internal/obs) mounted on the same
// listener: /healthz, /metrics, /progress, /debug/pprof/, and the
// request inspector /debug/requests (+ .json) backed by the capture
// ring (-capture). Every response carries X-Request-Id, X-Trace-Id and
// a W3C traceparent continuing the caller's trace when one was sent;
// /metrics exposes RED request histograms; -accesslog emits one
// structured event per request; -watchdog/-bundledir arm the recount
// stall watchdog, whose reports name in-flight request IDs. Results are
// cached in an LRU keyed by (graph epoch, query); every response body
// carries the epoch it was computed under and the X-Cache header says
// HIT or MISS. Admission control bounds in-flight requests (-inflight),
// rejecting the excess with 429 + Retry-After, and every request runs
// under a deadline (-deadline, or the client's timeout_ms), which the
// counting runtime honors cooperatively mid-recount.
//
// On SIGTERM/SIGINT the daemon drains: /healthz flips to 503
// "draining", in-flight requests get -draingrace to finish, and the
// process exits 0 on a clean drain.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"cncount"
	"cncount/internal/dynamic"
	"cncount/internal/logx"
	"cncount/internal/metrics"
	"cncount/internal/obs"
	"cncount/internal/sched"
	"cncount/internal/serve"
	"cncount/internal/wal"
)

// appConfig mirrors the flag set so the whole daemon is testable
// without touching globals or os.Exit.
type appConfig struct {
	graphPath   string
	profile     string
	scale       float64
	listen      string
	opsListen   string
	inflight    int
	cacheSize   int
	deadline    time.Duration
	drainNotice time.Duration
	drainGrace  time.Duration
	threads     int
	logFormat   string
	capture     int
	accessLog   bool
	watchdog    time.Duration
	bundleDir   string
	walDir      string
	fsync       string
	fsyncEvery  time.Duration
	walSeg      int64
	updates     bool
	// logger receives structured lifecycle events; run() defaults a nil
	// logger to stderr in cfg.logFormat.
	logger *slog.Logger
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("cncd: ")

	var cfg appConfig
	flag.StringVar(&cfg.graphPath, "graph", "", "graph file (text edge list, or binary CSR with .bin)")
	flag.StringVar(&cfg.profile, "profile", "", "generate a dataset profile instead: "+strings.Join(cncount.ProfileNames(), ", "))
	flag.Float64Var(&cfg.scale, "scale", 1.0, "profile scale (1.0 ≈ 1/1000 of the paper's dataset)")
	flag.StringVar(&cfg.listen, "listen", "127.0.0.1:8080", "address to serve /v1/* and the observability plane on")
	flag.StringVar(&cfg.opsListen, "opshttp", "", "optionally serve the observability plane on a second, ops-only address too")
	flag.IntVar(&cfg.inflight, "inflight", serve.DefaultMaxInFlight, "max in-flight query requests before 429")
	flag.IntVar(&cfg.cacheSize, "cache", serve.DefaultCacheEntries, "result cache capacity in entries (-1 disables)")
	flag.DurationVar(&cfg.deadline, "deadline", serve.DefaultRequestTimeout, "default per-request deadline (clients may override with timeout_ms)")
	flag.DurationVar(&cfg.drainNotice, "drainnotice", 0, "after SIGTERM, keep serving this long with /healthz at 503 so load balancers observe unreadiness before the listener stops accepting")
	flag.DurationVar(&cfg.drainGrace, "draingrace", 5*time.Second, "how long in-flight requests get to finish after SIGTERM; half of it also bounds the wait for a connection's first request header")
	flag.IntVar(&cfg.threads, "threads", 0, "worker count for /v1/count recounts (0 = all cores)")
	flag.StringVar(&cfg.logFormat, "logfmt", "text", "log output format: "+logx.Formats)
	flag.IntVar(&cfg.capture, "capture", serve.DefaultCaptureSlowest, "requests retained by /debug/requests (slowest N plus recent errors; -1 disables capture)")
	flag.BoolVar(&cfg.accessLog, "accesslog", false, "emit one structured log event per request (endpoint, status, cache, duration, ids)")
	flag.DurationVar(&cfg.watchdog, "watchdog", 0, "declare a recount stalled when a worker heartbeat exceeds this age (0 disables the watchdog)")
	flag.StringVar(&cfg.bundleDir, "bundledir", "", "directory for stall diagnostic bundles (progress/metrics/trace JSON); empty logs the report only")
	flag.StringVar(&cfg.walDir, "wal", "", "write-ahead log directory: enables durable POST /v1/update and replays the log on boot")
	flag.StringVar(&cfg.fsync, "fsync", "batch", "WAL fsync policy: batch (every append), interval (at most every -fsyncevery), off")
	flag.DurationVar(&cfg.fsyncEvery, "fsyncevery", 100*time.Millisecond, "maximum fsync age under -fsync interval")
	flag.Int64Var(&cfg.walSeg, "walseg", 0, "WAL segment rotation size in bytes (0 = 64 MiB)")
	flag.BoolVar(&cfg.updates, "updates", false, "enable POST /v1/update without a WAL (memory-only: updates are lost on restart)")
	flag.Parse()

	if cfg.graphPath == "" && cfg.profile == "" {
		flag.Usage()
		os.Exit(2)
	}
	// The first SIGTERM/SIGINT starts the drain; a second signal kills
	// the process the hard way (NotifyContext restores default handling).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, cfg, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run loads the graph, serves until ctx is canceled, then drains and
// returns nil on a clean shutdown. Every failure — a bad flag, an
// unloadable graph, an unbindable address, an unclean drain — is
// returned so main can exit non-zero.
func run(ctx context.Context, cfg appConfig, stdout io.Writer) error {
	logger := cfg.logger
	if logger == nil {
		var err error
		if logger, err = logx.New(os.Stderr, cfg.logFormat, "cncd"); err != nil {
			return err
		}
	}
	logf := func(format string, args ...any) { logger.Info(fmt.Sprintf(format, args...)) }

	mc := metrics.New()
	g, name, err := loadGraph(cfg, mc)
	if err != nil {
		return err
	}
	manifest := cncount.NewManifest(map[string]string{
		"mode":     "serve",
		"graph":    name,
		"listen":   cfg.listen,
		"inflight": fmt.Sprint(cfg.inflight),
		"cache":    fmt.Sprint(cfg.cacheSize),
		"deadline": cfg.deadline.String(),
		"wal":      cfg.walDir,
		"fsync":    cfg.fsync,
	})
	mc.SetManifest(manifest)
	logger.Info("graph resident",
		"graph", name, "vertices", g.NumVertices(), "edges", g.NumEdges(),
		"bytes", g.MemoryBytes())

	// Request-scoped observability: RED metrics and the recount progress
	// source are shared between the serving layer (which feeds them) and
	// the obs plane (which exposes them on /metrics and /progress).
	reqMetrics := obs.NewRequestMetrics()
	prog := sched.NewProgress()
	var accessLog *slog.Logger
	if cfg.accessLog {
		accessLog = logger
	}
	srv := serve.New(g, name, serve.Options{
		MaxInFlight:    cfg.inflight,
		CacheEntries:   cfg.cacheSize,
		RequestTimeout: cfg.deadline,
		CountThreads:   cfg.threads,
		Metrics:        mc,
		Logf:           logf,
		Requests:       reqMetrics,
		CaptureSlowest: cfg.capture,
		Progress:       prog,
		AccessLog:      accessLog,
	})
	// walLog is set once recovery finishes; until then the obs closure
	// reports "no WAL" and /metrics omits the cncd_wal_* families.
	var walLog atomic.Pointer[wal.Log]
	plane := obs.New(obs.Options{
		Snapshot: mc.Snapshot,
		Progress: prog,
		Manifest: &manifest,
		Requests: reqMetrics,
		Logf:     logf,
		WALStats: func() (obs.WALStatus, bool) {
			l := walLog.Load()
			if l == nil {
				return obs.WALStatus{}, false
			}
			st := l.Stats()
			return obs.WALStatus{
				Segments:          st.Segments,
				Bytes:             st.Bytes,
				Appended:          st.Appended,
				LastSyncUnixNanos: st.LastSyncUnixNanos,
				NextSeq:           st.NextSeq,
			}, true
		},
	})
	defer func() {
		if l := walLog.Load(); l != nil {
			if cerr := l.Close(); cerr != nil {
				logger.Error("wal close failed", "err", cerr)
			}
		}
	}()
	if cfg.watchdog > 0 {
		wd := obs.StartWatchdog(obs.WatchdogOptions{
			Progress:   prog,
			StallAfter: cfg.watchdog,
			Snapshot:   mc.Snapshot,
			InFlight:   srv.InFlightRequests,
			OnStall: func(r obs.StallReport) {
				logger.Error("recount stalled", "report", r.String())
				if cfg.bundleDir != "" {
					if err := r.WriteBundle(cfg.bundleDir); err != nil {
						logger.Error("stall bundle write failed", "dir", cfg.bundleDir, "err", err)
					} else {
						logger.Info("stall bundle written", "dir", cfg.bundleDir)
					}
				}
			},
			Logf: logf,
		})
		defer wd.Stop()
	}
	// One mux, one listener: /v1/* from the serving layer, everything
	// else (healthz, metrics, progress, pprof) from the obs plane.
	mux := srv.Mux()
	mux.Handle("/", plane.Handler())

	ln, err := net.Listen("tcp", cfg.listen)
	if err != nil {
		return fmt.Errorf("listen %s: %w", cfg.listen, err)
	}
	// Shutdown treats a connection that has not sent its first request as
	// active until it is 5 s old, so a client's spare pooled connection
	// would hold the drain past a shorter grace. Half the grace bounds the
	// wait for a first request header, which closes such connections in
	// time.
	httpSrv := &http.Server{Handler: mux, ReadHeaderTimeout: cfg.drainGrace / 2}

	// The optional ops-only listener serves just the plane; both the
	// drain path and the deferred cleanup close it, which Plane.Close is
	// contractually safe against (idempotent, any order, any state).
	defer plane.Close()
	if cfg.opsListen != "" {
		opsAddr, err := plane.Start(cfg.opsListen)
		if err != nil {
			ln.Close()
			return fmt.Errorf("ops listen %s: %w", cfg.opsListen, err)
		}
		logger.Info("ops plane listening", "addr", opsAddr.String())
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	logger.Info("listening", "addr", ln.Addr().String())
	// The parseable ready line the load generator and e2e tests wait for.
	fmt.Fprintf(stdout, "cncd listening on %s\n", ln.Addr())

	// The write path comes up after the listener so /healthz can report
	// recovery progress while the WAL replays; queries serve the loaded
	// epoch throughout, and /v1/update answers 503 until the ingester is
	// installed.
	if cfg.walDir != "" || cfg.updates {
		var done, total atomic.Int64
		if cfg.walDir != "" {
			plane.BeginRecovery(func() string {
				return fmt.Sprintf("wal replay %d/%d bytes", done.Load(), total.Load())
			})
		}
		log, err := setupIngest(cfg, g, name, srv, mc, logger, stdout,
			func(d, t int64) { done.Store(d); total.Store(t) })
		if err != nil {
			ln.Close()
			plane.Close()
			return err
		}
		if log != nil {
			walLog.Store(log)
		}
		plane.EndRecovery()
		logger.Info("updates enabled", "durable", log != nil, "epoch", srv.Epoch())
	}

	select {
	case err := <-serveErr:
		plane.Close()
		return fmt.Errorf("serve: %w", err)
	case <-ctx.Done():
	}

	// Drain: advertise unreadiness first so orchestrators stop routing,
	// then give in-flight requests the grace window, then stop the ops
	// listener. Exit 0 only when everything finished inside the grace.
	logger.Info("draining", "grace", cfg.drainGrace.String(), "in_flight", srv.InFlight())
	plane.BeginDrain()
	if cfg.drainNotice > 0 {
		// Keep accepting during the notice window: /healthz already says
		// 503, so routers pull the backend while late requests still land.
		time.Sleep(cfg.drainNotice)
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), cfg.drainGrace)
	defer cancel()
	err = httpSrv.Shutdown(shutdownCtx)
	if err != nil {
		httpSrv.Close()
	}
	<-serveErr // Serve has returned once Shutdown/Close took effect
	if cerr := plane.Close(); err == nil {
		err = cerr
	}
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("drain: %w", err)
	}
	hits, misses := srv.CacheStats()
	logger.Info("drained, exiting", "cache_hits", hits, "cache_misses", misses)
	return nil
}

// setupIngest builds the write path: a boot count seeds the dynamic
// graph's maintained per-edge counts, the WAL (when configured) is
// replayed into it — torn tails truncated and tolerated, real
// corruption returned as a typed error that fails startup — and the
// ingestion layer is installed behind /v1/update. Returns the opened
// log, nil when running memory-only.
func setupIngest(cfg appConfig, g *cncount.Graph, name string, srv *serve.Server,
	mc *metrics.Collector, logger *slog.Logger, stdout io.Writer,
	progress func(done, total int64)) (*wal.Log, error) {
	policy, err := wal.ParseSyncPolicy(cfg.fsync)
	if err != nil {
		return nil, err
	}
	stop := mc.StartPhase("boot_count")
	res, err := cncount.Count(g, cncount.Options{Threads: cfg.threads, Metrics: mc})
	stop()
	if err != nil {
		return nil, fmt.Errorf("boot count for the update path: %w", err)
	}
	dyn, err := dynamic.FromCSR(g, res.Counts)
	if err != nil {
		return nil, err
	}

	nextSeq := uint64(1)
	var log *wal.Log
	if cfg.walDir != "" {
		info, err := wal.Replay(cfg.walDir, func(b wal.Batch) error {
			_, err := dyn.ApplyBatch(b.Ops, cfg.threads)
			return err
		}, progress)
		if err != nil {
			return nil, fmt.Errorf("wal replay: %w", err)
		}
		if info.TornTail {
			logger.Warn("wal torn tail truncated",
				"segment", info.TruncatedSegment, "dropped_bytes", info.TruncatedBytes)
		}
		if info.Batches > 0 {
			csr, _, err := dyn.ToCSR()
			if err != nil {
				return nil, fmt.Errorf("snapshotting the replayed graph: %w", err)
			}
			srv.SwapGraph(csr, name)
		}
		// The parseable recovery banner the e2e crash tests wait for.
		fmt.Fprintf(stdout, "cncd wal replayed: batches=%d ops=%d torn_tail=%v epoch=%d\n",
			info.Batches, info.Ops, info.TornTail, srv.Epoch())
		nextSeq = info.LastSeq + 1
		log, err = wal.Open(cfg.walDir, wal.Options{
			SegmentBytes: cfg.walSeg,
			Sync:         policy,
			SyncEvery:    cfg.fsyncEvery,
			NextSeq:      nextSeq,
		})
		if err != nil {
			return nil, fmt.Errorf("wal open: %w", err)
		}
	}
	srv.EnableUpdates(serve.NewIngester(srv, dyn, nextSeq, serve.IngestOptions{
		WAL:     log,
		Workers: cfg.threads,
		Name:    name,
	}))
	return log, nil
}

// loadGraph resolves -graph/-profile into a resident CSR, recording
// load phases into mc.
func loadGraph(cfg appConfig, mc *metrics.Collector) (*cncount.Graph, string, error) {
	switch {
	case cfg.graphPath != "" && cfg.profile != "":
		return nil, "", errors.New("pass -graph or -profile, not both")
	case cfg.graphPath != "":
		g, err := cncount.LoadGraphObserved(cfg.graphPath, mc, nil)
		return g, cfg.graphPath, err
	case cfg.profile != "":
		stop := mc.StartPhase("generate")
		g, err := cncount.GenerateProfile(cfg.profile, cfg.scale)
		stop()
		return g, cfg.profile, err
	default:
		return nil, "", errors.New("pass -graph or -profile")
	}
}
