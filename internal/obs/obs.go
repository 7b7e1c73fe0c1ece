// Package obs is the live observability plane: an embeddable HTTP server
// any long-running command mounts with one `-http addr` flag. Where
// internal/metrics and internal/trace explain a run after it finishes,
// obs answers the operational questions while it runs — "how far along is
// it", "is it stuck or just slow", "what is it doing right now" — the
// same live-profiling stance the paper's evaluation takes with hardware
// counters, applied to GBBS-scale inputs where a counting run is a
// multi-minute job.
//
// The plane serves, on one dedicated mux (never http.DefaultServeMux):
//
//	/healthz       liveness ("ok")
//	/metrics       Prometheus text exposition of the live metrics.Collector
//	               plus the process runtime gauges (goroutines, heap, GC,
//	               RSS), read at scrape time
//	/progress      JSON progress of the in-flight parallel region:
//	               percent done, units/sec, ETA, per-worker stall flags
//	               and cumulative busy/wait/steal tallies
//	/trace.json    point-in-time snapshot of the live trace rings
//	/dashboard     embedded zero-dependency HTML view that polls /progress
//	               and /metrics and keeps its own short history in the page
//	/debug/pprof/  the standard runtime profiles
//
// Everything is pull-based and read-only: handlers snapshot the
// collector (mutex-guarded, histogram reads atomic), sample the progress
// source (atomic loads), and serialize live-mode trace rings (per-ring
// mutex) — none of it perturbs the hot path, which pays only the nil
// checks it already paid for metrics and tracing. The plane keeps no
// history of its own: every number it serves is read from its source
// when the request arrives.
package obs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cncount/internal/metrics"
	"cncount/internal/sched"
	"cncount/internal/wal"
)

// Manifest is the build/environment manifest embedded in snapshots and
// benchmark reports; see metrics.Manifest.
type Manifest = metrics.Manifest

// NewManifest collects the manifest; see metrics.NewManifest.
func NewManifest(config map[string]string) Manifest { return metrics.NewManifest(config) }

// DefaultStallAfter is the default per-worker heartbeat age past which
// /progress flags a worker as stalled. Tasks are |T| units, so on any
// healthy run heartbeats arrive orders of magnitude faster than this.
const DefaultStallAfter = 5 * time.Second

// Options configures a Plane. All fields are optional; the zero Options
// serves /healthz and empty /metrics and /progress.
type Options struct {
	// Snapshot supplies the live metrics view rendered by /metrics —
	// typically (*metrics.Collector).Snapshot as a method value (nil-safe
	// on a nil collector). nil serves the zero snapshot.
	Snapshot func() metrics.Snapshot
	// Progress is the in-flight region's progress source. nil serves an
	// inactive /progress.
	Progress *sched.Progress
	// TraceJSON writes the live trace snapshot — typically
	// (*trace.Tracer).WriteJSON of a tracer in live mode (SetLive). nil
	// makes /trace.json respond 404.
	TraceJSON func(io.Writer) error
	// Manifest is served under /metrics as cncount_build_info and used as
	// the fallback when the snapshot carries none.
	Manifest *Manifest
	// Requests is the serving path's RED collector; when non-nil its
	// families (cncd_request_duration_seconds and friends) are appended
	// to /metrics after the process-scoped cncount_* families.
	Requests *RequestMetrics
	// WALStats supplies the durability log's live view for the
	// cncd_wal_* gauge families; nil (or a false second return) omits
	// them from /metrics.
	WALStats func() (wal.Stats, bool)
	// StallAfter is the heartbeat age that flags a worker stalled;
	// 0 uses DefaultStallAfter, negative disables stall detection.
	StallAfter time.Duration
	// Logf receives serve errors and lifecycle messages; nil discards.
	Logf func(format string, args ...any)
}

// Plane is the mounted observability server. The zero value is not
// usable; construct with New. A nil *Plane is the disabled plane: Start
// and Close are no-ops, so callers thread one pointer unconditionally.
type Plane struct {
	opts       Options
	mux        *http.ServeMux
	draining   atomic.Bool
	recovering atomic.Pointer[recovery]

	// mu guards the listener state below against Start racing Close: a
	// command's signal handler and its main defer both call Close (and
	// may do so while Start is still binding), so the pair must be safe
	// in any order and any interleaving.
	mu      sync.Mutex
	srv     *http.Server
	ln      net.Listener
	done    chan struct{}
	started bool
	closed  bool

	// closeOnce makes Close idempotent: the first call performs the
	// shutdown and memoizes its error, every later or concurrent call
	// waits for it and returns the same error.
	closeOnce sync.Once
	closeErr  error
}

// New builds a plane serving the given sources on a dedicated mux.
func New(opts Options) *Plane {
	if opts.StallAfter == 0 {
		opts.StallAfter = DefaultStallAfter
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	p := &Plane{opts: opts, mux: http.NewServeMux()}
	p.mux.HandleFunc("/healthz", p.handleHealthz)
	p.mux.HandleFunc("/metrics", p.handleMetrics)
	p.mux.HandleFunc("/progress", p.handleProgress)
	p.mux.HandleFunc("/trace.json", p.handleTrace)
	p.mux.HandleFunc("/dashboard", p.handleDashboard)
	p.mux.HandleFunc("/debug/pprof/", pprof.Index)
	p.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	p.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	p.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	p.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return p
}

// Handler exposes the plane's mux, for embedding and tests.
func (p *Plane) Handler() http.Handler { return p.mux }

// Start listens on addr (e.g. "127.0.0.1:6060", ":0" for an ephemeral
// port) and serves in a background goroutine, returning the bound
// address. Serve errors are logged through Options.Logf, never silently
// discarded. Nil-safe: the nil plane returns a nil address.
func (p *Plane) Start(addr string) (net.Addr, error) {
	if p == nil {
		return nil, nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, errors.New("obs: plane already closed")
	}
	if p.started {
		return nil, errors.New("obs: plane already started")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		// A failed bind leaves the plane exactly as it was: no listener,
		// no serve goroutine, and Close stays a clean no-op.
		return nil, err
	}
	p.ln = ln
	p.done = make(chan struct{})
	p.srv = &http.Server{Handler: p.mux}
	p.started = true
	srv, done := p.srv, p.done
	go func() {
		defer close(done)
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			p.opts.Logf("obs: serve error on %s: %v", ln.Addr(), err)
		}
	}()
	return ln.Addr(), nil
}

// Close shuts the listener down cleanly, draining in-flight requests for
// up to one second before force-closing, and waits for the serve
// goroutine to exit. It is idempotent and safe from any goroutine in any
// state: on the nil plane, before or without a successful Start (e.g.
// after a failed bind), called twice, or called concurrently — a
// command's signal handler and its main defer both call it. Every call
// returns the first call's error.
func (p *Plane) Close() error {
	if p == nil {
		return nil
	}
	p.closeOnce.Do(func() { p.closeErr = p.doClose() })
	return p.closeErr
}

func (p *Plane) doClose() error {
	p.mu.Lock()
	p.closed = true
	srv, done := p.srv, p.done
	p.mu.Unlock()
	if srv == nil {
		// Never started (or the bind failed): nothing to shut down, no
		// goroutine to wait for.
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	err := srv.Shutdown(ctx)
	if err != nil {
		err = srv.Close()
	}
	<-done
	return err
}

// BeginDrain flips /healthz to 503 "draining" without stopping the
// server: a shutting-down command calls it first, so orchestrators stop
// routing to the plane while scrapers still get one final /metrics and
// /progress read before Close. Safe on the nil plane and idempotent.
func (p *Plane) BeginDrain() {
	if p == nil {
		return
	}
	if p.draining.CompareAndSwap(false, true) {
		p.opts.Logf("obs: draining (healthz now 503)")
	}
}

// Draining reports whether BeginDrain has been called. Nil-safe.
func (p *Plane) Draining() bool { return p != nil && p.draining.Load() }

func (p *Plane) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if p.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "draining\n")
		return
	}
	if p.recovering.Load() != nil {
		w.WriteHeader(http.StatusServiceUnavailable)
		p.healthzRecovery(w)
		return
	}
	io.WriteString(w, "ok\n")
}

func (p *Plane) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var snap metrics.Snapshot
	if p.opts.Snapshot != nil {
		snap = p.opts.Snapshot()
	}
	if snap.Manifest == nil {
		snap.Manifest = p.opts.Manifest
	}
	var prog *ProgressStatus
	if p.opts.Progress != nil {
		ps := BuildProgress(p.opts.Progress.Sample(), p.opts.StallAfter)
		prog = &ps
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := WriteProm(w, snap, prog); err != nil {
		p.opts.Logf("obs: /metrics write: %v", err)
	}
	if err := p.opts.Requests.WriteProm(w); err != nil {
		p.opts.Logf("obs: /metrics request families write: %v", err)
	}
	if err := p.writeWALProm(w, time.Now()); err != nil {
		p.opts.Logf("obs: /metrics wal families write: %v", err)
	}
	if err := writeRuntimeProm(w); err != nil {
		p.opts.Logf("obs: /metrics runtime gauges write: %v", err)
	}
}

// writeRuntimeProm appends the process runtime gauges to the /metrics
// exposition: one runtime.ReadMemStats and one /proc read per scrape,
// nothing between scrapes.
func writeRuntimeProm(w io.Writer) error {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	_, err := fmt.Fprintf(w,
		"# HELP cncount_goroutines Live goroutines.\n"+
			"# TYPE cncount_goroutines gauge\n"+
			"cncount_goroutines %d\n"+
			"# HELP cncount_heap_alloc_bytes Bytes of allocated heap objects.\n"+
			"# TYPE cncount_heap_alloc_bytes gauge\n"+
			"cncount_heap_alloc_bytes %d\n"+
			"# HELP cncount_heap_sys_bytes Heap bytes obtained from the OS.\n"+
			"# TYPE cncount_heap_sys_bytes gauge\n"+
			"cncount_heap_sys_bytes %d\n"+
			"# HELP cncount_gc_cycles_total Completed GC cycles.\n"+
			"# TYPE cncount_gc_cycles_total counter\n"+
			"cncount_gc_cycles_total %d\n"+
			"# HELP cncount_gc_pause_seconds_total Cumulative stop-the-world GC pause time.\n"+
			"# TYPE cncount_gc_pause_seconds_total counter\n"+
			"cncount_gc_pause_seconds_total %g\n"+
			"# HELP cncount_rss_bytes Resident set size; 0 where /proc is unavailable.\n"+
			"# TYPE cncount_rss_bytes gauge\n"+
			"cncount_rss_bytes %d\n",
		runtime.NumGoroutine(), ms.HeapAlloc, ms.HeapSys, ms.NumGC,
		float64(ms.PauseTotalNs)/1e9, readRSSBytes())
	return err
}

// readRSSBytes returns the process resident set size from /proc, or 0
// where that interface does not exist (non-Linux).
func readRSSBytes() uint64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseUint(fields[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * uint64(os.Getpagesize())
}

func (p *Plane) handleProgress(w http.ResponseWriter, _ *http.Request) {
	status := BuildProgress(p.opts.Progress.Sample(), p.opts.StallAfter)
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(status); err != nil {
		p.opts.Logf("obs: /progress write: %v", err)
	}
}

func (p *Plane) handleTrace(w http.ResponseWriter, _ *http.Request) {
	if p.opts.TraceJSON == nil {
		http.Error(w, "tracing not enabled for this run (pass -trace)", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := p.opts.TraceJSON(w); err != nil {
		p.opts.Logf("obs: /trace.json write: %v", err)
	}
}
