package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"cncount"
	"cncount/internal/dynamic"
	"cncount/internal/graph"
	"cncount/internal/intersect"
	"cncount/internal/metrics"
	"cncount/internal/obs"
	"cncount/internal/reqctx"
	"cncount/internal/sched"
	"cncount/internal/trace"
)

// Defaults for Options fields left zero.
const (
	DefaultMaxInFlight    = 64
	DefaultCacheEntries   = 4096
	DefaultRequestTimeout = 10 * time.Second
	// maxSample bounds /v1/sample so one request cannot marshal the
	// whole edge set of a large graph.
	maxSample = 65536
)

// Options configures a Server. The zero value serves with the defaults
// above, all cores for recounts, and no metrics.
type Options struct {
	// MaxInFlight bounds concurrently executing query requests; excess
	// requests get 429 + Retry-After. < 1 uses DefaultMaxInFlight.
	MaxInFlight int
	// CacheEntries is the LRU result cache capacity; < 0 disables
	// caching, 0 uses DefaultCacheEntries.
	CacheEntries int
	// RequestTimeout is the per-request deadline when the client sends no
	// timeout_ms parameter; 0 uses DefaultRequestTimeout.
	RequestTimeout time.Duration
	// CountThreads is the worker count for /v1/count recounts; < 1 uses
	// all cores.
	CountThreads int
	// Metrics receives the counting phases and counters of /v1/count
	// recounts. Nil disables collection.
	Metrics *metrics.Collector
	// Requests receives the RED view of every request (duration
	// histograms by endpoint × status × cache, rejected counter, slowest
	// samples); the server installs its in-flight reader on it. Nil
	// disables RED collection at nil-check cost.
	Requests *obs.RequestMetrics
	// CaptureSlowest sizes the /debug/requests retention ring (the N
	// slowest plus recent errored requests, each with its span tree);
	// 0 uses DefaultCaptureSlowest, < 0 disables capture — and with it
	// per-request span tracing, leaving the hot path at nil-check cost.
	CaptureSlowest int
	// Progress, when non-nil, receives live progress from /v1/count
	// recounts, which the watchdog and /progress observe.
	Progress *sched.Progress
	// AccessLog receives one structured event per finished request
	// (endpoint, status, cache outcome, admission outcome, duration,
	// request/trace IDs); nil disables access logging.
	AccessLog *slog.Logger
	// Logf receives serving errors; nil discards.
	Logf func(format string, args ...any)
}

// graphState is the immutable unit of swap: a graph view and the epoch
// it was installed under travel together through one atomic pointer, so
// a request sees a consistent (graph, epoch) pair even while a swap races
// it. Point queries read the view's rows; /v1/count and /v1/sample take
// it as one flat CSR.
type graphState struct {
	g     *dynamic.View
	name  string
	epoch uint64
}

// Server serves counting queries against a resident graph. Construct
// with New, mount Handler on an http.Server. All methods are safe for
// concurrent use.
type Server struct {
	opts     Options
	state    atomic.Pointer[graphState]
	cache    *Cache
	adm      *admission
	mux      *http.ServeMux
	capture  *Capture
	inflight *inflightReg
	ingester atomic.Pointer[Ingester]
}

// New builds a server around the given resident graph (epoch 1).
func New(g *cncount.Graph, name string, opts Options) *Server {
	if opts.MaxInFlight < 1 {
		opts.MaxInFlight = DefaultMaxInFlight
	}
	cacheCap := opts.CacheEntries
	switch {
	case cacheCap < 0:
		cacheCap = 0
	case cacheCap == 0:
		cacheCap = DefaultCacheEntries
	}
	if opts.RequestTimeout <= 0 {
		opts.RequestTimeout = DefaultRequestTimeout
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	s := &Server{
		opts:     opts,
		cache:    NewCache(cacheCap),
		adm:      newAdmission(opts.MaxInFlight),
		mux:      http.NewServeMux(),
		inflight: newInflightReg(),
	}
	if opts.CaptureSlowest >= 0 {
		s.capture = NewCapture(opts.CaptureSlowest)
	}
	opts.Requests.SetInFlight(s.adm.inFlight)
	s.state.Store(&graphState{g: dynamic.ViewOf(g), name: name, epoch: 1})
	s.mux.HandleFunc("/v1/info", s.wrap("info", http.MethodGet, s.handleInfo))
	s.mux.HandleFunc("/v1/edge", s.wrap("edge", http.MethodGet, s.handleEdge))
	s.mux.HandleFunc("/v1/pair", s.wrap("pair", http.MethodGet, s.handlePair))
	s.mux.HandleFunc("/v1/topk", s.wrap("topk", http.MethodGet, s.handleTopK))
	s.mux.HandleFunc("/v1/count", s.wrap("count", http.MethodGet, s.handleCount))
	s.mux.HandleFunc("/v1/sample", s.wrap("sample", http.MethodGet, s.handleSample))
	s.mux.HandleFunc("/v1/update", s.wrap("update", http.MethodPost, s.handleUpdate))
	s.mux.HandleFunc("/debug/requests.json", s.handleRequestsJSON)
	s.mux.HandleFunc("/debug/requests", s.handleRequestsHTML)
	return s
}

// EnableUpdates installs the ingestion layer behind /v1/update. Until
// it is called (cncd calls it after WAL replay finishes), update
// requests are turned away with 503 — queries keep serving the resident
// epoch throughout recovery.
func (s *Server) EnableUpdates(in *Ingester) { s.ingester.Store(in) }

// Ingest returns the installed ingestion layer, nil when updates are
// disabled or recovery has not finished.
func (s *Server) Ingest() *Ingester { return s.ingester.Load() }

// Handler returns the server's mux. cmd/cncd mounts the observability
// plane's handler on the same outer mux under "/", so /metrics and
// /healthz ride the same listener as /v1/*.
func (s *Server) Handler() http.Handler { return s.mux }

// Mux exposes the underlying mux so the owning command can mount
// additional routes (the obs plane) on the same listener.
func (s *Server) Mux() *http.ServeMux { return s.mux }

// SwapGraph atomically replaces the resident graph and bumps the epoch,
// returning the new epoch. Cached results from earlier epochs stop
// matching immediately (the epoch is part of every cache key) and age
// out of the LRU; in-flight requests finish against the graph they
// started with.
func (s *Server) SwapGraph(g *cncount.Graph, name string) uint64 {
	return s.install(dynamic.ViewOf(g), name)
}

// install is SwapGraph for a published view of a dynamic graph.
func (s *Server) install(v *dynamic.View, name string) uint64 {
	for {
		old := s.state.Load()
		next := &graphState{g: v, name: name, epoch: old.epoch + 1}
		if s.state.CompareAndSwap(old, next) {
			return next.epoch
		}
	}
}

// Epoch returns the current graph epoch.
func (s *Server) Epoch() uint64 { return s.state.Load().epoch }

// CacheStats returns the result cache's cumulative hit/miss counts.
func (s *Server) CacheStats() (hits, misses uint64) { return s.cache.Stats() }

// InFlight returns the number of requests currently holding admission
// slots.
func (s *Server) InFlight() int { return s.adm.inFlight() }

// InFlightRequests names the admitted, still-executing requests
// ("req-… endpoint=count age=1.2s", oldest first) — the watchdog's
// WatchdogOptions.InFlight source, so a stalled recount is identifiable
// by request ID in the diagnostic bundle.
func (s *Server) InFlightRequests() []string { return s.inflight.describe() }

// httpError is a handler-returned error carrying its status code and,
// for typed errors, a machine-readable code rendered into the JSON
// error envelope.
type httpError struct {
	status int
	code   string
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func errf(status int, format string, args ...any) error {
	return &httpError{status: status, msg: fmt.Sprintf(format, args...)}
}

// errcode is errf with a machine-readable error code for clients that
// branch on failure kinds rather than parsing messages.
func errcode(status int, code, format string, args ...any) error {
	return &httpError{status: status, code: code, msg: fmt.Sprintf(format, args...)}
}

// wrap is the common serving path of every /v1 endpoint: request
// identity first (so every response — 405s and 429s included — carries
// the correlation headers), then method check, admission, deadline,
// RED observation, access logging, capture, and JSON error rendering. Handlers return an error instead of writing error
// responses themselves so the envelope stays uniform.
func (s *Server) wrap(name, method string, h func(w http.ResponseWriter, r *http.Request, st *graphState) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		// Ingest the caller's trace context; any hostile or absent header
		// degrades to a fresh server-minted root (never an error). The
		// response continues the trace under a fresh span ID and echoes
		// everything, so the caller can quote our IDs when reporting.
		inbound, _ := reqctx.ParseTraceparent(r.Header.Get(reqctx.TraceparentHeader))
		tc := inbound.Child()
		reqID := reqctx.NewRequestID()
		hdr := w.Header()
		hdr.Set("X-Request-Id", reqID)
		hdr.Set("X-Trace-Id", tc.TraceID)
		hdr.Set("Traceparent", tc.String())

		sc := &requestScope{id: reqID, tc: tc, start: start, cache: "none"}
		if q := r.URL.RawQuery; q != "" {
			sc.setOpt("query", q)
		}
		rec := &statusRecorder{ResponseWriter: w}
		admission := "ok"
		var errBody, errCode string
		fail := func(status int, format string, args ...any) {
			errBody = fmt.Sprintf(format, args...)
			writeJSONError(rec, status, reqID, errCode, "%s", errBody)
		}
		defer func() {
			dur := time.Since(start)
			status := rec.statusOr(http.StatusOK)
			s.opts.Requests.Observe(name, status, sc.cache, dur, reqID, tc.TraceID)
			s.logAccess(name, status, sc, admission, dur)
			s.captureRequest(name, status, errBody, sc, dur)
		}()

		if r.Method != method {
			fail(http.StatusMethodNotAllowed, "%s only", method)
			return
		}
		if !s.adm.tryAcquire() {
			admission = "rejected"
			s.opts.Requests.Reject()
			hdr.Set("Retry-After", "1")
			fail(http.StatusTooManyRequests,
				"server at max in-flight requests (%d); retry shortly", s.opts.MaxInFlight)
			return
		}
		defer s.adm.release()
		s.inflight.add(reqID, name, start)
		defer s.inflight.remove(reqID)

		// Admitted requests get a private span tracer (capture enabled
		// only): its epoch is now, so the serve.<endpoint> span and the
		// sched worker spans of a recount share one timeline.
		var stopSpan func()
		if s.capture != nil {
			sc.tr = trace.NewWithCapacity(reqTraceEvents)
			stopSpan = sc.tr.Span("serve." + name)
			defer func() { stopSpan() }()
		}

		ctx, cancel, err := s.reqContext(r)
		if err != nil {
			fail(http.StatusBadRequest, "%v", err)
			return
		}
		defer cancel()
		ctx = context.WithValue(ctx, scopeKey{}, sc)
		st := s.state.Load()
		if err := h(rec, r.WithContext(ctx), st); err != nil {
			var he *httpError
			if errors.As(err, &he) {
				errCode = he.code
				fail(he.status, "%s", he.msg)
				return
			}
			s.opts.Logf("serve: %s: %v", r.URL.Path, err)
			fail(http.StatusInternalServerError, "%v", err)
		}
	}
}

// logAccess emits the structured access-log event for one finished
// request. Nil AccessLog disables it at nil-check cost.
func (s *Server) logAccess(endpoint string, status int, sc *requestScope, admission string, dur time.Duration) {
	if s.opts.AccessLog == nil {
		return
	}
	s.opts.AccessLog.LogAttrs(context.Background(), slog.LevelInfo, "request",
		slog.String("endpoint", endpoint),
		slog.Int("status", status),
		slog.String("cache", sc.cache),
		slog.String("admission", admission),
		slog.Duration("dur", dur),
		slog.String("request_id", sc.id),
		slog.String("trace_id", sc.tc.TraceID),
	)
}

// captureRequest offers one finished request to the capture ring.
// Admission rejections are excluded: they did no work, carry no spans,
// and under overload would evict the errors worth keeping.
func (s *Server) captureRequest(endpoint string, status int, errBody string, sc *requestScope, dur time.Duration) {
	if s.capture == nil || status == http.StatusTooManyRequests {
		return
	}
	cr := &CapturedRequest{
		ID:             sc.id,
		TraceID:        sc.tc.TraceID,
		Traceparent:    sc.tc.String(),
		Endpoint:       endpoint,
		Status:         status,
		Cache:          sc.cache,
		Error:          errBody,
		Options:        sc.optsCopy(),
		StartUnixNanos: sc.start.UnixNano(),
		DurationNanos:  dur.Nanoseconds(),
	}
	if sc.tr != nil {
		cr.Spans = trace.Tree(sc.tr.SpanRecords())
		cr.SpanCount = trace.CountSpans(cr.Spans)
		cr.DroppedSpans = sc.tr.Dropped()
	}
	s.capture.offer(cr)
}

// maxTimeoutMS is the largest timeout_ms whose time.Duration does not
// overflow; past it the product wraps to a deadline already passed.
const maxTimeoutMS = math.MaxInt64 / int64(time.Millisecond)

// reqContext derives the request's deadline: timeout_ms when the client
// sent one, the server default otherwise. The deadline flows into the
// counting runtime through Options.Context, so even a full recount is
// bounded per request.
func (s *Server) reqContext(r *http.Request) (context.Context, context.CancelFunc, error) {
	d := s.opts.RequestTimeout
	if raw := r.URL.Query().Get("timeout_ms"); raw != "" {
		ms, err := strconv.ParseInt(raw, 10, 64)
		if err != nil || ms < 1 || ms > maxTimeoutMS {
			return nil, nil, fmt.Errorf("timeout_ms must be an integer in [1, %d], got %q", maxTimeoutMS, raw)
		}
		d = time.Duration(ms) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	return ctx, cancel, nil
}

// writeJSONError renders the uniform error envelope. Every error body
// carries the request ID alongside the message, so a client that only
// logged the body can still report the failure actionably; typed errors
// additionally carry a machine-readable code.
func writeJSONError(w http.ResponseWriter, status int, requestID, code, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	body := map[string]string{"error": fmt.Sprintf(format, args...)}
	if requestID != "" {
		body["request_id"] = requestID
	}
	if code != "" {
		body["code"] = code
	}
	json.NewEncoder(w).Encode(body)
}

// writeCached sends a response body that went through the result cache,
// marking hit/miss in the X-Cache header (the body bytes are identical
// either way, so cached responses stay byte-stable).
func writeCached(w http.ResponseWriter, body []byte, hit bool) {
	w.Header().Set("Content-Type", "application/json")
	if hit {
		w.Header().Set("X-Cache", "HIT")
	} else {
		w.Header().Set("X-Cache", "MISS")
	}
	w.Write(body)
}

// cached runs compute under the result cache: on a hit the stored body
// is served verbatim; on a miss the computed body is stored under
// (epoch, key). Errors are never cached. The request scope (when the
// wrap path installed one) learns the outcome and brackets the miss
// computation in a span.
func (s *Server) cached(w http.ResponseWriter, r *http.Request, st *graphState, key string, compute func() ([]byte, error)) error {
	sc := scopeFrom(r.Context())
	if body, ok := s.cache.Get(st.epoch, key); ok {
		sc.setCache("hit")
		writeCached(w, body, true)
		return nil
	}
	sc.setCache("miss")
	stop := sc.span("serve.compute")
	body, err := compute()
	stop()
	if err != nil {
		return err
	}
	s.cache.Put(st.epoch, key, body)
	writeCached(w, body, false)
	return nil
}

func vertexParam(r *http.Request, st *graphState, name string) (cncount.VertexID, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return 0, errf(http.StatusBadRequest, "missing parameter %q", name)
	}
	n, err := strconv.ParseUint(raw, 10, 32)
	if err != nil {
		return 0, errf(http.StatusBadRequest, "parameter %q: not a vertex id: %q", name, raw)
	}
	if int(n) >= st.g.NumVertices() {
		return 0, errf(http.StatusNotFound, "vertex %d out of range [0, %d)", n, st.g.NumVertices())
	}
	return cncount.VertexID(n), nil
}

func (s *Server) handleInfo(w http.ResponseWriter, _ *http.Request, st *graphState) error {
	hits, misses := s.cache.Stats()
	body := map[string]any{
		"graph":         st.name,
		"epoch":         st.epoch,
		"vertices":      st.g.NumVertices(),
		"edges":         st.g.NumEdges(),
		"cache_len":     s.cache.Len(),
		"cache_hits":    hits,
		"cache_misses":  misses,
		"in_flight":     s.adm.inFlight(),
		"max_in_flight": s.opts.MaxInFlight,
	}
	if in := s.ingester.Load(); in != nil {
		body["ingest"] = in.Info()
	}
	w.Header().Set("Content-Type", "application/json")
	return json.NewEncoder(w).Encode(body)
}

// handleEdge answers |N(u) ∩ N(v)| for an existing edge (u,v) — the
// paper's per-edge count as a point lookup.
func (s *Server) handleEdge(w http.ResponseWriter, r *http.Request, st *graphState) error {
	u, err := vertexParam(r, st, "u")
	if err != nil {
		return err
	}
	v, err := vertexParam(r, st, "v")
	if err != nil {
		return err
	}
	if u > v {
		u, v = v, u // counts are symmetric; canonicalize the cache key
	}
	return s.cached(w, r, st, fmt.Sprintf("edge:%d:%d", u, v), func() ([]byte, error) {
		if !st.g.HasEdge(u, v) {
			return nil, errf(http.StatusNotFound, "(%d,%d) is not an edge", u, v)
		}
		cnt := intersect.Merge(st.g.Neighbors(u), st.g.Neighbors(v))
		return marshalBody(map[string]any{
			"epoch": st.epoch, "u": u, "v": v, "count": cnt,
		})
	})
}

// handlePair answers |N(u) ∩ N(v)| for any vertex pair, edge or not —
// the similarity-query form of the intersection.
func (s *Server) handlePair(w http.ResponseWriter, r *http.Request, st *graphState) error {
	u, err := vertexParam(r, st, "u")
	if err != nil {
		return err
	}
	v, err := vertexParam(r, st, "v")
	if err != nil {
		return err
	}
	if u > v {
		u, v = v, u
	}
	return s.cached(w, r, st, fmt.Sprintf("pair:%d:%d", u, v), func() ([]byte, error) {
		cnt := intersect.Merge(st.g.Neighbors(u), st.g.Neighbors(v))
		return marshalBody(map[string]any{
			"epoch": st.epoch, "u": u, "v": v, "count": cnt,
			"is_edge": st.g.HasEdge(u, v),
		})
	})
}

// handleTopK recommends the k non-adjacent vertices sharing the most
// common neighbors with u (paper §2.2.4's recommendation use case): it
// accumulates counts over u's two-hop neighborhood, drops u and its
// direct neighbors, and ranks count-descending with vertex id as the
// deterministic tie-break.
func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request, st *graphState) error {
	u, err := vertexParam(r, st, "u")
	if err != nil {
		return err
	}
	k := 10
	if raw := r.URL.Query().Get("k"); raw != "" {
		k, err = strconv.Atoi(raw)
		if err != nil || k < 1 || k > 1000 {
			return errf(http.StatusBadRequest, "k must be in [1, 1000], got %q", raw)
		}
	}
	return s.cached(w, r, st, fmt.Sprintf("topk:%d:%d", u, k), func() ([]byte, error) {
		ctx := r.Context()
		counts := make(map[cncount.VertexID]uint32)
		for i, x := range st.g.Neighbors(u) {
			if i%64 == 0 && ctx.Err() != nil {
				return nil, deadlineErr(ctx)
			}
			for _, wv := range st.g.Neighbors(x) {
				if wv != u {
					counts[wv]++
				}
			}
		}
		for _, x := range st.g.Neighbors(u) {
			delete(counts, x)
		}
		type rec struct {
			V     cncount.VertexID `json:"v"`
			Count uint32           `json:"count"`
		}
		recs := make([]rec, 0, len(counts))
		for v, c := range counts {
			recs = append(recs, rec{V: v, Count: c})
		}
		sort.Slice(recs, func(i, j int) bool {
			if recs[i].Count != recs[j].Count {
				return recs[i].Count > recs[j].Count
			}
			return recs[i].V < recs[j].V
		})
		if len(recs) > k {
			recs = recs[:k]
		}
		return marshalBody(map[string]any{
			"epoch": st.epoch, "u": u, "k": k, "results": recs,
		})
	})
}

// handleCount runs a full all-edge recount on the resident graph,
// multiplexed onto the counting runtime with the request deadline as
// Options.Context — the batch operation of the paper exposed as one
// bounded request.
func (s *Server) handleCount(w http.ResponseWriter, r *http.Request, st *graphState) error {
	algo := cncount.AlgoBMP
	algoName := r.URL.Query().Get("algo")
	if algoName != "" {
		var err error
		algo, err = ParseAlgo(algoName)
		if err != nil {
			return errf(http.StatusBadRequest, "%v", err)
		}
	}
	workers := s.opts.CountThreads
	if raw := r.URL.Query().Get("workers"); raw != "" {
		// Each worker gets its own context and, for BMP, a |V|-bit
		// bitmap, so the request may ask for at most one per core.
		n, err := strconv.Atoi(raw)
		if maxWorkers := runtime.GOMAXPROCS(0); err != nil || n < 1 || n > maxWorkers {
			return errf(http.StatusBadRequest, "workers must be in [1, %d], got %q", maxWorkers, raw)
		}
		workers = n
	}
	key := fmt.Sprintf("count:%s:%d", algo, workers)
	sc := scopeFrom(r.Context())
	sc.setOpt("algo", algo.String())
	sc.setOpt("workers", strconv.Itoa(workers))
	return s.cached(w, r, st, key, func() ([]byte, error) {
		// The request's private tracer rides Options.Trace into sched.Run's
		// Obs, so the captured entry's span tree reaches the
		// per-worker task spans of this recount — and only this one.
		res, err := cncount.Count(st.g.CSR(), cncount.Options{
			Algorithm: algo,
			Threads:   workers,
			Context:   r.Context(),
			Metrics:   s.opts.Metrics,
			Trace:     sc.tracer(),
			Progress:  s.opts.Progress,
		})
		if err != nil {
			if errors.Is(err, cncount.ErrDeadline) {
				return nil, errf(http.StatusGatewayTimeout, "recount exceeded the request deadline: %v", err)
			}
			if errors.Is(err, cncount.ErrCanceled) {
				return nil, errf(http.StatusServiceUnavailable, "recount canceled: %v", err)
			}
			return nil, err
		}
		return marshalBody(map[string]any{
			"epoch":         st.epoch,
			"algo":          res.Algorithm.String(),
			"workers":       res.Threads,
			"edges":         st.g.NumEdges(),
			"elapsed_nanos": res.Elapsed.Nanoseconds(),
			"triangles":     res.TriangleCount(),
			"downgraded":    res.Downgraded,
		})
	})
}

// handleSample returns n edges evenly spaced through the directed edge
// offset range — the load generator's way to draw a representative
// query pool without shipping the whole edge set.
func (s *Server) handleSample(w http.ResponseWriter, r *http.Request, st *graphState) error {
	n := 1024
	if raw := r.URL.Query().Get("n"); raw != "" {
		var err error
		n, err = strconv.Atoi(raw)
		if err != nil || n < 1 || n > maxSample {
			return errf(http.StatusBadRequest, "n must be in [1, %d], got %q", maxSample, raw)
		}
	}
	g := st.g.CSR()
	total := g.NumEdges()
	if int64(n) > total {
		n = int(total)
	}
	// Offsets ascend, the access pattern FindSrc's stash amortizes.
	src := graph.NewSrcFinder(g)
	edges := make([][2]cncount.VertexID, 0, n)
	for i := 0; i < n; i++ {
		off := total * int64(i) / int64(n)
		edges = append(edges, [2]cncount.VertexID{src.Find(off), g.Dst[off]})
	}
	w.Header().Set("Content-Type", "application/json")
	return json.NewEncoder(w).Encode(map[string]any{
		"epoch": st.epoch, "edges": edges,
	})
}

func deadlineErr(ctx context.Context) error {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return errf(http.StatusGatewayTimeout, "request exceeded its deadline")
	}
	return errf(http.StatusServiceUnavailable, "request canceled")
}

func marshalBody(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// ParseAlgo maps an algorithm name to the Algorithm constant: the one
// parser behind /v1/count's algo parameter, cnc's -algo flag and the
// benchmark's workload specs. "adaptive" and "adapt" name BMP, which
// absorbed the per-edge dispatcher, so callers that still ask for it keep
// working.
func ParseAlgo(s string) (cncount.Algorithm, error) {
	switch strings.ToLower(s) {
	case "m", "merge":
		return cncount.AlgoM, nil
	case "mps":
		return cncount.AlgoMPS, nil
	case "bmp", "adaptive", "adapt":
		return cncount.AlgoBMP, nil
	case "bmprf", "bmp-rf", "rf":
		return cncount.AlgoBMPRF, nil
	default:
		return 0, fmt.Errorf("unknown algorithm %q: valid names are m, mps, bmp, bmprf", s)
	}
}
