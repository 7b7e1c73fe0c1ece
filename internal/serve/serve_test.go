package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"cncount"
	"cncount/internal/metrics"
	"cncount/internal/obs"
)

// testGraph returns a small deterministic graph: the WI profile at a
// tiny scale, plus a direct handle for reference computations.
func testGraph(t *testing.T) *cncount.Graph {
	t.Helper()
	g, err := cncount.GenerateProfile("WI", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func newTestServer(t *testing.T, g *cncount.Graph, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(g, "WI", opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// getJSON fetches path and decodes the JSON body, returning status and
// the X-Cache header.
func getJSON(t *testing.T, ts *httptest.Server, path string, out any) (int, string) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("GET %s: not JSON: %v\n%s", path, err, body)
		}
	}
	return resp.StatusCode, resp.Header.Get("X-Cache")
}

// firstEdge returns some edge (u,v) of g with u < v.
func firstEdge(g *cncount.Graph) (u, v cncount.VertexID) {
	for uu := 0; uu < g.NumVertices(); uu++ {
		for _, vv := range g.Neighbors(cncount.VertexID(uu)) {
			if cncount.VertexID(uu) < vv {
				return cncount.VertexID(uu), vv
			}
		}
	}
	panic("graph has no edges")
}

func TestEdgeEndpointMatchesCountEdge(t *testing.T) {
	g := testGraph(t)
	_, ts := newTestServer(t, g, Options{})
	u, v := firstEdge(g)
	want, err := cncount.CountEdge(g, u, v)
	if err != nil {
		t.Fatal(err)
	}

	var got struct {
		Epoch uint64 `json:"epoch"`
		Count uint32 `json:"count"`
	}
	// Both orientations must hit the same canonical answer.
	for _, q := range []string{
		fmt.Sprintf("/v1/edge?u=%d&v=%d", u, v),
		fmt.Sprintf("/v1/edge?u=%d&v=%d", v, u),
	} {
		status, _ := getJSON(t, ts, q, &got)
		if status != http.StatusOK {
			t.Fatalf("%s = %d", q, status)
		}
		if got.Count != want || got.Epoch != 1 {
			t.Errorf("%s = count %d epoch %d, want count %d epoch 1", q, got.Count, got.Epoch, want)
		}
	}

	// A non-edge is 404, as is an out-of-range vertex.
	if status, _ := getJSON(t, ts, fmt.Sprintf("/v1/edge?u=%d&v=%d", u, u), nil); status != http.StatusNotFound {
		t.Errorf("self-loop edge = %d, want 404", status)
	}
	if status, _ := getJSON(t, ts, fmt.Sprintf("/v1/edge?u=%d&v=1", g.NumVertices()), nil); status != http.StatusNotFound {
		t.Errorf("out-of-range vertex = %d, want 404", status)
	}
	if status, _ := getJSON(t, ts, "/v1/edge?u=abc&v=1", nil); status != http.StatusBadRequest {
		t.Errorf("bad vertex param = %d, want 400", status)
	}
}

func TestPairEndpointCountsNonEdges(t *testing.T) {
	g := testGraph(t)
	_, ts := newTestServer(t, g, Options{})
	u, v := firstEdge(g)

	var got struct {
		Count  uint32 `json:"count"`
		IsEdge bool   `json:"is_edge"`
	}
	status, _ := getJSON(t, ts, fmt.Sprintf("/v1/pair?u=%d&v=%d", u, v), &got)
	if status != http.StatusOK || !got.IsEdge {
		t.Fatalf("pair on edge = %d is_edge=%v", status, got.IsEdge)
	}
	want, _ := cncount.CountEdge(g, u, v)
	if got.Count != want {
		t.Errorf("pair count = %d, want %d", got.Count, want)
	}

	// A self-pair is legal for /v1/pair (it is its own full neighborhood).
	status, _ = getJSON(t, ts, fmt.Sprintf("/v1/pair?u=%d&v=%d", u, u), &got)
	if status != http.StatusOK {
		t.Fatalf("self pair = %d", status)
	}
	if int64(got.Count) != g.Degree(u) {
		t.Errorf("self pair count = %d, want degree %d", got.Count, g.Degree(u))
	}
}

// hashIntersect counts |a ∩ b| through a set, a reference independent of
// the sorted-merge kernel the server runs.
func hashIntersect(a, b []cncount.VertexID) uint32 {
	set := make(map[cncount.VertexID]struct{}, len(a))
	for _, x := range a {
		set[x] = struct{}{}
	}
	var c uint32
	for _, y := range b {
		if _, ok := set[y]; ok {
			c++
		}
	}
	return c
}

func TestTopKEndpointRanksByCommonNeighbors(t *testing.T) {
	g := testGraph(t)
	_, ts := newTestServer(t, g, Options{})
	u, _ := firstEdge(g)

	var got struct {
		Results []struct {
			V     cncount.VertexID `json:"v"`
			Count uint32           `json:"count"`
		} `json:"results"`
	}
	status, _ := getJSON(t, ts, fmt.Sprintf("/v1/topk?u=%d&k=5", u), &got)
	if status != http.StatusOK {
		t.Fatalf("topk = %d", status)
	}
	if len(got.Results) == 0 || len(got.Results) > 5 {
		t.Fatalf("topk returned %d results, want 1..5", len(got.Results))
	}
	for i, rec := range got.Results {
		// No recommendation may be u itself or a direct neighbor, counts
		// must be non-increasing and must match the hash-set reference.
		if rec.V == u || g.HasEdge(u, rec.V) {
			t.Errorf("result %d: %d is u or adjacent to u", i, rec.V)
		}
		if i > 0 && rec.Count > got.Results[i-1].Count {
			t.Errorf("results not count-descending at %d: %d > %d", i, rec.Count, got.Results[i-1].Count)
		}
		if want := hashIntersect(g.Neighbors(u), g.Neighbors(rec.V)); rec.Count != want {
			t.Errorf("result %d: count = %d, want %d", i, rec.Count, want)
		}
	}

	if status, _ := getJSON(t, ts, fmt.Sprintf("/v1/topk?u=%d&k=0", u), nil); status != http.StatusBadRequest {
		t.Errorf("k=0 = %d, want 400", status)
	}
}

func TestCountEndpointMatchesDirectCount(t *testing.T) {
	g := testGraph(t)
	_, ts := newTestServer(t, g, Options{CountThreads: 1})

	ref, err := cncount.Count(g, cncount.Options{Algorithm: cncount.AlgoM, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Algo      string `json:"algo"`
		Workers   int    `json:"workers"`
		Triangles uint64 `json:"triangles"`
	}
	status, cacheHdr := getJSON(t, ts, "/v1/count?algo=bmp", &got)
	if status != http.StatusOK || cacheHdr != "MISS" {
		t.Fatalf("count = %d, X-Cache %q", status, cacheHdr)
	}
	if got.Triangles != ref.TriangleCount() {
		t.Errorf("triangles = %d, want %d", got.Triangles, ref.TriangleCount())
	}
	if got.Algo != "BMP" || got.Workers != 1 {
		t.Errorf("algo/workers = %s/%d, want BMP/1", got.Algo, got.Workers)
	}
	// Second identical recount is served from cache.
	if _, cacheHdr := getJSON(t, ts, "/v1/count?algo=bmp", &got); cacheHdr != "HIT" {
		t.Errorf("second recount X-Cache = %q, want HIT", cacheHdr)
	}
	// No algo (the default) and the "adaptive" spelling both run BMP, so
	// they share its cache key count:BMP:1.
	for _, q := range []string{"/v1/count", "/v1/count?algo=adaptive"} {
		got.Algo = ""
		status, cacheHdr := getJSON(t, ts, q, &got)
		if status != http.StatusOK || cacheHdr != "HIT" || got.Algo != "BMP" {
			t.Errorf("%s = %d, X-Cache %q, algo %q; want 200, HIT, BMP", q, status, cacheHdr, got.Algo)
		}
	}
	if status, _ := getJSON(t, ts, "/v1/count?algo=nope", nil); status != http.StatusBadRequest {
		t.Errorf("bad algo = %d, want 400", status)
	}
}

func TestSampleEndpointReturnsRealEdges(t *testing.T) {
	g := testGraph(t)
	_, ts := newTestServer(t, g, Options{})

	var got struct {
		Edges [][2]cncount.VertexID `json:"edges"`
	}
	status, _ := getJSON(t, ts, "/v1/sample?n=64", &got)
	if status != http.StatusOK {
		t.Fatalf("sample = %d", status)
	}
	if len(got.Edges) != 64 {
		t.Fatalf("sample returned %d edges, want 64", len(got.Edges))
	}
	for _, e := range got.Edges {
		if !g.HasEdge(e[0], e[1]) {
			t.Errorf("sampled pair (%d,%d) is not an edge", e[0], e[1])
		}
	}
}

// TestCacheHitAfterMissAndEpochInvalidation is the tentpole's core
// contract: a repeated query is served from cache, and swapping the
// graph bumps the epoch so every cached result is invalidated at once —
// the same query recomputes against the new graph.
func TestCacheHitAfterMissAndEpochInvalidation(t *testing.T) {
	g := testGraph(t)
	s, ts := newTestServer(t, g, Options{})
	u, v := firstEdge(g)
	q := fmt.Sprintf("/v1/edge?u=%d&v=%d", u, v)

	var got struct {
		Epoch uint64 `json:"epoch"`
		Count uint32 `json:"count"`
	}
	var miss, hit json.RawMessage
	if _, hdr := getJSON(t, ts, q, &miss); hdr != "MISS" {
		t.Fatalf("first query X-Cache=%q, want MISS", hdr)
	}
	if err := json.Unmarshal(miss, &got); err != nil || got.Epoch != 1 {
		t.Fatalf("first query epoch=%d (err %v), want epoch 1", got.Epoch, err)
	}
	if _, hdr := getJSON(t, ts, q, &hit); hdr != "HIT" {
		t.Fatalf("repeat query X-Cache=%q, want HIT", hdr)
	}
	if string(hit) != string(miss) {
		t.Errorf("cached body %s differs from the computed %s", hit, miss)
	}
	hits, misses := s.CacheStats()
	if hits != 1 || misses != 1 {
		t.Errorf("cache stats = %d hits %d misses, want 1/1", hits, misses)
	}

	// Swap in a graph where (u,v) has a different neighborhood: the WI
	// profile at a different scale. The old cached answer must not leak
	// through the swap.
	g2, err := cncount.GenerateProfile("WI", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if epoch := s.SwapGraph(g2, "WI-0.1"); epoch != 2 {
		t.Fatalf("post-swap epoch = %d, want 2", epoch)
	}
	// The old cached answer must not leak: the query recomputes (MISS) or,
	// if (u,v) is no longer an edge in g2, 404s — never a HIT.
	status, hdr := getJSON(t, ts, q, &got)
	if hdr == "HIT" {
		t.Fatalf("post-swap query served from the old epoch's cache")
	}
	if status == http.StatusOK {
		if got.Epoch != 2 {
			t.Errorf("post-swap epoch = %d, want 2", got.Epoch)
		}
		want, err := cncount.CountEdge(g2, u, v)
		if err != nil {
			t.Fatal(err)
		}
		if got.Count != want {
			t.Errorf("post-swap count = %d, want %d (new graph's answer)", got.Count, want)
		}
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2)
	c.Put(1, "a", []byte("A"))
	c.Put(1, "b", []byte("B"))
	if _, ok := c.Get(1, "a"); !ok { // promote a
		t.Fatal("a missing")
	}
	c.Put(1, "c", []byte("C")) // evicts b (LRU)
	if _, ok := c.Get(1, "b"); ok {
		t.Error("b survived eviction, want LRU evicted")
	}
	if _, ok := c.Get(1, "a"); !ok {
		t.Error("a evicted, but it was most recently used")
	}
	if c.Len() != 2 {
		t.Errorf("len = %d, want 2", c.Len())
	}
	// Same query under a different epoch is a distinct entry.
	if _, ok := c.Get(2, "a"); ok {
		t.Error("epoch 2 read hit an epoch 1 entry")
	}
	// Capacity < 1 disables caching entirely.
	d := NewCache(0)
	d.Put(1, "x", []byte("X"))
	if _, ok := d.Get(1, "x"); ok {
		t.Error("disabled cache stored an entry")
	}
}

// TestAdmissionControl429 fills every admission slot and checks the
// next request is rejected with 429 + Retry-After instead of queueing.
func TestAdmissionControl429(t *testing.T) {
	g := testGraph(t)
	red := obs.NewRequestMetrics()
	s, ts := newTestServer(t, g, Options{MaxInFlight: 2, Requests: red})

	// Occupy both slots directly — deterministic, no slow-request races.
	for i := 0; i < 2; i++ {
		if !s.adm.tryAcquire() {
			t.Fatal("could not occupy admission slot")
		}
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/info")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated server = %d, want 429\n%s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", resp.Header.Get("Retry-After"))
	}
	if !strings.Contains(string(body), "in-flight") {
		t.Errorf("429 body lacks explanation: %s", body)
	}
	if exp := redExposition(t, red); !strings.Contains(exp, "cncd_requests_rejected_total 1\n") {
		t.Errorf("RED exposition lacks one rejection:\n%s", exp)
	}

	// Releasing a slot restores service.
	s.adm.release()
	if status, _ := getJSON(t, ts, "/v1/info", nil); status != http.StatusOK {
		t.Errorf("after release = %d, want 200", status)
	}
	s.adm.release()
}

// TestCountDeadline504 runs a recount with a deadline far below the
// graph's counting time and checks the cooperative cancellation surfaces
// as 504, and that the failed result was not cached.
func TestCountDeadline504(t *testing.T) {
	g, err := cncount.GenerateProfile("TW", 0.3)
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, g, Options{CountThreads: 1})

	status, _ := getJSON(t, ts, "/v1/count?algo=m&timeout_ms=1", nil)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("1ms recount = %d, want 504", status)
	}
	if _, misses := s.CacheStats(); misses != 1 {
		t.Errorf("misses = %d, want 1", misses)
	}
	if s.cache.Len() != 0 {
		t.Errorf("timed-out result was cached (%d entries), errors must not cache", s.cache.Len())
	}
	// The same query with a sane deadline succeeds and caches.
	status, hdr := getJSON(t, ts, "/v1/count?algo=m&timeout_ms=60000", nil)
	if status != http.StatusOK || hdr != "MISS" {
		t.Fatalf("recount after timeout = %d X-Cache=%q, want 200 MISS", status, hdr)
	}
}

func TestRequestParamValidation(t *testing.T) {
	g := testGraph(t)
	_, ts := newTestServer(t, g, Options{})
	for _, q := range []string{
		"/v1/edge?u=1",                                    // missing v
		"/v1/edge?u=1&v=2&timeout_ms=0",                   // bad timeout
		"/v1/edge?u=1&v=2&timeout_ms=10000000000000",      // overflows time.Duration
		"/v1/edge?u=1&v=2&timeout_ms=9223372036854775807", // math.MaxInt64
		"/v1/sample?n=0",
		"/v1/sample?n=999999999",
		"/v1/count?workers=-1",
		// Each worker allocates its own context (and BMP bitmap), so
		// more than one per core is refused before any is allocated.
		fmt.Sprintf("/v1/count?workers=%d", runtime.GOMAXPROCS(0)+1),
		"/v1/count?workers=1000000000",
	} {
		if status, _ := getJSON(t, ts, q, nil); status != http.StatusBadRequest {
			t.Errorf("%s = %d, want 400", q, status)
		}
	}
	// POST is rejected.
	resp, err := ts.Client().Post(ts.URL+"/v1/info", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST = %d, want 405", resp.StatusCode)
	}
}

func TestInfoEndpoint(t *testing.T) {
	g := testGraph(t)
	_, ts := newTestServer(t, g, Options{MaxInFlight: 7})
	var got struct {
		Graph       string `json:"graph"`
		Epoch       uint64 `json:"epoch"`
		Vertices    int    `json:"vertices"`
		Edges       int64  `json:"edges"`
		MaxInFlight int    `json:"max_in_flight"`
	}
	status, _ := getJSON(t, ts, "/v1/info", &got)
	if status != http.StatusOK {
		t.Fatalf("info = %d", status)
	}
	if got.Graph != "WI" || got.Epoch != 1 || got.Vertices != g.NumVertices() ||
		got.Edges != g.NumEdges() || got.MaxInFlight != 7 {
		t.Errorf("info = %+v", got)
	}
}

// TestParseAlgo pins the accepted spellings of the one algorithm-name
// parser that /v1/count, cnc -algo and the benchmark's workloads share.
func TestParseAlgo(t *testing.T) {
	for name, want := range map[string]cncount.Algorithm{
		"m": cncount.AlgoM, "merge": cncount.AlgoM,
		"mps": cncount.AlgoMPS, "MPS": cncount.AlgoMPS,
		"bmp":   cncount.AlgoBMP,
		"bmprf": cncount.AlgoBMPRF, "BMP-RF": cncount.AlgoBMPRF, "bmp-rf": cncount.AlgoBMPRF, "rf": cncount.AlgoBMPRF,
		"adaptive": cncount.AlgoBMP, "Adaptive": cncount.AlgoBMP, "adapt": cncount.AlgoBMP,
	} {
		got, err := ParseAlgo(name)
		if err != nil || got != want {
			t.Errorf("ParseAlgo(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	_, err := ParseAlgo("gpu")
	if err == nil {
		t.Fatal("ParseAlgo accepted an unknown name")
	}
	// The rejection must list every valid name so the user can self-serve.
	for _, name := range []string{"m", "mps", "bmp", "bmprf"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list valid name %q", err, name)
		}
	}
}

// TestMetricsCountersFlow checks each serving number lands in the one
// source that owns it: requests in the RED histograms, cache outcomes in
// the cache's own stats, and nothing in the metrics collector.
func TestMetricsCountersFlow(t *testing.T) {
	g := testGraph(t)
	mc := metrics.New()
	red := obs.NewRequestMetrics()
	_, ts := newTestServer(t, g, Options{Metrics: mc, Requests: red})
	u, v := firstEdge(g)
	q := fmt.Sprintf("/v1/edge?u=%d&v=%d", u, v)
	getJSON(t, ts, q, nil)
	getJSON(t, ts, q, nil)

	// Requests are counted by the RED histograms, cache outcomes by the
	// cache itself (served on /v1/info); the collector keeps neither.
	exp := redExposition(t, red)
	for _, want := range []string{
		`cncd_request_duration_seconds_count{endpoint="edge",status="200",cache="miss"} 1`,
		`cncd_request_duration_seconds_count{endpoint="edge",status="200",cache="hit"} 1`,
	} {
		if !strings.Contains(exp, want) {
			t.Errorf("edge requests: exposition lacks %q\n%s", want, exp)
		}
	}
	var info struct {
		CacheHits   uint64 `json:"cache_hits"`
		CacheMisses uint64 `json:"cache_misses"`
	}
	getJSON(t, ts, "/v1/info", &info)
	if info.CacheMisses != 1 || info.CacheHits != 1 {
		t.Errorf("cache counters = %d misses %d hits, want 1/1", info.CacheMisses, info.CacheHits)
	}
	for name := range mc.Snapshot().Counters {
		if strings.HasPrefix(name, "serve.") {
			t.Errorf("collector holds serving counter %q, a copy of a number another source owns", name)
		}
	}
}

// redExposition renders a RED collector's /metrics families.
func redExposition(t *testing.T, red *obs.RequestMetrics) string {
	t.Helper()
	var b strings.Builder
	if err := red.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestConcurrentQueriesAndSwap hammers the server from several
// goroutines while the graph is swapped mid-flight; run under -race
// this pins the lock-free state snapshotting.
func TestConcurrentQueriesAndSwap(t *testing.T) {
	g := testGraph(t)
	g2, err := cncount.GenerateProfile("WI", 0.07)
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, g, Options{})
	u, v := firstEdge(g)

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 6; i++ {
			if i%2 == 0 {
				s.SwapGraph(g2, "WI-b")
			} else {
				s.SwapGraph(g, "WI")
			}
			time.Sleep(time.Millisecond)
		}
	}()
	for i := 0; i < 40; i++ {
		var got struct {
			Epoch uint64 `json:"epoch"`
		}
		status, _ := getJSON(t, ts, fmt.Sprintf("/v1/edge?u=%d&v=%d", u, v), &got)
		if status != http.StatusOK && status != http.StatusNotFound {
			t.Fatalf("query %d = %d", i, status)
		}
		if status == http.StatusOK && got.Epoch == 0 {
			t.Fatalf("query %d returned zero epoch", i)
		}
	}
	<-done
	if s.Epoch() != 7 {
		t.Errorf("final epoch = %d, want 7 (1 + 6 swaps)", s.Epoch())
	}
}
