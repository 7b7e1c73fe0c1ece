package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"cncount/internal/obs"
	"cncount/internal/reqctx"
	"cncount/internal/trace"
)

const testTraceparent = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"

// getWithHeaders fetches path with optional request headers and returns
// the response, body consumed.
func getWithHeaders(t *testing.T, ts *httptest.Server, path string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestTraceparentEchoAndRequestID: a request with a valid traceparent
// gets responses tagged with the same trace ID (fresh span ID) plus a
// server request ID, on success and error paths alike.
func TestTraceparentEchoAndRequestID(t *testing.T) {
	g := testGraph(t)
	_, ts := newTestServer(t, g, Options{})
	u, v := firstEdge(g)

	resp, _ := getWithHeaders(t, ts, fmt.Sprintf("/v1/edge?u=%d&v=%d", u, v),
		map[string]string{"traceparent": testTraceparent})
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Trace-Id"); got != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Errorf("X-Trace-Id = %q, want the caller's trace id", got)
	}
	tp, ok := reqctx.ParseTraceparent(resp.Header.Get("Traceparent"))
	if !ok {
		t.Fatalf("response traceparent %q does not parse", resp.Header.Get("Traceparent"))
	}
	if tp.TraceID != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Errorf("response continues trace %q, want the caller's", tp.TraceID)
	}
	if tp.SpanID == "00f067aa0ba902b7" {
		t.Error("response reused the caller's span id; want a fresh child span")
	}
	if id := resp.Header.Get("X-Request-Id"); !strings.HasPrefix(id, "req-") {
		t.Errorf("X-Request-Id = %q", id)
	}
}

// TestHostileTraceparentNeverErrors: every hostile header degrades to a
// fresh server context — 200, never a 4xx/5xx, and a usable trace ID.
func TestHostileTraceparentNeverErrors(t *testing.T) {
	g := testGraph(t)
	s, _ := newTestServer(t, g, Options{})
	u, v := firstEdge(g)
	path := fmt.Sprintf("/v1/edge?u=%d&v=%d", u, v)
	// Headers are injected directly into the request object: some of
	// these (NULs, raw unicode) would be rejected by a conforming HTTP
	// client before they ever reached the wire, but a hostile peer can
	// still deliver them, so the server must cope.
	for name, hostile := range map[string]string{
		"oversized":   testTraceparent + strings.Repeat("-x", 4096),
		"bad version": "ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"bad flags":   "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-zz",
		"non-hex ids": "00-zzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzz-00f067aa0ba902b7-01",
		"all-zero":    "00-00000000000000000000000000000000-0000000000000000-00",
		"garbage":     "\x00\x01\x02 not a header at all",
		"unicode":     "00-4bf92f3577b34da6a3ce929d0e0e47３６-00f067aa0ba902b7-01",
	} {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		req.Header["Traceparent"] = []string{hostile}
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		resp := rec.Result()
		if resp.StatusCode != 200 {
			t.Errorf("%s: status = %d, want 200 (bad headers must degrade)", name, resp.StatusCode)
		}
		fresh := resp.Header.Get("X-Trace-Id")
		if len(fresh) != 32 {
			t.Errorf("%s: X-Trace-Id = %q, want a fresh 32-hex id", name, fresh)
		}
		if _, ok := reqctx.ParseTraceparent(resp.Header.Get("Traceparent")); !ok {
			t.Errorf("%s: response traceparent %q does not parse", name, resp.Header.Get("Traceparent"))
		}
	}
}

// TestErrorResponsesCarryRequestID: 404s, 429s and 405s carry the
// request ID both as a header and in the JSON body (the satellite fix).
func TestErrorResponsesCarryRequestID(t *testing.T) {
	g := testGraph(t)
	s, ts := newTestServer(t, g, Options{MaxInFlight: 1})

	checkIdentified := func(name string, resp *http.Response, body []byte) {
		t.Helper()
		hdrID := resp.Header.Get("X-Request-Id")
		if !strings.HasPrefix(hdrID, "req-") {
			t.Errorf("%s: X-Request-Id = %q", name, hdrID)
		}
		if resp.Header.Get("X-Trace-Id") == "" {
			t.Errorf("%s: no X-Trace-Id header", name)
		}
		var payload struct {
			Error     string `json:"error"`
			RequestID string `json:"request_id"`
		}
		if err := json.Unmarshal(body, &payload); err != nil {
			t.Fatalf("%s: error body not JSON: %v\n%s", name, err, body)
		}
		if payload.RequestID != hdrID {
			t.Errorf("%s: body request_id %q != header %q", name, payload.RequestID, hdrID)
		}
		if payload.Error == "" {
			t.Errorf("%s: error body has no message", name)
		}
	}

	// 404: vertex out of range.
	resp, body := getWithHeaders(t, ts, "/v1/edge?u=99999999&v=1", nil)
	if resp.StatusCode != 404 {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
	checkIdentified("404", resp, body)

	// 405: wrong method.
	postReq, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/info", nil)
	postResp, err := ts.Client().Do(postReq)
	if err != nil {
		t.Fatal(err)
	}
	postBody, _ := io.ReadAll(postResp.Body)
	postResp.Body.Close()
	if postResp.StatusCode != 405 {
		t.Fatalf("status = %d, want 405", postResp.StatusCode)
	}
	checkIdentified("405", postResp, postBody)

	// 429: fill the single admission slot, then overflow it.
	release := make(chan struct{})
	acquired := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if !s.adm.tryAcquire() {
			t.Error("setup: could not take the only slot")
			close(acquired)
			return
		}
		close(acquired)
		<-release
		s.adm.release()
	}()
	<-acquired
	resp429, body429 := getWithHeaders(t, ts, "/v1/info", nil)
	close(release)
	wg.Wait()
	if resp429.StatusCode != 429 {
		t.Fatalf("status = %d, want 429", resp429.StatusCode)
	}
	checkIdentified("429", resp429, body429)
}

// TestCaptureRingSlowAndErrored: the capture ring retains the slowest
// requests duration-sorted and errored requests separately, the payload
// validates, and a /v1/count entry's span tree reaches sched-level
// worker spans.
func TestCaptureRingSlowAndErrored(t *testing.T) {
	g := testGraph(t)
	_, ts := newTestServer(t, g, Options{CaptureSlowest: 4, CacheEntries: -1})
	u, v := firstEdge(g)

	// A recount (slow, spans all the way down), a point query, an error.
	if resp, body := getWithHeaders(t, ts, "/v1/count?algo=bmp&workers=1", nil); resp.StatusCode != 200 {
		t.Fatalf("/v1/count = %d: %s", resp.StatusCode, body)
	}
	if resp, _ := getWithHeaders(t, ts, fmt.Sprintf("/v1/edge?u=%d&v=%d", u, v), nil); resp.StatusCode != 200 {
		t.Fatalf("/v1/edge = %d", resp.StatusCode)
	}
	errResp, _ := getWithHeaders(t, ts, "/v1/edge?u=99999999&v=1", nil)
	if errResp.StatusCode != 404 {
		t.Fatalf("bad edge = %d, want 404", errResp.StatusCode)
	}

	resp, raw := getWithHeaders(t, ts, "/debug/requests.json", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("/debug/requests.json = %d", resp.StatusCode)
	}
	n, err := ValidateRequests(raw)
	if err != nil {
		t.Fatalf("ValidateRequests: %v\n%s", err, raw)
	}
	if n != 3 {
		t.Errorf("validated %d entries, want 3", n)
	}

	var p requestsPayload
	if err := json.Unmarshal(raw, &p); err != nil {
		t.Fatal(err)
	}
	if len(p.Slowest) != 2 || len(p.Errors) != 1 {
		t.Fatalf("slowest=%d errors=%d, want 2/1", len(p.Slowest), len(p.Errors))
	}
	if p.Errors[0].Status != 404 || p.Errors[0].Error == "" ||
		p.Errors[0].ID != errResp.Header.Get("X-Request-Id") {
		t.Errorf("errored entry = %+v, want the 404 named %s", p.Errors[0], errResp.Header.Get("X-Request-Id"))
	}
	var count *CapturedRequest
	for _, cr := range p.Slowest {
		if cr.Endpoint == "count" {
			count = cr
		}
	}
	if count == nil {
		t.Fatal("no count entry in the slow ring")
	}
	if count.Options["algo"] != "BMP" || count.Options["workers"] != "1" {
		t.Errorf("count options = %v, want resolved algo/workers", count.Options)
	}
	// The span tree must reach sched-level spans: serve.count on the main
	// row, and the scheduler's core.count.<ALGO> scope spans underneath
	// or on worker rows.
	var names []string
	var walk func(ns []*trace.SpanNode)
	walk = func(ns []*trace.SpanNode) {
		for _, n := range ns {
			names = append(names, n.Name)
			walk(n.Children)
		}
	}
	walk(count.Spans)
	joined := strings.Join(names, " ")
	if !strings.Contains(joined, "serve.count") {
		t.Errorf("span tree lacks the serve span: %v", names)
	}
	if !strings.Contains(joined, "core.count.BMP") {
		t.Errorf("span tree does not reach sched-level spans: %v", names)
	}
}

// TestCaptureDisabled: CaptureSlowest < 0 turns /debug/requests* into
// 404s and requests carry no tracer.
func TestCaptureDisabled(t *testing.T) {
	g := testGraph(t)
	_, ts := newTestServer(t, g, Options{CaptureSlowest: -1})
	u, v := firstEdge(g)
	if resp, _ := getWithHeaders(t, ts, fmt.Sprintf("/v1/edge?u=%d&v=%d", u, v), nil); resp.StatusCode != 200 {
		t.Fatalf("query status = %d", resp.StatusCode)
	}
	if resp, _ := getWithHeaders(t, ts, "/debug/requests.json", nil); resp.StatusCode != 404 {
		t.Errorf("/debug/requests.json = %d, want 404", resp.StatusCode)
	}
	if resp, _ := getWithHeaders(t, ts, "/debug/requests", nil); resp.StatusCode != 404 {
		t.Errorf("/debug/requests = %d, want 404", resp.StatusCode)
	}
}

// TestInspectorSelfContained: the HTML inspector ships no external
// assets (works air-gapped) and renders against the JSON endpoint.
func TestInspectorSelfContained(t *testing.T) {
	g := testGraph(t)
	_, ts := newTestServer(t, g, Options{})
	resp, body := getWithHeaders(t, ts, "/debug/requests", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("/debug/requests = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Errorf("Content-Type = %q", ct)
	}
	page := string(body)
	if !strings.Contains(page, "<title>cncd requests</title>") {
		t.Error("inspector page has no title")
	}
	for _, banned := range []string{`src="http://`, `src="https://`, `href="http://`, `href="https://`} {
		if strings.Contains(page, banned) {
			t.Errorf("inspector references an external asset (%s)", banned)
		}
	}
	if !strings.Contains(page, "/debug/requests.json") {
		t.Error("inspector does not fetch /debug/requests.json")
	}
}

// TestAccessLogEvents: the structured access log names endpoint,
// status, cache outcome, admission outcome and IDs for every request.
func TestAccessLogEvents(t *testing.T) {
	g := testGraph(t)
	var buf bytes.Buffer
	var mu sync.Mutex
	logger := slog.New(slog.NewJSONHandler(&syncWriter{w: &buf, mu: &mu}, nil))
	_, ts := newTestServer(t, g, Options{AccessLog: logger})
	u, v := firstEdge(g)
	path := fmt.Sprintf("/v1/edge?u=%d&v=%d", u, v)
	getWithHeaders(t, ts, path, nil) // miss
	getWithHeaders(t, ts, path, nil) // hit

	mu.Lock()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	mu.Unlock()
	if len(lines) != 2 {
		t.Fatalf("access log lines = %d, want 2:\n%s", len(lines), buf.String())
	}
	for i, wantCache := range []string{"miss", "hit"} {
		var ev struct {
			Msg       string  `json:"msg"`
			Endpoint  string  `json:"endpoint"`
			Status    int     `json:"status"`
			Cache     string  `json:"cache"`
			Admission string  `json:"admission"`
			Dur       float64 `json:"dur"`
			RequestID string  `json:"request_id"`
			TraceID   string  `json:"trace_id"`
		}
		if err := json.Unmarshal([]byte(lines[i]), &ev); err != nil {
			t.Fatalf("line %d not JSON: %v\n%s", i, err, lines[i])
		}
		if ev.Msg != "request" || ev.Endpoint != "edge" || ev.Status != 200 ||
			ev.Cache != wantCache || ev.Admission != "ok" ||
			!strings.HasPrefix(ev.RequestID, "req-") || len(ev.TraceID) != 32 {
			t.Errorf("line %d = %+v, want edge/200/%s/ok with IDs", i, ev, wantCache)
		}
	}
}

type syncWriter struct {
	w  io.Writer
	mu *sync.Mutex
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// TestREDObservation: the server feeds the RED collector — histogram
// samples by endpoint/status/cache and rejected counts surface in the
// exposition.
func TestREDObservation(t *testing.T) {
	g := testGraph(t)
	red := obs.NewRequestMetrics()
	_, ts := newTestServer(t, g, Options{Requests: red})
	u, v := firstEdge(g)
	path := fmt.Sprintf("/v1/edge?u=%d&v=%d", u, v)
	getWithHeaders(t, ts, path, nil)
	getWithHeaders(t, ts, path, nil)
	getWithHeaders(t, ts, "/v1/edge?u=99999999&v=1", nil)

	var b strings.Builder
	if err := red.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	exp := b.String()
	for _, want := range []string{
		`cncd_request_duration_seconds_count{endpoint="edge",status="200",cache="miss"} 1`,
		`cncd_request_duration_seconds_count{endpoint="edge",status="200",cache="hit"} 1`,
		`cncd_request_duration_seconds_count{endpoint="edge",status="404",cache="none"} 1`,
		`cncd_requests_in_flight 0`,
		`cncd_requests_rejected_total 0`,
	} {
		if !strings.Contains(exp, want) {
			t.Errorf("exposition lacks %q\n%s", want, exp)
		}
	}
	if !strings.Contains(exp, `cncd_request_slowest_seconds{endpoint="edge",trace_id="`) {
		t.Error("exposition lacks the slowest-sample exemplar gauge")
	}
}

// TestInFlightRequestsNamed: the watchdog-facing registry names an
// executing request by ID and endpoint.
func TestInFlightRequestsNamed(t *testing.T) {
	g := testGraph(t)
	s, ts := newTestServer(t, g, Options{})
	entered := make(chan struct{})
	release := make(chan struct{})
	s.mux.HandleFunc("/v1/slow", s.wrap("slow", http.MethodGet, func(http.ResponseWriter, *http.Request, *graphState) error {
		close(entered)
		<-release
		return nil
	}))
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := ts.Client().Get(ts.URL + "/v1/slow")
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-entered
	names := s.InFlightRequests()
	close(release)
	<-done
	if len(names) != 1 {
		t.Fatalf("InFlightRequests = %v, want one entry", names)
	}
	if !strings.HasPrefix(names[0], "req-") || !strings.Contains(names[0], "endpoint=slow") ||
		!strings.Contains(names[0], "age=") {
		t.Errorf("in-flight entry = %q", names[0])
	}
	if after := s.InFlightRequests(); len(after) != 0 {
		// The handler may still be unwinding; give it a moment.
		deadline := time.Now().Add(2 * time.Second)
		for len(after) != 0 && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
			after = s.InFlightRequests()
		}
		if len(after) != 0 {
			t.Errorf("registry not drained: %v", after)
		}
	}
}

// TestValidateRequestsRejectsCorruptPayloads pins the validator against
// the failure modes it exists to catch.
func TestValidateRequestsRejectsCorruptPayloads(t *testing.T) {
	good := requestsPayload{
		Schema:     RequestsSchema,
		Seen:       2,
		SlowestCap: 4,
		Slowest: []*CapturedRequest{{
			ID: "req-1", TraceID: "t1", Endpoint: "edge", Status: 200, Cache: "miss",
			StartUnixNanos: 1, DurationNanos: 10, SpanCount: 0,
		}},
		Errors: []*CapturedRequest{{
			ID: "req-2", TraceID: "t2", Endpoint: "edge", Status: 404, Cache: "none",
			StartUnixNanos: 2, DurationNanos: 5, Error: "boom",
		}},
	}
	marshal := func(p requestsPayload) []byte {
		b, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if n, err := ValidateRequests(marshal(good)); err != nil || n != 2 {
		t.Fatalf("good payload: n=%d err=%v", n, err)
	}
	corrupt := []func(p *requestsPayload){
		func(p *requestsPayload) { p.Schema = "cncd-requests/v0" },
		func(p *requestsPayload) { p.Slowest[0].ID = "" },
		func(p *requestsPayload) { p.Slowest[0].Cache = "warm" },
		func(p *requestsPayload) { p.Slowest[0].Status = 500 },
		func(p *requestsPayload) { p.Errors[0].Status = 200 },
		func(p *requestsPayload) { p.Slowest[0].SpanCount = 7 },
		func(p *requestsPayload) { p.Seen = 1 },
	}
	for i, mutate := range corrupt {
		p := good
		slow := *good.Slowest[0]
		errd := *good.Errors[0]
		p.Slowest = []*CapturedRequest{&slow}
		p.Errors = []*CapturedRequest{&errd}
		mutate(&p)
		if _, err := ValidateRequests(marshal(p)); err == nil {
			t.Errorf("corruption %d passed validation", i)
		}
	}
	if _, err := ValidateRequests([]byte("{")); err == nil {
		t.Error("truncated JSON passed validation")
	}
}

// TestCaptureRingBounds: the slow ring holds its N slowest and the
// error ring stays bounded under a burst.
func TestCaptureRingBounds(t *testing.T) {
	c := NewCapture(2)
	mk := func(id string, status int, dur time.Duration) *CapturedRequest {
		return &CapturedRequest{
			ID: id, TraceID: "t", Endpoint: "edge", Status: status, Cache: "none",
			StartUnixNanos: 1, DurationNanos: dur.Nanoseconds(),
		}
	}
	c.offer(mk("a", 200, 10*time.Millisecond))
	c.offer(mk("b", 200, 30*time.Millisecond))
	c.offer(mk("c", 200, 20*time.Millisecond))
	c.offer(mk("d", 200, 5*time.Millisecond))
	for i := 0; i < 10; i++ {
		c.offer(mk(fmt.Sprintf("e%d", i), 404, time.Millisecond))
	}
	p := c.snapshot()
	if len(p.Slowest) != 2 || p.Slowest[0].ID != "b" || p.Slowest[1].ID != "c" {
		t.Errorf("slow ring = %+v, want [b c]", p.Slowest)
	}
	if len(p.Errors) != 4 { // 2 * maxSlow
		t.Errorf("error ring holds %d, want 4", len(p.Errors))
	}
	if p.Errors[0].ID != "e9" {
		t.Errorf("error ring newest = %s, want e9", p.Errors[0].ID)
	}
	if p.Seen != 14 {
		t.Errorf("seen = %d, want 14", p.Seen)
	}
}
