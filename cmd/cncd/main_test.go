package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"cncount/internal/logx"
	"cncount/internal/reqctx"
	"cncount/internal/serve"
	"cncount/internal/trace"
)

type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var listenLine = regexp.MustCompile(`cncd listening on (\S+)`)

// waitAddr polls buf for the daemon's ready line and returns the bound
// address.
func waitAddr(t *testing.T, buf *syncBuffer, timeout time.Duration) string {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		if m := listenLine.FindStringSubmatch(buf.String()); m != nil {
			return m[1]
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never reported its address:\n%s", buf.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func get(t *testing.T, url string) (int, http.Header, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, string(body)
}

// TestRunInProcessLifecycle drives the whole daemon through run() with
// a cancellable context standing in for SIGTERM: ready line, concurrent
// queries from several goroutines (race-instrumented under -race),
// cache hit after miss, obs plane on the same listener, then a clean
// nil-returning drain.
func TestRunInProcessLifecycle(t *testing.T) {
	logger, err := logx.New(io.Discard, "text", "cncd")
	if err != nil {
		t.Fatal(err)
	}
	cfg := appConfig{
		profile: "WI", scale: 0.05,
		listen:     "127.0.0.1:0",
		inflight:   16,
		cacheSize:  128,
		deadline:   5 * time.Second,
		drainGrace: 5 * time.Second,
		threads:    1,
		logger:     logger,
	}
	ctx, cancel := context.WithCancel(context.Background())
	var out syncBuffer
	runErr := make(chan error, 1)
	go func() { runErr <- run(ctx, cfg, &out) }()
	base := "http://" + waitAddr(t, &out, 10*time.Second)

	// The obs plane shares the listener with /v1/*.
	if status, _, body := get(t, base+"/healthz"); status != http.StatusOK || body != "ok\n" {
		t.Errorf("/healthz = %d %q", status, body)
	}

	// Draw a query pool, then hammer it from several goroutines.
	var sample struct {
		Edges [][2]uint32 `json:"edges"`
	}
	status, _, body := get(t, base+"/v1/sample?n=32")
	if status != http.StatusOK {
		t.Fatalf("/v1/sample = %d: %s", status, body)
	}
	if err := json.Unmarshal([]byte(body), &sample); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				e := sample.Edges[(w*25+i)%len(sample.Edges)]
				resp, err := http.Get(fmt.Sprintf("%s/v1/edge?u=%d&v=%d", base, e[0], e[1]))
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("edge (%d,%d) = %d", e[0], e[1], resp.StatusCode)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Cache: a fresh canonical query misses, its repeat hits.
	e := sample.Edges[0]
	q := fmt.Sprintf("%s/v1/edge?u=%d&v=%d", base, e[0], e[1])
	if _, hdr, _ := get(t, q); hdr.Get("X-Cache") == "" {
		t.Error("edge response lacks X-Cache header")
	}
	if _, hdr, _ := get(t, q); hdr.Get("X-Cache") != "HIT" {
		t.Errorf("repeat query X-Cache = %q, want HIT", hdr.Get("X-Cache"))
	}
	// The cache's own hit count is served on /v1/info, and the shared
	// /metrics carries the hit as the RED histogram's cache label.
	var info struct {
		CacheHits uint64 `json:"cache_hits"`
	}
	if _, _, body := get(t, base+"/v1/info"); json.Unmarshal([]byte(body), &info) != nil || info.CacheHits == 0 {
		t.Errorf("/v1/info reports no cache hits:\n%s", body)
	}
	_, _, metricsBody := get(t, base+"/metrics")
	if !strings.Contains(metricsBody, `cncd_request_duration_seconds_count{endpoint="edge",status="200",cache="hit"}`) {
		t.Errorf("/metrics lacks the edge cache-hit RED series:\n%.600s", metricsBody)
	}
	// No WAL is configured, so the WAL families stay off /metrics.
	if strings.Contains(metricsBody, "cncd_wal_") {
		t.Errorf("/metrics carries WAL families without a WAL:\n%s", metricsBody)
	}

	cancel()
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("drained run returned %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("run did not return after cancel")
	}
}

// TestBootCountRunsBMP pins the algorithm of the boot count that seeds
// the update path's per-edge counts: /metrics, scraped after the updates
// banner and before any /v1/count, shows BMP's kernel calls and no
// merge (AlgoM, Options' zero value).
func TestBootCountRunsBMP(t *testing.T) {
	var logs syncBuffer
	logger, err := logx.New(&logs, "text", "cncd")
	if err != nil {
		t.Fatal(err)
	}
	cfg := appConfig{
		profile: "WI", scale: 0.05,
		listen:     "127.0.0.1:0",
		inflight:   16,
		deadline:   5 * time.Second,
		drainGrace: 5 * time.Second,
		threads:    2,
		fsync:      "off",
		updates:    true,
		logger:     logger,
	}
	ctx, cancel := context.WithCancel(context.Background())
	var out syncBuffer
	runErr := make(chan error, 1)
	go func() { runErr <- run(ctx, cfg, &out) }()
	defer func() {
		cancel()
		if err := <-runErr; err != nil {
			t.Errorf("drained run returned %v", err)
		}
	}()
	base := "http://" + waitAddr(t, &out, 10*time.Second)
	for deadline := time.Now().Add(10 * time.Second); !strings.Contains(logs.String(), "updates enabled"); {
		if time.Now().After(deadline) {
			t.Fatalf("no updates banner:\n%s", logs.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	_, _, body := get(t, base+"/metrics")
	if !strings.Contains(body, `cncount_counter_total{name="core.kernel_calls_BMP"}`) {
		t.Errorf("/metrics lacks the boot count's BMP kernel calls:\n%s", body)
	}
	if strings.Contains(body, `core.kernel_calls_M"`) {
		t.Errorf("boot count ran the baseline merge:\n%s", body)
	}
}

func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "cncd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// waitDrained waits for a daemon that was sent SIGTERM and requires a
// clean drain: exit status 0 and the "drained, exiting" log line.
func waitDrained(t *testing.T, cmd *exec.Cmd, out *syncBuffer) {
	t.Helper()
	if err := cmd.Wait(); err != nil {
		t.Fatalf("SIGTERM drain exited non-zero: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "drained, exiting") {
		t.Errorf("no drain completion log:\n%s", out.String())
	}
}

// TestDaemonSIGTERMDrainE2E pins the operational shutdown contract on
// the real binary: SIGTERM flips /healthz to 503 "draining" while the
// notice window keeps the listener accepting, and the process then
// exits 0.
func TestDaemonSIGTERMDrainE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and signals the real binary")
	}
	bin := buildDaemon(t)
	cmd := exec.Command(bin,
		"-profile", "WI", "-scale", "0.05", "-listen", "127.0.0.1:0",
		"-drainnotice", "3s", "-draingrace", "5s", "-threads", "1")
	var out syncBuffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	base := "http://" + waitAddr(t, &out, 20*time.Second)

	if status, _, body := get(t, base+"/healthz"); status != http.StatusOK || body != "ok\n" {
		t.Fatalf("pre-drain /healthz = %d %q", status, body)
	}
	var info struct {
		Epoch uint64 `json:"epoch"`
	}
	_, _, body := get(t, base+"/v1/info")
	if err := json.Unmarshal([]byte(body), &info); err != nil || info.Epoch != 1 {
		t.Fatalf("/v1/info = %s (err %v)", body, err)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	// Inside the notice window the daemon still accepts, advertising 503.
	deadline := time.Now().Add(2 * time.Second)
	var status int
	var drainBody string
	for {
		status, _, drainBody = get(t, base+"/healthz")
		if status == http.StatusServiceUnavailable || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if status != http.StatusServiceUnavailable || drainBody != "draining\n" {
		t.Errorf("draining /healthz = %d %q, want 503 \"draining\"", status, drainBody)
	}
	// Queries still answer during the notice window.
	if status, _, _ := get(t, base+"/v1/info"); status != http.StatusOK {
		t.Errorf("/v1/info during drain notice = %d, want 200", status)
	}
	waitDrained(t, cmd, &out)
}

// TestDaemonDrainWithIdleConnE2E pins the drain against a connection that
// was opened but never sent a request, as an HTTP client's spare pooled
// connection is. Shutdown counts such a connection as active until it is
// 5 s old, so without a bound on the wait for its first request it held
// the drain past a shorter grace and the daemon exited non-zero.
func TestDaemonDrainWithIdleConnE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and signals the real binary")
	}
	bin := buildDaemon(t)
	cmd := exec.Command(bin,
		"-profile", "WI", "-scale", "0.05", "-listen", "127.0.0.1:0",
		"-draingrace", "2s", "-threads", "1")
	var out syncBuffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	addr := waitAddr(t, &out, 20*time.Second)

	idle, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	// A served request proves the daemon has accepted connections by now.
	if status, _, _ := get(t, "http://"+addr+"/healthz"); status != http.StatusOK {
		t.Fatalf("/healthz = %d", status)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitDrained(t, cmd, &out)
}

// TestDaemonAdmission429E2E saturates a one-slot daemon with a slow
// recount and checks the next request is turned away with 429 +
// Retry-After while the slot is held, then served once it frees up.
func TestDaemonAdmission429E2E(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the real binary and runs a multi-second recount")
	}
	bin := buildDaemon(t)
	cmd := exec.Command(bin,
		"-profile", "TW", "-scale", "1", "-listen", "127.0.0.1:0",
		"-inflight", "1", "-threads", "1")
	var out syncBuffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Signal(os.Interrupt)
		cmd.Wait()
	}()
	base := "http://" + waitAddr(t, &out, 60*time.Second)

	// Hold the only slot with a slow sequential recount.
	countDone := make(chan error, 1)
	go func() {
		resp, err := http.Get(base + "/v1/count?algo=m&workers=1&timeout_ms=120000")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("recount = %d", resp.StatusCode)
			}
		}
		countDone <- err
	}()

	// Wait until the recount holds the slot: the obs plane is not
	// admission-controlled, and the recount marks /progress active only
	// from inside its admitted region. Polling /v1/info before then could
	// take the slot first and turn the recount away instead.
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, _, body := get(t, base+"/progress")
		var prog struct {
			Active bool `json:"active"`
		}
		if json.Unmarshal([]byte(body), &prog) == nil && prog.Active {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("recount never became active on /progress:\n%s", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// While it runs, everything else must bounce with 429.
	deadline = time.Now().Add(30 * time.Second)
	saw429 := false
	for !saw429 && time.Now().Before(deadline) {
		status, hdr, _ := get(t, base+"/v1/info")
		if status == http.StatusTooManyRequests {
			saw429 = true
			if hdr.Get("Retry-After") != "1" {
				t.Errorf("429 Retry-After = %q, want \"1\"", hdr.Get("Retry-After"))
			}
		} else {
			time.Sleep(5 * time.Millisecond)
		}
	}
	if !saw429 {
		t.Fatalf("never saw 429 while the recount held the slot:\n%s", out.String())
	}

	if err := <-countDone; err != nil {
		t.Fatalf("slot-holding recount failed: %v", err)
	}
	// Slot free again: service restored.
	deadline = time.Now().Add(5 * time.Second)
	for {
		status, _, _ := get(t, base+"/v1/info")
		if status == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("service not restored after the recount finished")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// getWith fetches url with extra request headers.
func getWith(t *testing.T, url string, hdr map[string]string) (int, http.Header, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, string(body)
}

// TestDaemonRequestObservabilityE2E pins the request-scoped
// observability contract on the real binary, race-instrumented: a
// traced /v1/count echoes the caller's trace context, lands in
// /debug/requests.json with a span tree reaching sched-level worker
// spans, shows up in the correct RED histogram bucket on /metrics, and
// leaves a structured access-log event carrying its request and trace
// IDs; with all of that enabled, SIGTERM still drains cleanly.
func TestDaemonRequestObservabilityE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives the real binary under -race")
	}
	bin := filepath.Join(t.TempDir(), "cncd")
	if out, err := exec.Command("go", "build", "-race", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build -race: %v\n%s", err, out)
	}
	cmd := exec.Command(bin,
		"-profile", "WI", "-scale", "0.05", "-listen", "127.0.0.1:0",
		"-threads", "1", "-capture", "8", "-accesslog", "-logfmt", "json")
	var out syncBuffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	base := "http://" + waitAddr(t, &out, 60*time.Second)

	// A traced recount: the response must continue the caller's trace
	// with a fresh child span and name itself with a server request ID.
	const caller = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	status, hdr, body := getWith(t, base+"/v1/count?algo=bmp&workers=1",
		map[string]string{"traceparent": caller})
	if status != http.StatusOK {
		t.Fatalf("/v1/count = %d: %s", status, body)
	}
	wantTrace := "4bf92f3577b34da6a3ce929d0e0e4736"
	if got := hdr.Get("X-Trace-Id"); got != wantTrace {
		t.Errorf("X-Trace-Id = %q, want the caller's trace id", got)
	}
	tc, ok := reqctx.ParseTraceparent(hdr.Get("Traceparent"))
	if !ok || tc.TraceID != wantTrace || tc.SpanID == "00f067aa0ba902b7" {
		t.Errorf("response traceparent %q does not continue the trace with a fresh span", hdr.Get("Traceparent"))
	}
	countReqID := hdr.Get("X-Request-Id")
	if !strings.HasPrefix(countReqID, "req-") {
		t.Fatalf("X-Request-Id = %q", countReqID)
	}

	// The capture ring retains it with a span tree that reaches the
	// scheduler: serve.count on the request's main row, core.count.BMP
	// from the worker rows.
	status, _, raw := get(t, base+"/debug/requests.json")
	if status != http.StatusOK {
		t.Fatalf("/debug/requests.json = %d", status)
	}
	if _, err := serve.ValidateRequests([]byte(raw)); err != nil {
		t.Fatalf("ValidateRequests: %v\n%s", err, raw)
	}
	var payload struct {
		Slowest []*serve.CapturedRequest `json:"slowest"`
	}
	if err := json.Unmarshal([]byte(raw), &payload); err != nil {
		t.Fatal(err)
	}
	var entry *serve.CapturedRequest
	for _, cr := range payload.Slowest {
		if cr.ID == countReqID {
			entry = cr
		}
	}
	if entry == nil {
		t.Fatalf("recount %s not in the capture ring:\n%s", countReqID, raw)
	}
	if entry.TraceID != wantTrace || entry.Endpoint != "count" {
		t.Errorf("captured entry = trace %q endpoint %q", entry.TraceID, entry.Endpoint)
	}
	names := map[string]bool{}
	var walk func(nodes []*trace.SpanNode)
	walk = func(nodes []*trace.SpanNode) {
		for _, n := range nodes {
			names[n.Name] = true
			walk(n.Children)
		}
	}
	walk(entry.Spans)
	if !names["serve.count"] {
		t.Errorf("span tree lacks serve.count: %v", names)
	}
	if !names["core.count.BMP"] {
		t.Errorf("span tree does not reach sched-level spans (core.count.BMP): %v", names)
	}

	// The RED histogram put the request in the right duration bucket:
	// every finite bucket below its duration is empty, every bucket at
	// or above it holds the one recount.
	secs := float64(entry.DurationNanos) / 1e9
	_, _, metricsBody := get(t, base+"/metrics")
	bucketLine := regexp.MustCompile(`cncd_request_duration_seconds_bucket\{endpoint="count",status="200",cache="[a-z]+",le="([^"]+)"\} (\d+)`)
	matched := 0
	for _, line := range strings.Split(metricsBody, "\n") {
		m := bucketLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		matched++
		le := math.Inf(1)
		if m[1] != "+Inf" {
			var err error
			if le, err = strconv.ParseFloat(m[1], 64); err != nil {
				t.Fatalf("bucket bound %q: %v", m[1], err)
			}
		}
		want := "1"
		if le < secs {
			want = "0"
		}
		if m[2] != want {
			t.Errorf("bucket le=%q = %s, want %s (request took %.6fs)", m[1], m[2], want, secs)
		}
	}
	if matched == 0 {
		t.Errorf("/metrics has no count-endpoint duration buckets:\n%.800s", metricsBody)
	}
	if !strings.Contains(metricsBody, "cncd_requests_in_flight") {
		t.Error("/metrics lacks cncd_requests_in_flight")
	}

	// The access log carries one structured event for the recount,
	// naming its request ID and the caller's trace.
	var event struct {
		Msg       string `json:"msg"`
		RequestID string `json:"request_id"`
		TraceID   string `json:"trace_id"`
	}
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.Contains(line, countReqID) && json.Unmarshal([]byte(line), &event) == nil {
			break
		}
	}
	if event.Msg != "request" || event.RequestID != countReqID || event.TraceID != wantTrace {
		t.Errorf("access-log event %+v, want msg \"request\" for %s on trace %s:\n%.800s",
			event, countReqID, wantTrace, out.String())
	}

	// The inspector page is fully self-contained.
	status, _, page := get(t, base+"/debug/requests")
	if status != http.StatusOK {
		t.Fatalf("/debug/requests = %d", status)
	}
	if strings.Contains(page, `src="http`) || strings.Contains(page, `href="http`) {
		t.Error("inspector page references external assets")
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitDrained(t, cmd, &out)
}

// postJSON posts a JSON body and returns the status and response body.
func postJSON(t *testing.T, url string, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(raw)
}

// updateResponse mirrors the /v1/update 202 body.
type updateResponse struct {
	Epoch   uint64 `json:"epoch"`
	Seq     uint64 `json:"seq"`
	Applied int    `json:"applied"`
}

var replayBanner = regexp.MustCompile(`cncd wal replayed: batches=(\d+) ops=(\d+) torn_tail=(\w+) epoch=(\d+)`)

// promValue returns the value of the unlabeled sample name in a
// Prometheus text exposition, failing the test when it is absent.
func promValue(t *testing.T, exposition, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		if raw, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(raw, 64)
			if err != nil {
				t.Fatalf("%s value %q: %v", name, raw, err)
			}
			return v
		}
	}
	t.Fatalf("/metrics lacks %s:\n%s", name, exposition)
	return 0
}

// TestDaemonCrashRecoveryE2E pins the durability contract on the real
// binary: a daemon accepting durable updates is killed dead (SIGKILL —
// no drain, no WAL close) with a batch in flight; a restart on the same
// WAL directory must report a replay banner covering every acknowledged
// batch, resume epochs and sequence numbers monotonically, expose the
// reopened log on /metrics, serve a graph whose maintained counts match
// a from-scratch recount exactly, and drain cleanly with the WAL open.
func TestDaemonCrashRecoveryE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills the real binary under -race")
	}
	bin := filepath.Join(t.TempDir(), "cncd")
	if out, err := exec.Command("go", "build", "-race", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build -race: %v\n%s", err, out)
	}
	walDir := t.TempDir()
	args := []string{
		"-profile", "WI", "-scale", "0.05", "-listen", "127.0.0.1:0",
		"-threads", "2", "-wal", walDir, "-fsync", "batch",
	}

	cmd := exec.Command(bin, args...)
	var out syncBuffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	base := "http://" + waitAddr(t, &out, 60*time.Second)

	// The ready line races the ingester install (recovery runs after the
	// listener is up, so queries serve during replay): wait for the
	// ingest section before relying on /v1/update.
	var info struct {
		Vertices int    `json:"vertices"`
		Epoch    uint64 `json:"epoch"`
		Ingest   *struct {
			Durable bool `json:"durable"`
		} `json:"ingest"`
	}
	bootDeadline := time.Now().Add(30 * time.Second)
	for {
		_, _, body := get(t, base+"/v1/info")
		if err := json.Unmarshal([]byte(body), &info); err != nil {
			t.Fatalf("/v1/info = %s (err %v)", body, err)
		}
		if info.Ingest != nil && info.Ingest.Durable {
			break
		}
		if time.Now().After(bootDeadline) {
			t.Fatalf("ingester never came up: %s", body)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if info.Vertices < 8 {
		t.Fatalf("WI graph has %d vertices", info.Vertices)
	}

	// Acknowledged durable batches: each 202 means the batch is fsynced.
	// Epochs and seqs must climb strictly — one epoch per committed batch.
	const acks = 6
	lastEpoch, lastSeq := info.Epoch, uint64(0)
	for i := 0; i < acks; i++ {
		u, v := 2*i, 2*i+1
		reqBody := fmt.Sprintf(`{"ops":[{"op":"insert","u":%d,"v":%d},{"op":"insert","u":%d,"v":%d}]}`,
			u, v, u, (v+1)%info.Vertices)
		status, raw := postJSON(t, base+"/v1/update", reqBody)
		if status != http.StatusAccepted {
			t.Fatalf("update %d = %d: %s", i, status, raw)
		}
		var ur updateResponse
		if err := json.Unmarshal([]byte(raw), &ur); err != nil {
			t.Fatal(err)
		}
		if ur.Epoch <= lastEpoch || ur.Seq <= lastSeq {
			t.Fatalf("update %d: epoch %d seq %d did not climb past %d/%d", i, ur.Epoch, ur.Seq, lastEpoch, lastSeq)
		}
		lastEpoch, lastSeq = ur.Epoch, ur.Seq
	}

	// The crash: one more batch goes out and SIGKILL lands while it is
	// (possibly) in flight — no drain, no WAL close, a torn tail at the
	// disk's mercy. The in-flight batch may or may not have committed;
	// recovery must land on one of those two states, never in between.
	inflight := make(chan struct{})
	go func() {
		defer close(inflight)
		http.Post(base+"/v1/update", "application/json",
			strings.NewReader(`{"ops":[{"op":"insert","u":1,"v":3}]}`))
	}()
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()
	<-inflight

	// Restart on the same WAL directory.
	cmd2 := exec.Command(bin, args...)
	var out2 syncBuffer
	cmd2.Stdout, cmd2.Stderr = &out2, &out2
	if err := cmd2.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd2.Process.Kill()
	base2 := "http://" + waitAddr(t, &out2, 60*time.Second)

	// The replay banner must cover every acknowledged batch; at most one
	// more (the killed in-flight batch, if its fsync won the race).
	deadline := time.Now().Add(30 * time.Second)
	var m []string
	for {
		if m = replayBanner.FindStringSubmatch(out2.String()); m != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no replay banner after restart:\n%s", out2.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	replayed, _ := strconv.Atoi(m[1])
	if replayed < acks || replayed > acks+1 {
		t.Fatalf("replayed %d batches, acknowledged %d (banner %q)", replayed, acks, m[0])
	}

	// Wait for recovery to finish (healthz leaves "recovering"), then
	// check the resumed ingest state: last_seq continues the WAL, the
	// replay swap moved the epoch past boot, and the ingest section names
	// that same epoch.
	for {
		status, _, body := get(t, base2+"/healthz")
		if status == http.StatusOK && body == "ok\n" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never left recovery: %d %q", status, body)
		}
		time.Sleep(10 * time.Millisecond)
	}
	var info2 struct {
		Epoch  uint64 `json:"epoch"`
		Ingest struct {
			LastSeq   uint64 `json:"last_seq"`
			Epoch     uint64 `json:"epoch"`
			Triangles uint64 `json:"triangles"`
			Durable   bool   `json:"durable"`
		} `json:"ingest"`
	}
	_, _, body := get(t, base2+"/v1/info")
	if err := json.Unmarshal([]byte(body), &info2); err != nil {
		t.Fatalf("/v1/info after recovery: %v (%s)", err, body)
	}
	if info2.Ingest.LastSeq != uint64(replayed) || !info2.Ingest.Durable {
		t.Errorf("recovered ingest = %+v, want last_seq %d durable", info2.Ingest, replayed)
	}
	if info2.Epoch < 2 {
		t.Errorf("recovered epoch = %d, want >= 2 (boot + replay swap)", info2.Epoch)
	}
	if info2.Ingest.Epoch != info2.Epoch {
		t.Errorf("recovered ingest epoch = %d, server epoch = %d", info2.Ingest.Epoch, info2.Epoch)
	}

	// The reopened log is on /metrics: it resumes numbering after the
	// replayed batches and holds them on disk.
	_, _, prom := get(t, base2+"/metrics")
	if got := promValue(t, prom, "cncd_wal_next_seq"); got != float64(replayed+1) {
		t.Errorf("cncd_wal_next_seq = %g, want %d", got, replayed+1)
	}
	if got := promValue(t, prom, "cncd_wal_segments"); got < 1 {
		t.Errorf("cncd_wal_segments = %g, want >= 1", got)
	}
	if got := promValue(t, prom, "cncd_wal_bytes"); got <= 0 {
		t.Errorf("cncd_wal_bytes = %g, want > 0", got)
	}

	// Count equality: the maintained counts replayed from the WAL must
	// match a from-scratch recount of the served graph, triangle for
	// triangle — the no-silent-divergence acceptance bar.
	var count struct {
		Triangles uint64 `json:"triangles"`
	}
	status, _, body := get(t, base2+"/v1/count?workers=2")
	if status != http.StatusOK {
		t.Fatalf("/v1/count after recovery = %d: %s", status, body)
	}
	if err := json.Unmarshal([]byte(body), &count); err != nil {
		t.Fatal(err)
	}
	if count.Triangles != info2.Ingest.Triangles {
		t.Fatalf("recount found %d triangles, replayed maintained counts say %d — silent divergence",
			count.Triangles, info2.Ingest.Triangles)
	}

	// Updates resume where the WAL left off: the next 202's seq is the
	// replayed stream plus one, its epoch past the recovery swap.
	status, raw := postJSON(t, base2+"/v1/update", `{"ops":[{"op":"insert","u":0,"v":5}]}`)
	if status != http.StatusAccepted {
		t.Fatalf("post-recovery update = %d: %s", status, raw)
	}
	var ur updateResponse
	if err := json.Unmarshal([]byte(raw), &ur); err != nil {
		t.Fatal(err)
	}
	if ur.Seq != uint64(replayed)+1 {
		t.Errorf("post-recovery seq = %d, want %d", ur.Seq, replayed+1)
	}
	if ur.Epoch <= info2.Epoch {
		t.Errorf("post-recovery epoch = %d, did not climb past %d", ur.Epoch, info2.Epoch)
	}
	// The batch went through the reopened log and was fsynced (-fsync
	// batch), so the fsync age is no longer the -1 of "never".
	_, _, prom = get(t, base2+"/metrics")
	if got := promValue(t, prom, "cncd_wal_appended_batches_total"); got != 1 {
		t.Errorf("cncd_wal_appended_batches_total = %g, want 1", got)
	}
	if got := promValue(t, prom, "cncd_wal_last_fsync_age_seconds"); got < 0 {
		t.Errorf("cncd_wal_last_fsync_age_seconds = %g, want >= 0", got)
	}

	if err := cmd2.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitDrained(t, cmd2, &out2)
}
