package obs_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"cncount/internal/core"
	"cncount/internal/gen"
	"cncount/internal/metrics"
	"cncount/internal/obs"
	"cncount/internal/sched"
	"cncount/internal/trace"
)

// TestPlaneScrapesLiveRun mounts the plane over a real collector,
// progress source and live tracer, then scrapes every endpoint
// continuously while core.Count runs. Under -race (the Makefile race
// gate includes this package) it proves the plane's read paths are safe
// against the hot-path writers; in any mode it checks the invariants the
// issue pins: remaining units never increase across scrapes, and the
// final scrape reports a finished region.
func TestPlaneScrapesLiveRun(t *testing.T) {
	p, err := gen.ProfileByName("WI")
	if err != nil {
		t.Fatal(err)
	}
	g, err := p.Generate(0.1)
	if err != nil {
		t.Fatal(err)
	}

	mc := metrics.New()
	prog := sched.NewProgress()
	tr := trace.New()
	tr.SetLive()
	plane := obs.New(obs.Options{
		Snapshot:  mc.Snapshot,
		Progress:  prog,
		TraceJSON: tr.WriteJSON,
	})
	ts := httptest.NewServer(plane.Handler())
	defer ts.Close()

	scrape := func(path string) (string, bool) {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Errorf("GET %s: %v", path, err)
			return "", false
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d, %v", path, resp.StatusCode, err)
			return "", false
		}
		return string(body), true
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		prevRemaining := int64(-1)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, ok := scrape("/metrics"); !ok {
				return
			}
			body, ok := scrape("/progress")
			if !ok {
				return
			}
			var st obs.ProgressStatus
			if err := json.Unmarshal([]byte(body), &st); err != nil {
				t.Errorf("/progress: %v", err)
				return
			}
			// Within one region, remaining only ever decreases. Runs can
			// only be 0 or 1 here (a single Count call), so no turnover
			// reset can legitimately raise it.
			if prevRemaining >= 0 && st.Runs == 1 && st.RemainingUnits > prevRemaining {
				t.Errorf("remaining units increased: %d -> %d", prevRemaining, st.RemainingUnits)
				return
			}
			if st.Runs == 1 {
				prevRemaining = st.RemainingUnits
			}
			if _, ok := scrape("/trace.json"); !ok {
				return
			}
		}
	}()

	res, err := core.Count(g, core.Options{
		Algorithm: core.AlgoBMP,
		Threads:   4,
		Metrics:   mc,
		Trace:     tr,
		Progress:  prog,
	})
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.TriangleCount() == 0 {
		t.Error("counting produced nothing; scrape test proved nothing")
	}

	// Post-run scrapes see the settled state.
	body, ok := scrape("/progress")
	if !ok {
		t.FailNow()
	}
	var st obs.ProgressStatus
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st.Active || st.RemainingUnits != 0 || st.TotalUnits != g.NumEdges() {
		t.Errorf("final progress = %+v, want inactive 0/%d remaining", st, g.NumEdges())
	}
	metricsBody, ok := scrape("/metrics")
	if !ok {
		t.FailNow()
	}
	for _, series := range []string{
		`cncount_phase_seconds_total{phase="core.count"}`,
		"cncount_sched_worker_units_total",
		"cncount_progress_remaining_units 0",
	} {
		if !strings.Contains(metricsBody, series) {
			t.Errorf("final /metrics lacks %q", series)
		}
	}
	traceBody, ok := scrape("/trace.json")
	if !ok {
		t.FailNow()
	}
	var tj struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(traceBody), &tj); err != nil {
		t.Fatalf("/trace.json: %v", err)
	}
	if len(tj.TraceEvents) == 0 {
		t.Error("live trace snapshot empty after a traced run")
	}
}

// runtimeGauges are the process gauges /metrics reads at scrape time.
var runtimeGauges = []string{
	"cncount_goroutines",
	"cncount_heap_alloc_bytes",
	"cncount_heap_sys_bytes",
	"cncount_gc_cycles_total",
	"cncount_gc_pause_seconds_total",
	"cncount_rss_bytes",
}

// unlabeledSamples returns the value of every unlabeled sample line of
// an exposition body.
func unlabeledSamples(body string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(body, "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out
}

// TestPlaneScrapesProgressMetricsAndDashboard scrapes /progress,
// /metrics and /dashboard continuously while core.Count runs — the three
// sources the dashboard is drawn from. Under -race it proves the
// per-worker tallies and runtime gauges are safe to read against the
// hot-path writers. Within one region each worker's units and busy
// nanos never decrease, and at the region's end the units sum to the
// region's total; every /metrics scrape carries the six runtime gauges;
// and the page polls /progress and /metrics while /timeseries.json no
// longer exists.
func TestPlaneScrapesProgressMetricsAndDashboard(t *testing.T) {
	p, err := gen.ProfileByName("WI")
	if err != nil {
		t.Fatal(err)
	}
	g, err := p.Generate(0.1)
	if err != nil {
		t.Fatal(err)
	}

	mc := metrics.New()
	prog := sched.NewProgress()
	plane := obs.New(obs.Options{Snapshot: mc.Snapshot, Progress: prog})
	ts := httptest.NewServer(plane.Handler())
	defer ts.Close()

	scrape := func(path string) (*http.Response, string, bool) {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Errorf("GET %s: %v", path, err)
			return nil, "", false
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d, %v", path, resp.StatusCode, err)
			return nil, "", false
		}
		return resp, string(body), true
	}
	progress := func() (obs.ProgressStatus, bool) {
		var st obs.ProgressStatus
		_, body, ok := scrape("/progress")
		if ok {
			if err := json.Unmarshal([]byte(body), &st); err != nil {
				t.Errorf("/progress: %v", err)
				ok = false
			}
		}
		return st, ok
	}
	checkGauges := func() bool {
		_, body, ok := scrape("/metrics")
		if !ok {
			return false
		}
		got := unlabeledSamples(body)
		for _, name := range runtimeGauges {
			if _, ok := got[name]; !ok {
				t.Errorf("/metrics lacks %s", name)
				return false
			}
		}
		if got["cncount_goroutines"] < 1 || got["cncount_heap_alloc_bytes"] <= 0 {
			t.Errorf("runtime gauges implausible: goroutines %g, heap alloc %g",
				got["cncount_goroutines"], got["cncount_heap_alloc_bytes"])
			return false
		}
		return true
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var prev obs.ProgressStatus
		for {
			select {
			case <-stop:
				return
			default:
			}
			st, ok := progress()
			if !ok {
				return
			}
			if st.Runs == prev.Runs && len(st.Workers) == len(prev.Workers) {
				for w, cur := range st.Workers {
					old := prev.Workers[w]
					if cur.Units < old.Units || cur.BusyNanos < old.BusyNanos {
						t.Errorf("worker %d went backwards within run %d: units %d -> %d, busy %d -> %d",
							w, st.Runs, old.Units, cur.Units, old.BusyNanos, cur.BusyNanos)
						return
					}
				}
			}
			prev = st
			if !checkGauges() {
				return
			}
			resp, _, ok := scrape("/dashboard")
			if !ok {
				return
			}
			if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
				t.Errorf("/dashboard Content-Type = %q", ct)
				return
			}
		}
	}()

	res, err := core.Count(g, core.Options{
		Algorithm: core.AlgoBMP,
		Threads:   4,
		Metrics:   mc,
		Progress:  prog,
	})
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.TriangleCount() == 0 {
		t.Error("counting produced nothing; scrape test proved nothing")
	}

	st, ok := progress()
	if !ok {
		t.FailNow()
	}
	var units int64
	for _, w := range st.Workers {
		units += w.Units
	}
	if st.Active || len(st.Workers) == 0 || units != st.TotalUnits || st.TotalUnits != g.NumEdges() {
		t.Errorf("final progress: active %v, %d workers, units sum %d, total %d (want %d)",
			st.Active, len(st.Workers), units, st.TotalUnits, g.NumEdges())
	}
	checkGauges()

	_, page, ok := scrape("/dashboard")
	if !ok {
		t.FailNow()
	}
	for _, want := range []string{"cncount dashboard", `fetch("/progress")`, `fetch("/metrics")`} {
		if !strings.Contains(page, want) {
			t.Errorf("/dashboard lacks %q", want)
		}
	}
	if strings.Contains(page, "timeseries") {
		t.Error("/dashboard still references /timeseries.json")
	}
	resp, err := ts.Client().Get(ts.URL + "/timeseries.json")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/timeseries.json = %d, want 404", resp.StatusCode)
	}
}
