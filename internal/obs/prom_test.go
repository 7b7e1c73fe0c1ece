package obs

import (
	"bufio"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"cncount/internal/metrics"
)

// promLine matches one exposition sample: name, optional {labels}, value.
// Label values may contain backslash escapes but not raw quotes/newlines.
var promLine = regexp.MustCompile(
	`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{(?:[a-zA-Z_][a-zA-Z0-9_]*="(?:\\.|[^"\\])*",?)*\})? (\S+)$`)

// parseProm validates every line of an exposition body and returns the
// samples keyed by name{labels}, plus the set of TYPE-declared families.
func parseProm(t *testing.T, body string) (map[string]float64, map[string]bool) {
	t.Helper()
	samples := map[string]float64{}
	typed := map[string]bool{}
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if f, ok := strings.CutPrefix(line, "# TYPE "); ok {
				typed[strings.Fields(f)[0]] = true
			} else if !strings.HasPrefix(line, "# HELP ") {
				t.Errorf("malformed comment line %q", line)
			}
			continue
		}
		m := promLine.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("malformed sample line %q", line)
			continue
		}
		val, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Errorf("unparseable value in %q: %v", line, err)
			continue
		}
		key := m[1] + m[2]
		if _, dup := samples[key]; dup {
			t.Errorf("duplicate series %q", key)
		}
		samples[key] = val
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return samples, typed
}

// testSnapshot builds a collector with one of everything: repeated
// phases, a counter, a manifest, and a committed 2-worker sched recorder.
func testSnapshot(t *testing.T) metrics.Snapshot {
	t.Helper()
	c := metrics.New()
	c.RecordPhase("core.count", 2*time.Second)
	c.RecordPhase("core.count", time.Second)
	c.RecordPhase("core.setup", 10*time.Millisecond)
	c.Add("core.edges_scanned", 42)

	rec := c.SchedRecorder("core.count.BMP", 2)
	t0 := rec.Tally(0)
	t0.TasksClaimed, t0.UnitsProcessed, t0.BusyNanos, t0.WaitNanos = 3, 300, 1000, 10
	t1 := rec.Tally(1)
	t1.TasksClaimed, t1.UnitsProcessed, t1.Steals, t1.StealNanos = 2, 200, 1, 5
	rec.ObserveTask(100 * time.Nanosecond)
	rec.ObserveTask(100 * time.Nanosecond)
	rec.ObserveTask(10 * time.Microsecond)
	rec.Commit()

	m := metrics.NewManifest(map[string]string{"algo": "bmp"})
	c.SetManifest(m)
	return c.Snapshot()
}

// TestWritePromExposition pins the exposition output: every line parses,
// every family is TYPE-declared, and the series carry the snapshot's
// numbers under the documented names.
func TestWritePromExposition(t *testing.T) {
	snap := testSnapshot(t)
	prog := BuildProgress(syntheticSample(), 5*time.Second)

	var b strings.Builder
	if err := WriteProm(&b, snap, &prog); err != nil {
		t.Fatal(err)
	}
	samples, typed := parseProm(t, b.String())

	for series, want := range map[string]float64{
		`cncount_phase_seconds_total{phase="core.count"}`:                          3,
		`cncount_phase_samples_total{phase="core.count"}`:                          2,
		`cncount_phase_samples_total{phase="core.setup"}`:                          1,
		`cncount_counter_total{name="core.edges_scanned"}`:                         42,
		`cncount_sched_worker_tasks_total{scope="core.count.BMP",worker="0"}`:      3,
		`cncount_sched_worker_units_total{scope="core.count.BMP",worker="1"}`:      200,
		`cncount_sched_worker_busy_nanos_total{scope="core.count.BMP",worker="0"}`: 1000,
		`cncount_sched_worker_steals_total{scope="core.count.BMP",worker="1"}`:     1,
		`cncount_sched_task_nanos_count{scope="core.count.BMP"}`:                   3,
		`cncount_sched_task_nanos_bucket{scope="core.count.BMP",le="+Inf"}`:        3,
		`cncount_progress_total_units`:                                             1000,
		`cncount_progress_remaining_units`:                                         250,
		`cncount_progress_active`:                                                  1,
		`cncount_progress_stalled_workers`:                                         1,
		`cncount_progress_worker_stalled{worker="1"}`:                              1,
	} {
		if got, ok := samples[series]; !ok {
			t.Errorf("series %s missing", series)
		} else if got != want {
			t.Errorf("%s = %g, want %g", series, got, want)
		}
	}

	if _, ok := samples[`cncount_gomaxprocs`]; !ok {
		t.Error("cncount_gomaxprocs missing")
	}
	foundInfo := false
	for series, v := range samples {
		if strings.HasPrefix(series, "cncount_build_info{") {
			foundInfo = true
			if v != 1 {
				t.Errorf("%s = %g, want 1", series, v)
			}
			if !strings.Contains(series, `go_version="go`) {
				t.Errorf("build info lacks go_version: %s", series)
			}
			if want := `simd="` + snap.Manifest.SIMD + `"`; snap.Manifest.SIMD == "" || !strings.Contains(series, want) {
				t.Errorf("build info lacks %s: %s", want, series)
			}
		}
	}
	if !foundInfo {
		t.Error("cncount_build_info missing")
	}

	for name := range samples {
		family := name
		if i := strings.IndexByte(family, '{'); i >= 0 {
			family = family[:i]
		}
		family = strings.TrimSuffix(family, "_bucket")
		family = strings.TrimSuffix(family, "_count")
		if !typed[family] && !typed[family+"_total"] {
			t.Errorf("series %s has no TYPE declaration (families: %v)", name, typed)
		}
	}
}

// TestWritePromHistogramCumulative checks the bucket series is cumulative
// and ends at the +Inf count, as the exposition format requires.
func TestWritePromHistogramCumulative(t *testing.T) {
	var b strings.Builder
	if err := WriteProm(&b, testSnapshot(t), nil); err != nil {
		t.Fatal(err)
	}
	type bucket struct {
		le  float64
		val float64
	}
	var buckets []bucket
	var inf, count float64
	for _, line := range strings.Split(b.String(), "\n") {
		if !strings.HasPrefix(line, "cncount_sched_task_nanos") {
			continue
		}
		m := promLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed %q", line)
		}
		v, _ := strconv.ParseFloat(m[3], 64)
		switch {
		case strings.Contains(line, `le="+Inf"`):
			inf = v
		case strings.HasPrefix(line, "cncount_sched_task_nanos_bucket"):
			le := regexp.MustCompile(`le="(\d+)"`).FindStringSubmatch(line)
			lev, _ := strconv.ParseFloat(le[1], 64)
			buckets = append(buckets, bucket{lev, v})
		case strings.HasPrefix(line, "cncount_sched_task_nanos_count"):
			count = v
		}
	}
	if len(buckets) == 0 {
		t.Fatal("no finite buckets emitted")
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i].le <= buckets[i-1].le {
			t.Errorf("bucket bounds not increasing: %v", buckets)
		}
		if buckets[i].val < buckets[i-1].val {
			t.Errorf("bucket counts not cumulative: %v", buckets)
		}
	}
	if last := buckets[len(buckets)-1].val; last > inf {
		t.Errorf("last bucket %g exceeds +Inf %g", last, inf)
	}
	if inf != count || count != 3 {
		t.Errorf("+Inf = %g, _count = %g, want both 3", inf, count)
	}
}

// TestWritePromAggregatesScopes checks repeated snapshots under one scope
// sum into one series set instead of emitting duplicates.
func TestWritePromAggregatesScopes(t *testing.T) {
	c := metrics.New()
	for i := 0; i < 2; i++ {
		rec := c.SchedRecorder("s", 1)
		rec.Tally(0).UnitsProcessed = 10
		rec.ObserveTask(time.Microsecond)
		rec.Commit()
	}
	var b strings.Builder
	if err := WriteProm(&b, c.Snapshot(), nil); err != nil {
		t.Fatal(err)
	}
	samples, _ := parseProm(t, b.String()) // parseProm rejects duplicates
	if got := samples[`cncount_sched_worker_units_total{scope="s",worker="0"}`]; got != 20 {
		t.Errorf("aggregated units = %g, want 20", got)
	}
	if got := samples[`cncount_sched_task_nanos_count{scope="s"}`]; got != 2 {
		t.Errorf("aggregated count = %g, want 2", got)
	}
}

// TestWritePromAttribution pins the attribution families: rows for the
// same (scope, kernel, bucket) aggregate into one series, the sample
// series appear only for buckets that were ever timed, and the output is
// deterministic across calls.
func TestWritePromAttribution(t *testing.T) {
	snap := metrics.Snapshot{Attribution: []metrics.KernelAttr{
		{Scope: "core.count", Kernel: "merge", Buckets: []metrics.AttrBucket{
			{MinDegLen: 3, Count: 10, SampledNanos: 500, Samples: 2},
			{MinDegLen: 5, Count: 4}, // counted, never timed
		}},
		{Scope: "core.count", Kernel: "bitmap", Buckets: []metrics.AttrBucket{
			{MinDegLen: 7, Count: 6, SampledNanos: 900, Samples: 1},
		}},
		// Second worker fold for the same (scope, kernel, bucket): sums.
		{Scope: "core.count", Kernel: "merge", Buckets: []metrics.AttrBucket{
			{MinDegLen: 3, Count: 5, SampledNanos: 100, Samples: 1},
		}},
	}}

	var b strings.Builder
	if err := WriteProm(&b, snap, nil); err != nil {
		t.Fatal(err)
	}
	samples, typed := parseProm(t, b.String())

	for series, want := range map[string]float64{
		`cncount_kernel_calls_total{scope="core.count",kernel="merge",min_deg_len="3"}`:         15,
		`cncount_kernel_calls_total{scope="core.count",kernel="merge",min_deg_len="5"}`:         4,
		`cncount_kernel_calls_total{scope="core.count",kernel="bitmap",min_deg_len="7"}`:        6,
		`cncount_kernel_sample_nanos_total{scope="core.count",kernel="merge",min_deg_len="3"}`:  600,
		`cncount_kernel_samples_total{scope="core.count",kernel="merge",min_deg_len="3"}`:       3,
		`cncount_kernel_sample_nanos_total{scope="core.count",kernel="bitmap",min_deg_len="7"}`: 900,
		`cncount_kernel_samples_total{scope="core.count",kernel="bitmap",min_deg_len="7"}`:      1,
	} {
		if got, ok := samples[series]; !ok {
			t.Errorf("series %s missing", series)
		} else if got != want {
			t.Errorf("%s = %g, want %g", series, got, want)
		}
	}

	// The never-timed bucket must not emit empty sample series.
	for _, family := range []string{"cncount_kernel_sample_nanos_total", "cncount_kernel_samples_total"} {
		if _, ok := samples[family+`{scope="core.count",kernel="merge",min_deg_len="5"}`]; ok {
			t.Errorf("%s emitted for a bucket with zero samples", family)
		}
	}
	for _, family := range []string{
		"cncount_kernel_calls_total",
		"cncount_kernel_sample_nanos_total",
		"cncount_kernel_samples_total",
	} {
		if !typed[family] {
			t.Errorf("family %s has no TYPE declaration", family)
		}
	}

	// Determinism: a second render is byte-identical despite map iteration.
	var b2 strings.Builder
	if err := WriteProm(&b2, snap, nil); err != nil {
		t.Fatal(err)
	}
	if b.String() != b2.String() {
		t.Error("attribution exposition is not deterministic across calls")
	}
}

// TestWritePromAttributionAllSamplesZero checks a purely-counted
// attribution set emits the calls family alone.
func TestWritePromAttributionAllSamplesZero(t *testing.T) {
	snap := metrics.Snapshot{Attribution: []metrics.KernelAttr{
		{Scope: "s", Kernel: "merge", Buckets: []metrics.AttrBucket{{MinDegLen: 2, Count: 1}}},
	}}
	var b strings.Builder
	if err := WriteProm(&b, snap, nil); err != nil {
		t.Fatal(err)
	}
	body := b.String()
	parseProm(t, body)
	if !strings.Contains(body, "cncount_kernel_calls_total") {
		t.Error("calls family missing")
	}
	if strings.Contains(body, "cncount_kernel_sample_nanos_total") ||
		strings.Contains(body, "cncount_kernel_samples_total") {
		t.Error("sample families emitted with zero samples everywhere")
	}
}

// TestWritePromEmptySnapshot checks the zero snapshot yields an empty
// (but valid) exposition rather than malformed stub lines.
func TestWritePromEmptySnapshot(t *testing.T) {
	var b strings.Builder
	if err := WriteProm(&b, metrics.Snapshot{}, nil); err != nil {
		t.Fatal(err)
	}
	parseProm(t, b.String())
}

// TestEscapeLabel pins the exposition label escaping rules.
func TestEscapeLabel(t *testing.T) {
	got := escapeLabel("a\"b\\c\nd")
	want := `a\"b\\c\nd`
	if got != want {
		t.Errorf("escapeLabel = %q, want %q", got, want)
	}
	// Escaped values must survive the parser's label grammar.
	line := `m{l="` + got + `"} 1`
	if !promLine.MatchString(line) {
		t.Errorf("escaped label does not parse: %s", line)
	}
}

// refEscape is an independent reference implementation of the exposition
// label-value escaping (exactly \\, \n and \" — nothing else), so the
// hostile-value test below does not validate escapeLabel against itself.
var refEscape = strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)

// unescapeLabel reverses the exposition escaping, failing the test on any
// escape sequence the format does not define (e.g. Go's \t or \x00, which
// a %q-formatted label would smuggle in).
func unescapeLabel(t *testing.T, v string) string {
	t.Helper()
	var out strings.Builder
	for i := 0; i < len(v); i++ {
		if v[i] != '\\' {
			out.WriteByte(v[i])
			continue
		}
		i++
		if i == len(v) {
			t.Fatalf("label value %q ends mid-escape", v)
		}
		switch v[i] {
		case '\\':
			out.WriteByte('\\')
		case 'n':
			out.WriteByte('\n')
		case '"':
			out.WriteByte('"')
		default:
			t.Fatalf("label value %q uses escape \\%c, not defined by the exposition format", v, v[i])
		}
	}
	return out.String()
}

// TestWritePromHostileLabelValues is the regression test for the
// double-escaping bug: label values were escaped once by escapeLabel and
// then again by %q formatting, so any value containing a backslash, a
// quote or a newline (a Windows graph path in the manifest config, a
// hostile counter name) reached /metrics corrupted — and values with
// other control characters produced escape sequences the exposition
// format does not define at all. Every label value must now round-trip
// exactly through the format's three escapes.
func TestWritePromHostileLabelValues(t *testing.T) {
	hostile := "C:\\graphs\\tw.bin\nline two\twith \"quotes\" and trailing \\"
	c := metrics.New()
	c.RecordPhase(hostile, time.Second)
	c.Add(hostile, 7)
	m := metrics.NewManifest(map[string]string{"graph": hostile})
	c.SetManifest(m)

	var b strings.Builder
	if err := WriteProm(&b, c.Snapshot(), nil); err != nil {
		t.Fatal(err)
	}
	body := b.String()
	// The whole page must still parse line by line (a raw newline in a
	// label value would split a sample across two malformed lines).
	parseProm(t, body)

	esc := refEscape.Replace(hostile)
	for _, wantLine := range []string{
		`cncount_counter_total{name="` + esc + `"} 7`,
		`cncount_phase_samples_total{phase="` + esc + `"} 1`,
		`cncount_build_config{key="graph",value="` + esc + `"} 1`,
	} {
		if !strings.Contains(body, wantLine+"\n") {
			t.Errorf("exposition lacks exactly-once-escaped line %q", wantLine)
		}
	}

	// And the escaped value must round-trip back to the original bytes.
	for _, line := range strings.Split(body, "\n") {
		rest, ok := strings.CutPrefix(line, `cncount_counter_total{name="`)
		if !ok {
			continue
		}
		val, ok := strings.CutSuffix(rest, `"} 7`)
		if !ok {
			t.Fatalf("counter sample has unexpected shape: %q", line)
		}
		if got := unescapeLabel(t, val); got != hostile {
			t.Errorf("label value round-trips to %q, want %q", got, hostile)
		}
		return
	}
	t.Fatal("hostile counter series missing from exposition")
}

// TestWritePromManifestConfig checks the resolved run configuration is
// exposed as cncount_build_config{key,value} series in sorted key order.
func TestWritePromManifestConfig(t *testing.T) {
	c := metrics.New()
	m := metrics.NewManifest(map[string]string{"algo": "bmp", "graph": "g.bin"})
	c.SetManifest(m)
	var b strings.Builder
	if err := WriteProm(&b, c.Snapshot(), nil); err != nil {
		t.Fatal(err)
	}
	samples, typed := parseProm(t, b.String())
	if !typed["cncount_build_config"] {
		t.Error("cncount_build_config has no TYPE declaration")
	}
	for _, series := range []string{
		`cncount_build_config{key="algo",value="bmp"}`,
		`cncount_build_config{key="graph",value="g.bin"}`,
	} {
		if samples[series] != 1 {
			t.Errorf("%s = %g, want 1", series, samples[series])
		}
	}
	algoAt := strings.Index(b.String(), `key="algo"`)
	graphAt := strings.Index(b.String(), `key="graph"`)
	if algoAt < 0 || graphAt < 0 || algoAt > graphAt {
		t.Errorf("config series not in sorted key order (algo@%d, graph@%d)", algoAt, graphAt)
	}
}
