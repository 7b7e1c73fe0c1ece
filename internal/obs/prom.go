package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"cncount/internal/metrics"
)

// WriteProm renders a metrics snapshot (and, when non-nil, the live
// progress view) in the Prometheus text exposition format (version
// 0.0.4): `# TYPE` comments, one `name{labels} value` sample per line.
// Output is deterministic — families, label sets and buckets are sorted —
// so scrapes diff cleanly and tests can pin series.
//
// The exposition names map onto the JSON snapshot fields as follows
// (see DESIGN.md §5.4 for the full table):
//
//	cncount_phase_seconds_total{phase}          Σ Phases[].Seconds by name
//	cncount_phase_samples_total{phase}          count of Phases[] by name
//	cncount_counter_total{name}                 Counters[name]
//	cncount_sched_worker_*_total{scope,worker}  Sched[].Workers[w] tallies
//	cncount_sched_task_nanos_bucket{scope,le}   Sched[].TaskNanos buckets,
//	                                            cumulative, with +Inf
//	cncount_sched_task_nanos_count{scope}       Sched[].TaskNanos.Count
//	cncount_build_info{...}                     Manifest (value always 1)
//	cncount_progress_*                          /progress payload gauges
func WriteProm(w io.Writer, snap metrics.Snapshot, prog *ProgressStatus) error {
	var b strings.Builder
	writeManifest(&b, snap.Manifest)
	writePhases(&b, snap.Phases)
	writeCounters(&b, snap.Counters)
	writeSched(&b, snap.Sched)
	writeAttribution(&b, snap.Attribution)
	if prog != nil {
		writeProgress(&b, prog)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// escapeLabel escapes a label value per the exposition format: exactly
// backslash, newline and double quote, in that order, and nothing else.
// Values must be interpolated as `label=\"%s\"` with this escaping applied
// once — formatting them with %q instead layers Go's string escaping on
// top (doubling every backslash and quote, and emitting escapes like \t
// the exposition format does not define), which corrupts or breaks the
// whole /metrics page for any hostile value. Pinned by
// TestWritePromHostileLabelValues.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

func writeManifest(b *strings.Builder, m *metrics.Manifest) {
	if m == nil {
		return
	}
	fmt.Fprintf(b, "# HELP cncount_build_info Build and environment manifest; the value is always 1.\n")
	fmt.Fprintf(b, "# TYPE cncount_build_info gauge\n")
	fmt.Fprintf(b, "cncount_build_info{go_version=\"%s\",goos=\"%s\",goarch=\"%s\",module=\"%s\",version=\"%s\",vcs_revision=\"%s\",simd=\"%s\"} 1\n",
		escapeLabel(m.GoVersion), escapeLabel(m.GOOS), escapeLabel(m.GOARCH),
		escapeLabel(m.Module), escapeLabel(m.Version), escapeLabel(m.VCSRevision), escapeLabel(m.SIMD))
	fmt.Fprintf(b, "# TYPE cncount_gomaxprocs gauge\ncncount_gomaxprocs %d\n", m.GOMAXPROCS)
	fmt.Fprintf(b, "# TYPE cncount_num_cpu gauge\ncncount_num_cpu %d\n", m.NumCPU)
	if len(m.Config) > 0 {
		fmt.Fprintf(b, "# HELP cncount_build_config Resolved run configuration from the manifest; the value is always 1.\n")
		fmt.Fprintf(b, "# TYPE cncount_build_config gauge\n")
		for _, k := range sortedKeys(m.Config) {
			fmt.Fprintf(b, "cncount_build_config{key=\"%s\",value=\"%s\"} 1\n",
				escapeLabel(k), escapeLabel(m.Config[k]))
		}
	}
}

func writePhases(b *strings.Builder, phases []metrics.PhaseSample) {
	if len(phases) == 0 {
		return
	}
	secs := map[string]float64{}
	samples := map[string]uint64{}
	for _, p := range phases {
		secs[p.Name] += p.Seconds
		samples[p.Name]++
	}
	names := sortedKeys(secs)
	fmt.Fprintf(b, "# HELP cncount_phase_seconds_total Total wall time recorded under each phase.\n")
	fmt.Fprintf(b, "# TYPE cncount_phase_seconds_total counter\n")
	for _, n := range names {
		fmt.Fprintf(b, "cncount_phase_seconds_total{phase=\"%s\"} %g\n", escapeLabel(n), secs[n])
	}
	fmt.Fprintf(b, "# TYPE cncount_phase_samples_total counter\n")
	for _, n := range names {
		fmt.Fprintf(b, "cncount_phase_samples_total{phase=\"%s\"} %d\n", escapeLabel(n), samples[n])
	}
}

func writeCounters(b *strings.Builder, counters map[string]uint64) {
	if len(counters) == 0 {
		return
	}
	fmt.Fprintf(b, "# HELP cncount_counter_total Named monotonic counters of the metrics collector.\n")
	fmt.Fprintf(b, "# TYPE cncount_counter_total counter\n")
	for _, n := range sortedKeys(counters) {
		fmt.Fprintf(b, "cncount_counter_total{name=\"%s\"} %d\n", escapeLabel(n), counters[n])
	}
}

// schedAgg aggregates the committed scheduler snapshots of one scope
// (repeated regions under the same scope sum).
type schedAgg struct {
	workers []metrics.WorkerTally
	buckets map[uint64]uint64 // upper bound -> count
	count   uint64
}

func writeSched(b *strings.Builder, scheds []metrics.SchedSnapshot) {
	if len(scheds) == 0 {
		return
	}
	byScope := map[string]*schedAgg{}
	for _, s := range scheds {
		agg := byScope[s.Scope]
		if agg == nil {
			agg = &schedAgg{buckets: map[uint64]uint64{}}
			byScope[s.Scope] = agg
		}
		for len(agg.workers) < len(s.Workers) {
			agg.workers = append(agg.workers, metrics.WorkerTally{})
		}
		for w, t := range s.Workers {
			a := &agg.workers[w]
			a.TasksClaimed += t.TasksClaimed
			a.UnitsProcessed += t.UnitsProcessed
			a.BusyNanos += t.BusyNanos
			a.WaitNanos += t.WaitNanos
			a.Steals += t.Steals
			a.StealNanos += t.StealNanos
		}
		for _, bk := range s.TaskNanos.Buckets {
			agg.buckets[bk.UpperNanos] += bk.Count
		}
		agg.count += s.TaskNanos.Count
	}
	scopes := sortedKeys(byScope)

	workerSeries := []struct {
		name, help string
		get        func(metrics.WorkerTally) uint64
	}{
		{"cncount_sched_worker_tasks_total", "Tasks claimed per scheduler worker.",
			func(t metrics.WorkerTally) uint64 { return t.TasksClaimed }},
		{"cncount_sched_worker_units_total", "Iteration-space units processed per scheduler worker.",
			func(t metrics.WorkerTally) uint64 { return t.UnitsProcessed }},
		{"cncount_sched_worker_busy_nanos_total", "Wall nanoseconds inside the loop body per worker.",
			func(t metrics.WorkerTally) uint64 { return t.BusyNanos }},
		{"cncount_sched_worker_wait_nanos_total", "Wall nanoseconds between tasks (queue wait) per worker.",
			func(t metrics.WorkerTally) uint64 { return t.WaitNanos }},
		{"cncount_sched_worker_steals_total", "Ranges stolen from other workers' deques per worker.",
			func(t metrics.WorkerTally) uint64 { return t.Steals }},
		{"cncount_sched_worker_steal_nanos_total", "Wall nanoseconds spent hunting steal victims per worker.",
			func(t metrics.WorkerTally) uint64 { return t.StealNanos }},
	}
	for _, series := range workerSeries {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s counter\n", series.name, series.help, series.name)
		for _, scope := range scopes {
			for w, t := range byScope[scope].workers {
				fmt.Fprintf(b, "%s{scope=\"%s\",worker=\"%d\"} %d\n",
					series.name, escapeLabel(scope), w, series.get(t))
			}
		}
	}

	fmt.Fprintf(b, "# HELP cncount_sched_task_nanos Task body duration in nanoseconds (power-of-two buckets).\n")
	fmt.Fprintf(b, "# TYPE cncount_sched_task_nanos histogram\n")
	for _, scope := range scopes {
		agg := byScope[scope]
		bounds := make([]uint64, 0, len(agg.buckets))
		for ub := range agg.buckets {
			bounds = append(bounds, ub)
		}
		sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
		var cum uint64
		for _, ub := range bounds {
			cum += agg.buckets[ub]
			fmt.Fprintf(b, "cncount_sched_task_nanos_bucket{scope=\"%s\",le=\"%d\"} %d\n",
				escapeLabel(scope), ub, cum)
		}
		fmt.Fprintf(b, "cncount_sched_task_nanos_bucket{scope=\"%s\",le=\"+Inf\"} %d\n",
			escapeLabel(scope), agg.count)
		fmt.Fprintf(b, "cncount_sched_task_nanos_count{scope=\"%s\"} %d\n",
			escapeLabel(scope), agg.count)
	}
}

// writeAttribution renders the per-(kernel × degree-bucket) attribution
// matrices. Repeated rows for the same (scope, kernel, bucket) sum, and
// the sample series are emitted only for buckets that were ever timed, so
// the exposition stays proportional to the kernels that actually ran.
func writeAttribution(b *strings.Builder, rows []metrics.KernelAttr) {
	if len(rows) == 0 {
		return
	}
	type cell struct{ count, nanos, samples uint64 }
	type key struct {
		scope, kernel string
		bucket        int
	}
	agg := map[key]*cell{}
	keys := make([]key, 0, len(rows)*4)
	for _, r := range rows {
		for _, bk := range r.Buckets {
			k := key{r.Scope, r.Kernel, bk.MinDegLen}
			c := agg[k]
			if c == nil {
				c = &cell{}
				agg[k] = c
				keys = append(keys, k)
			}
			c.count += bk.Count
			c.nanos += bk.SampledNanos
			c.samples += bk.Samples
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].scope != keys[j].scope {
			return keys[i].scope < keys[j].scope
		}
		if keys[i].kernel != keys[j].kernel {
			return keys[i].kernel < keys[j].kernel
		}
		return keys[i].bucket < keys[j].bucket
	})

	fmt.Fprintf(b, "# HELP cncount_kernel_calls_total Kernel calls by kernel family and min-endpoint-degree bit length.\n")
	fmt.Fprintf(b, "# TYPE cncount_kernel_calls_total counter\n")
	for _, k := range keys {
		fmt.Fprintf(b, "cncount_kernel_calls_total{scope=\"%s\",kernel=\"%s\",min_deg_len=\"%d\"} %d\n",
			escapeLabel(k.scope), escapeLabel(k.kernel), k.bucket, agg[k].count)
	}
	anySamples := false
	for _, k := range keys {
		if agg[k].samples > 0 {
			anySamples = true
			break
		}
	}
	if !anySamples {
		return
	}
	fmt.Fprintf(b, "# HELP cncount_kernel_sample_nanos_total Sampled wall nanoseconds per kernel family and degree bucket.\n")
	fmt.Fprintf(b, "# TYPE cncount_kernel_sample_nanos_total counter\n")
	for _, k := range keys {
		if agg[k].samples == 0 {
			continue
		}
		fmt.Fprintf(b, "cncount_kernel_sample_nanos_total{scope=\"%s\",kernel=\"%s\",min_deg_len=\"%d\"} %d\n",
			escapeLabel(k.scope), escapeLabel(k.kernel), k.bucket, agg[k].nanos)
	}
	fmt.Fprintf(b, "# TYPE cncount_kernel_samples_total counter\n")
	for _, k := range keys {
		if agg[k].samples == 0 {
			continue
		}
		fmt.Fprintf(b, "cncount_kernel_samples_total{scope=\"%s\",kernel=\"%s\",min_deg_len=\"%d\"} %d\n",
			escapeLabel(k.scope), escapeLabel(k.kernel), k.bucket, agg[k].samples)
	}
}

func writeProgress(b *strings.Builder, p *ProgressStatus) {
	active := 0
	if p.Active {
		active = 1
	}
	fmt.Fprintf(b, "# HELP cncount_progress_active Whether a parallel region is currently in flight.\n")
	fmt.Fprintf(b, "# TYPE cncount_progress_active gauge\ncncount_progress_active %d\n", active)
	fmt.Fprintf(b, "# TYPE cncount_progress_total_units gauge\ncncount_progress_total_units %d\n", p.TotalUnits)
	fmt.Fprintf(b, "# TYPE cncount_progress_remaining_units gauge\ncncount_progress_remaining_units %d\n", p.RemainingUnits)
	fmt.Fprintf(b, "# TYPE cncount_progress_done_units gauge\ncncount_progress_done_units %d\n", p.DoneUnits)
	fmt.Fprintf(b, "# TYPE cncount_progress_units_per_second gauge\ncncount_progress_units_per_second %g\n", p.UnitsPerSec)
	fmt.Fprintf(b, "# TYPE cncount_progress_eta_seconds gauge\ncncount_progress_eta_seconds %g\n", p.ETASeconds)
	fmt.Fprintf(b, "# TYPE cncount_progress_stalled_workers gauge\ncncount_progress_stalled_workers %d\n", p.StalledWorkers)
	if len(p.Workers) > 0 {
		fmt.Fprintf(b, "# TYPE cncount_progress_worker_stalled gauge\n")
		for _, ws := range p.Workers {
			stalled := 0
			if ws.Stalled {
				stalled = 1
			}
			fmt.Fprintf(b, "cncount_progress_worker_stalled{worker=\"%d\"} %d\n", ws.Worker, stalled)
		}
	}
}

// sortedKeys returns a map's keys in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
