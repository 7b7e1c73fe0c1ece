package main

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions; TestBenchmarkJSONMatches keeps them equal.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd are the metrics an untraced run reports, as a user of each
// workload sees them. "op" is the workload's operation: one Count call or
// one update batch. Timings and rates are reported at the reference's
// quiet speed (ref.go); bytes_per_edge as measured.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"op_p50_ms", "ms", "lower"},
	{"throughput_per_s", "1/s", "higher"},
	{"bytes_per_edge", "B", "lower"},
}

// kernelNames are the adaptive dispatcher's kernels; BMP runs "bitmap".
var kernelNames = []string{"merge", "block", "gallop", "hash", "bitmap"}

// servedEndpoints are the read endpoints of the query mix, in Mix order.
var servedEndpoints = []string{"edge", "pair", "topk"}

// perLayer are the metrics a traced run reports. A workload that does not
// run a layer reports 0 for it.
var perLayer = func() []metricDef {
	m := []metricDef{
		{"graph.load_ms", "ms", "lower"},
		{"graph.reorder_ms", "ms", "lower"},
		{"graph.map_counts_ms", "ms", "lower"},
		{"core.setup_ms", "ms", "lower"},
		{"core.count_ms", "ms", "lower"},
		{"core.reduce_ms", "ms", "lower"},
		{"count_ms_p90", "ms", "lower"},
		{"op_tail_ms", "ms", "lower"},
		{"sched.imbalance_ratio", "ratio", "lower"},
		{"sched.steals", "count", "lower"},
		{"sched.task_p99_us", "us", "lower"},
	}
	for _, k := range kernelNames {
		m = append(m,
			metricDef{"kernel." + k + ".calls", "count", "lower"},
			metricDef{"kernel." + k + ".ns_per_call", "ns", "lower"})
	}
	for _, e := range servedEndpoints {
		m = append(m, metricDef{"serve.handler_us_p50." + e, "us", "lower"})
	}
	for _, e := range servedEndpoints {
		m = append(m, metricDef{"serve.server_us_mean." + e, "us", "lower"})
	}
	return append(m,
		metricDef{"net.share_us", "us", "lower"},
		metricDef{"serve.cache_hit_ratio", "ratio", "higher"},
		metricDef{"serve.cache_get_ns", "ns", "lower"},
		metricDef{"serve.cache_put_ns", "ns", "lower"},
		metricDef{"serve.compute_edge_ns", "ns", "lower"},
		metricDef{"loadgen.late_ms_p99", "ms", "lower"},
		metricDef{"host.slowdown", "ratio", "lower"},
		metricDef{"read_p50_us", "us", "lower"},
		metricDef{"read_p99_us", "us", "lower"},
		metricDef{"ingest.validate_us", "us", "lower"},
		metricDef{"ingest.wal_append_us", "us", "lower"},
		metricDef{"ingest.apply_ms", "ms", "lower"},
		metricDef{"ingest.rebuild_ms", "ms", "lower"},
		metricDef{"ingest.swap_us", "us", "lower"},
		metricDef{"ingest.repaired_per_batch", "count", "lower"},
		metricDef{"wal.bytes_per_op", "B", "lower"},
		metricDef{"boot.count_ms", "ms", "lower"},
		metricDef{"boot.from_csr_ms", "ms", "lower"},
		metricDef{"mem.csr_bytes", "B", "lower"},
		metricDef{"unattributed_share", "ratio", "lower"},
	)
}()
