package main

// metricDef names one reported metric and its unit. The two catalogs
// below are the benchmark's contract with BENCHMARK.json: the untraced
// run emits exactly endToEnd, the traced run exactly perLayer, and
// smoke_test.go checks both against the file.
type metricDef struct {
	Name, Unit string
}

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_wall_s", "s"},
	{"peak_rss_mib", "MiB"},
	{"success_rate", "fraction"},
	{"teps_hmean", "edges/s"},
	{"search_vtime_p50_ms", "ms"},
	{"search_vtime_tail_ms", "ms"},
	{"query_latency_p50_ms", "ms"},
	{"query_latency_tail_ms", "ms"},
	{"capacity_qps", "queries/s"},
}

var perLayer = []metricDef{
	{"generator.wall_s", "s"},
	{"csr.build_wall_s", "s"},
	{"semiext.offload_wall_s", "s"},
	{"semiext.nvm_bytes_written", "bytes"},
	{"semiext.compression_ratio", "ratio"},

	{"nvm.device_reads", "count"},
	{"nvm.device_read_bytes", "bytes"},
	{"nvm.device_writes", "count"},
	{"nvm.device_utilization", "fraction"},
	{"nvm.device_wait_us", "us"},
	{"nvm.device_service_us", "us"},
	{"nvm.avgqu_sz", "requests"},
	{"nvm.cache_hits", "count"},
	{"nvm.cache_merged", "count"},
	{"nvm.cache_misses", "count"},
	{"nvm.cache_evictions", "count"},
	{"nvm.prefetch_issued", "count"},
	{"nvm.prefetch_useful_ratio", "fraction"},
	{"nvm.async_demand_runs", "count"},
	{"nvm.retries", "count"},
	{"nvm.failovers", "count"},

	{"bfs.search_wall_ms_p50", "ms"},
	{"bfs.examined_td", "count"},
	{"bfs.examined_bu", "count"},
	{"bfs.examined_nvm", "count"},
	{"bfs.td_level_vtime_share", "fraction"},
	{"bfs.switches", "count"},
	{"bfs.vtime_worker_drift", "fraction"},
	{"bfs.drift_device_reads", "count"},

	{"validate.wall_ms_p50", "ms"},

	{"serve.sweeps", "count"},
	{"serve.lane_occupancy", "fraction"},
	{"serve.queue_wait_p50_ms", "ms"},
	{"serve.queue_wait_tail_ms", "ms"},
	{"serve.shed", "count"},
	{"serve.expired", "count"},
	{"serve.wall_ms_per_sweep", "ms"},
	{"serve.closed_loop_qps", "queries/s"},

	{"dyn.apply_wall_ms_p50", "ms"},
	{"dyn.applied", "count"},
	{"dyn.wal_bytes", "bytes"},
	{"dyn.pending_edits", "count"},
	{"dyn.update_vtime_p50_ms", "ms"},
	{"dyn.update_vtime_tail_ms", "ms"},

	{"cluster.build_wall_s", "s"},
	{"cluster.search_wall_ms_p50", "ms"},
	{"cluster.comm_bytes.td_frontier", "bytes"},
	{"cluster.comm_bytes.td_candidate", "bytes"},
	{"cluster.comm_bytes.bu_allgather", "bytes"},
	{"cluster.comm_bytes.bu_ring", "bytes"},
	{"cluster.comm_bytes.control", "bytes"},
	{"cluster.machine_reads_max", "count"},
	{"cluster.bu_level_vtime_share", "fraction"},
	{"cluster.vtime_carryover", "fraction"},

	// Self time per layer: span duration minus child spans (trace.go).
	{"generator.self_s", "s"},
	{"csr.self_s", "s"},
	{"semiext.self_s", "s"},
	{"core.self_s", "s"},
	{"bfs.self_s", "s"},
	{"validate.self_s", "s"},
	{"serve.self_s", "s"},
	{"dyn.self_s", "s"},
	{"cluster.self_s", "s"},

	// Tracing overhead: traced minus untraced end-to-end result, measured
	// in the same process.
	{"trace.setup_overhead_s", "s"},
	{"trace.run_wall_overhead_s", "s"},
}
