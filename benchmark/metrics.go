package main

// metricDef names one metric; BENCHMARK.json lists the same names, units
// and directions, and the smoke test holds the two together.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees, measured in the
// untraced pass. Every workload reports every one of them; README.md
// says which phase of each workload a metric comes from.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ingest_eps", "1/s", "higher", 0.25},
	{"batch_ack_p50_ms", "ms", "lower", 0.25},
	{"fact_p50_ms", "ms", "lower", 0.25},
	{"select_p50_ms", "ms", "lower", 0.25},
	{"scan_p50_ms", "ms", "lower", 0.25},
	{"asof_p50_ms", "ms", "lower", 0.25},
	{"delivery_p50_ms", "ms", "lower", 0.25},
	{"recover_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.25},
}

// perLayer are the single-layer metrics of the traced pass, grouped by
// the layer that owns them. They carry no bound.
var perLayer = []metricDef{
	{Name: "stream.reorder_ns_per_el", Unit: "ns", Better: "lower"},
	{Name: "stream.late_total", Unit: "count", Better: "lower"},
	{Name: "core.run_ns_per_el", Unit: "ns", Better: "lower"},
	{Name: "core.watermark_us", Unit: "us", Better: "lower"},
	{Name: "core.allocs_per_el", Unit: "count", Better: "lower"},
	{Name: "rules.apply_ns_per_el", Unit: "ns", Better: "lower"},
	{Name: "state.putbatch_ns_per_el", Unit: "ns", Better: "lower"},
	{Name: "state.correction_us", Unit: "us", Better: "lower"},
	{Name: "state.records_total", Unit: "count", Better: "lower"},
	{Name: "state.snapshot_pin_us", Unit: "us", Better: "lower"},
	{Name: "state.scan_us", Unit: "us", Better: "lower"},
	{Name: "state.scan_lineages", Unit: "count", Better: "lower"},
	{Name: "state.scan_index_pruned_ratio", Unit: "ratio", Better: "higher"},
	{Name: "state.scan_partitions", Unit: "count", Better: "higher"},
	{Name: "segment.wal_bytes_per_el", Unit: "B", Better: "lower"},
	{Name: "segment.flush_bytes_total", Unit: "B", Better: "lower"},
	{Name: "segment.merges_total", Unit: "count", Better: "lower"},
	{Name: "segment.merge_bytes_reclaimed", Unit: "B", Better: "higher"},
	{Name: "segment.segments_l0", Unit: "count", Better: "lower"},
	{Name: "segment.segments_l1plus", Unit: "count", Better: "lower"},
	{Name: "segment.disk_bytes_per_user_byte", Unit: "ratio", Better: "lower"},
	{Name: "segment.open_ms", Unit: "ms", Better: "lower"},
	{Name: "segment.close_ms", Unit: "ms", Better: "lower"},
	{Name: "segment.dropped_appends", Unit: "count", Better: "lower"},
	{Name: "segment.flush_retries", Unit: "count", Better: "lower"},
	{Name: "segment.scan_frames", Unit: "count", Better: "lower"},
	{Name: "segment.scan_frames_pruned_ratio", Unit: "ratio", Better: "higher"},
	{Name: "segment.resident_bytes", Unit: "B", Better: "lower"},
	{Name: "segment.evicted_lineages", Unit: "count", Better: "lower"},
	{Name: "vfs.write_bytes_total", Unit: "B", Better: "lower"},
	{Name: "vfs.write_ms_total", Unit: "ms", Better: "lower"},
	{Name: "vfs.sync_count", Unit: "count", Better: "lower"},
	{Name: "vfs.sync_ms_total", Unit: "ms", Better: "lower"},
	{Name: "vfs.write_amp", Unit: "ratio", Better: "lower"},
	{Name: "vfs.open_read_bytes", Unit: "B", Better: "lower"},
	{Name: "vfs.readat_count", Unit: "count", Better: "lower"},
	{Name: "vfs.readat_bytes_total", Unit: "B", Better: "lower"},
	{Name: "vfs.readat_ms_total", Unit: "ms", Better: "lower"},
	{Name: "query.prepare_us", Unit: "us", Better: "lower"},
	{Name: "query.exec_select_us", Unit: "us", Better: "lower"},
	{Name: "query.exec_scan_us", Unit: "us", Better: "lower"},
	{Name: "query.exec_asof_us", Unit: "us", Better: "lower"},
	{Name: "query.rows_examined_per_row", Unit: "ratio", Better: "lower"},
	{Name: "server.handle_fact_us", Unit: "us", Better: "lower"},
	{Name: "server.handle_query_us", Unit: "us", Better: "lower"},
	{Name: "server.wire_overhead_us", Unit: "us", Better: "lower"},
	{Name: "server.plan_cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "server.encode_bytes_per_query", Unit: "B", Better: "lower"},
	{Name: "server.shed_total", Unit: "count", Better: "lower"},
	{Name: "subscribe.hook_to_recv_ms", Unit: "ms", Better: "lower"},
	{Name: "subscribe.fanout_mean_us", Unit: "us", Better: "lower"},
	{Name: "subscribe.fanout_p99_us", Unit: "us", Better: "lower"},
	{Name: "subscribe.queue_depth_max", Unit: "count", Better: "lower"},
	{Name: "subscribe.drops_total", Unit: "count", Better: "lower"},
	{Name: "subscribe.resyncs_total", Unit: "count", Better: "lower"},
	{Name: "subscribe.skipped_batches_total", Unit: "count", Better: "lower"},
	{Name: "loadgen.late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.batch_ack_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.fact_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.select_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.delivery_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.gc_pause_ms_total", Unit: "ms", Better: "lower"},
	{Name: "runtime.heap_mb", Unit: "MiB", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace.batch_ack_self_ratio", Unit: "ratio", Better: "higher"},
	{Name: "trace.select_self_ratio", Unit: "ratio", Better: "higher"},
}

// values holds metric values by name.
type values map[string]float64

func (v values) add(name string, x float64) { v[name] += x }
func (v values) max(name string, x float64) {
	if cur, ok := v[name]; !ok || x > cur {
		v[name] = x
	}
}
