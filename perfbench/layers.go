package main

// perLayer lists every per-layer metric a traced run reports, in order,
// with its unit; BENCHMARK.json's per_layer list matches it. A workload
// that does not exercise a layer reports that layer's metrics as 0 — the
// predicted change there is none.
var perLayer = []struct{ name, unit string }{
	{"gen.generate_s", "s"},
	{"stats.collect_s", "s"},
	{"core.select_s", "s"},
	{"engine.open_s", "s"},
	{"exec.self_us_per_query", "us"},
	{"index.descent_us_per_query", "us"},
	{"index.descents_per_query", "count"},
	{"index.pages_per_query", "pages"},
	{"oodb.normalize_us_per_query", "us"},
	{"oodb.oids_in_per_query", "count"},
	{"oodb.oids_out_per_query", "count"},
	{"storage.store_pages_per_op", "pages"},
	{"index.maint_pages_per_write", "pages"},
	{"wire.req_encode_ns", "ns"},
	{"wire.req_decode_ns", "ns"},
	{"wire.resp_encode_ns", "ns"},
	{"wire.resp_decode_ns", "ns"},
	{"wire.bytes_per_req", "B"},
	{"wire.bytes_per_resp", "B"},
	{"netserver.reqs_per_batch", "count"},
	{"netserver.descents_per_pred", "count"},
	{"net.wait_us_p50", "us"},
	{"plan.compile_us", "us"},
	{"plan.execute_us", "us"},
	{"shard.prune_ratio", "ratio"},
	{"shard.fanout_overhead_us", "us"},
	{"bench.gen_lag_p99_us", "us"},
	{"wal.fsyncs_per_write", "count"},
	{"wal.bytes_per_write", "B"},
	{"engine.checkpoints", "count"},
	{"engine.checkpoint_write_ms_p50", "ms"},
	{"storage.pool_hit_ratio", "ratio"},
	{"storage.disk_reads_per_read", "count"},
	{"storage.page_writes_per_write", "count"},
	{"cost.matrix_us_per_path", "us"},
	{"core.search_us_per_path", "us"},
	{"core.configs_evaluated_per_path", "count"},
	{"core.pruned_per_path", "count"},
	{"bench.trace_overhead_ops_per_s", "ops/s"},
	{"bench.trace_overhead_p50_us", "us"},
}

// completeLayers orders a traced run's layer metrics as perLayer does and
// adds the layers the workload leaves untouched as 0.
func completeLayers(ms []metric) []metric {
	have := map[string]metric{}
	for _, m := range ms {
		have[m.Name] = m
	}
	out := make([]metric, 0, len(perLayer))
	for _, l := range perLayer {
		m, ok := have[l.name]
		if !ok {
			m = metric{Name: l.name, Unit: l.unit}
		}
		out = append(out, m)
	}
	return out
}
