package main

// metricSpec is one metric as BENCHMARK.json declares it; a test keeps the
// two in step. Per-layer metrics have no bound.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists the metrics a user of the system would see, measured with
// tracing off on every workload. Bound is the share of the parent's median by
// which a metric may get worse before a change counts as a regression.
//
// Failures are not a metric here because a metric may never be 0: they are
// the `failed` and `attempted` counts of every run. p99 is not here because
// only two workloads yield the thousand samples it needs at this run length:
// it is a per-layer metric (point_mix.p99_ms, neworder_txn.p99_ms). The write
// tail (<workload>.write_p90_ms) is per-layer too: where writes wait behind
// readers (xmodel_nav, scan_under_write) it sits at the knee of the latency
// distribution, and same-code runs spread by more than the widest bound.
var endToEnd = []metricSpec{
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "read_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "read_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "write_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.10},
	{Name: "wal_bytes_per_write", Unit: "bytes", Better: "lower", Bound: 0.05},
	{Name: "heap_mb", Unit: "MB", Better: "lower", Bound: 0.05},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "recovery_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer lists the metrics of single layers, named <module>.<metric>; they
// come from the traced run and have no bound.
var perLayer = buildPerLayer()

func buildPerLayer() []metricSpec {
	lower := func(unit string, names ...string) []metricSpec {
		out := make([]metricSpec, len(names))
		for i, n := range names {
			out[i] = metricSpec{Name: n, Unit: unit, Better: "lower"}
		}
		return out
	}
	higher := func(unit string, names ...string) []metricSpec {
		out := lower(unit, names...)
		for i := range out {
			out[i].Better = "higher"
		}
		return out
	}
	var ms []metricSpec
	add := func(more []metricSpec) { ms = append(ms, more...) }
	add(lower("us", "server.point_self_us", "server.query_self_us", "server.http_stack_us", "core.query_self_us"))
	add(lower("count", "server.allocs_per_point_op"))
	add(lower("ms", "server.open_p99_ms", "server.open_lag_p99_ms", "point_mix.p99_ms", "neworder_txn.p99_ms"))
	for _, w := range workloads {
		add(lower("ms", w.name+".write_p90_ms"))
	}
	add(lower("ms/s", "server.open_backlog_growth"))
	add(higher("ratio", "core.plan_cache_hit_ratio", "core.result_cache_hit_ratio"))
	for c := opClass(0); c < nQueryClasses; c++ {
		add(lower("us", "query.parse_us."+c.String()))
		add(lower("ms", "query.exec_ms."+c.String()))
		add(lower("count", "query.allocs."+c.String(), "query.full_scans."+c.String()))
		add(lower("ratio", "query.rows_read_per_result."+c.String()))
	}
	add(higher("count", "query.csr_traversals.trav3"))
	add(lower("us", "kvstore.get_us", "kvstore.set_us", "docstore.get_us", "docstore.put_us", "docstore.insert_us",
		"docstore.scan_us_per_row", "relstore.get_us", "relstore.update_us", "rdfstore.match_us", "rdfstore.insert_us",
		"graphstore.neighbors_us", "colstore.scan_us_per_row", "colstore.put_item_us"))
	add(lower("ms", "csr.build_ms"))
	add(lower("us", "csr.traverse_d3_us", "csr.spath_us"))
	add(higher("ratio", "csr.reuse_ratio", "engine.snapshot_read_ratio"))
	add(lower("us", "engine.view_us", "engine.snapshot_view_us", "engine.get_us", "engine.put_commit_us",
		"engine.scan_us_per_row", "engine.txn_commit_us"))
	add(lower("ratio", "engine.txn_retries_per_commit", "engine.txn_fail_ratio", "engine.reader_block_ratio", "engine.writer_block_ratio"))
	add(lower("us", "wal.append_batch_us"))
	add(lower("count", "wal.records_per_batch", "wal.fsyncs_per_commit"))
	add(lower("bytes", "wal.bytes_per_txn"))
	add(lower("ratio", "wal.bytes_per_user_byte"))
	add(lower("ns", "btree.get_ns", "btree.put_ns", "btree.cow_put_ns", "btree.scan_ns_per_row",
		"binenc.encode_ns", "binenc.decode_ns", "keyenc.encode_ns", "keyenc.decode_ns"))
	add(lower("count", "binenc.encode_allocs", "binenc.decode_allocs", "keyenc.encode_allocs", "keyenc.decode_allocs"))
	add(lower("ratio", "shard.scan_ratio_4v1", "shard.commit_ratio_4v1", "trace_overhead_ratio"))
	return ms
}

// benchmarkJSON is BENCHMARK.json as these tables define it.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadJSON `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

type workloadJSON struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func specJSON() benchmarkJSON {
	b := benchmarkJSON{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		b.Workloads = append(b.Workloads, workloadJSON{w.name, w.why})
	}
	return b
}
