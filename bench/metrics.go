package main

// metricDef is one row of the benchmark contract. BENCHMARK.json at the
// repository root is generated from endToEnd and perLayer (-print-contract),
// and bench_test.go fails when the two drift apart.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	Exact  bool    // a count that must repeat bit-for-bit for one seed
}

// endToEnd is what a user of the system sees; every workload reports all of
// them from an untraced run. The times among them are in reference time
// (hostspeed.go).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "updates_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "batch_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "query_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "rounds_per_batch", Unit: "rounds", Better: "lower", Bound: 0.15, Exact: true},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// perLayer is computed from the traced run; layer = module name. A metric
// that does not apply to a workload's front-end reads 0 there.
var perLayer = []metricDef{
	// The lifecycle medians were meant to be end-to-end metrics and are
	// measured like them, but did not repeat within any bound worth gating
	// on: a checkpoint ends in an fsync of up to 82 MB on a shared disk, and
	// restore and re-shard spend their time in first-touch page faults of
	// 80-250 MB, whose cost in the reference VM varied by 25-30 % between
	// runs of identical code. See README.md.
	//
	// batch_p95_ms (in reference time, like the end-to-end times) joined
	// them: a tail percentile is made of the batches the host disturbed
	// most, and ten runs of identical code spread by 4-14 % on it most of
	// the time and by 28 % once.
	{Name: "batch_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "checkpoint_full_s", Unit: "s", Better: "lower"},
	{Name: "checkpoint_delta_ms", Unit: "ms", Better: "lower"},
	{Name: "recover_s", Unit: "s", Better: "lower"},
	{Name: "resize_s", Unit: "s", Better: "lower"},

	{Name: "trace.convert_s", Unit: "s", Better: "lower"},
	{Name: "trace.convert_lines_per_s", Unit: "1/s", Better: "higher"},
	{Name: "trace.convert_allocs_per_line", Unit: "count", Better: "lower"},
	{Name: "trace.open_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.bytes_per_update", Unit: "B", Better: "lower", Exact: true},
	{Name: "trace.decode_us_per_batch", Unit: "us", Better: "lower"},
	{Name: "trace.decode_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "workload.validate_p50_us", Unit: "us", Better: "lower"},

	{Name: "server.new_ms", Unit: "ms", Better: "lower"},
	{Name: "server.post_ack_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.apply_wait_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.apply_busy_s", Unit: "s", Better: "lower"},
	{Name: "server.apply_share", Unit: "ratio", Better: "higher"},
	{Name: "server.query_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.query_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "server.cache_hits", Unit: "count", Better: "higher", Exact: true},
	{Name: "server.cache_misses", Unit: "count", Better: "lower", Exact: true},
	{Name: "server.rejected_429", Unit: "count", Better: "lower", Exact: true},
	{Name: "server.polls_per_batch", Unit: "count", Better: "lower"},
	{Name: "server.restore_new_ms", Unit: "ms", Better: "lower"},
	{Name: "server.resize_ms", Unit: "ms", Better: "lower"},
	{Name: "server.ckpt_full_bytes", Unit: "B", Better: "lower", Exact: true},
	{Name: "server.ckpt_delta_bytes", Unit: "B", Better: "lower", Exact: true},

	{Name: "core.new_ms", Unit: "ms", Better: "lower"},
	{Name: "core.apply_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "core.apply_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "core.apply_allocs_per_batch", Unit: "count", Better: "lower"},
	{Name: "core.apply_bytes_per_batch", Unit: "B", Better: "lower"},
	{Name: "core.query_p50_us", Unit: "us", Better: "lower"},
	{Name: "core.query_p99_us", Unit: "us", Better: "lower"},
	{Name: "core.cache_hits", Unit: "count", Better: "higher", Exact: true},
	{Name: "core.cache_misses", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.first_answer_us", Unit: "us", Better: "lower"},

	{Name: "mpc.machines", Unit: "count", Better: "lower", Exact: true},
	{Name: "mpc.messages_per_batch", Unit: "count", Better: "lower", Exact: true},
	{Name: "mpc.words_per_batch", Unit: "words", Better: "lower", Exact: true},
	{Name: "mpc.max_recv_words", Unit: "words", Better: "lower", Exact: true},
	{Name: "mpc.max_send_words", Unit: "words", Better: "lower", Exact: true},
	{Name: "mpc.peak_machine_words", Unit: "words", Better: "lower", Exact: true},
	{Name: "mpc.peak_total_words", Unit: "words", Better: "lower", Exact: true},
	{Name: "mpc.violations", Unit: "count", Better: "lower", Exact: true},
	{Name: "sketch.words_per_vertex", Unit: "words", Better: "lower", Exact: true},

	{Name: "snapshot.full_bytes", Unit: "B", Better: "lower", Exact: true},
	{Name: "snapshot.full_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "snapshot.delta_bytes", Unit: "B", Better: "lower", Exact: true},
	{Name: "snapshot.restore_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "snapshot.restore_chain_len", Unit: "count", Better: "lower", Exact: true},
	{Name: "snapshot.compactions", Unit: "count", Better: "lower", Exact: true},
	{Name: "snapshot.save_mem_ms", Unit: "ms", Better: "lower"},
	{Name: "snapshot.reshard_p50_ms", Unit: "ms", Better: "lower"},

	{Name: "steady.query_share", Unit: "ratio", Better: "higher"},
	{Name: "steady.ingest_share", Unit: "ratio", Better: "higher"},
	{Name: "steady.snapshot_share", Unit: "ratio", Better: "higher"},

	{Name: "proc.cpu_user_s", Unit: "s", Better: "lower"},
	{Name: "proc.cpu_sys_s", Unit: "s", Better: "lower"},
	{Name: "proc.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "proc.mallocs_per_update", Unit: "count", Better: "lower"},
	{Name: "proc.alloc_mb_total", Unit: "MB", Better: "lower"},
	{Name: "proc.trace_overhead_pct", Unit: "%", Better: "lower"},

	// The machine under the program: the probes the end-to-end times are
	// scaled by (hostspeed.go), and the same times unscaled.
	{Name: "host.probe_ms", Unit: "ms", Better: "lower"},
	{Name: "host.probe_spread_pct", Unit: "%", Better: "lower"},
	{Name: "host.setup_wall_s", Unit: "s", Better: "lower"},
	{Name: "host.batch_wall_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "host.query_wall_p50_ms", Unit: "ms", Better: "lower"},
}

// workloadWhy is the one-line reason each workload exists, as recorded in
// BENCHMARK.json.
var workloadWhy = []struct{ Name, Why string }{
	{"serve-window", "HTTP server under FIFO sliding-window churn: every batch cuts tree edges, so core apply (cut, sketch aggregation, replacement search) is nearly all of the batch span"},
	{"serve-reads", "same HTTP server, insert-only updates in small batches with many query batches each: HTTP, JSON, the read lock and the warm label cache dominate"},
	{"ingest-grow", "edge-list file converted to a binary trace and replayed insert-only in large batches on few machines: apply is cheap, so convert, decode and validation show"},
	{"recover-churn", "in-process durable session on many small machines: delta and full checkpoints, kill and restore, and re-sharding do most of the work"},
}

// value is one reported number.
type value struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}
