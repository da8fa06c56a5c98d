package main

// metricDef describes one reported metric. Bound is the share by which an
// end-to-end metric may worsen before it counts as a regression; it is
// also the agreement bound for two sets of runs of the same code.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists what a user of the system would see, the same seven on
// every workload. BENCHMARK.json repeats this list; the smoke test keeps
// the two in step.
//
// The timing bounds are what the reference host supports, not what the
// estimator achieves on a quiet machine (1–3 %): over an afternoon the
// same binary and seed drifted by up to 15 % between one quarter of an
// hour and the next, on every workload at once, and in the worst quarter
// ten seeds spread by 21 % (README, "Bounds"). A bound tighter than the
// host's own drift rejects changes that touched nothing. The counts are
// exact per seed, so their bounds stay tight.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_per_s", "1/s", "higher", 0.25},
	{"latency_p50_us", "us", "lower", 0.25},
	{"latency_p90_us", "us", "lower", 0.25},
	{"allocs_per_op", "1", "lower", 0.02},
	{"bytes_per_op", "B", "lower", 0.05},
	{"mem_bytes_per_session", "B", "lower", 0.03},
}

// perLayer lists the single-layer metrics of the traced rep.
var perLayer = []metricDef{
	{Name: "transport.send.dgrams", Unit: "count", Better: "lower"},
	{Name: "transport.send.bytes", Unit: "B", Better: "lower"},
	{Name: "transport.send.busy_us", Unit: "us", Better: "lower"},
	{Name: "transport.udp.recv_ns_per_dgram", Unit: "ns", Better: "lower"},
	{Name: "transport.udp.send_ns_per_dgram", Unit: "ns", Better: "lower"},
	{Name: "transport.udp.batch_depth", Unit: "count", Better: "higher"},

	{Name: "sap.decode.count", Unit: "count", Better: "lower"},
	{Name: "sap.decode.ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "sap.decode.failed", Unit: "count", Better: "lower"},
	{Name: "sap.decode.compressed_share", Unit: "ratio", Better: "lower"},
	{Name: "sap.marshal.ns_per_op", Unit: "ns", Better: "lower"},

	{Name: "session.parse.count", Unit: "count", Better: "lower"},
	{Name: "session.parse.ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "session.parse.ns_per_op_small", Unit: "ns", Better: "lower"},
	{Name: "session.marshal.ns_per_op", Unit: "ns", Better: "lower"},

	{Name: "admission.allow.count", Unit: "count", Better: "lower"},
	{Name: "admission.allow.ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "admission.allow.denied", Unit: "count", Better: "lower"},
	{Name: "admission.plan.count", Unit: "count", Better: "lower"},
	{Name: "admission.plan.us_per_op", Unit: "us", Better: "lower"},
	{Name: "admission.plan.candidates_per_op", Unit: "count", Better: "lower"},
	{Name: "admission.plan.admit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "admission.evictions", Unit: "count", Better: "lower"},
	{Name: "admission.shed", Unit: "count", Better: "lower"},
	{Name: "admission.degraded_learns", Unit: "count", Better: "lower"},

	{Name: "announce.observe.count", Unit: "count", Better: "lower"},
	{Name: "announce.observe.ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "announce.observe.fresh_ratio", Unit: "ratio", Better: "lower"},
	{Name: "announce.peek.ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "announce.live_scan.count", Unit: "count", Better: "lower"},
	{Name: "announce.live_scan.us_per_op", Unit: "us", Better: "lower"},
	{Name: "announce.live_scan.entries_per_op", Unit: "count", Better: "lower"},
	{Name: "announce.all_grouped.us_per_op", Unit: "us", Better: "lower"},
	{Name: "announce.expire.us_per_op", Unit: "us", Better: "lower"},
	{Name: "announce.size", Unit: "count", Better: "lower"},

	{Name: "clash.observe.count", Unit: "count", Better: "lower"},
	{Name: "clash.observe.us_per_op", Unit: "us", Better: "lower"},
	{Name: "clash.observe.entries_scanned_per_op", Unit: "count", Better: "lower"},
	{Name: "clash.observe.actions", Unit: "count", Better: "lower"},
	{Name: "clash.due.us_per_op", Unit: "us", Better: "lower"},
	{Name: "clash.moves", Unit: "count", Better: "lower"},
	{Name: "clash.defenses_third", Unit: "count", Better: "lower"},

	{Name: "allocator.allocate.count", Unit: "count", Better: "lower"},
	{Name: "allocator.allocate.us_per_op", Unit: "us", Better: "lower"},
	{Name: "allocator.allocate.view_len", Unit: "count", Better: "lower"},
	{Name: "allocator.allocate.failed", Unit: "count", Better: "lower"},
	{Name: "allocator.batch.addrs_per_call", Unit: "count", Better: "higher"},

	{Name: "storage.append.records", Unit: "count", Better: "lower"},
	{Name: "storage.append.bytes", Unit: "B", Better: "lower"},
	{Name: "storage.append.us_per_batch", Unit: "us", Better: "lower"},
	{Name: "storage.compact.ms", Unit: "ms", Better: "lower"},
	{Name: "storage.recover.ms", Unit: "ms", Better: "lower"},
	{Name: "storage.fs.writes", Unit: "count", Better: "lower"},
	{Name: "storage.fs.syncs", Unit: "count", Better: "lower"},

	{Name: "directory.handle_batch.us_per_call", Unit: "us", Better: "lower"},
	{Name: "directory.create.us_per_call", Unit: "us", Better: "lower"},
	{Name: "directory.create_batch.us_per_session", Unit: "us", Better: "lower"},
	{Name: "directory.withdraw.us_per_call", Unit: "us", Better: "lower"},
	{Name: "directory.step.us_per_call", Unit: "us", Better: "lower"},
	{Name: "directory.self_us_per_call", Unit: "us", Better: "lower"},
	{Name: "directory.self_share", Unit: "ratio", Better: "lower"},
	{Name: "directory.overattributed_share", Unit: "ratio", Better: "lower"},
	{Name: "directory.latency_p99_us", Unit: "us", Better: "lower"},
	{Name: "directory.outbox_dgrams_per_call", Unit: "count", Better: "higher"},
	{Name: "directory.spans", Unit: "count", Better: "lower"},

	{Name: "sim.visible_at.us_per_op", Unit: "us", Better: "lower"},
	{Name: "sim.visible_at.entries_per_op", Unit: "count", Better: "lower"},
	{Name: "sim.clashes.us_per_op", Unit: "us", Better: "lower"},
	{Name: "sim.add_remove.us_per_op", Unit: "us", Better: "lower"},
	{Name: "sim.fill_clashes", Unit: "count", Better: "lower"},
	{Name: "sim.churn_clashes", Unit: "count", Better: "lower"},
	{Name: "sim.exhausted", Unit: "count", Better: "lower"},
	{Name: "topology.reach_cache.build_ms", Unit: "ms", Better: "lower"},

	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "runtime.cpu_s", Unit: "s", Better: "lower"},
	{Name: "bench.rep_wall_s", Unit: "s", Better: "lower"},
	{Name: "bench.rep_wall_spread", Unit: "ratio", Better: "lower"},
	{Name: "bench.reps", Unit: "count", Better: "higher"},
	{Name: "bench.gen_s", Unit: "s", Better: "lower"},
	{Name: "bench.trace_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "bench.latency_calls", Unit: "count", Better: "higher"},
	{Name: "failed_share", Unit: "ratio", Better: "lower"},
}
