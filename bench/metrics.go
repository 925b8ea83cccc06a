package main

// MetricDef describes one metric. BENCHMARK.json repeats these fields; a
// test keeps the two in step. README.md says how each end-to-end metric
// is measured and which of them each per-layer metric should move.
type MetricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the reference median by which an end-to-end
	// metric may worsen before it counts as a regression. Per-layer
	// metrics have none: they explain, they do not gate.
	Bound float64
}

// endToEnd lists the gated metrics. Modeled metrics are medians over the
// repetitions of one variant; host metrics come from untraced runs only.
var endToEnd = []MetricDef{
	{"setup_s", "s", "lower", 0.25},
	{"base_modeled_s", "s", "lower", 0.06},
	{"ft_modeled_s", "s", "lower", 0.06},
	{"ft_slowdown_x", "x", "lower", 0.08},
	{"killed_modeled_s", "s", "lower", 0.06},
	{"recovery_modeled_ms", "ms", "lower", 0.15},
	{"host_s_per_run", "s", "lower", 0.25},
	{"host_alloc_mb_per_run", "MB", "lower", 0.05},
	{"host_msgs_per_s", "1/s", "higher", 0.25},
}

// perLayer lists the explanatory metrics of the traced pass, layer by
// layer (layer = package name).
var perLayer = []MetricDef{
	{"netsim.send_recv_ns", "ns", "lower", 0},
	{"netsim.send_recv_allocs", "count", "lower", 0},
	{"netsim.match_deep1024_ns", "ns", "lower", 0},
	{"netsim.fan_in32_msgs_per_s", "1/s", "higher", 0},
	{"netsim.msgs_per_run", "count", "lower", 0},
	{"netsim.bytes_per_run", "B", "lower", 0},
	{"netsim.drops_per_run", "count", "lower", 0},

	{"pvm.send_recv_ns", "ns", "lower", 0},
	{"pvm.spawn_exit_us", "us", "lower", 0},

	{"codec.pack_ns_per_kb.water_frame", "ns/KB", "lower", 0},
	{"codec.unpack_ns_per_kb.water_frame", "ns/KB", "lower", 0},
	{"codec.deepcopy_ns_per_kb.water_frame", "ns/KB", "lower", 0},
	{"codec.packed_bytes.water_frame", "B", "lower", 0},
	{"codec.pack_ns_per_kb.barnes_partition", "ns/KB", "lower", 0},
	{"codec.unpack_ns_per_kb.barnes_partition", "ns/KB", "lower", 0},
	{"codec.deepcopy_ns_per_kb.barnes_partition", "ns/KB", "lower", 0},
	{"codec.packed_bytes.barnes_partition", "B", "lower", 0},
	{"codec.pack_ns_per_kb.gps_shard", "ns/KB", "lower", 0},
	{"codec.unpack_ns_per_kb.gps_shard", "ns/KB", "lower", 0},
	{"codec.deepcopy_ns_per_kb.gps_shard", "ns/KB", "lower", 0},
	{"codec.packed_bytes.gps_shard", "B", "lower", 0},

	{"sam.ckpt_tx_us_p50", "us", "lower", 0},
	{"sam.ckpt_tx_us_p_hi", "us", "lower", 0},
	{"sam.ckpts_per_run", "count", "lower", 0},
	{"sam.forced_ckpts_per_run", "count", "lower", 0},
	{"sam.force_msgs_per_run", "count", "lower", 0},
	{"sam.ckpt_causing_send_pct", "%", "lower", 0},
	{"sam.replica_bytes_per_run", "B", "lower", 0},
	{"sam.replica_objects_per_run", "count", "lower", 0},
	{"sam.priv_bytes_per_run", "B", "lower", 0},
	{"sam.snapcache_hit_pct", "%", "higher", 0},
	{"sam.miss_rate_pct", "%", "lower", 0},
	{"sam.fetch_latency_us_p50", "us", "lower", 0},
	{"sam.migrations_per_run", "count", "lower", 0},

	{"sam.rec_solicit_ms", "ms", "lower", 0},
	{"sam.rec_resupply_ms", "ms", "lower", 0},
	{"sam.rec_rebuild_ms", "ms", "lower", 0},
	{"sam.rec_arbitrate_ms", "ms", "lower", 0},
	{"sam.rec_restart_ms", "ms", "lower", 0},
	{"sam.rec_msgs", "count", "lower", 0},
	{"sam.rec_bytes", "B", "lower", 0},
	{"sam.rec_incomplete_per_run", "count", "lower", 0},
	{"sam.noft_push_crash_frac", "frac", "lower", 0},
	{"sam.endstate_coverage_miss_frac", "frac", "lower", 0},

	{"ft.delta_stamp_ns.n8", "ns", "lower", 0},
	{"ft.delta_stamp_ns.n64", "ns", "lower", 0},
	{"ft.delta_stamp_entries.n8", "count", "lower", 0},
	{"ft.delta_stamp_entries.n64", "count", "lower", 0},

	{"ckptstore.plan_ns.ring", "ns", "lower", 0},
	{"ckptstore.plan_ns.spread", "ns", "lower", 0},
	{"ckptstore.plan_ns.affinity", "ns", "lower", 0},
	{"ckptstore.ec_encode_mb_per_s", "MB/s", "higher", 0},
	{"ckptstore.ec_decode_mb_per_s", "MB/s", "higher", 0},
	{"ckptstore.repair_objects_per_run", "count", "lower", 0},
	{"ckptstore.repair_bytes_per_run", "B", "lower", 0},

	{"cluster.empty_run_ms", "ms", "lower", 0},
	{"apps.steps_per_run", "count", "lower", 0},
	{"apps.replayed_steps", "count", "lower", 0},
	{"scenario.load_compile_us", "us", "lower", 0},

	{"trace.host_overhead_pct", "%", "lower", 0},
	{"trace.modeled_delta_pct", "%", "lower", 0},
	{"trace.events_per_run", "count", "lower", 0},
	{"trace.dropped_events", "count", "lower", 0},
}

func findMetric(defs []MetricDef, name string) (MetricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return MetricDef{}, false
}
