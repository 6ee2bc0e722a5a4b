//! The names this benchmark emits. `BENCHMARK.json` at the repository
//! root carries the same names plus the bounds; `tests/smoke.rs` checks
//! that the two agree.

/// The four workloads, in the order a full run executes them.
pub const WORKLOADS: [&str; 4] = ["bulk_load", "adhoc_rewrite", "prepared_joins", "serve_swap"];

/// End-to-end metrics `(name, unit)`; every workload reports all nine.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("load_s", "s"),
    ("plan_ms_geomean", "ms"),
    ("query_ms_geomean", "ms"),
    ("slowest_query_ms", "ms"),
    ("first_batch_ms_geomean", "ms"),
    ("queries_per_s", "1/s"),
    ("query_cpu_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// End-to-end metrics that are wall-clock timings of one operation: the
/// ones `--selfcheck` holds to the 1 ms / 9 samples rule.
pub const GATED_TIMINGS: [&str; 5] = [
    "load_s",
    "plan_ms_geomean",
    "query_ms_geomean",
    "slowest_query_ms",
    "first_batch_ms_geomean",
];

/// Per-layer metrics `(name, unit)` of the traced run. A workload whose
/// path does not cross a layer reports 0 for that layer's metrics.
pub const PER_LAYER: [(&str, &str); 49] = [
    ("xmltree.parse_ms", "ms"),
    ("xmltree.parse_mb_per_s", "MB/s"),
    ("xmltree.nodes", "count"),
    ("summary.build_ms", "ms"),
    ("summary.paths", "count"),
    ("storage.views_materialize_ms", "ms"),
    ("storage.view_tuples", "count"),
    ("storage.tuples_per_node", "ratio"),
    ("storage.idstream_build_ms", "ms"),
    ("storage.idstream_ids", "count"),
    ("core.parse_xam_ms", "ms"),
    ("xquery.parse_ms", "ms"),
    ("xquery.extract_ms", "ms"),
    ("xquery.patterns", "count"),
    ("containment.contain_ms", "ms"),
    ("containment.contain_calls", "count"),
    ("containment.canonical_models", "count"),
    ("containment.cache_hit_rate", "ratio"),
    ("containment.cold_plan_ms", "ms"),
    ("rewriting.rewrite_ms", "ms"),
    ("rewriting.rewritings", "count"),
    ("rewriting.verified_per_found", "ratio"),
    ("rewriting.prepare_ms", "ms"),
    ("rewriting.plan_self_ms", "ms"),
    ("algebra.exec_mat_ms", "ms"),
    ("algebra.exec_stream_ms", "ms"),
    ("algebra.stream_over_mat", "ratio"),
    ("algebra.first_batch_ms", "ms"),
    ("algebra.twig_ms", "ms"),
    ("algebra.scan_ms", "ms"),
    ("algebra.idjoin_ms", "ms"),
    ("algebra.serialize_ms", "ms"),
    ("algebra.rows_out", "count"),
    ("algebra.peak_resident_tuples", "count"),
    ("algebra.comparisons", "count"),
    ("algebra.elements_skipped", "count"),
    ("obs.profile_overhead", "ratio"),
    ("server.hit_ms_p50", "ms"),
    ("server.miss_ms_p50", "ms"),
    ("server.roundtrip_ms_p99", "ms"),
    ("server.exec_hit_rate", "ratio"),
    ("server.overhead_ms", "ms"),
    ("server.adhoc_query_ms_p50", "ms"),
    ("server.swap_ms", "ms"),
    ("server.swaps", "count"),
    ("server.admission_wait_ms", "ms"),
    ("server.cache_evictions", "count"),
    ("harness.calib_ms", "ms"),
    ("harness.trace_overhead", "ratio"),
];
