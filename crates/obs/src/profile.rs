//! The `EXPLAIN ANALYZE` surface.
//!
//! The executor keeps the *actual* side — output cardinality, inclusive
//! wall time and kernel counters per plan node, for the one run there is.
//! The rewriting layer pairs those counters with the cost model's
//! *estimates* into a [`PlanNodeProfile`] tree, wraps it with phase
//! timings, cache counters and the stream report into a [`QueryProfile`],
//! and renders the result as pretty text or JSON.

use crate::json::Json;
use crate::metrics::{CacheCounters, ExecMetrics, ResultCacheCounters};
use std::fmt::Write as _;

/// One plan node with the cost model's estimate paired against measured
/// execution.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanNodeProfile {
    pub op: String,
    /// Estimated cost (abstract cost units from `rewriting::cost`).
    pub est_cost: f64,
    /// Estimated output cardinality.
    pub est_rows: f64,
    /// Measured output cardinality.
    pub actual_rows: u64,
    /// Measured wall time including children.
    pub time_ns: u64,
    /// Kernel counters recorded while this node ran.
    pub metrics: ExecMetrics,
    /// True when the cardinality estimate was off by ≥4× in either
    /// direction (on at least one row).
    pub mispredicted: bool,
    pub children: Vec<PlanNodeProfile>,
}

impl PlanNodeProfile {
    pub fn node_count(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(PlanNodeProfile::node_count)
            .sum::<usize>()
    }

    /// Does any node in this subtree carry the misprediction flag?
    pub fn any_mispredicted(&self) -> bool {
        self.mispredicted || self.children.iter().any(PlanNodeProfile::any_mispredicted)
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("op", Json::Str(self.op.clone())),
            ("est_cost", Json::Num(self.est_cost)),
            ("est_rows", Json::Num(self.est_rows)),
            ("actual_rows", Json::Num(self.actual_rows as f64)),
            ("time_ns", Json::Num(self.time_ns as f64)),
            ("comparisons", Json::Num(self.metrics.comparisons as f64)),
            (
                "stack_high_water",
                Json::Num(self.metrics.stack_high_water as f64),
            ),
            (
                "solutions_high_water",
                Json::Num(self.metrics.solutions_high_water as f64),
            ),
            (
                "twig_fallbacks",
                Json::Num(self.metrics.twig_fallbacks as f64),
            ),
            (
                "elements_skipped",
                Json::Num(self.metrics.elements_skipped as f64),
            ),
            (
                "blocks_pruned",
                Json::Num(self.metrics.blocks_pruned as f64),
            ),
            (
                "batches_scanned",
                Json::Num(self.metrics.batches_scanned as f64),
            ),
            (
                "vector_compares",
                Json::Num(self.metrics.vector_compares as f64),
            ),
            ("mispredicted", Json::Bool(self.mispredicted)),
            (
                "children",
                Json::Arr(self.children.iter().map(PlanNodeProfile::to_json).collect()),
            ),
        ])
    }
}

/// One plan node's counters from an execution, flat (pre-order).
#[derive(Debug, Clone, PartialEq)]
pub struct OpStreamProfile {
    /// Operator label, e.g. `StructJoin(⋈,ID/ID)`.
    pub op: String,
    /// Did this operator materialize its whole input before emitting?
    pub breaker: bool,
    /// Batches this operator emitted.
    pub batches: u64,
    /// Rows this operator emitted.
    pub rows: u64,
    /// Kernel counters recorded while this operator ran.
    pub metrics: ExecMetrics,
}

impl OpStreamProfile {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("op", Json::Str(self.op.clone())),
            ("breaker", Json::Bool(self.breaker)),
            ("batches", Json::Num(self.batches as f64)),
            ("rows", Json::Num(self.rows as f64)),
            ("comparisons", Json::Num(self.metrics.comparisons as f64)),
            (
                "stack_high_water",
                Json::Num(self.metrics.stack_high_water as f64),
            ),
            (
                "solutions_high_water",
                Json::Num(self.metrics.solutions_high_water as f64),
            ),
            (
                "twig_fallbacks",
                Json::Num(self.metrics.twig_fallbacks as f64),
            ),
            (
                "elements_skipped",
                Json::Num(self.metrics.elements_skipped as f64),
            ),
            (
                "blocks_pruned",
                Json::Num(self.metrics.blocks_pruned as f64),
            ),
            (
                "batches_scanned",
                Json::Num(self.metrics.batches_scanned as f64),
            ),
            (
                "vector_compares",
                Json::Num(self.metrics.vector_compares as f64),
            ),
        ])
    }
}

/// The executor's report for one run: batch configuration, stream
/// totals, the peak-resident-tuples gauge, and per-node counters in plan
/// pre-order — the same counters, from the same run, the
/// [`PlanNodeProfile`] tree carries.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamProfile {
    /// Configured target rows per batch.
    pub batch_size: u64,
    /// Batches the consumer pulled from the root cursor.
    pub batches: u64,
    /// Rows the root cursor emitted in total.
    pub rows: u64,
    /// High-water mark of tuples resident across the whole cursor tree
    /// (build sides + breaker buffers + in-flight batches).
    pub peak_resident_tuples: u64,
    /// Labels of the plan's pipeline breakers, pre-order.
    pub breakers: Vec<String>,
    /// Per-operator streaming counters, pre-order.
    pub ops: Vec<OpStreamProfile>,
}

impl StreamProfile {
    /// The stream report as JSON (the `"streamed"` object of the
    /// profile schema) — also useful standalone, via
    /// `QueryResults::stream_profile`.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("batch_size", Json::Num(self.batch_size as f64)),
            ("batches", Json::Num(self.batches as f64)),
            ("rows", Json::Num(self.rows as f64)),
            (
                "peak_resident_tuples",
                Json::Num(self.peak_resident_tuples as f64),
            ),
            (
                "breakers",
                Json::Arr(self.breakers.iter().map(|b| Json::Str(b.clone())).collect()),
            ),
            (
                "ops",
                Json::Arr(self.ops.iter().map(OpStreamProfile::to_json).collect()),
            ),
        ])
    }
}

/// The complete `EXPLAIN ANALYZE` record for one query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryProfile {
    /// The query text.
    pub query: String,
    /// `(phase name, elapsed ns)` in lifecycle order: parse, extract,
    /// containment/rewrite, plan, eval.
    pub phases: Vec<(String, u64)>,
    /// The estimated-vs-actual operator tree of the executed plan.
    pub plan: PlanNodeProfile,
    /// Shared-cache counters, when the engine runs with a cache.
    pub cache: Option<CacheCounters>,
    /// The executor's stream report of the profiled run.
    pub streamed: Option<StreamProfile>,
    /// End-to-end wall time.
    pub total_ns: u64,
}

/// One serving session's cache-effectiveness report: how this client's
/// requests fared against the result cache, with a snapshot of the
/// engine-wide `CanonicalCache` counters (the containment/rewriting
/// memo is shared across sessions, so its occupancy and hit rate are
/// global figures embedded for context). This is what the server's
/// `STATS` command returns, via [`SessionProfile::to_json`].
#[derive(Debug, Default, Clone, PartialEq)]
pub struct SessionProfile {
    /// Server-assigned session id.
    pub session_id: u64,
    /// Requests this session executed (cache hits included).
    pub queries: u64,
    /// `PREPARE` commands this session issued.
    pub prepared: u64,
    /// Result rows streamed to this session.
    pub rows: u64,
    /// Requests cancelled mid-stream (explicit `CANCEL` or disconnect).
    pub cancelled: u64,
    /// Requests aborted for exceeding their per-query residency budget.
    pub budget_aborts: u64,
    /// Requests rejected because admission timed out under load.
    pub admission_timeouts: u64,
    /// This session's result-cache counters (hits/misses/insertions are
    /// per-session; evictions and occupancy are cache-global).
    pub result_cache: ResultCacheCounters,
    /// Engine-wide `CanonicalCache` snapshot, when the engine caches.
    pub canonical: Option<CacheCounters>,
    /// Kernel counters absorbed from this session's uncached executions
    /// (counters sum; high-waters keep the max), so serving-path clients
    /// see `batches_scanned`/`vector_compares`/`elements_skipped`
    /// without enabling full profiling. All-zero when the server runs
    /// with telemetry off.
    pub exec: ExecMetrics,
}

impl SessionProfile {
    /// The JSON form (one `STATS` line on the wire; its cache counters
    /// have the shapes of `schemas/metrics.schema.json`'s `caches`).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("session_id", Json::Num(self.session_id as f64)),
            ("queries", Json::Num(self.queries as f64)),
            ("prepared", Json::Num(self.prepared as f64)),
            ("rows", Json::Num(self.rows as f64)),
            ("cancelled", Json::Num(self.cancelled as f64)),
            ("budget_aborts", Json::Num(self.budget_aborts as f64)),
            (
                "admission_timeouts",
                Json::Num(self.admission_timeouts as f64),
            ),
            (
                "result_cache",
                Json::obj(vec![
                    ("hits", Json::Num(self.result_cache.hits as f64)),
                    ("misses", Json::Num(self.result_cache.misses as f64)),
                    ("insertions", Json::Num(self.result_cache.insertions as f64)),
                    ("evictions", Json::Num(self.result_cache.evictions as f64)),
                    ("entries", Json::Num(self.result_cache.entries as f64)),
                    ("hit_rate", Json::Num(self.result_cache.hit_rate())),
                ]),
            ),
            (
                "canonical_cache",
                match &self.canonical {
                    Some(c) => Json::obj(vec![
                        ("hits", Json::Num(c.hits as f64)),
                        ("misses", Json::Num(c.misses as f64)),
                        ("evictions", Json::Num(c.evictions as f64)),
                        ("entries", Json::Num(c.entries() as f64)),
                        ("hit_rate", Json::Num(c.hit_rate())),
                    ]),
                    None => Json::Null,
                },
            ),
            (
                "exec",
                Json::obj(vec![
                    ("comparisons", Json::Num(self.exec.comparisons as f64)),
                    (
                        "elements_skipped",
                        Json::Num(self.exec.elements_skipped as f64),
                    ),
                    ("blocks_pruned", Json::Num(self.exec.blocks_pruned as f64)),
                    (
                        "batches_scanned",
                        Json::Num(self.exec.batches_scanned as f64),
                    ),
                    (
                        "vector_compares",
                        Json::Num(self.exec.vector_compares as f64),
                    ),
                    ("twig_fallbacks", Json::Num(self.exec.twig_fallbacks as f64)),
                    (
                        "stack_high_water",
                        Json::Num(self.exec.stack_high_water as f64),
                    ),
                    (
                        "solutions_high_water",
                        Json::Num(self.exec.solutions_high_water as f64),
                    ),
                ]),
            ),
        ])
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

impl QueryProfile {
    /// Pretty multi-line `EXPLAIN ANALYZE` rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "EXPLAIN ANALYZE  {}", self.query);
        let _ = writeln!(out, "total: {}", fmt_ns(self.total_ns));
        if !self.phases.is_empty() {
            let phases: Vec<String> = self
                .phases
                .iter()
                .map(|(name, ns)| format!("{name}={}", fmt_ns(*ns)))
                .collect();
            let _ = writeln!(out, "phases: {}", phases.join("  "));
        }
        if let Some(cache) = &self.cache {
            let _ = writeln!(
                out,
                "cache: hits={} misses={} evictions={} entries={} (verdicts={} annotations={})",
                cache.hits,
                cache.misses,
                cache.evictions,
                cache.entries(),
                cache.verdict_entries,
                cache.annotation_entries
            );
        }
        if let Some(s) = &self.streamed {
            let _ = writeln!(
                out,
                "streamed: batch_size={} batches={} rows={} peak_resident={}{}",
                s.batch_size,
                s.batches,
                s.rows,
                s.peak_resident_tuples,
                if s.breakers.is_empty() {
                    String::new()
                } else {
                    format!("  breakers=[{}]", s.breakers.join(", "))
                }
            );
            for op in &s.ops {
                let _ = writeln!(
                    out,
                    "  ▸ {}: {} batches, {} rows{}",
                    op.op,
                    op.batches,
                    op.rows,
                    if op.breaker { "  [breaker]" } else { "" }
                );
            }
        }
        render_node(&mut out, &self.plan, "", true, true);
        out
    }

    /// The JSON form (validated by `schemas/query_profile.schema.json`).
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("query", Json::Str(self.query.clone())),
            ("total_ns", Json::Num(self.total_ns as f64)),
            (
                "phases",
                Json::Arr(
                    self.phases
                        .iter()
                        .map(|(name, ns)| {
                            Json::obj(vec![
                                ("name", Json::Str(name.clone())),
                                ("time_ns", Json::Num(*ns as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("plan", self.plan.to_json()),
        ];
        fields.push((
            "cache",
            match &self.cache {
                Some(c) => Json::obj(vec![
                    ("hits", Json::Num(c.hits as f64)),
                    ("misses", Json::Num(c.misses as f64)),
                    ("evictions", Json::Num(c.evictions as f64)),
                    ("verdict_entries", Json::Num(c.verdict_entries as f64)),
                    ("annotation_entries", Json::Num(c.annotation_entries as f64)),
                ]),
                None => Json::Null,
            },
        ));
        fields.push((
            "streamed",
            match &self.streamed {
                Some(s) => s.to_json(),
                None => Json::Null,
            },
        ));
        Json::obj(fields)
    }
}

fn render_node(
    out: &mut String,
    node: &PlanNodeProfile,
    prefix: &str,
    is_last: bool,
    is_root: bool,
) {
    let (branch, child_prefix) = if is_root {
        (String::new(), String::new())
    } else if is_last {
        (format!("{prefix}└─ "), format!("{prefix}   "))
    } else {
        (format!("{prefix}├─ "), format!("{prefix}│  "))
    };
    let mut extras = String::new();
    if node.metrics.comparisons > 0 {
        let _ = write!(extras, " cmp={}", node.metrics.comparisons);
    }
    if node.metrics.stack_high_water > 0 {
        let _ = write!(extras, " stack^={}", node.metrics.stack_high_water);
    }
    if node.metrics.solutions_high_water > 0 {
        let _ = write!(extras, " sol^={}", node.metrics.solutions_high_water);
    }
    if node.metrics.twig_fallbacks > 0 {
        let _ = write!(extras, " fallbacks={}", node.metrics.twig_fallbacks);
    }
    if node.metrics.elements_skipped > 0 {
        let _ = write!(extras, " skip={}", node.metrics.elements_skipped);
    }
    if node.metrics.blocks_pruned > 0 {
        let _ = write!(extras, " blocks={}", node.metrics.blocks_pruned);
    }
    if node.metrics.batches_scanned > 0 {
        let _ = write!(extras, " vbatches={}", node.metrics.batches_scanned);
    }
    if node.metrics.vector_compares > 0 {
        let _ = write!(extras, " vcmp={}", node.metrics.vector_compares);
    }
    let _ = writeln!(
        out,
        "{branch}{}  (est cost={:.1} rows={:.1})  (actual rows={} time={}{extras}){}",
        node.op,
        node.est_cost,
        node.est_rows,
        node.actual_rows,
        fmt_ns(node.time_ns),
        if node.mispredicted {
            "  [est off ≥4×]"
        } else {
            ""
        }
    );
    let n = node.children.len();
    for (i, child) in node.children.iter().enumerate() {
        render_node(out, child, &child_prefix, i + 1 == n, false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn sample() -> QueryProfile {
        QueryProfile {
            query: "//item/name".to_string(),
            phases: vec![
                ("parse".to_string(), 1_000),
                ("eval".to_string(), 2_000_000),
            ],
            plan: PlanNodeProfile {
                op: "StructJoin(child)".to_string(),
                est_cost: 120.0,
                est_rows: 10.0,
                actual_rows: 50,
                time_ns: 1_500_000,
                metrics: ExecMetrics {
                    comparisons: 200,
                    stack_high_water: 4,
                    elements_skipped: 75,
                    blocks_pruned: 3,
                    batches_scanned: 7,
                    vector_compares: 448,
                    ..ExecMetrics::default()
                },
                mispredicted: true,
                children: vec![
                    PlanNodeProfile {
                        op: "Scan(v_items)".to_string(),
                        est_cost: 10.0,
                        est_rows: 10.0,
                        actual_rows: 10,
                        time_ns: 100_000,
                        metrics: ExecMetrics::default(),
                        mispredicted: false,
                        children: vec![],
                    },
                    PlanNodeProfile {
                        op: "Scan(v_names)".to_string(),
                        est_cost: 12.0,
                        est_rows: 12.0,
                        actual_rows: 12,
                        time_ns: 90_000,
                        metrics: ExecMetrics::default(),
                        mispredicted: false,
                        children: vec![],
                    },
                ],
            },
            cache: Some(CacheCounters {
                hits: 2,
                misses: 3,
                evictions: 0,
                verdict_entries: 3,
                annotation_entries: 0,
            }),
            streamed: Some(StreamProfile {
                batch_size: 1024,
                batches: 1,
                rows: 50,
                peak_resident_tuples: 62,
                breakers: vec!["Sort".to_string()],
                ops: vec![
                    OpStreamProfile {
                        op: "StructJoin(child)".to_string(),
                        breaker: false,
                        batches: 1,
                        rows: 50,
                        metrics: ExecMetrics {
                            comparisons: 200,
                            stack_high_water: 4,
                            ..ExecMetrics::default()
                        },
                    },
                    OpStreamProfile {
                        op: "Scan(v_items)".to_string(),
                        breaker: false,
                        batches: 1,
                        rows: 10,
                        metrics: ExecMetrics::default(),
                    },
                ],
            }),
            total_ns: 2_001_000,
        }
    }

    #[test]
    fn render_shows_tree_est_actual_and_flags() {
        let text = sample().render();
        assert!(text.contains("EXPLAIN ANALYZE"));
        assert!(text.contains("StructJoin(child)"));
        assert!(text.contains("est cost=120.0"));
        assert!(text.contains("actual rows=50"));
        assert!(text.contains("[est off ≥4×]"));
        assert!(text.contains("├─ Scan(v_items)"));
        assert!(text.contains("└─ Scan(v_names)"));
        assert!(text.contains("cmp=200"));
        assert!(text.contains("skip=75"));
        assert!(text.contains("blocks=3"));
        assert!(text.contains("vbatches=7"));
        assert!(text.contains("vcmp=448"));
        assert!(text.contains("cache: hits=2"));
        assert!(text.contains("phases: parse=1.0µs"));
        assert!(text.contains("streamed: batch_size=1024 batches=1 rows=50 peak_resident=62"));
        assert!(text.contains("breakers=[Sort]"));
        assert!(text.contains("▸ StructJoin(child): 1 batches, 50 rows"));
    }

    #[test]
    fn json_roundtrips_through_parser() {
        let profile = sample();
        let value = profile.to_json();
        let reparsed = json::parse(&value.to_string_pretty()).unwrap();
        assert_eq!(reparsed, value);
        assert_eq!(
            reparsed
                .get("plan")
                .and_then(|p| p.get("op"))
                .and_then(Json::as_str),
            Some("StructJoin(child)")
        );
        assert_eq!(
            reparsed
                .get("plan")
                .and_then(|p| p.get("children"))
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(2)
        );
        assert!(sample().plan.any_mispredicted());
        assert_eq!(sample().plan.node_count(), 3);
        assert_eq!(
            reparsed
                .get("streamed")
                .and_then(|s| s.get("peak_resident_tuples"))
                .and_then(Json::as_f64),
            Some(62.0)
        );
        assert_eq!(
            reparsed
                .get("plan")
                .and_then(|p| p.get("vector_compares"))
                .and_then(Json::as_f64),
            Some(448.0)
        );
        assert_eq!(
            reparsed
                .get("plan")
                .and_then(|p| p.get("batches_scanned"))
                .and_then(Json::as_f64),
            Some(7.0)
        );
        // a profile without a streamed pass serializes "streamed": null
        let mut plain = sample();
        plain.streamed = None;
        let v = plain.to_json();
        assert_eq!(v.get("streamed"), Some(&Json::Null));
    }
}
