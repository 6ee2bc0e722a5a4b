//! The cardinality feedback store.
//!
//! EXPLAIN ANALYZE measures per-node actual cardinalities and flags ≥4×
//! mispredictions; [`StatsStore`] keeps them: every profiled run records
//! what each plan node *actually* produced, keyed by
//! `(document version, plan fingerprint, plan-node index)`.
//!
//! This module records and exposes; the cost model reads it back through
//! `rewriting::CostModel::with_feedback` to blend its estimates (which
//! `EXPLAIN` reports with their provenance). Feedback changes estimates,
//! never plans or answers. Keys are raw `u64`s (`obs` sits
//! below `storage`, so it cannot name `DocumentVersion`); version `0` is
//! the conventional key for unversioned embedded runs. Entries for
//! document versions that are no longer resident are evicted with
//! [`StatsStore::retain_versions`] (the server calls it on every
//! document swap, mirroring the result cache's lifecycle).

use std::collections::HashMap;
use std::sync::Mutex;

use crate::json::Json;
use crate::profile::{PlanNodeProfile, QueryProfile};

/// Key of one plan-node observation series.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StatsKey {
    /// `DocumentVersion` counter (0 = unversioned embedded run).
    pub doc_version: u64,
    /// Plan fingerprint of the executed plan.
    pub plan_fp: u64,
    /// Pre-order index of the node within that plan.
    pub node_idx: u32,
}

/// Accumulated measurements for one plan node under one document
/// version.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeStats {
    /// Operator label (from the profiled plan).
    pub op: String,
    /// Profiled runs observed.
    pub observations: u64,
    /// The cost model's cardinality estimate (latest run).
    pub est_rows: f64,
    /// Measured output cardinality of the latest run.
    pub last_actual_rows: u64,
    /// Sum of measured cardinalities across runs (for the mean).
    pub total_actual_rows: u64,
    /// Smallest measured cardinality.
    pub min_actual_rows: u64,
    /// Largest measured cardinality.
    pub max_actual_rows: u64,
    /// Runs where the estimate was off ≥4× (the profile's flag).
    pub mispredicts: u64,
}

impl NodeStats {
    /// Mean measured cardinality across all observations.
    pub fn mean_actual_rows(&self) -> f64 {
        if self.observations == 0 {
            0.0
        } else {
            self.total_actual_rows as f64 / self.observations as f64
        }
    }

    fn to_json(&self, key: &StatsKey) -> Json {
        Json::obj(vec![
            ("doc_version", Json::Num(key.doc_version as f64)),
            ("plan_fp", Json::Str(format!("{:016x}", key.plan_fp))),
            ("node_idx", Json::Num(key.node_idx as f64)),
            ("op", Json::Str(self.op.clone())),
            ("observations", Json::Num(self.observations as f64)),
            ("est_rows", Json::Num(self.est_rows)),
            ("last_actual_rows", Json::Num(self.last_actual_rows as f64)),
            ("mean_actual_rows", Json::Num(self.mean_actual_rows())),
            ("min_actual_rows", Json::Num(self.min_actual_rows as f64)),
            ("max_actual_rows", Json::Num(self.max_actual_rows as f64)),
            ("mispredicts", Json::Num(self.mispredicts as f64)),
        ])
    }
}

/// Thread-safe store of measured cardinalities, fed by every profiled
/// run. Recording walks the profiled plan tree in
/// pre-order, so `node_idx` is stable for a given plan shape (and the
/// plan fingerprint pins the shape).
#[derive(Debug, Default)]
pub struct StatsStore {
    nodes: Mutex<HashMap<StatsKey, NodeStats>>,
}

impl StatsStore {
    pub fn new() -> StatsStore {
        StatsStore::default()
    }

    /// Record one profiled run: every plan node's measured cardinality,
    /// in pre-order.
    pub fn record_profile(&self, doc_version: u64, plan_fp: u64, profile: &QueryProfile) {
        let mut nodes = self.nodes.lock().unwrap_or_else(|e| e.into_inner());
        let mut idx = 0u32;
        record_node(&mut nodes, doc_version, plan_fp, &profile.plan, &mut idx);
    }

    /// Look up one node's accumulated stats.
    pub fn node(&self, doc_version: u64, plan_fp: u64, node_idx: u32) -> Option<NodeStats> {
        self.nodes
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(&StatsKey {
                doc_version,
                plan_fp,
                node_idx,
            })
            .cloned()
    }

    /// Total node observations recorded under `(doc_version, plan_fp)`.
    pub fn observations_for(&self, doc_version: u64, plan_fp: u64) -> u64 {
        self.nodes
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .filter(|(k, _)| k.doc_version == doc_version && k.plan_fp == plan_fp)
            .map(|(_, n)| n.observations)
            .sum()
    }

    /// Evict every node series whose document version is not in `keep`,
    /// returning how many were evicted. The server calls this on
    /// `swap_document` with the resident versions (plus the conventional
    /// version 0), so the store follows the same lifecycle as the result
    /// cache instead of growing without bound.
    pub fn retain_versions(&self, keep: &[u64]) -> usize {
        let mut nodes = self.nodes.lock().unwrap_or_else(|e| e.into_inner());
        let before = nodes.len();
        nodes.retain(|k, _| keep.contains(&k.doc_version));
        before - nodes.len()
    }

    /// Distinct `(version, fingerprint, node)` series recorded.
    pub fn len(&self) -> usize {
        self.nodes.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total node observations across all series.
    pub fn observations(&self) -> u64 {
        self.nodes
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .values()
            .map(|n| n.observations)
            .sum()
    }

    /// Node series that have seen at least one ≥4× misprediction.
    pub fn mispredicted_nodes(&self) -> u64 {
        self.nodes
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .values()
            .filter(|n| n.mispredicts > 0)
            .count() as u64
    }

    /// Compact rollup (the `"stats_store"` object of the `METRICS`
    /// schema).
    pub fn summary_json(&self) -> Json {
        Json::obj(vec![
            ("entries", Json::Num(self.len() as f64)),
            ("observations", Json::Num(self.observations() as f64)),
            (
                "mispredicted_nodes",
                Json::Num(self.mispredicted_nodes() as f64),
            ),
        ])
    }

    /// Full dump: every node series, deterministically ordered by key.
    pub fn to_json(&self) -> Json {
        let mut nodes: Vec<(StatsKey, NodeStats)> = self
            .nodes
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(k, v)| (*k, v.clone()))
            .collect();
        nodes.sort_by_key(|(k, _)| (k.doc_version, k.plan_fp, k.node_idx));
        Json::obj(vec![(
            "nodes",
            Json::Arr(nodes.iter().map(|(k, n)| n.to_json(k)).collect()),
        )])
    }
}

fn record_node(
    nodes: &mut HashMap<StatsKey, NodeStats>,
    doc_version: u64,
    plan_fp: u64,
    prof: &PlanNodeProfile,
    idx: &mut u32,
) {
    let key = StatsKey {
        doc_version,
        plan_fp,
        node_idx: *idx,
    };
    *idx += 1;
    let entry = nodes.entry(key).or_insert_with(|| NodeStats {
        op: prof.op.clone(),
        observations: 0,
        est_rows: prof.est_rows,
        last_actual_rows: 0,
        total_actual_rows: 0,
        min_actual_rows: u64::MAX,
        max_actual_rows: 0,
        mispredicts: 0,
    });
    entry.observations += 1;
    entry.est_rows = prof.est_rows;
    entry.last_actual_rows = prof.actual_rows;
    entry.total_actual_rows += prof.actual_rows;
    entry.min_actual_rows = entry.min_actual_rows.min(prof.actual_rows);
    entry.max_actual_rows = entry.max_actual_rows.max(prof.actual_rows);
    if prof.mispredicted {
        entry.mispredicts += 1;
    }
    for child in &prof.children {
        record_node(nodes, doc_version, plan_fp, child, idx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::ExecMetrics;

    fn leaf(op: &str, est: f64, actual: u64, mispredicted: bool) -> PlanNodeProfile {
        PlanNodeProfile {
            op: op.to_string(),
            est_cost: 1.0,
            est_rows: est,
            actual_rows: actual,
            time_ns: 10,
            metrics: ExecMetrics::default(),
            mispredicted,
            children: Vec::new(),
        }
    }

    fn profile(plan: PlanNodeProfile) -> QueryProfile {
        QueryProfile {
            query: "//a".to_string(),
            phases: Vec::new(),
            plan,
            cache: None,
            streamed: None,
            total_ns: 100,
        }
    }

    #[test]
    fn records_nodes_preorder_and_accumulates() {
        let store = StatsStore::new();
        let mut root = leaf("join", 100.0, 10, false);
        root.children.push(leaf("scan-a", 50.0, 400, true));
        root.children.push(leaf("scan-b", 8.0, 9, false));
        store.record_profile(7, 0xfeed, &profile(root.clone()));
        store.record_profile(7, 0xfeed, &profile(root));

        assert_eq!(store.len(), 3);
        assert_eq!(store.observations(), 6);
        assert_eq!(store.mispredicted_nodes(), 1);
        let scan_a = store.node(7, 0xfeed, 1).expect("pre-order idx 1");
        assert_eq!(scan_a.op, "scan-a");
        assert_eq!(scan_a.observations, 2);
        assert_eq!(scan_a.last_actual_rows, 400);
        assert_eq!(scan_a.mispredicts, 2);
        assert_eq!(scan_a.mean_actual_rows(), 400.0);
        assert_eq!(store.node(7, 0xfeed, 2).unwrap().op, "scan-b");
        assert!(store.node(8, 0xfeed, 0).is_none());
    }

    #[test]
    fn per_fingerprint_rollups_filter_by_key() {
        let store = StatsStore::new();
        let mut root = leaf("join", 100.0, 10, false);
        root.children.push(leaf("scan-a", 50.0, 400, true));
        root.children.push(leaf("scan-b", 8.0, 9, false));
        store.record_profile(7, 0xfeed, &profile(root.clone()));
        store.record_profile(8, 0xfeed, &profile(root));

        assert_eq!(store.observations_for(7, 0xfeed), 3);
        assert_eq!(store.observations_for(7, 0xdead), 0);
        assert_eq!(store.observations_for(9, 0xfeed), 0);
    }

    #[test]
    fn retain_versions_evicts_stale_document_versions() {
        let store = StatsStore::new();
        store.record_profile(0, 0xa, &profile(leaf("scan", 1.0, 1, false)));
        store.record_profile(3, 0xa, &profile(leaf("scan", 1.0, 1, false)));
        store.record_profile(4, 0xa, &profile(leaf("scan", 1.0, 1, false)));

        assert_eq!(store.retain_versions(&[0, 4]), 1);
        assert!(store.node(3, 0xa, 0).is_none());
        assert!(store.node(4, 0xa, 0).is_some());
        assert!(store.node(0, 0xa, 0).is_some());
    }
}
