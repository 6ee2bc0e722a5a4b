//! Estimate error: one q-error histogram per operator kind.
//!
//! Every published `EXPLAIN ANALYZE` profile pairs each plan node's
//! estimated cardinality with the rows it actually produced. The ratio
//! between the two, taken the larger way round ([`q_error`]), is recorded
//! ×100 into the [`Histogram`] of the node's operator kind. The set of
//! kinds is fixed when the histograms are built, so the store is bounded
//! by construction and recording is a handful of relaxed atomic updates.
//!
//! The kinds are plain names (`obs` sits below `algebra`, so it cannot
//! name `LogicalPlan`); the engine hands in the plan's variant names.

use crate::json::Json;
use crate::telemetry::{Histogram, HistogramSnapshot};

/// The q-error of one estimate: `max(est, 1) / max(actual, 1)` or its
/// inverse, whichever is at least 1. Zero rows on either side count as
/// one, so the ratio is always finite.
pub fn q_error(est_rows: f64, actual_rows: u64) -> f64 {
    let est = est_rows.max(1.0);
    let actual = (actual_rows as f64).max(1.0);
    (est / actual).max(actual / est)
}

/// One q-error histogram per operator kind; values are q-error ×100
/// (so 100 is an exact estimate and 100,000 one off by 1,000×).
#[derive(Debug)]
pub struct QErrorHistograms {
    kinds: &'static [&'static str],
    histograms: Box<[Histogram]>,
}

impl QErrorHistograms {
    /// Empty histograms, one per name in `kinds`.
    pub fn new(kinds: &'static [&'static str]) -> QErrorHistograms {
        QErrorHistograms {
            kinds,
            histograms: kinds.iter().map(|_| Histogram::new()).collect(),
        }
    }

    /// Record one node's estimate against its actual rows under `kind`.
    /// A kind that is not in the set is not recorded.
    pub fn record(&self, kind: &str, est_rows: f64, actual_rows: u64) {
        debug_assert!(self.kinds.contains(&kind), "unknown operator kind {kind}");
        if let Some(i) = self.kinds.iter().position(|k| *k == kind) {
            // `as` saturates, so an infinite estimate lands in the top bucket
            let x100 = (q_error(est_rows, actual_rows) * 100.0).round() as u64;
            self.histograms[i].record(x100);
        }
    }

    /// A copy of every kind's histogram, in the order of `kinds`.
    pub fn snapshot(&self) -> QErrorSnapshot {
        QErrorSnapshot {
            kinds: self
                .kinds
                .iter()
                .zip(self.histograms.iter())
                .map(|(k, h)| (*k, h.snapshot()))
                .collect(),
        }
    }
}

/// An owned copy of [`QErrorHistograms`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QErrorSnapshot {
    /// `(operator kind, q-error ×100 histogram)`.
    pub kinds: Vec<(&'static str, HistogramSnapshot)>,
}

impl QErrorSnapshot {
    /// Observations across all kinds: one per profiled plan node.
    pub fn observations(&self) -> u64 {
        self.kinds.iter().map(|(_, h)| h.count()).sum()
    }

    /// The `"q_error"` object of the `METRICS` schema: the observation
    /// total and one named histogram per kind that has observations.
    pub fn to_json(&self) -> Json {
        let kinds = self
            .kinds
            .iter()
            .filter(|(_, h)| h.count() > 0)
            .map(|(k, h)| h.to_named_json(k))
            .collect();
        Json::obj(vec![
            ("observations", Json::Num(self.observations() as f64)),
            ("kinds", Json::Arr(kinds)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{bucket_bounds, bucket_index};

    const KINDS: [&str; 2] = ["Scan", "Join"];

    fn kind(h: &QErrorHistograms, name: &str) -> HistogramSnapshot {
        let s = h.snapshot();
        s.kinds.into_iter().find(|(k, _)| *k == name).unwrap().1
    }

    #[test]
    fn one_thousand_fold_miss_lands_in_the_thousand_bucket() {
        let h = QErrorHistograms::new(&KINDS);
        h.record("Scan", 1.0, 1_000);
        let buckets = kind(&h, "Scan").nonzero_buckets();
        assert_eq!(buckets.len(), 1);
        let (lo, hi, count) = buckets[0];
        assert_eq!((lo, hi), bucket_bounds(bucket_index(100_000)));
        assert_eq!(count, 1);
        // overestimates count the same as underestimates
        h.record("Scan", 1_000.0, 1);
        assert_eq!(kind(&h, "Scan").max(), 100_000);
        assert_eq!(kind(&h, "Join").count(), 0);
    }

    #[test]
    fn zero_rows_stay_finite() {
        assert_eq!(q_error(0.0, 0), 1.0);
        assert_eq!(q_error(0.0, 5), 5.0);
        assert_eq!(q_error(5.0, 0), 5.0);
        assert_eq!(q_error(0.25, 1), 1.0);
        let h = QErrorHistograms::new(&KINDS);
        h.record("Join", 0.0, 0);
        h.record("Join", f64::NAN, 0);
        assert_eq!(kind(&h, "Join").max(), 100);
        assert_eq!(h.snapshot().observations(), 2);
    }

    #[test]
    fn json_lists_the_kinds_with_observations() {
        let h = QErrorHistograms::new(&KINDS);
        h.record("Join", 10.0, 40);
        let json = h.snapshot().to_json();
        assert_eq!(json.get("observations").unwrap().as_f64(), Some(1.0));
        let kinds = json.get("kinds").unwrap().as_arr().unwrap();
        assert_eq!(kinds.len(), 1);
        assert_eq!(kinds[0].get("name").unwrap().as_str(), Some("Join"));
        assert_eq!(kinds[0].get("p50").unwrap().as_f64(), Some(400.0));
    }
}
