//! What a run collects and how the named metrics are computed from it.
//!
//! The statistics rules live here: a *kind* (one query through one
//! executor, or one document) is sampled once per round; its value is
//! the mean of the best third of its samples ([`best_third`]); suite
//! metrics are the geometric mean, the maximum or the sum of per-kind
//! values, never a pooled percentile over different kinds.

use std::collections::BTreeMap;

use uload::Json;

use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats::{best_third, geomean, median, quartile_spread, tail_percentile};

/// Fewest samples a gated per-kind median may rest on.
pub const MIN_SAMPLES: usize = 9;
/// `harness.calib_ms` quartile spread above which a run is labelled unstable.
const UNSTABLE_CALIB_SPREAD: f64 = 0.15;

/// Per-layer numbers of a traced run. Timings are summed over one
/// *pass* (a suite pass, or a load) and reported as the median across
/// passes; counts are set once.
#[derive(Default)]
pub struct Layers {
    current: BTreeMap<&'static str, f64>,
    passes: BTreeMap<&'static str, Vec<f64>>,
    fixed: BTreeMap<&'static str, f64>,
}

impl Layers {
    /// Add `amount` to `name`'s sum for the pass in progress.
    pub fn add(&mut self, name: &'static str, amount: f64) {
        *self.current.entry(name).or_insert(0.0) += amount;
    }

    /// Close the pass in progress: every sum becomes one sample.
    pub fn end_pass(&mut self) {
        for (name, sum) in std::mem::take(&mut self.current) {
            self.passes.entry(name).or_default().push(sum);
        }
    }

    /// `name`'s sum so far in the pass in progress.
    pub fn current(&self, name: &str) -> f64 {
        self.current.get(name).copied().unwrap_or(0.0)
    }

    /// Record one sample of `name` directly.
    pub fn sample(&mut self, name: &'static str, value: f64) {
        self.passes.entry(name).or_default().push(value);
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.fixed.insert(name, value);
    }

    pub fn max(&mut self, name: &'static str, value: f64) {
        let e = self.fixed.entry(name).or_insert(value);
        *e = e.max(value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.fixed
            .get(name)
            .copied()
            .or_else(|| self.passes.get(name).map(|v| median(v)))
    }

    pub fn samples(&self, name: &str) -> usize {
        self.passes.get(name).map_or(0, Vec::len)
    }
}

/// Everything one run of one workload measured.
#[derive(Default)]
pub struct Samples {
    /// Input-generation wall times, one per repetition.
    pub setup_s: Vec<f64>,
    /// Load wall times per document.
    pub load_s: BTreeMap<String, Vec<f64>>,
    /// Planning wall times per query.
    pub plan_ms: BTreeMap<String, Vec<f64>>,
    /// Full-answer latencies per kind.
    pub query_ms: BTreeMap<String, Vec<f64>>,
    /// Time to the first batch per streamed kind.
    pub first_batch_ms: BTreeMap<String, Vec<f64>>,
    /// Checked operations per second, one value per round.
    pub round_qps: Vec<f64>,
    /// Process CPU per operation of the measured query phase, one value
    /// per round.
    pub round_cpu_ms: Vec<f64>,
    pub calib_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub rounds: usize,
    pub layers: Layers,
    /// `(key, value)` lines printed as `info`, ungated.
    pub info: Vec<(String, String)>,
    /// Failure descriptions (first few are printed).
    pub failures: Vec<String>,
}

impl Samples {
    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.info.push((key.to_string(), value.to_string()));
    }

    /// Count one checked operation; `problem` describes why it failed.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(problem());
            }
        }
    }

    pub fn push(map: &mut BTreeMap<String, Vec<f64>>, kind: &str, value: f64) {
        map.entry(kind.to_string()).or_default().push(value);
    }

    /// Merge another collector's samples in (a second client's).
    pub fn absorb(&mut self, other: Samples) {
        for (mine, theirs) in [
            (&mut self.load_s, other.load_s),
            (&mut self.plan_ms, other.plan_ms),
            (&mut self.query_ms, other.query_ms),
            (&mut self.first_batch_ms, other.first_batch_ms),
        ] {
            for (k, v) in theirs {
                mine.entry(k).or_default().extend(v);
            }
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
    }
}

/// `(kind, value, samples)` per kind of a latency map.
fn per_kind(map: &BTreeMap<String, Vec<f64>>) -> Vec<(&str, f64, usize)> {
    map.iter()
        .map(|(k, v)| (k.as_str(), best_third(v, true), v.len()))
        .collect()
}

/// One computed metric with what `--selfcheck` needs to judge it.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Fewest samples behind any per-kind value it is built from.
    pub min_samples: usize,
    pub detail: String,
}

/// The nine end-to-end metrics of a run.
pub fn end_to_end(s: &Samples) -> Vec<Metric> {
    let kinds = per_kind(&s.query_ms);
    let plans = per_kind(&s.plan_ms);
    let firsts = per_kind(&s.first_batch_ms);
    let loads = per_kind(&s.load_s);
    let values = |m: &[(&str, f64, usize)]| m.iter().map(|x| x.1).collect::<Vec<_>>();
    let fewest = |m: &[(&str, f64, usize)]| m.iter().map(|x| x.2).min().unwrap_or(0);
    let slowest = kinds
        .iter()
        .copied()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .unwrap_or(("none", f64::NAN, 0));
    let unit = |name: &str| {
        END_TO_END
            .iter()
            .find(|m| m.0 == name)
            .expect("named metric")
            .1
    };
    let metric = |name: &'static str, value: f64, min_samples: usize, detail: String| Metric {
        name,
        unit: unit(name),
        value,
        min_samples,
        detail,
    };
    vec![
        metric(
            "setup_s",
            median(&s.setup_s),
            s.setup_s.len(),
            format!("median of {} set-ups", s.setup_s.len()),
        ),
        metric(
            "load_s",
            values(&loads).iter().sum(),
            fewest(&loads),
            format!("sum over {} document(s)", loads.len()),
        ),
        metric(
            "plan_ms_geomean",
            geomean(&values(&plans)),
            fewest(&plans),
            format!("geomean over {} queries", plans.len()),
        ),
        metric(
            "query_ms_geomean",
            geomean(&values(&kinds)),
            fewest(&kinds),
            format!("geomean over {} kinds", kinds.len()),
        ),
        metric(
            "slowest_query_ms",
            slowest.1,
            slowest.2,
            format!("kind {}", slowest.0),
        ),
        metric(
            "first_batch_ms_geomean",
            geomean(&values(&firsts)),
            fewest(&firsts),
            format!("geomean over {} streamed kinds", firsts.len()),
        ),
        metric(
            "queries_per_s",
            best_third(&s.round_qps, false),
            s.round_qps.len(),
            format!("best third of {} rounds", s.round_qps.len()),
        ),
        metric(
            "query_cpu_ms",
            best_third(&s.round_cpu_ms, true),
            s.round_cpu_ms.len(),
            format!("best third of {} rounds", s.round_cpu_ms.len()),
        ),
        metric(
            "peak_rss_mb",
            crate::sys::peak_rss_mb(),
            1,
            "VmHWM at exit".to_string(),
        ),
    ]
}

/// The per-layer metrics of a traced run: every name, 0 where the
/// workload's path does not cross the layer.
pub fn per_layer(s: &Samples) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            unit,
            value: s.layers.get(name).unwrap_or(0.0),
            min_samples: s.layers.samples(name),
            detail: String::new(),
        })
        .collect()
}

/// `true` when the calibration kernel's quartile spread says the
/// machine was too noisy for this run's timings to be trusted.
pub fn unstable(s: &Samples) -> bool {
    s.calib_ms.len() >= 4 && quartile_spread(&s.calib_ms) > UNSTABLE_CALIB_SPREAD
}

/// Pooled-latency `info` lines: ungated by design (a pooled percentile
/// over different kinds is bimodal and flips between runs).
pub fn pooled_info(s: &Samples) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for (label, map) in [
        ("query_ms", &s.query_ms),
        ("first_batch_ms", &s.first_batch_ms),
    ] {
        let pooled: Vec<f64> = map.values().flatten().copied().collect();
        if pooled.is_empty() {
            continue;
        }
        let mut line = format!("p50={:.4} n={}", median(&pooled), pooled.len());
        if let Some((p, v)) = tail_percentile(&pooled) {
            line.push_str(&format!(" p{p:.1}={v:.4}"));
        }
        out.push((format!("pooled_{label}"), line));
    }
    out
}

/// The one JSON object the driver reads from the last line of stdout.
pub fn result_line(s: &Samples, metrics: &[Metric]) -> Json {
    Json::obj(vec![
        ("correct", Json::Bool(s.failed == 0)),
        ("attempted", Json::Num(s.attempted as f64)),
        ("failed", Json::Num(s.failed as f64)),
        (
            "metrics",
            Json::Obj(
                metrics
                    .iter()
                    .map(|m| {
                        (
                            m.name.to_string(),
                            Json::obj(vec![
                                ("value", Json::Num(m.value)),
                                ("unit", Json::Str(m.unit.to_string())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Every raw sample of a run, for the report file: what the metrics
/// were computed from, so an estimator can be re-examined offline.
pub fn raw_samples(s: &Samples) -> Json {
    let list = |v: &[f64]| Json::Arr(v.iter().map(|&x| Json::Num(x)).collect());
    let map = |m: &BTreeMap<String, Vec<f64>>| {
        Json::Obj(m.iter().map(|(k, v)| (k.clone(), list(v))).collect())
    };
    Json::obj(vec![
        ("setup_s", list(&s.setup_s)),
        ("load_s", map(&s.load_s)),
        ("plan_ms", map(&s.plan_ms)),
        ("query_ms", map(&s.query_ms)),
        ("first_batch_ms", map(&s.first_batch_ms)),
        ("round_qps", list(&s.round_qps)),
        ("round_cpu_ms", list(&s.round_cpu_ms)),
        ("calib_ms", list(&s.calib_ms)),
    ])
}
