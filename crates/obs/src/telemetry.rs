//! Server-wide telemetry: atomic counters/gauges and log-linear
//! (HDR-style) latency histograms, collected in a [`MetricsRegistry`].
//!
//! Everything here is built for the serving hot path:
//!
//! * recording is **lock-free** — counters and gauges are single
//!   `AtomicU64`s, a histogram record is one relaxed `fetch_add` into a
//!   fixed bucket array plus count/sum/min/max updates;
//! * snapshots are **mergeable** — [`HistogramSnapshot::merge`] adds
//!   bucket-wise, so per-thread (or per-process) histograms combine
//!   into one distribution without coordination while recording;
//! * quantiles are **bounded**, not exact — a log-linear bucket layout
//!   with [`SUB_BITS`] sub-buckets per octave keeps the relative bucket
//!   width ≤ 1/2^[`SUB_BITS`] (6.25%), and [`HistogramSnapshot::quantile`]
//!   reports the upper bound of the bucket holding the nearest-rank
//!   value. The true quantile always lies inside the reported bucket
//!   (property-tested in `tests/properties.rs`).
//!
//! The registry itself is a name → handle map behind a mutex; callers
//! are expected to resolve handles once (at startup) and record through
//! the returned `Arc`s, so the map lock never sits on a hot path.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::json::Json;

/// A monotonically increasing atomic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn new() -> Counter {
        Counter::default()
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A point-in-time atomic gauge. [`Gauge::inc`]/[`Gauge::dec`] must be
/// paired (the gauge is unsigned); [`Gauge::set_max`] turns it into a
/// high-water mark.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    pub fn new() -> Gauge {
        Gauge::default()
    }

    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raise the gauge to `v` if it is below it (high-water tracking).
    #[inline]
    pub fn set_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Must be paired with a preceding [`Gauge::inc`].
    #[inline]
    pub fn dec(&self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Sub-bucket resolution: 2^4 = 16 linear sub-buckets per power of two,
/// so a bucket is never wider than 1/16 (6.25%) of its value.
pub const SUB_BITS: u32 = 4;
const SUB: u64 = 1 << SUB_BITS;
/// Total bucket count covering the full `u64` range.
pub const BUCKET_COUNT: usize = (65 - SUB_BITS as usize) * SUB as usize;

/// The log-linear bucket holding `v`: values below `2^SUB_BITS` map
/// exactly, larger values are keyed by (octave, top [`SUB_BITS`]
/// mantissa bits).
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < SUB {
        v as usize
    } else {
        let e = 63 - v.leading_zeros();
        let low = ((v >> (e - SUB_BITS)) & (SUB - 1)) as usize;
        (e - SUB_BITS + 1) as usize * SUB as usize + low
    }
}

/// Inclusive `[lo, hi]` value range of bucket `i` (the inverse of
/// [`bucket_index`]: `bucket_bounds(bucket_index(v))` contains `v`).
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    let sub = SUB as usize;
    if i < sub {
        (i as u64, i as u64)
    } else {
        let block = (i / sub) as u32;
        let low = (i % sub) as u64;
        let e = block + SUB_BITS - 1;
        let width = 1u64 << (e - SUB_BITS);
        let lo = (1u64 << e) + low * width;
        (lo, lo + width.saturating_sub(1))
    }
}

/// A lock-free log-linear histogram (HDR-style): fixed atomic bucket
/// array, relaxed recording, snapshot on demand.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: Box<[AtomicU64]>,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        let buckets: Vec<AtomicU64> = (0..BUCKET_COUNT).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: buckets.into_boxed_slice(),
        }
    }

    /// Record one observation (e.g. a latency in nanoseconds).
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Record a wall-clock duration as nanoseconds.
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A consistent-enough copy for reporting (relaxed loads; counts
    /// racing with concurrent records may be off by in-flight updates,
    /// never corrupted).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// An owned, mergeable copy of a [`Histogram`]'s state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: Vec<u64>,
}

impl Default for HistogramSnapshot {
    fn default() -> HistogramSnapshot {
        HistogramSnapshot::empty()
    }
}

impl HistogramSnapshot {
    /// A snapshot with no observations (the merge identity).
    pub fn empty() -> HistogramSnapshot {
        HistogramSnapshot {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: vec![0; BUCKET_COUNT],
        }
    }

    /// Fold another snapshot into this one bucket-wise. Quantiles of the
    /// merged snapshot bound the quantiles of the combined sample
    /// exactly as tightly as a single histogram over all values would.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Nearest-rank quantile, reported as the **upper bound** of the
    /// bucket holding the rank-⌈q·n⌉ value; the true quantile lies
    /// within that bucket (≤ 6.25% below the reported value).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (_, hi) = bucket_bounds(i);
                return hi.min(self.max);
            }
        }
        self.max
    }

    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// `(lo, hi, count)` for every non-empty bucket, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                let (lo, hi) = bucket_bounds(i);
                (lo, hi, c)
            })
            .collect()
    }

    /// JSON form: summary stats, named quantiles, and the non-empty
    /// buckets (`{"lo","hi","count"}` each).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("count", Json::Num(self.count as f64)),
            ("min", Json::Num(self.min() as f64)),
            ("max", Json::Num(self.max as f64)),
            ("mean", Json::Num(self.mean())),
            ("p50", Json::Num(self.p50() as f64)),
            ("p90", Json::Num(self.p90() as f64)),
            ("p99", Json::Num(self.p99() as f64)),
            ("p999", Json::Num(self.p999() as f64)),
            (
                "buckets",
                Json::Arr(
                    self.nonzero_buckets()
                        .into_iter()
                        .map(|(lo, hi, count)| {
                            Json::obj(vec![
                                ("lo", Json::Num(lo as f64)),
                                ("hi", Json::Num(hi as f64)),
                                ("count", Json::Num(count as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// [`HistogramSnapshot::to_json`] with a leading `"name"` field (the
    /// `histogram` definition of the `METRICS` schema).
    pub fn to_named_json(&self, name: &str) -> Json {
        let mut fields = vec![("name".to_string(), Json::Str(name.to_string()))];
        if let Json::Obj(rest) = self.to_json() {
            fields.extend(rest);
        }
        Json::Obj(fields)
    }
}

/// A named collection of [`Counter`]s, [`Gauge`]s and [`Histogram`]s.
///
/// `counter`/`gauge`/`histogram` get-or-register by name and hand back
/// an `Arc` handle; resolve once, record forever — the internal maps
/// are only locked at registration and snapshot time.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl MetricsRegistry {
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Get or register the counter named `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().unwrap_or_else(|e| e.into_inner());
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// Get or register the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.gauges.lock().unwrap_or_else(|e| e.into_inner());
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// Get or register the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.histograms.lock().unwrap_or_else(|e| e.into_inner());
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// A point-in-time copy of every registered metric, names sorted.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let counters = self
            .counters
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let gauges = self
            .gauges
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        RegistrySnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// Owned copy of a [`MetricsRegistry`] at one instant.
#[derive(Debug, Clone, Default)]
pub struct RegistrySnapshot {
    /// `(name, value)`, name-sorted.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)`, name-sorted.
    pub gauges: Vec<(String, u64)>,
    /// `(name, snapshot)`, name-sorted.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl RegistrySnapshot {
    /// Find a histogram snapshot by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| s)
    }

    /// Find a counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// The `"registry"` object of the `METRICS` schema: named counter,
    /// gauge and histogram arrays.
    pub fn to_json(&self) -> Json {
        let named = |name: &str, value: u64| {
            Json::obj(vec![
                ("name", Json::Str(name.to_string())),
                ("value", Json::Num(value as f64)),
            ])
        };
        Json::obj(vec![
            (
                "counters",
                Json::Arr(self.counters.iter().map(|(n, v)| named(n, *v)).collect()),
            ),
            (
                "gauges",
                Json::Arr(self.gauges.iter().map(|(n, v)| named(n, *v)).collect()),
            ),
            (
                "histograms",
                Json::Arr(
                    self.histograms
                        .iter()
                        .map(|(n, s)| s.to_named_json(n))
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_and_bounds_invert() {
        for v in [
            0u64,
            1,
            15,
            16,
            17,
            31,
            32,
            33,
            100,
            1_000,
            65_535,
            65_536,
            1_000_000_007,
            u64::MAX / 2,
            u64::MAX,
        ] {
            let i = bucket_index(v);
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= v && v <= hi, "v={v} not in [{lo},{hi}] (bucket {i})");
            assert!(i < BUCKET_COUNT);
            // relative width ≤ 1/16 above the linear range
            if v >= SUB {
                assert!(hi - lo <= lo / SUB, "bucket {i} too wide: [{lo},{hi}]");
            }
        }
        // bucket boundaries are seamless: consecutive buckets tile the line
        for i in 0..BUCKET_COUNT - 1 {
            let (_, hi) = bucket_bounds(i);
            let (lo_next, _) = bucket_bounds(i + 1);
            assert_eq!(hi.wrapping_add(1), lo_next, "gap after bucket {i}");
        }
    }

    #[test]
    fn histogram_counts_and_quantiles_bound_the_sample() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 1000);
        assert_eq!(s.min(), 1);
        assert_eq!(s.max(), 1000);
        assert!((s.mean() - 500.5).abs() < 1e-9);
        // p50 of 1..=1000 is 500; the reported bucket upper bound must
        // cover it and stay within one bucket (6.25%) above
        let p50 = s.p50();
        assert!((500..=531).contains(&p50), "p50={p50}");
        let p999 = s.p999();
        assert!((999..=1000).contains(&p999), "p999={p999}");
        assert!(s.p50() <= s.p90() && s.p90() <= s.p99() && s.p99() <= s.p999());
    }

    #[test]
    fn snapshots_merge_bucketwise() {
        let (a, b) = (Histogram::new(), Histogram::new());
        for v in 0..100u64 {
            a.record(v);
        }
        for v in 100..200u64 {
            b.record(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        let whole = Histogram::new();
        for v in 0..200u64 {
            whole.record(v);
        }
        assert_eq!(merged, whole.snapshot());
        assert_eq!(merged.count(), 200);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count(), 0);
        assert_eq!(s.min(), 0);
        assert_eq!(s.max(), 0);
        assert_eq!(s.p50(), 0);
        assert_eq!(s.mean(), 0.0);
        assert!(s.nonzero_buckets().is_empty());
    }

    #[test]
    fn registry_returns_shared_handles_and_sorted_snapshots() {
        let r = MetricsRegistry::new();
        r.counter("b.requests").add(2);
        r.counter("a.rows").add(5);
        r.counter("b.requests").inc(); // same handle by name
        r.gauge("depth").set(3);
        r.gauge("hw").set_max(10);
        r.gauge("hw").set_max(4); // high-water keeps 10
        r.histogram("lat").record(42);
        let s = r.snapshot();
        assert_eq!(
            s.counters,
            vec![("a.rows".into(), 5), ("b.requests".into(), 3)]
        );
        assert_eq!(s.counter("b.requests"), Some(3));
        assert_eq!(s.gauges, vec![("depth".into(), 3), ("hw".into(), 10)]);
        assert_eq!(s.histogram("lat").unwrap().count(), 1);
        let json = s.to_json().to_string_compact();
        assert!(json.contains("\"histograms\""), "{json}");
        assert!(json.contains("\"p999\""), "{json}");
    }

    #[test]
    fn gauge_inc_dec_pair() {
        let g = Gauge::new();
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 1);
    }
}
