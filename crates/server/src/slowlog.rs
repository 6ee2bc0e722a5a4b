//! The structured slow-query log.
//!
//! A bounded ring buffer of [`SlowQueryEntry`]s: any request whose
//! end-to-end latency crosses the configured threshold is captured with
//! its plan fingerprint, query text, latency, cache disposition and —
//! when the server re-profiles slow uncached executions — the full
//! `EXPLAIN ANALYZE` [`QueryProfile`]. Clients drain it with the
//! `SLOWLOG` protocol command; the oldest entries are dropped (and
//! counted) once the ring is full, so a storm of slow queries costs
//! bounded memory.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use obs::{Json, QueryProfile};
use parking_lot::Mutex;

/// How a captured request ended (mirrors the protocol terminator).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlowDisposition {
    /// Completed; `cached` on the entry says from which path.
    Done,
    /// Aborted mid-stream by `CANCEL` or disconnect.
    Cancelled,
    /// Killed for exceeding its per-query residency budget.
    BudgetAbort,
    /// Failed with an `ERR` (including admission timeouts).
    Failed,
}

impl SlowDisposition {
    /// The wire label (`"done"`, `"cancelled"`, `"budget_abort"`,
    /// `"failed"`).
    pub fn as_str(&self) -> &'static str {
        match self {
            SlowDisposition::Done => "done",
            SlowDisposition::Cancelled => "cancelled",
            SlowDisposition::BudgetAbort => "budget_abort",
            SlowDisposition::Failed => "failed",
        }
    }
}

/// One captured slow request.
#[derive(Debug, Clone)]
pub struct SlowQueryEntry {
    /// Session that ran it.
    pub session_id: u64,
    /// Plan fingerprint (the prepared-plan registry / result-cache key).
    pub fingerprint: u64,
    /// The query text behind the fingerprint.
    pub query: String,
    /// End-to-end latency as the session measured it.
    pub latency_ns: u64,
    /// Was this a result-cache hit?
    pub cached: bool,
    /// Rows streamed before the request ended.
    pub rows: u64,
    /// How the request ended.
    pub disposition: SlowDisposition,
    /// `EXPLAIN ANALYZE` of a follow-up profiled run of the same plan
    /// over the same document version (captured only for completed
    /// uncached executions, and only when profiling capture is on).
    pub profile: Option<QueryProfile>,
}

impl SlowQueryEntry {
    /// One `SLOWLOG` array element.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("session_id", Json::Num(self.session_id as f64)),
            ("fp", Json::Str(format!("{:016x}", self.fingerprint))),
            ("query", Json::Str(self.query.clone())),
            ("latency_ns", Json::Num(self.latency_ns as f64)),
            ("cached", Json::Bool(self.cached)),
            ("rows", Json::Num(self.rows as f64)),
            (
                "disposition",
                Json::Str(self.disposition.as_str().to_string()),
            ),
            (
                "profile",
                match &self.profile {
                    Some(p) => p.to_json(),
                    None => Json::Null,
                },
            ),
        ])
    }
}

/// The ring buffer itself. `record` is called only for requests that
/// already crossed the threshold, so the mutex is far off the fast
/// path; `drain` hands the captured entries to the client and clears.
#[derive(Debug)]
pub struct SlowLog {
    threshold: Duration,
    capacity: usize,
    entries: Mutex<VecDeque<SlowQueryEntry>>,
    recorded: AtomicU64,
    dropped: AtomicU64,
}

impl SlowLog {
    /// A log capturing requests slower than `threshold`, keeping the
    /// most recent `capacity` of them (`capacity == 0` disables
    /// capture).
    pub fn new(threshold: Duration, capacity: usize) -> SlowLog {
        SlowLog {
            threshold,
            capacity,
            entries: Mutex::new(VecDeque::new()),
            recorded: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// The capture threshold.
    pub fn threshold(&self) -> Duration {
        self.threshold
    }

    /// Ring capacity (0 = capture disabled).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Is a request of `latency` worth capturing?
    pub fn qualifies(&self, latency: Duration) -> bool {
        self.capacity > 0 && latency >= self.threshold
    }

    /// Push one entry, evicting the oldest if the ring is full.
    pub fn record(&self, entry: SlowQueryEntry) {
        if self.capacity == 0 {
            return;
        }
        self.recorded.fetch_add(1, Ordering::Relaxed);
        let mut ring = self.entries.lock();
        if ring.len() == self.capacity {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(entry);
    }

    /// Take every captured entry (oldest first), leaving the log empty.
    pub fn drain(&self) -> Vec<SlowQueryEntry> {
        self.entries.lock().drain(..).collect()
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries ever captured (drained ones included).
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Entries evicted by ring overflow (never drained).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// The `"slowlog"` object of the `METRICS` schema.
    pub fn summary_json(&self) -> Json {
        Json::obj(vec![
            ("threshold_ns", Json::Num(self.threshold.as_nanos() as f64)),
            ("capacity", Json::Num(self.capacity as f64)),
            ("len", Json::Num(self.len() as f64)),
            ("recorded", Json::Num(self.recorded() as f64)),
            ("dropped", Json::Num(self.dropped() as f64)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(fp: u64, latency_ns: u64) -> SlowQueryEntry {
        SlowQueryEntry {
            session_id: 1,
            fingerprint: fp,
            query: "//a".into(),
            latency_ns,
            cached: false,
            rows: 2,
            disposition: SlowDisposition::Done,
            profile: None,
        }
    }

    #[test]
    fn ring_evicts_oldest_and_drains_in_order() {
        let log = SlowLog::new(Duration::from_millis(10), 2);
        assert!(log.qualifies(Duration::from_millis(10)));
        assert!(!log.qualifies(Duration::from_millis(9)));
        log.record(entry(1, 100));
        log.record(entry(2, 200));
        log.record(entry(3, 300)); // evicts fp=1
        assert_eq!(log.len(), 2);
        assert_eq!(log.recorded(), 3);
        assert_eq!(log.dropped(), 1);
        let drained = log.drain();
        assert_eq!(
            drained.iter().map(|e| e.fingerprint).collect::<Vec<_>>(),
            vec![2, 3]
        );
        assert!(log.is_empty());
        assert_eq!(log.recorded(), 3, "drain does not reset the counter");
    }

    #[test]
    fn zero_capacity_disables_capture() {
        let log = SlowLog::new(Duration::ZERO, 0);
        assert!(!log.qualifies(Duration::from_secs(1)));
        log.record(entry(1, 100));
        assert!(log.is_empty());
        assert_eq!(log.recorded(), 0);
    }

    #[test]
    fn entries_serialize_with_fingerprint_and_disposition() {
        let json = entry(0xabc, 42).to_json().to_string_compact();
        assert!(json.contains("\"fp\":\"0000000000000abc\""), "{json}");
        assert!(json.contains("\"disposition\":\"done\""), "{json}");
        assert!(json.contains("\"profile\":null"), "{json}");
    }
}
