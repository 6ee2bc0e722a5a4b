//! The server's global metrics: one [`MetricsRegistry`] per server,
//! with every handle resolved once at startup so the request path only
//! touches lock-free atomics.
//!
//! Naming convention: `server.*` for request-path counters and
//! latency histograms, `cache.*` for result-cache traffic, `exec.*`
//! for kernel counters absorbed from metered executions. The whole
//! registry is serialized by the `METRICS` command (see
//! `schemas/metrics.schema.json`).

use std::sync::Arc;
use std::time::Duration;

use obs::{Counter, ExecMetrics, Gauge, Histogram, MetricsRegistry, RegistrySnapshot};

/// Pre-resolved handles into the server's [`MetricsRegistry`].
#[derive(Debug)]
pub struct ServerMetrics {
    registry: Arc<MetricsRegistry>,

    /// `PREPARE` planning latency.
    pub prepare_ns: Arc<Histogram>,
    /// End-to-end latency of uncached `EXEC`/`QUERY` requests.
    pub exec_uncached_ns: Arc<Histogram>,
    /// End-to-end latency of result-cache hits.
    pub exec_cached_ns: Arc<Histogram>,
    /// Time spent waiting in the admission queue.
    pub admission_wait_ns: Arc<Histogram>,

    /// Requests handled (`EXEC` + `QUERY`, every disposition).
    pub requests: Arc<Counter>,
    /// `PREPARE` commands handled.
    pub prepares: Arc<Counter>,
    /// Result rows streamed to clients.
    pub rows_streamed: Arc<Counter>,
    /// Requests that ended in `ERR` (budget aborts and admission
    /// timeouts included).
    pub errors: Arc<Counter>,
    /// Requests cancelled mid-stream.
    pub cancelled: Arc<Counter>,
    /// Requests killed by the per-query residency budget.
    pub budget_aborts: Arc<Counter>,
    /// Requests rejected because admission timed out.
    pub admission_timeouts: Arc<Counter>,
    /// Requests that crossed the slow-query threshold.
    pub slow_queries: Arc<Counter>,
    /// Result-cache hits / misses (server-wide).
    pub result_cache_hits: Arc<Counter>,
    pub result_cache_misses: Arc<Counter>,

    /// Requests currently waiting in (or holding) the admission queue.
    pub queue_depth: Arc<Gauge>,
    /// High-water mark of any single request's resident tuples.
    pub residency_high_water: Arc<Gauge>,

    /// Kernel counters absorbed from metered executions.
    pub exec_comparisons: Arc<Counter>,
    pub exec_elements_skipped: Arc<Counter>,
    pub exec_blocks_pruned: Arc<Counter>,
    pub exec_batches_scanned: Arc<Counter>,
    pub exec_vector_compares: Arc<Counter>,
    pub exec_partitions_opened: Arc<Counter>,
    pub exec_partitions_total: Arc<Counter>,
    pub exec_twig_fallbacks: Arc<Counter>,
}

impl Default for ServerMetrics {
    fn default() -> ServerMetrics {
        ServerMetrics::new()
    }
}

impl ServerMetrics {
    pub fn new() -> ServerMetrics {
        let registry = Arc::new(MetricsRegistry::new());
        ServerMetrics {
            prepare_ns: registry.histogram("server.prepare_ns"),
            exec_uncached_ns: registry.histogram("server.exec_uncached_ns"),
            exec_cached_ns: registry.histogram("server.exec_cached_ns"),
            admission_wait_ns: registry.histogram("server.admission_wait_ns"),
            requests: registry.counter("server.requests_total"),
            prepares: registry.counter("server.prepares_total"),
            rows_streamed: registry.counter("server.rows_streamed_total"),
            errors: registry.counter("server.errors_total"),
            cancelled: registry.counter("server.cancelled_total"),
            budget_aborts: registry.counter("server.budget_aborts_total"),
            admission_timeouts: registry.counter("server.admission_timeouts_total"),
            slow_queries: registry.counter("server.slow_queries_total"),
            result_cache_hits: registry.counter("cache.result_hits_total"),
            result_cache_misses: registry.counter("cache.result_misses_total"),
            queue_depth: registry.gauge("server.admission_queue_depth"),
            residency_high_water: registry.gauge("server.residency_high_water"),
            exec_comparisons: registry.counter("exec.comparisons_total"),
            exec_elements_skipped: registry.counter("exec.elements_skipped_total"),
            exec_blocks_pruned: registry.counter("exec.blocks_pruned_total"),
            exec_batches_scanned: registry.counter("exec.batches_scanned_total"),
            exec_vector_compares: registry.counter("exec.vector_compares_total"),
            exec_partitions_opened: registry.counter("exec.partitions_opened_total"),
            exec_partitions_total: registry.counter("exec.partitions_total"),
            exec_twig_fallbacks: registry.counter("exec.twig_fallbacks_total"),
            registry,
        }
    }

    /// The registry behind the handles (snapshot it for `METRICS`).
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// A point-in-time copy of every metric.
    pub fn snapshot(&self) -> RegistrySnapshot {
        self.registry.snapshot()
    }

    /// Record one uncached execution's latency.
    pub fn record_uncached(&self, latency: Duration) {
        self.exec_uncached_ns.record_duration(latency);
    }

    /// Record one result-cache hit's latency.
    pub fn record_cached(&self, latency: Duration) {
        self.exec_cached_ns.record_duration(latency);
    }

    /// Fold one metered execution's kernel counters into the `exec.*`
    /// totals.
    pub fn absorb_exec(&self, m: &ExecMetrics) {
        self.exec_comparisons.add(m.comparisons);
        self.exec_elements_skipped.add(m.elements_skipped);
        self.exec_blocks_pruned.add(m.blocks_pruned);
        self.exec_batches_scanned.add(m.batches_scanned);
        self.exec_vector_compares.add(m.vector_compares);
        self.exec_partitions_opened.add(m.partitions_opened);
        self.exec_partitions_total.add(m.partitions_total);
        self.exec_twig_fallbacks.add(m.twig_fallbacks);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_and_registry_agree() {
        let m = ServerMetrics::new();
        m.requests.inc();
        m.record_uncached(Duration::from_micros(5));
        m.record_cached(Duration::from_nanos(300));
        m.queue_depth.inc();
        let exec = ExecMetrics {
            comparisons: 7,
            batches_scanned: 3,
            ..Default::default()
        };
        m.absorb_exec(&exec);
        let snap = m.snapshot();
        assert_eq!(snap.counter("server.requests_total"), Some(1));
        assert_eq!(snap.counter("exec.comparisons_total"), Some(7));
        assert_eq!(snap.counter("exec.batches_scanned_total"), Some(3));
        assert_eq!(
            snap.histogram("server.exec_uncached_ns").unwrap().count(),
            1
        );
        assert_eq!(snap.histogram("server.exec_cached_ns").unwrap().count(), 1);
        assert!(snap
            .gauges
            .iter()
            .any(|(n, v)| n == "server.admission_queue_depth" && *v == 1));
    }
}
