//! The versioned result cache.
//!
//! Serialized query outputs memoized under `(plan fingerprint,
//! document version)`. The fingerprint half
//! ([`rewriting::plan_fingerprint`]) makes textually different but
//! plan-equivalent queries share one entry — the `CanonicalCache`
//! already makes rewriting converge on the same plan for equivalent
//! patterns, so this cache inherits that normalization for free. The
//! version half ([`storage::DocumentVersion`]) makes invalidation
//! implicit: swapping the served document mints a fresh version, new
//! requests key under it, and stale entries age out by LRU without any
//! eviction pass.
//!
//! Entries are `Arc`-shared so a hit hands rows to the session without
//! copying; oversized results (more rows than `max_rows`) are served
//! but never cached, bounding the cache's own footprint.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use obs::ResultCacheCounters;
use parking_lot::Mutex;
use storage::DocumentVersion;

/// Cache key: `(plan fingerprint, document version)`.
pub type ResultKey = (u64, DocumentVersion);

struct Entry {
    rows: Arc<Vec<String>>,
    tick: u64,
}

/// A bounded, LRU-evicting map of memoized result rows. Capacity `0`
/// disables the cache (every lookup misses, nothing is stored).
pub struct ResultCache {
    inner: Mutex<HashMap<ResultKey, Entry>>,
    capacity: usize,
    max_rows: usize,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
}

impl ResultCache {
    /// `capacity` in entries, `max_rows` the largest result worth
    /// caching (larger ones are served uncached).
    pub fn new(capacity: usize, max_rows: usize) -> ResultCache {
        ResultCache {
            inner: Mutex::new(HashMap::new()),
            capacity,
            max_rows,
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Look a key up, bumping its recency. Counts a hit or miss.
    pub fn get(&self, key: ResultKey) -> Option<Arc<Vec<String>>> {
        if self.capacity == 0 {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let tick = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        let mut map = self.inner.lock();
        match map.get_mut(&key) {
            Some(e) => {
                e.tick = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&e.rows))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Memoize a freshly computed result (no hit/miss accounting —
    /// the preceding [`ResultCache::get`] already counted the miss).
    /// Oversized results and capacity-0 caches are no-ops.
    pub fn insert(&self, key: ResultKey, rows: Arc<Vec<String>>) {
        if self.capacity == 0 || rows.len() > self.max_rows {
            return;
        }
        let tick = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        let mut map = self.inner.lock();
        if !map.contains_key(&key) && map.len() >= self.capacity {
            if let Some(victim) = map.iter().min_by_key(|(_, e)| e.tick).map(|(k, _)| *k) {
                map.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        map.insert(key, Entry { rows, tick });
        self.insertions.fetch_add(1, Ordering::Relaxed);
    }

    /// Entries currently resident.
    pub fn entries(&self) -> usize {
        self.inner.lock().len()
    }

    /// Cache-global effectiveness counters.
    pub fn counters(&self) -> ResultCacheCounters {
        ResultCacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.entries(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use storage::DocumentHandle;

    fn rows(v: &[&str]) -> Arc<Vec<String>> {
        Arc::new(v.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn version_bump_invalidates_without_eviction() {
        let doc = || xmltree::parse_document("<a/>").unwrap();
        let h1 = DocumentHandle::new(doc());
        let c = ResultCache::new(8, 1024);
        c.insert((42, h1.version()), rows(&["<r/>"]));
        assert!(c.get((42, h1.version())).is_some());
        // replacing the document mints a new version: same fingerprint,
        // different key → miss, old entry left to age out
        let h2 = h1.reload(doc());
        assert!(c.get((42, h2.version())).is_none());
        let s = c.counters();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn lru_evicts_and_oversized_results_stay_out() {
        let h = DocumentHandle::new(xmltree::parse_document("<a/>").unwrap());
        let v = h.version();
        let c = ResultCache::new(2, 2);
        c.insert((1, v), rows(&["a"]));
        c.insert((2, v), rows(&["b"]));
        assert!(c.get((1, v)).is_some()); // bump 1's recency
        c.insert((3, v), rows(&["c"])); // evicts 2 (LRU)
        assert!(c.get((2, v)).is_none());
        assert!(c.get((1, v)).is_some() && c.get((3, v)).is_some());
        assert_eq!(c.counters().evictions, 1);
        // three rows > max_rows=2: served but not cached
        c.insert((4, v), rows(&["x", "y", "z"]));
        assert!(c.get((4, v)).is_none());
        // capacity 0 disables the cache entirely
        let off = ResultCache::new(0, 1024);
        off.insert((1, v), rows(&["a"]));
        assert!(off.get((1, v)).is_none());
        assert_eq!(off.counters().entries, 0);
    }
}
