//! Shared canonical-model and verdict cache.
//!
//! Containment, minimization and rewriting all revolve around the same
//! two expensive computations: enumerating canonical models `mod_S(p)`
//! and deciding verdicts `p ⊆_S q`. During rewriting the *same* query
//! pattern is checked against hundreds of candidate rewritings, and
//! minimization re-decides equivalence for overlapping contraction
//! chains — both workloads hit the same `(pattern, summary)` pairs over
//! and over. [`CanonicalCache`] memoizes three result classes across
//! those call sites, keyed by structural fingerprints so the cache is
//! shared freely between threads and engine layers:
//!
//! * containment verdicts keyed by `(p, p_rets, q, q_rets, S)`,
//! * full canonical models keyed by `(p, S)`,
//! * per-node path annotations keyed by `(p, S)`.
//!
//! Eviction is LRU over an access tick; lookups take a read lock only
//! (recency is bumped through an atomic inside the entry), so concurrent
//! workers in the parallel engine share one cache without serializing.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::fmt::{self, Write as _};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use summary::{Summary, SummaryNodeId};
use xam_core::ast::{Xam, XamNodeId};

use crate::canonical::{CanonicalTree, ModelStats};
use crate::ContainmentOutcome;

// ------------------------------------------------------------------
// fingerprints

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

fn fnv_u64(h: &mut u64, v: u64) {
    fnv(h, &v.to_le_bytes());
}

/// A `fmt::Write` sink that FNV-hashes what is written to it, so a
/// `Display` form is fingerprinted without being formatted into a
/// `String` first.
struct FnvSink(u64);

impl fmt::Write for FnvSink {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        fnv(&mut self.0, s.as_bytes());
        Ok(())
    }
}

/// Structural fingerprint of a pattern: its display form (which round-
/// trips every label, axis, edge semantics, stored attribute and value
/// formula) plus the `ordered` flag the display omits. The display form
/// is streamed into the hash, never formatted.
pub fn pattern_fingerprint(p: &Xam) -> u64 {
    let mut sink = FnvSink(0xcbf2_9ce4_8422_2325u64);
    write!(sink, "{p}").expect("hashing into a sink cannot fail");
    fnv_u64(&mut sink.0, p.ordered as u64);
    sink.0
}

/// Fingerprint of a return-node list (the rewriter aligns these
/// explicitly, so they key verdicts independently of the pattern).
pub fn rets_fingerprint(rets: &[XamNodeId]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for r in rets {
        fnv_u64(&mut h, r.0 as u64 + 1);
    }
    h
}

/// Structural fingerprint of a summary: per node its label, kind,
/// parent and incoming edge cardinality — everything containment reads.
pub fn summary_fingerprint(s: &Summary) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for n in s.all_nodes() {
        fnv(&mut h, s.label(n).as_bytes());
        fnv_u64(&mut h, s.kind(n) as u64);
        fnv_u64(&mut h, s.parent(n).map(|p| p.0 as u64 + 2).unwrap_or(1));
        fnv_u64(&mut h, s.edge_card(n) as u64);
    }
    h
}

// ------------------------------------------------------------------
// LRU map

/// A bounded map with least-recently-used eviction. Lookups only take
/// the enclosing read lock: recency is an [`AtomicU64`] bumped from a
/// shared tick counter, and eviction (a linear min-tick scan, rare
/// relative to lookups) happens under the write lock on insert.
struct LruMap<K, V> {
    map: HashMap<K, LruEntry<V>>,
    capacity: usize,
}

struct LruEntry<V> {
    value: V,
    tick: AtomicU64,
}

impl<K: Eq + Hash + Clone, V: Clone> LruMap<K, V> {
    fn new(capacity: usize) -> Self {
        LruMap {
            map: HashMap::new(),
            capacity: capacity.max(1),
        }
    }

    fn get(&self, k: &K, tick: u64) -> Option<V> {
        self.map.get(k).map(|e| {
            e.tick.store(tick, Ordering::Relaxed);
            e.value.clone()
        })
    }

    /// Insert, evicting the least-recently-used entry when full.
    /// Returns `true` if an eviction happened.
    fn insert(&mut self, k: K, v: V, tick: u64) -> bool {
        let mut evicted = false;
        if !self.map.contains_key(&k) && self.map.len() >= self.capacity {
            if let Some(victim) = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.tick.load(Ordering::Relaxed))
                .map(|(k, _)| k.clone())
            {
                self.map.remove(&victim);
                evicted = true;
            }
        }
        self.map.insert(
            k,
            LruEntry {
                value: v,
                tick: AtomicU64::new(tick),
            },
        );
        evicted
    }

    fn len(&self) -> usize {
        self.map.len()
    }
}

// ------------------------------------------------------------------
// the cache

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct VerdictKey {
    p: u64,
    p_rets: u64,
    q: u64,
    q_rets: u64,
    s: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ModelKey {
    p: u64,
    s: u64,
}

/// A point-in-time snapshot of cache effectiveness counters, with the
/// occupancy of each of the three memo maps.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    /// Entries currently resident across all three maps.
    pub entries: usize,
    /// Containment verdicts resident.
    pub verdict_entries: usize,
    /// Canonical models resident.
    pub model_entries: usize,
    /// Path-annotation vectors resident.
    pub annotation_entries: usize,
}

impl CacheStats {
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A memoized canonical model: its trees plus enumeration statistics.
type CachedModel = Arc<(Vec<CanonicalTree>, ModelStats)>;

/// The shared cache. Cheap to share by reference (all interior
/// mutability); wrap in [`Arc`] to share across owners.
pub struct CanonicalCache {
    verdicts: RwLock<LruMap<VerdictKey, ContainmentOutcome>>,
    models: RwLock<LruMap<ModelKey, CachedModel>>,
    annotations: RwLock<LruMap<ModelKey, Arc<Vec<HashSet<SummaryNodeId>>>>>,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for CanonicalCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("CanonicalCache")
            .field("entries", &s.entries)
            .field("hits", &s.hits)
            .field("misses", &s.misses)
            .field("evictions", &s.evictions)
            .finish()
    }
}

impl Default for CanonicalCache {
    fn default() -> Self {
        CanonicalCache::new(4096)
    }
}

impl CanonicalCache {
    /// A cache holding up to `capacity` verdicts. Canonical models and
    /// annotations are bulkier, so their maps are bounded at
    /// `capacity / 8` entries (at least 16).
    pub fn new(capacity: usize) -> Self {
        let heavy = (capacity / 8).max(16);
        CanonicalCache {
            verdicts: RwLock::new(LruMap::new(capacity.max(1))),
            models: RwLock::new(LruMap::new(heavy)),
            annotations: RwLock::new(LruMap::new(heavy)),
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed)
    }

    fn note(&self, hit: bool) {
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn note_eviction(&self, evicted: bool) {
        if evicted {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub fn stats(&self) -> CacheStats {
        let verdict_entries = self.verdicts.read().len();
        let model_entries = self.models.read().len();
        let annotation_entries = self.annotations.read().len();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: verdict_entries + model_entries + annotation_entries,
            verdict_entries,
            model_entries,
            annotation_entries,
        }
    }

    // -- verdicts --------------------------------------------------

    pub(crate) fn get_verdict(
        &self,
        p: u64,
        p_rets: u64,
        q: u64,
        q_rets: u64,
        s: u64,
    ) -> Option<ContainmentOutcome> {
        let key = VerdictKey {
            p,
            p_rets,
            q,
            q_rets,
            s,
        };
        let got = self.verdicts.read().get(&key, self.next_tick());
        self.note(got.is_some());
        got
    }

    pub(crate) fn put_verdict(
        &self,
        p: u64,
        p_rets: u64,
        q: u64,
        q_rets: u64,
        s: u64,
        outcome: ContainmentOutcome,
    ) {
        let key = VerdictKey {
            p,
            p_rets,
            q,
            q_rets,
            s,
        };
        let tick = self.next_tick();
        let evicted = self.verdicts.write().insert(key, outcome, tick);
        self.note_eviction(evicted);
    }

    // -- canonical models ------------------------------------------

    /// Memoized [`crate::canonical::canonical_model`]. `summary_fp` lets
    /// callers amortize the summary fingerprint; pass `None` to have it
    /// computed here.
    pub fn canonical_model(
        &self,
        p: &Xam,
        s: &Summary,
        summary_fp: Option<u64>,
    ) -> Arc<(Vec<CanonicalTree>, ModelStats)> {
        let key = ModelKey {
            p: pattern_fingerprint(p),
            s: summary_fp.unwrap_or_else(|| summary_fingerprint(s)),
        };
        if let Some(m) = self.models.read().get(&key, self.next_tick()) {
            self.note(true);
            return m;
        }
        self.note(false);
        let built = Arc::new(crate::canonical::canonical_model(p, s));
        let tick = self.next_tick();
        let evicted = self.models.write().insert(key, built.clone(), tick);
        self.note_eviction(evicted);
        built
    }

    // -- path annotations ------------------------------------------

    /// Memoized per-node path annotations of a whole pattern (indexed by
    /// XAM node index), computed in a single enumeration pass.
    pub fn path_annotations(
        &self,
        p: &Xam,
        s: &Summary,
        summary_fp: Option<u64>,
    ) -> Arc<Vec<HashSet<SummaryNodeId>>> {
        let key = ModelKey {
            p: pattern_fingerprint(p),
            s: summary_fp.unwrap_or_else(|| summary_fingerprint(s)),
        };
        if let Some(a) = self.annotations.read().get(&key, self.next_tick()) {
            self.note(true);
            return a;
        }
        self.note(false);
        let built = Arc::new(crate::canonical::path_annotations_all(p, s));
        let tick = self.next_tick();
        let evicted = self.annotations.write().insert(key, built.clone(), tick);
        self.note_eviction(evicted);
        built
    }
}

/// Hash helper for ad-hoc composite keys (used by the rewriter's memo).
pub fn hash_of(x: &impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    x.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xam_core::parse_xam;
    use xmltree::parse_document;

    fn s_of(xml: &str) -> Summary {
        Summary::of_document(&parse_document(xml).unwrap())
    }

    #[test]
    fn fingerprints_distinguish_patterns_and_summaries() {
        let p = parse_xam("//b[id:s]").unwrap();
        let q = parse_xam("//c[id:s]").unwrap();
        assert_ne!(pattern_fingerprint(&p), pattern_fingerprint(&q));
        assert_eq!(pattern_fingerprint(&p), pattern_fingerprint(&p.clone()));
        let s1 = s_of("<a><b/></a>");
        let s2 = s_of("<a><b/><c/></a>");
        assert_ne!(summary_fingerprint(&s1), summary_fingerprint(&s2));
    }

    /// Streaming the display form hashes the same bytes in the same order
    /// as formatting it first: every cache key keeps its value.
    #[test]
    fn streamed_fingerprint_equals_the_formatted_one() {
        let formatted = |p: &Xam| {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            fnv(&mut h, p.to_string().as_bytes());
            fnv_u64(&mut h, p.ordered as u64);
            h
        };
        let corpus = [
            "//b[id:s]",
            "/library{ /book[id:i]{ /@year[val=\"1999\"] } }",
            "//book[id:s,tag!]{ /title[val!], /author[id:s,val] }",
            "//item[id:s]{ /n? name[val], //n? listitem[id:s,cont] }",
            "//person[id:s]{ /? emailaddress[val], /s profile{ /@income[val>50000] } }",
            "//*[id:i!]{ //*[id:i,tag!] }",
            "//a:author[id:p]{ //x:*[val<5, val>1] }",
            "//open_auction[id:s]{ /bidder[id:s]{ /increase[id:s,val] }, /initial[id:s,val] }",
        ];
        for text in corpus {
            let mut p = parse_xam(text).unwrap();
            assert_eq!(pattern_fingerprint(&p), formatted(&p), "{text}");
            p.ordered = !p.ordered;
            assert_eq!(
                pattern_fingerprint(&p),
                formatted(&p),
                "{text} (order flipped)"
            );
        }
    }

    #[test]
    fn verdict_roundtrip_counts_hits_and_misses() {
        let cache = CanonicalCache::new(8);
        assert!(cache.get_verdict(1, 2, 3, 4, 5).is_none());
        cache.put_verdict(
            1,
            2,
            3,
            4,
            5,
            ContainmentOutcome {
                contained: true,
                trees_checked: 7,
                model_size: 7,
            },
        );
        let got = cache.get_verdict(1, 2, 3, 4, 5).unwrap();
        assert!(got.contained && got.model_size == 7);
        let s = cache.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert!(s.hit_rate() > 0.49 && s.hit_rate() < 0.51);
        assert_eq!(s.verdict_entries, 1);
        assert_eq!(s.model_entries, 0);
        assert_eq!(s.annotation_entries, 0);
        assert_eq!(s.entries, 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = CanonicalCache::new(2);
        let out = ContainmentOutcome {
            contained: false,
            trees_checked: 0,
            model_size: 0,
        };
        cache.put_verdict(1, 0, 0, 0, 0, out);
        cache.put_verdict(2, 0, 0, 0, 0, out);
        // touch 1 so 2 becomes the LRU victim
        assert!(cache.get_verdict(1, 0, 0, 0, 0).is_some());
        cache.put_verdict(3, 0, 0, 0, 0, out);
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.get_verdict(1, 0, 0, 0, 0).is_some());
        assert!(cache.get_verdict(2, 0, 0, 0, 0).is_none());
        assert!(cache.get_verdict(3, 0, 0, 0, 0).is_some());
    }

    #[test]
    fn model_cache_returns_shared_arc() {
        let s = s_of("<a><b><c/></b></a>");
        let p = parse_xam("//b[id:s]").unwrap();
        let cache = CanonicalCache::default();
        let m1 = cache.canonical_model(&p, &s, None);
        let m2 = cache.canonical_model(&p, &s, None);
        assert!(Arc::ptr_eq(&m1, &m2));
        assert_eq!(m1.1.size, m1.0.len());
        let s = cache.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.model_entries, 1);
        assert_eq!(s.verdict_entries, 0);
        assert_eq!(
            s.entries,
            s.verdict_entries + s.model_entries + s.annotation_entries
        );
    }

    #[test]
    fn annotation_cache_matches_per_node_computation() {
        let s = s_of("<a><b><e/></b><d><e/></d></a>");
        let p = parse_xam("//b{ //e[id:s] }").unwrap();
        let cache = CanonicalCache::default();
        let all = cache.path_annotations(&p, &s, None);
        for n in p.pattern_nodes() {
            let single = crate::canonical::path_annotation(&p, &s, n);
            assert_eq!(all[n.index()], single, "node {n:?}");
        }
        assert_eq!(cache.stats().annotation_entries, 1);
    }
}
