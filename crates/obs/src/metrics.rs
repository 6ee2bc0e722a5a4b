//! Execution counters and the zero-cost metering hook.
//!
//! The physical join kernels (`algebra::stacktree`, `algebra::twig`) are
//! generic over [`Meter`]; the default [`NoMeter`] instantiation inlines
//! every hook to nothing, so the unprofiled paths compile to exactly the
//! code they had before instrumentation. When profiling is on, the
//! evaluator passes an [`ExecMetrics`] and the same kernels count
//! comparisons and high-water marks.

/// Per-operator execution counters, accumulated during one operator's
/// evaluation.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ExecMetrics {
    /// Structural/value comparison tests performed (axis tests in the
    /// join kernels, predicate evaluations in value joins).
    pub comparisons: u64,
    /// High-water mark of the ancestor stack (StackTree) or open-entry
    /// chain (TwigStack).
    pub stack_high_water: u64,
    /// High-water mark of the per-node solution lists of the holistic
    /// twig operator (total entries resident across all pattern nodes).
    pub solutions_high_water: u64,
    /// Times a `TwigJoin` fell back to the binary cascade: a shape the
    /// holistic merge does not cover (a step off an ID inside a nested
    /// collection, or two steps off different ID columns of one input).
    pub twig_fallbacks: u64,
    /// Stream elements the join kernels' seeks jumped over (never
    /// touched by the merge).
    pub elements_skipped: u64,
    /// Fence blocks a seek cleared whole without scanning them.
    pub blocks_pruned: u64,
    /// Summary-compatible stream partitions actually opened by scans.
    pub partitions_opened: u64,
    /// Total stream partitions the same scans could have opened.
    pub partitions_total: u64,
    /// Lane-wide column blocks examined by the range kernels
    /// (`algebra::simd`).
    pub batches_scanned: u64,
    /// Element comparisons issued by the vectorized range kernels
    /// (whole blocks at a time, so this counts lanes, not branches).
    pub vector_compares: u64,
}

impl ExecMetrics {
    /// Fold another operator's counters into this one.
    pub fn absorb(&mut self, other: &ExecMetrics) {
        self.comparisons += other.comparisons;
        self.stack_high_water = self.stack_high_water.max(other.stack_high_water);
        self.solutions_high_water = self.solutions_high_water.max(other.solutions_high_water);
        self.twig_fallbacks += other.twig_fallbacks;
        self.elements_skipped += other.elements_skipped;
        self.blocks_pruned += other.blocks_pruned;
        self.partitions_opened += other.partitions_opened;
        self.partitions_total += other.partitions_total;
        self.batches_scanned += other.batches_scanned;
        self.vector_compares += other.vector_compares;
    }

    pub fn is_zero(&self) -> bool {
        *self == ExecMetrics::default()
    }
}

/// Counting hook the join kernels are generic over. Every method has an
/// empty default body so [`NoMeter`] monomorphizes to nothing.
pub trait Meter {
    /// `n` comparison tests were performed.
    #[inline(always)]
    fn comparisons(&mut self, _n: u64) {}
    /// The kernel's stack/open-chain reached depth `d`.
    #[inline(always)]
    fn stack_depth(&mut self, _d: usize) {}
    /// The kernel's solution lists currently hold `n` entries.
    #[inline(always)]
    fn solutions(&mut self, _n: usize) {}
    /// A notable execution event (e.g. a fallback) occurred.
    #[inline(always)]
    fn note_fallback(&mut self) {}
    /// A seek jumped over `n` stream elements without touching them.
    #[inline(always)]
    fn skipped(&mut self, _n: u64) {}
    /// A seek stepped over `n` fence blocks without descending.
    #[inline(always)]
    fn blocks_pruned(&mut self, _n: u64) {}
    /// A partitioned scan opened `opened` of `total` stream partitions.
    #[inline(always)]
    fn partitions(&mut self, _opened: u64, _total: u64) {}
    /// A vectorized kernel examined `n` lane-wide column blocks.
    #[inline(always)]
    fn batches(&mut self, _n: u64) {}
    /// A vectorized kernel issued `n` element comparisons.
    #[inline(always)]
    fn vector_compares(&mut self, _n: u64) {}
}

/// The free instantiation: counts nothing, costs nothing.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoMeter;

impl Meter for NoMeter {}

impl Meter for ExecMetrics {
    #[inline]
    fn comparisons(&mut self, n: u64) {
        self.comparisons += n;
    }
    #[inline]
    fn stack_depth(&mut self, d: usize) {
        if d as u64 > self.stack_high_water {
            self.stack_high_water = d as u64;
        }
    }
    #[inline]
    fn solutions(&mut self, n: usize) {
        if n as u64 > self.solutions_high_water {
            self.solutions_high_water = n as u64;
        }
    }
    #[inline]
    fn note_fallback(&mut self) {
        self.twig_fallbacks += 1;
    }
    #[inline]
    fn skipped(&mut self, n: u64) {
        self.elements_skipped += n;
    }
    #[inline]
    fn blocks_pruned(&mut self, n: u64) {
        self.blocks_pruned += n;
    }
    #[inline]
    fn partitions(&mut self, opened: u64, total: u64) {
        self.partitions_opened += opened;
        self.partitions_total += total;
    }
    #[inline]
    fn batches(&mut self, n: u64) {
        self.batches_scanned += n;
    }
    #[inline]
    fn vector_compares(&mut self, n: u64) {
        self.vector_compares += n;
    }
}

/// Snapshot of a shared cache's effectiveness counters, with per-map
/// occupancy. A dependency-free mirror of the containment crate's
/// `CacheStats` so profiles can embed it without a layering cycle.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheCounters {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    /// Verdict-map entries resident.
    pub verdict_entries: usize,
    /// Canonical-model-map entries resident.
    pub model_entries: usize,
    /// Path-annotation-map entries resident.
    pub annotation_entries: usize,
}

impl CacheCounters {
    pub fn entries(&self) -> usize {
        self.verdict_entries + self.model_entries + self.annotation_entries
    }

    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Effectiveness counters of a *result* cache (the serving layer's
/// memo of serialized query outputs keyed by
/// `(plan fingerprint, document version)`). Dependency-free here so
/// session profiles can embed it without a layering cycle, exactly like
/// [`CacheCounters`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ResultCacheCounters {
    /// Requests answered straight from the cache.
    pub hits: u64,
    /// Requests that had to execute their plan.
    pub misses: u64,
    /// Entries written after a miss.
    pub insertions: u64,
    /// Entries displaced by capacity pressure.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
}

impl ResultCacheCounters {
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exec_metrics_absorb_takes_max_of_high_waters() {
        let mut a = ExecMetrics {
            comparisons: 10,
            stack_high_water: 3,
            solutions_high_water: 100,
            twig_fallbacks: 0,
            elements_skipped: 40,
            blocks_pruned: 2,
            partitions_opened: 1,
            partitions_total: 4,
            batches_scanned: 8,
            vector_compares: 512,
        };
        let b = ExecMetrics {
            comparisons: 5,
            stack_high_water: 7,
            solutions_high_water: 50,
            twig_fallbacks: 1,
            elements_skipped: 60,
            blocks_pruned: 3,
            partitions_opened: 2,
            partitions_total: 6,
            batches_scanned: 2,
            vector_compares: 128,
        };
        a.absorb(&b);
        assert_eq!(a.comparisons, 15);
        assert_eq!(a.stack_high_water, 7);
        assert_eq!(a.solutions_high_water, 100);
        assert_eq!(a.twig_fallbacks, 1);
        assert_eq!(a.elements_skipped, 100);
        assert_eq!(a.blocks_pruned, 5);
        assert_eq!(a.partitions_opened, 3);
        assert_eq!(a.partitions_total, 10);
        assert_eq!(a.batches_scanned, 10);
        assert_eq!(a.vector_compares, 640);
        assert!(!a.is_zero());
        assert!(ExecMetrics::default().is_zero());
    }

    #[test]
    fn meter_impl_counts_and_no_meter_compiles_away() {
        fn kernel<M: Meter>(m: &mut M) {
            m.comparisons(3);
            m.stack_depth(4);
            m.stack_depth(2);
            m.solutions(9);
            m.note_fallback();
            m.skipped(11);
            m.blocks_pruned(2);
            m.partitions(1, 5);
            m.batches(3);
            m.vector_compares(192);
        }
        let mut m = ExecMetrics::default();
        kernel(&mut m);
        assert_eq!(m.comparisons, 3);
        assert_eq!(m.stack_high_water, 4);
        assert_eq!(m.solutions_high_water, 9);
        assert_eq!(m.twig_fallbacks, 1);
        assert_eq!(m.elements_skipped, 11);
        assert_eq!(m.blocks_pruned, 2);
        assert_eq!(m.partitions_opened, 1);
        assert_eq!(m.partitions_total, 5);
        assert_eq!(m.batches_scanned, 3);
        assert_eq!(m.vector_compares, 192);
        kernel(&mut NoMeter); // must simply compile and do nothing
    }

    #[test]
    fn cache_counters_totals() {
        let c = CacheCounters {
            hits: 3,
            misses: 1,
            evictions: 0,
            verdict_entries: 5,
            model_entries: 2,
            annotation_entries: 1,
        };
        assert_eq!(c.entries(), 8);
        assert!((c.hit_rate() - 0.75).abs() < 1e-9);
        assert_eq!(CacheCounters::default().hit_rate(), 0.0);
    }
}
