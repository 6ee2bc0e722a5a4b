//! Columnar ID layout and branch-free range kernels — the one stream
//! layout the structural-join kernels read.
//!
//! Walking `(StructuralId, payload)` structs costs a dependent load plus
//! an unpredictable branch per advance. [`IdColumns`] stores a stream as
//! separate `pre` / `post` / `depth` columns (structure of arrays) with
//! per-block `max_post` fences, and the kernels in this module answer
//! the two questions the join loops actually ask in bulk:
//!
//! * *where does the next interesting element start?* —
//!   [`IdColumns::seek_pre_gt`] gallops over the sorted `pre` column,
//!   [`IdColumns::seek_past`] additionally steps `max_post` fences;
//! * *how long is the run I can process without a stack transition?* —
//!   [`IdColumns::leading_run`] counts leading elements inside a
//!   containment window `pre < p ∧ post < q` a whole block at a time.
//!
//! The free functions ([`find_first_ge`], [`find_first_gt`],
//! [`count_leading_lt`], [`count_leading_lt2`]) are the raw loops over
//! bare `u32` columns, written as chunked reductions with no
//! data-dependent branches inside a block so LLVM autovectorizes them
//! (`cnt += (x < bound) as usize` folds compile to SIMD compares +
//! horizontal adds on any target with vector units; there is no
//! arch-specific intrinsic code here).
//!
//! Soundness under duplicates: streams are only *non-strictly*
//! pre-sorted (multi-tuple join inputs repeat IDs — the PR 5 lesson),
//! so every seek bound in this module is phrased as `pre > bound` /
//! count-of-`pre <= bound`, never `bound + 1` arithmetic, and the
//! fences bound whole blocks inclusively.

use obs::Meter;
use xmltree::StructuralId;

/// The default fence block size (elements per `max_post` fence).
pub const DEFAULT_BLOCK: usize = 64;

/// Lanes per chunk of the free-function reduction loops. 64 `u32`s span
/// 4–8 cache lines and give the compiler a full vector register's worth
/// of independent compares per step on every current ISA.
pub const LANE: usize = 64;

/// First fold width of the adaptive member kernels
/// ([`IdColumns::leading_run`], [`IdColumns::seek_pre_gt`]). Dense
/// merges interleave the streams, so the typical run/advance is a
/// handful of elements: a full [`LANE`]-wide fold there costs more than
/// the scalar steps it replaces. The kernels therefore open with one
/// narrow fold and double the width while full chunks keep passing —
/// short runs pay ~16 fused compares, long runs still reach full-width
/// batches after two doublings.
pub const SEED_LANE: usize = 16;

/// First index `i >= from` with `col[i] >= bound`, or `col.len()`.
/// Requires `col[from..]` sorted ascending (the count of `< bound`
/// elements inside a block *is* the offset of the first hit).
#[inline]
pub fn find_first_ge(col: &[u32], from: usize, bound: u32) -> usize {
    debug_assert!(col[from.min(col.len())..].windows(2).all(|w| w[0] <= w[1]));
    let mut i = from.min(col.len());
    while i < col.len() {
        let end = (i + LANE).min(col.len());
        let width = end - i;
        let below: usize = col[i..end].iter().map(|&x| (x < bound) as usize).sum();
        if below < width {
            return i + below;
        }
        i = end;
    }
    col.len()
}

/// First index `i >= from` with `col[i] > bound`, or `col.len()`.
/// Requires `col[from..]` sorted ascending.
#[inline]
pub fn find_first_gt(col: &[u32], from: usize, bound: u32) -> usize {
    if bound == u32::MAX {
        return col.len();
    }
    find_first_ge(col, from, bound + 1)
}

/// Length of the longest prefix of `col[from..]` with every element
/// `< bound`. No sortedness requirement: the per-chunk fold carries a
/// sticky all-below flag (`ok &= x < bound; run += ok`), which is still
/// branch-free inside the chunk.
#[inline]
pub fn count_leading_lt(col: &[u32], from: usize, bound: u32) -> usize {
    let mut i = from.min(col.len());
    let start = i;
    while i < col.len() {
        let end = (i + LANE).min(col.len());
        let mut ok = 1usize;
        let mut run = 0usize;
        for &x in &col[i..end] {
            ok &= (x < bound) as usize;
            run += ok;
        }
        i += run;
        if run < end - (i - run) {
            break;
        }
    }
    i - start
}

/// Length of the longest prefix of the paired columns starting at `from`
/// with `a[i] < a_bound && b[i] < b_bound` — the two-sided containment
/// window test (`pre` below the next boundary, `post` inside the open
/// ancestor). Same sticky-flag fold as [`count_leading_lt`].
#[inline]
pub fn count_leading_lt2(a: &[u32], b: &[u32], from: usize, a_bound: u32, b_bound: u32) -> usize {
    debug_assert_eq!(a.len(), b.len());
    let mut i = from.min(a.len());
    let start = i;
    while i < a.len() {
        let end = (i + LANE).min(a.len());
        let mut ok = 1usize;
        let mut run = 0usize;
        for (&x, &y) in a[i..end].iter().zip(&b[i..end]) {
            ok &= ((x < a_bound) & (y < b_bound)) as usize;
            run += ok;
        }
        i += run;
        if run < end - (i - run) {
            break;
        }
    }
    i - start
}

/// A pre-sorted ID stream in structure-of-arrays layout: separate
/// `pre`/`post`/`depth` columns plus an optional payload column, with a
/// `max_post` fence per block of `block` elements (a `min_pre` fence
/// would be redundant — `pre` is sorted, so a block's minimum is its
/// first element).
///
/// The payload column is elided for identity payloads (the storage
/// layer's plain columns, where payload `i` is position `i`), so the
/// resident cost there is exactly the 10 packed bytes per element of
/// the three ID components.
#[derive(Debug, Clone, Default)]
pub struct IdColumns {
    pre: Vec<u32>,
    post: Vec<u32>,
    depth: Vec<u16>,
    /// Empty ⇒ identity (payload of element `i` is `i`).
    payload: Vec<u32>,
    block: usize,
    /// `fence_max_post[b]` bounds every `post` in block `b`.
    fence_max_post: Vec<u32>,
}

impl IdColumns {
    /// Pack a plain pre-sorted stream with the default block size;
    /// payloads are the element positions.
    pub fn from_sids(stream: &[StructuralId]) -> IdColumns {
        IdColumns::from_sids_with_block(stream, DEFAULT_BLOCK)
    }

    /// [`IdColumns::from_sids`] with an explicit fence block size
    /// (clamped to ≥ 1); exposed so tests can exercise degenerate
    /// layouts.
    pub fn from_sids_with_block(stream: &[StructuralId], block: usize) -> IdColumns {
        IdColumns::packed(stream.iter().copied(), block)
    }

    /// Pack a pre-sorted `(id, payload)` stream. Payloads are `u32` in
    /// the signature as in the column, so packing cannot fail: whoever
    /// numbers the rows checks once that there are fewer than 2³² of
    /// them (the evaluator answers `EvalError::TooManyRows` otherwise).
    pub fn from_pairs(stream: &[(StructuralId, u32)], block: usize) -> IdColumns {
        let mut c = IdColumns::packed(stream.iter().map(|e| e.0), block);
        c.payload = stream.iter().map(|e| e.1).collect();
        c
    }

    fn packed(ids: impl Iterator<Item = StructuralId>, block: usize) -> IdColumns {
        let block = block.max(1);
        let (mut pre, mut post, mut depth) = (Vec::new(), Vec::new(), Vec::new());
        for sid in ids {
            pre.push(sid.pre);
            post.push(sid.post);
            depth.push(sid.depth);
        }
        debug_assert!(
            pre.windows(2).all(|w| w[0] <= w[1]),
            "stream not pre-sorted"
        );
        let fence_max_post = post
            .chunks(block)
            .map(|c| c.iter().copied().max().unwrap_or(0))
            .collect();
        IdColumns {
            pre,
            post,
            depth,
            payload: Vec::new(),
            block,
            fence_max_post,
        }
    }

    pub fn len(&self) -> usize {
        self.pre.len()
    }

    pub fn is_empty(&self) -> bool {
        self.pre.is_empty()
    }

    /// The fence block size.
    pub fn block(&self) -> usize {
        self.block
    }

    /// The packed pre-rank column (sorted ascending, non-strictly).
    pub fn pre(&self) -> &[u32] {
        &self.pre
    }

    /// The packed post-rank column (unsorted).
    pub fn post(&self) -> &[u32] {
        &self.post
    }

    /// The packed depth column.
    pub fn depth(&self) -> &[u16] {
        &self.depth
    }

    /// Reassemble element `i` as a [`StructuralId`].
    #[inline]
    pub fn sid(&self, i: usize) -> StructuralId {
        StructuralId::new(self.pre[i], self.post[i], self.depth[i])
    }

    /// Payload of element `i` (its position for storage-owned columns).
    #[inline]
    pub fn payload(&self, i: usize) -> usize {
        if self.payload.is_empty() {
            i
        } else {
            self.payload[i] as usize
        }
    }

    /// The raw payload column, `None` for identity payloads — bulk
    /// consumers hoist the identity test out of their append loops.
    #[inline]
    pub fn payloads(&self) -> Option<&[u32]> {
        if self.payload.is_empty() {
            None
        } else {
            Some(&self.payload)
        }
    }

    /// First position `>= from` with `pre > bound` — where the first
    /// possible descendant of a node with pre rank `bound` starts. One
    /// branch-free [`SEED_LANE`]-wide chunk scan for the common
    /// short advance, then an exponential gallop over the sorted column
    /// for long jumps — the selective-twig case stays `O(log distance)`,
    /// not `O(n / LANE)`.
    #[inline]
    pub fn seek_pre_gt<M: Meter>(&self, from: usize, bound: u32, meter: &mut M) -> usize {
        let n = self.pre.len();
        if from >= n {
            return n;
        }
        // scalar prologue: the dense prune path usually advances a step
        // or two — answer that without a fold
        let mut lead = from;
        while lead < n && lead < from + 2 {
            if self.pre[lead] > bound {
                meter.vector_compares((lead - from + 1) as u64);
                return lead;
            }
            lead += 1;
        }
        meter.vector_compares((lead - from) as u64);
        if lead == n {
            return n;
        }
        let chunk = (lead + SEED_LANE).min(n);
        let width = chunk - lead;
        let below: usize = self.pre[lead..chunk]
            .iter()
            .map(|&x| (x <= bound) as usize)
            .sum();
        meter.vector_compares(width as u64);
        meter.batches(1);
        let pos = if below < width {
            lead + below
        } else if chunk == n {
            n
        } else {
            // gallop: everything before `lo` is known `<= bound`
            let mut lo = chunk;
            let mut step = SEED_LANE;
            let mut probes = 0u64;
            while lo + step < n && self.pre[lo + step - 1] <= bound {
                lo += step;
                step <<= 1;
                probes += 1;
            }
            let hi = (lo + step).min(n);
            probes += (hi - lo).max(1).ilog2() as u64 + 1;
            meter.vector_compares(probes);
            lo + self.pre[lo..hi].partition_point(|&x| x <= bound)
        };
        // whole fence blocks the jump cleared without scanning them
        let cleared = (pos / self.block).saturating_sub(from / self.block + 1);
        meter.blocks_pruned(cleared as u64);
        pos
    }

    /// First position `>= from` past the anchor's whole subtree
    /// (`pre > anchor.pre && post > anchor.post`). After the sorted-pre
    /// seek, blocks whose `max_post` fence stays at or below
    /// `anchor.post` are stepped over whole.
    pub fn seek_past<M: Meter>(&self, from: usize, anchor: StructuralId, meter: &mut M) -> usize {
        let n = self.pre.len();
        let mut i = self.seek_pre_gt(from, anchor.pre, meter);
        while i < n {
            let b = i / self.block;
            if self.fence_max_post[b] <= anchor.post {
                // pre stays > anchor.pre for the whole suffix, so the
                // fence alone disqualifies the block
                meter.blocks_pruned(1);
                i = (b + 1) * self.block;
                continue;
            }
            let end = ((b + 1) * self.block).min(n);
            let run = count_leading_lt(&self.post[..end], i, anchor.post + 1);
            meter.batches(1);
            meter.vector_compares((end - i) as u64);
            i += run;
            if i < end {
                return i;
            }
        }
        n
    }

    /// Length of the leading run at `from` inside the containment
    /// window `pre < pre_bound && post < post_bound` — how many
    /// elements a kernel can consume with no stack transition. Counted
    /// with the sticky-flag fold over chunks that start [`SEED_LANE`]
    /// wide and double while full chunks keep passing (capped at the
    /// fence block size), so the short runs of interleaved dense merges
    /// pay one narrow fold instead of a whole block.
    #[inline]
    pub fn leading_run<M: Meter>(
        &self,
        from: usize,
        pre_bound: u32,
        post_bound: u32,
        meter: &mut M,
    ) -> usize {
        let n = self.pre.len();
        let mut i = from.min(n);
        let start = i;
        // scalar prologue: interleaved merges end most runs within two
        // elements — answer those with two fused compares, not a fold
        while i < n && i < start + 2 {
            if self.pre[i] < pre_bound && self.post[i] < post_bound {
                i += 1;
            } else {
                meter.vector_compares((i - start + 1) as u64);
                return i - start;
            }
        }
        meter.vector_compares((i - start) as u64);
        let cap = self.block.max(SEED_LANE);
        let mut width = SEED_LANE;
        while i < n {
            let end = (i + width).min(n);
            let mut ok = 1usize;
            let mut run = 0usize;
            for (&p, &q) in self.pre[i..end].iter().zip(&self.post[i..end]) {
                ok &= ((p < pre_bound) & (q < post_bound)) as usize;
                run += ok;
            }
            meter.batches(1);
            meter.vector_compares((end - i) as u64);
            i += run;
            if run < end - (i - run) {
                break;
            }
            width = (width * 2).min(cap);
        }
        i - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::NoMeter;
    use xmltree::{generate, NodeKind};

    fn ids(doc: &xmltree::Document, label: &str) -> Vec<StructuralId> {
        doc.nodes_with_label(label, NodeKind::Element)
            .map(|n| doc.structural_id(n))
            .collect()
    }

    #[test]
    fn find_first_matches_partition_point() {
        let mut col: Vec<u32> = (0..500u32).map(|i| i * 3 % 7 + i).collect();
        col.sort_unstable();
        for bound in [0u32, 1, 5, 100, 300, 497, 10_000, u32::MAX] {
            for from in [0usize, 1, 63, 64, 65, 250, 499, 500] {
                assert_eq!(
                    find_first_ge(&col, from, bound),
                    from + col[from..].partition_point(|&x| x < bound),
                    "ge bound={bound} from={from}"
                );
                assert_eq!(
                    find_first_gt(&col, from, bound),
                    from + col[from..].partition_point(|&x| x <= bound),
                    "gt bound={bound} from={from}"
                );
            }
        }
        assert_eq!(find_first_ge(&[], 0, 5), 0);
        assert_eq!(find_first_gt(&[1, 2], 0, u32::MAX), 2);
    }

    #[test]
    fn leading_counts_match_naive() {
        let a: Vec<u32> = (0..300u32).map(|i| (i * 37) % 101).collect();
        let b: Vec<u32> = (0..300u32).map(|i| (i * 53) % 97).collect();
        for from in [0usize, 1, 63, 64, 65, 150, 299, 300] {
            for bound in [0u32, 1, 50, 96, 200] {
                let naive = a[from.min(a.len())..]
                    .iter()
                    .take_while(|&&x| x < bound)
                    .count();
                assert_eq!(
                    count_leading_lt(&a, from, bound),
                    naive,
                    "lt from={from} bound={bound}"
                );
                let naive2 = (from.min(a.len())..a.len())
                    .take_while(|&i| a[i] < bound && b[i] < 60)
                    .count();
                assert_eq!(
                    count_leading_lt2(&a, &b, from, bound, 60),
                    naive2,
                    "lt2 from={from} bound={bound}"
                );
            }
        }
    }

    #[test]
    fn columns_roundtrip_and_seeks_match_linear() {
        let doc = generate::xmark(3, 11);
        let keywords = ids(&doc, "keyword");
        let items = ids(&doc, "item");
        for block in [1, 2, 13, 64, keywords.len() + 5] {
            let cols = IdColumns::from_sids_with_block(&keywords, block);
            assert_eq!(cols.len(), keywords.len());
            for (i, &sid) in keywords.iter().enumerate() {
                assert_eq!(cols.sid(i), sid);
                assert_eq!(cols.payload(i), i);
            }
            for anchor in items.iter().step_by(3) {
                for from in [0, 1, keywords.len() / 2, keywords.len() - 1] {
                    let lin_gt = (from..keywords.len())
                        .find(|&i| keywords[i].pre > anchor.pre)
                        .unwrap_or(keywords.len());
                    assert_eq!(
                        cols.seek_pre_gt(from, anchor.pre, &mut NoMeter),
                        lin_gt,
                        "pre_gt block={block} from={from}"
                    );
                    let lin_past = (from..keywords.len())
                        .find(|&i| keywords[i].pre > anchor.pre && keywords[i].post > anchor.post)
                        .unwrap_or(keywords.len());
                    assert_eq!(
                        cols.seek_past(from, *anchor, &mut NoMeter),
                        lin_past,
                        "past block={block} from={from}"
                    );
                }
            }
        }
    }

    #[test]
    fn seeks_match_linear_on_duplicated_streams() {
        // non-strict order with duplicates straddling block boundaries
        let doc = generate::xmark(3, 11);
        let mut keywords: Vec<StructuralId> = Vec::new();
        for (i, sid) in ids(&doc, "keyword").into_iter().enumerate() {
            for _ in 0..=(i % 3) {
                keywords.push(sid);
            }
        }
        let items = ids(&doc, "item");
        for block in [1, 2, 13, 64] {
            let cols = IdColumns::from_sids_with_block(&keywords, block);
            for anchor in items.iter().step_by(5) {
                for from in [0, 1, keywords.len() / 3, keywords.len() - 1] {
                    assert_eq!(
                        cols.seek_pre_gt(from, anchor.pre, &mut NoMeter),
                        (from..keywords.len())
                            .find(|&i| keywords[i].pre > anchor.pre)
                            .unwrap_or(keywords.len()),
                        "pre_gt block={block} from={from}"
                    );
                    assert_eq!(
                        cols.seek_past(from, *anchor, &mut NoMeter),
                        (from..keywords.len())
                            .find(|&i| {
                                keywords[i].pre > anchor.pre && keywords[i].post > anchor.post
                            })
                            .unwrap_or(keywords.len()),
                        "past block={block} from={from}"
                    );
                }
            }
        }
    }

    #[test]
    fn leading_run_matches_naive_window() {
        let doc = generate::xmark(3, 7);
        let keywords = ids(&doc, "keyword");
        let items = ids(&doc, "item");
        for block in [1, 2, 13, 64] {
            let cols = IdColumns::from_sids_with_block(&keywords, block);
            for a in items.iter().step_by(2) {
                for from in [0usize, 1, keywords.len() / 2] {
                    let naive = keywords[from..]
                        .iter()
                        .take_while(|k| k.pre < a.pre && k.post < a.post)
                        .count();
                    assert_eq!(
                        cols.leading_run(from, a.pre, a.post, &mut NoMeter),
                        naive,
                        "block={block} from={from}"
                    );
                }
            }
        }
    }

    #[test]
    fn duplicate_straddling_block_boundary_not_pruned() {
        // Join inputs may carry the same node ID in many tuples (e.g. a
        // view column), so streams are only *non-strictly* pre-sorted.
        // With block = 2 the middle block ends in the first copy of
        // pre = 3 and the next block starts with the second copy, so for
        // an anchor with pre = 2 the middle block's largest pre equals
        // `anchor.pre + 1`: a seek that bounded the block strictly by the
        // next block's first pre (the PR 5 review bug) pruned it and
        // overshot the first hit.
        let ids = vec![
            StructuralId::new(0, 10, 1),
            StructuralId::new(1, 1, 2),
            StructuralId::new(2, 4, 2),
            StructuralId::new(3, 3, 3),
            StructuralId::new(3, 3, 3), // duplicate straddles the boundary
            StructuralId::new(9, 9, 2),
        ];
        let anchor = StructuralId::new(2, 4, 2);
        for block in [1, 2, 3, 64] {
            let cols = IdColumns::from_sids_with_block(&ids, block);
            assert_eq!(
                cols.seek_pre_gt(0, anchor.pre, &mut NoMeter),
                3,
                "block={block}"
            );
            // first element outside the anchor's subtree: (9, 9)
            assert_eq!(cols.seek_past(0, anchor, &mut NoMeter), 5, "block={block}");
        }
    }

    #[test]
    fn payload_pairs_are_preserved() {
        let doc = generate::xmark(2, 7);
        let pairs: Vec<(StructuralId, u32)> = ids(&doc, "item")
            .into_iter()
            .enumerate()
            .map(|(i, s)| (s, i as u32 * 10))
            .collect();
        let cols = IdColumns::from_pairs(&pairs, 13);
        let back: Vec<(StructuralId, u32)> = (0..cols.len())
            .map(|i| (cols.sid(i), cols.payload(i) as u32))
            .collect();
        assert_eq!(back, pairs);
    }

    #[test]
    fn metered_seeks_report_batches_and_compares() {
        let doc = generate::xmark(4, 13);
        let keywords = ids(&doc, "keyword");
        let cols = IdColumns::from_sids(&keywords);
        let mut m = obs::ExecMetrics::default();
        let site = ids(&doc, "site")[0];
        // jump the whole stream: long gallop, few probes
        let pos = cols.seek_pre_gt(0, u32::MAX - 1, &mut m);
        assert_eq!(pos, keywords.len());
        assert!(m.vector_compares > 0, "{m:?}");
        assert!(m.blocks_pruned > 0, "{m:?}");
        let mut m2 = obs::ExecMetrics::default();
        let run = cols.leading_run(1, site.pre + u32::MAX / 2, site.post, &mut m2);
        assert!(run > 0);
        assert!(
            m2.batches_scanned > 0 && m2.vector_compares >= run as u64,
            "{m2:?}"
        );
    }

    #[test]
    fn empty_columns() {
        let cols = IdColumns::from_sids(&[]);
        assert!(cols.is_empty());
        assert_eq!(cols.seek_pre_gt(0, 5, &mut NoMeter), 0);
        assert_eq!(
            cols.seek_past(0, StructuralId::new(1, 1, 1), &mut NoMeter),
            0
        );
        assert_eq!(cols.leading_run(0, 10, 10, &mut NoMeter), 0);
    }
}
