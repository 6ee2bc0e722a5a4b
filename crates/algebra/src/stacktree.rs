//! Physical structural-join algorithms (§1.2.3).
//!
//! [`stack_tree_pairs`] implements the stack-based merge of Al-Khalifa et
//! al.'s `StackTree` family: given an ancestor-candidate sequence and a
//! descendant-candidate sequence, both sorted by the pre rank of their ID
//! attribute, it produces all `(ancestor_index, descendant_index)` match
//! pairs in a single merge pass, maintaining a stack of ancestors whose
//! pre/post interval is still open.
//!
//! `StackTreeDesc` corresponds to emitting the pairs sorted by descendant
//! ID (which is how this function naturally emits them); `StackTreeAnc`
//! output order is obtained by a stable re-sort on the ancestor index —
//! the evaluator picks whichever order downstream operators need.
//! [`nested_loop_pairs`] is the naive O(|L|·|R|) oracle the merge is
//! tested against.

use obs::Meter;
use xmltree::StructuralId;

use crate::plan::Axis;
use crate::simd::IdColumns;

/// Does `anc` match `desc` on the given axis?
#[inline]
pub(crate) fn axis_match(anc: StructuralId, desc: StructuralId, axis: Axis) -> bool {
    match axis {
        Axis::Child => anc.is_parent_of(desc),
        Axis::Descendant => anc.is_ancestor_of(desc),
    }
}

/// Pop every stack entry whose pre/post interval closed before `post`:
/// the stack holds candidates with `top.pre` below the incoming node's
/// pre rank, so `top` contains the incoming node iff `top.post > post`
/// (pre and post are separate counters, so the test must compare post
/// against post, not post against pre).
#[inline]
fn pop_closed(stack: &mut Vec<(StructuralId, usize)>, post: u32) {
    while let Some(&(top, _)) = stack.last() {
        if top.post < post {
            stack.pop();
        } else {
            break;
        }
    }
}

/// Compute all structural match pairs between an ancestor-candidate and
/// a descendant-candidate stream using the StackTree merge. Both streams
/// are sorted by `pre` rank by construction of [`IdColumns`]; the pairs
/// carry the streams' opaque payloads.
///
/// Output pairs are emitted in descendant order (StackTreeDesc order) —
/// i.e. sorted by `desc` position, with the matching ancestors innermost
/// (deepest) first for each descendant.
///
/// The merge is the textbook one; the columnar layout buys two bulk
/// moves on top of it:
///
/// * **bulk emit** — when exactly one ancestor is open and the next
///   ancestor candidate starts later, every following descendant whose
///   pre rank stays below that next candidate and whose post rank stays
///   inside the open ancestor pairs with it and only it: no push, no
///   pop, no per-element stack scan. [`IdColumns::leading_run`] counts
///   the run a block at a time; the `/` axis adds a depth-column check
///   per element but still no stack traffic.
/// * **bulk skip** — a descendant that arrives with the stack empty can
///   only match ancestors still ahead, all with larger pre, so the merge
///   seeks straight to the next ancestor's pre rank with
///   [`IdColumns::seek_pre_gt`] — or drops the descendant tail once
///   ancestors are exhausted.
///
/// `meter` receives the execution counters: axis tests on the stack-scan
/// loop count as comparisons, seeks report jumped-over elements and
/// cleared fence blocks, the bulk moves `batches_scanned` /
/// `vector_compares`, and the open-ancestor stack's high-water mark is
/// recorded. With [`obs::NoMeter`] all of it compiles away.
pub fn stack_tree_pairs<M: Meter>(
    anc: &IdColumns,
    desc: &IdColumns,
    axis: Axis,
    meter: &mut M,
) -> Vec<(usize, usize)> {
    // Most workloads pair each descendant with O(1) ancestors, so the
    // smaller input is a good first-allocation guess for the output.
    let mut out = Vec::with_capacity(anc.len().min(desc.len()));
    let mut stack: Vec<(StructuralId, usize)> = Vec::with_capacity(16);
    let mut ai = 0;
    let mut di = 0;
    while di < desc.len() {
        let dpre = desc.pre()[di];
        if stack.is_empty() && !(ai < anc.len() && anc.pre()[ai] <= dpre) {
            // skipped counts exclude the element being inspected (it was
            // read to decide the seek) — the same convention as the twig
            // kernel, so `elements_skipped` is comparable across kernels
            if ai >= anc.len() {
                meter.skipped((desc.len() - di - 1) as u64);
                break;
            }
            // anc.pre()[ai] > dpre: seek to the first possible
            // descendant of that candidate (first pre above it —
            // inclusive bound, a node is not its own ancestor)
            let s = desc.seek_pre_gt(di, anc.pre()[ai], meter);
            meter.skipped((s - di - 1) as u64);
            di = s;
            continue;
        }
        // push all ancestors that start before this descendant, closing
        // the stack entries that cannot contain them
        while ai < anc.len() && anc.pre()[ai] <= dpre {
            let a = anc.sid(ai);
            pop_closed(&mut stack, a.post);
            stack.push((a, anc.payload(ai)));
            meter.stack_depth(stack.len());
            ai += 1;
        }
        // close stack entries that are not ancestors of `d`: the stack
        // is then exactly the ancestor chain of `d` among the candidates
        let d = desc.sid(di);
        pop_closed(&mut stack, d.post);
        if stack.len() == 1 && stack[0].0.pre < d.pre {
            // single open ancestor `a`, next candidate strictly ahead:
            // the whole run below both bounds pairs with `a` alone. The
            // run is non-empty — d itself qualifies (pre > a.pre by the
            // guard; post < a.post or pop_closed would have popped `a`;
            // pre < next candidate's pre since the push loop drained
            // every candidate at or below d.pre).
            let (a, apay) = stack[0];
            let next_pre = anc.pre().get(ai).copied().unwrap_or(u32::MAX);
            let run = desc.leading_run(di, next_pre, a.post, meter);
            debug_assert!(run > 0);
            match axis {
                Axis::Descendant => {
                    for i in di..di + run {
                        out.push((apay, desc.payload(i)));
                    }
                }
                Axis::Child => {
                    let want = a.depth + 1;
                    for i in di..di + run {
                        if desc.depth()[i] == want {
                            out.push((apay, desc.payload(i)));
                        }
                    }
                }
            }
            meter.comparisons(run as u64);
            di += run;
            continue;
        }
        // emit matches: all of the chain for `//`, the depth-adjacent
        // entry for `/`
        meter.comparisons(stack.len() as u64);
        for &(a, apay) in stack.iter().rev() {
            if axis_match(a, d, axis) {
                out.push((apay, desc.payload(di)));
            }
        }
        di += 1;
    }
    out
}

/// Naive nested-loop structural join over plain `(id, payload)` pairs;
/// quadratic, order-insensitive, and independent of the columnar layout.
/// Kept as the oracle the merge is tested against.
pub fn nested_loop_pairs(
    anc: &[(StructuralId, u32)],
    desc: &[(StructuralId, u32)],
    axis: Axis,
) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for &(d, dpay) in desc {
        for &(a, apay) in anc {
            if axis_match(a, d, axis) {
                out.push((apay as usize, dpay as usize));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::DEFAULT_BLOCK;
    use obs::NoMeter;
    use xmltree::generate;

    type Stream = Vec<(StructuralId, u32)>;

    /// Collect `(sid, index)` pairs of all elements with a label, sorted by
    /// pre (document order gives that for free).
    fn ids(doc: &xmltree::Document, label: &str) -> Stream {
        doc.nodes_with_label(label, xmltree::NodeKind::Element)
            .enumerate()
            .map(|(i, n)| (doc.structural_id(n), i as u32))
            .collect()
    }

    /// Pack with the given fence block size and run the merge.
    fn merge_with<M: Meter>(
        anc: &Stream,
        desc: &Stream,
        axis: Axis,
        block: usize,
        meter: &mut M,
    ) -> Vec<(usize, usize)> {
        let ac = IdColumns::from_pairs(anc, block);
        let dc = IdColumns::from_pairs(desc, block);
        stack_tree_pairs(&ac, &dc, axis, meter)
    }

    fn merge(anc: &Stream, desc: &Stream, axis: Axis) -> Vec<(usize, usize)> {
        merge_with(anc, desc, axis, DEFAULT_BLOCK, &mut NoMeter)
    }

    /// The oracle's pairs in StackTreeDesc order: by descendant, matching
    /// ancestors innermost first (payloads are positions, and a deeper
    /// ancestor of the same node comes later in document order).
    fn oracle(anc: &Stream, desc: &Stream, axis: Axis) -> Vec<(usize, usize)> {
        let mut want = nested_loop_pairs(anc, desc, axis);
        want.sort_unstable_by_key(|&(a, d)| (d, std::cmp::Reverse(a)));
        want
    }

    #[test]
    fn matches_nested_loop_on_xmark_under_every_fence_layout() {
        let doc = generate::xmark(4, 11);
        for (anc_l, desc_l) in [
            ("item", "keyword"),
            ("parlist", "listitem"),
            ("listitem", "parlist"),
            ("parlist", "parlist"),
            ("description", "bold"),
            ("site", "item"),
            ("mail", "keyword"),
            ("bold", "keyword"),
        ] {
            let anc = ids(&doc, anc_l);
            let desc = ids(&doc, desc_l);
            for axis in [Axis::Child, Axis::Descendant] {
                let want = oracle(&anc, &desc, axis);
                for block in [1, 2, 13, 64] {
                    assert_eq!(
                        merge_with(&anc, &desc, axis, block, &mut NoMeter),
                        want,
                        "{anc_l} {axis:?} {desc_l} block={block}"
                    );
                }
            }
        }
    }

    #[test]
    fn recursive_ancestors_all_found() {
        // parlist can nest inside listitem inside parlist: a deep keyword
        // has several parlist ancestors, all of which must be paired.
        let doc = generate::xmark(3, 7);
        let anc = ids(&doc, "parlist");
        let desc = ids(&doc, "keyword");
        let pairs = merge(&anc, &desc, Axis::Descendant);
        // at least one keyword has ≥ 2 parlist ancestors
        let mut per_desc = std::collections::HashMap::new();
        for (_, d) in &pairs {
            *per_desc.entry(*d).or_insert(0) += 1;
        }
        assert!(
            per_desc.values().any(|&c| c >= 2),
            "recursion not exercised"
        );
    }

    #[test]
    fn output_in_descendant_order() {
        let doc = generate::xmark(3, 5);
        let anc = ids(&doc, "item");
        let desc = ids(&doc, "keyword");
        let pairs = merge(&anc, &desc, Axis::Descendant);
        assert!(pairs.windows(2).all(|w| w[0].1 <= w[1].1));
    }

    #[test]
    fn meter_counts_and_leaves_the_answer_alone() {
        let doc = generate::xmark(3, 7);
        let anc = ids(&doc, "parlist");
        let desc = ids(&doc, "keyword");
        let mut metrics = obs::ExecMetrics::default();
        let metered = merge_with(&anc, &desc, Axis::Descendant, DEFAULT_BLOCK, &mut metrics);
        assert_eq!(metered, merge(&anc, &desc, Axis::Descendant));
        // parlist recursion guarantees a stack deeper than one and at
        // least one comparison per emitted pair
        assert!(metrics.stack_high_water >= 2, "{metrics:?}");
        assert!(metrics.comparisons >= metered.len() as u64);
    }

    #[test]
    fn dense_pairing_batches_and_sparse_ancestors_skip() {
        let doc = generate::xmark(4, 11);
        // one always-open ancestor over a dense stream: the bulk emit
        let mut m = obs::ExecMetrics::default();
        let (anc, desc) = (ids(&doc, "site"), ids(&doc, "item"));
        let got = merge_with(&anc, &desc, Axis::Descendant, DEFAULT_BLOCK, &mut m);
        assert_eq!(got, oracle(&anc, &desc, Axis::Descendant));
        assert!(m.batches_scanned > 0, "{m:?}");
        // sparse ancestors (mails) over a dense descendant stream must
        // skip: the keywords under item descriptions between consecutive
        // mail subtrees are seeked over wholesale
        let mut m = obs::ExecMetrics::default();
        let (anc, desc) = (ids(&doc, "mail"), ids(&doc, "keyword"));
        let got = merge_with(&anc, &desc, Axis::Descendant, DEFAULT_BLOCK, &mut m);
        assert_eq!(got, oracle(&anc, &desc, Axis::Descendant));
        assert!(m.elements_skipped > 0, "{m:?}");
    }

    #[test]
    fn duplicate_descendant_ids_stay_exact() {
        // join inputs can repeat a node ID across tuples (a view column
        // joined on the same node), so seeks and bulk emits must stay
        // exact on non-strictly sorted streams — including duplicates
        // straddling fence-block boundaries
        let doc = generate::xmark(3, 11);
        let anc = ids(&doc, "item");
        let mut desc = Stream::new();
        for (i, (sid, _)) in ids(&doc, "keyword").into_iter().enumerate() {
            for _ in 0..=(i % 3) {
                desc.push((sid, desc.len() as u32));
            }
        }
        for axis in [Axis::Child, Axis::Descendant] {
            let want = oracle(&anc, &desc, axis);
            for block in [1, 2, 7, 13, 64] {
                assert_eq!(
                    merge_with(&anc, &desc, axis, block, &mut NoMeter),
                    want,
                    "{axis:?} block={block}"
                );
            }
        }
    }

    #[test]
    fn empty_inputs() {
        let empty = Stream::new();
        assert!(merge(&empty, &empty, Axis::Child).is_empty());
        let one = vec![(StructuralId::new(0, 10, 1), 0)];
        assert!(merge(&one, &empty, Axis::Descendant).is_empty());
        assert!(merge(&empty, &one, Axis::Descendant).is_empty());
    }
}
