//! Holistic twig joins (TwigStack/TwigList family): evaluate a whole
//! tree pattern in a single multi-way merge over per-node ID streams.
//!
//! A cascade of binary [`crate::stacktree::stack_tree_pairs`] joins
//! materializes an intermediate pair list at every axis step; for deep or
//! wide twigs those intermediates can dwarf both the inputs and the final
//! result. [`twig_join`] instead scans all streams once in global pre
//! order, maintains the chain of currently-open (pre/post interval still
//! active) stream elements, and records for every element the contiguous
//! window of descendants it captured in each child stream. Root-to-leaf
//! solutions are enumerated at the end directly from those windows —
//! output-sensitive, with no intermediate pair materialization. Child
//! (`/`) axis edges are filtered during the window checks and the final
//! enumeration, exactly like the binary operators do.
//!
//! All streams must carry [`StructuralId`]s of the *same* document and be
//! sorted by `pre` rank; the payloads are opaque tuple indices.

use obs::Meter;
use xmltree::StructuralId;

use crate::plan::{Axis, JoinKind, LogicalPlan, TwigStep};
use crate::simd::IdColumns;
use crate::stacktree::axis_match;

/// One node of a twig pattern: its parent pattern-node index and the axis
/// of the edge from the parent. Node 0 is the root and has no parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TwigNode {
    pub parent: Option<usize>,
    pub axis: Axis,
}

/// A small rooted tree pattern. Node indices are in parent-before-child
/// order by construction: [`TwigPattern::add_child`] only attaches below
/// already-existing nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TwigPattern {
    nodes: Vec<TwigNode>,
    children: Vec<Vec<usize>>,
}

impl TwigPattern {
    /// A pattern consisting of just the root node (index 0).
    pub fn root() -> TwigPattern {
        TwigPattern {
            nodes: vec![TwigNode {
                parent: None,
                axis: Axis::Descendant,
            }],
            children: vec![Vec::new()],
        }
    }

    /// Attach a new node under `parent` and return its index.
    pub fn add_child(&mut self, parent: usize, axis: Axis) -> usize {
        assert!(parent < self.nodes.len(), "twig parent out of range");
        let id = self.nodes.len();
        self.nodes.push(TwigNode {
            parent: Some(parent),
            axis,
        });
        self.children.push(Vec::new());
        self.children[parent].push(id);
        id
    }

    /// Build a pure chain `root axis₁ n₁ axis₂ n₂ …`.
    pub fn chain(axes: &[Axis]) -> TwigPattern {
        let mut p = TwigPattern::root();
        let mut last = 0;
        for &a in axes {
            last = p.add_child(last, a);
        }
        p
    }

    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        false // there is always a root node
    }

    pub fn node(&self, i: usize) -> TwigNode {
        self.nodes[i]
    }

    pub fn children(&self, i: usize) -> &[usize] {
        &self.children[i]
    }
}

/// One stream element after processing: its ID, its payload, and whether
/// the pattern subtree below it can be matched.
#[derive(Clone, Copy)]
struct Entry {
    sid: StructuralId,
    payload: usize,
    satisfied: bool,
}

/// All processed elements of one pattern node's stream. Per entry and
/// pattern child, `ranges` records the `[start, end)` window of that
/// child's list captured while the entry was open (flat, stride
/// `2 * children` — one allocation per pattern node, not per element).
/// Descendants of a node occupy a contiguous pre-order range, so the
/// window holds exactly the entry's descendants in that stream.
#[derive(Default)]
struct NodeList {
    entries: Vec<Entry>,
    ranges: Vec<u32>,
}

impl NodeList {
    #[inline]
    fn window(&self, kids: usize, i: usize, k: usize) -> (usize, usize) {
        let base = i * 2 * kids + 2 * k;
        (self.ranges[base] as usize, self.ranges[base + 1] as usize)
    }
}

/// Finalize an entry when its pre/post interval closes: freeze the child
/// windows and decide satisfiability. All entries inside the windows
/// closed earlier (they are descendants), so their flags are final.
fn close_entry<M: Meter>(
    pattern: &TwigPattern,
    lists: &mut [NodeList],
    q: usize,
    i: usize,
    meter: &mut M,
) {
    let sid = lists[q].entries[i].sid;
    let kids = pattern.children(q);
    let mut sat = true;
    for (k, &c) in kids.iter().enumerate() {
        let base = i * 2 * kids.len() + 2 * k;
        let start = lists[q].ranges[base] as usize;
        let end = lists[c].entries.len();
        lists[q].ranges[base + 1] = end as u32;
        if sat {
            let axis = pattern.node(c).axis;
            let mut tested = 0u64;
            sat = lists[c].entries[start..end].iter().any(|f| {
                tested += 1;
                f.satisfied && axis_match(sid, f.sid, axis)
            });
            meter.comparisons(tested);
        }
    }
    lists[q].entries[i].satisfied = sat;
}

/// Compute all matches of `pattern` over one packed ID stream per
/// pattern node (`streams[i]` feeds pattern node `i`; all sorted by
/// `pre`, all from the same document). Returns one payload vector per
/// solution, indexed by pattern node, sorted lexicographically — the
/// same order a left-deep cascade of inner StackTree joins produces.
///
/// The merge is TwigStack's, one element at a time; the columnar layout
/// buys two bulk moves on top of it:
///
/// * **bulk leaf append** — when the minimum head belongs to a leaf
///   pattern node, every following leaf element whose pre rank stays
///   strictly below all other heads and whose post rank stays inside the
///   innermost open entry can be appended with no stack transition at
///   all: no pop can trigger (posts are nested), the parent entry stays
///   open, and leaf entries are born satisfied (their pattern subtree is
///   empty). [`IdColumns::leading_run`] counts that run a block at a
///   time and the loop appends it wholesale.
/// * **bulk discard** — when a non-root node `q` has no open parent
///   entry, every `q`-element up to the parent stream's head can never
///   be contained by any future parent candidate (they all arrive with
///   larger pre), so the kernel jumps `q` straight past the parent head
///   with [`IdColumns::seek_pre_gt`] — or to end-of-stream when the
///   parent is exhausted — instead of stepping.
///
/// Leaf entries appended in bulk never enter the open chain, so
/// `stack_high_water` counts inner pattern nodes only (see the soundness
/// notes in DESIGN.md).
///
/// `meter` receives the execution counters: window scans count as
/// comparisons, seeks report jumped-over elements and cleared fence
/// blocks, the bulk moves `batches_scanned` / `vector_compares`, and the
/// open chain's depth and the resident solution-list entries are tracked
/// as high-water marks. With [`obs::NoMeter`] all of it compiles away.
pub fn twig_join<M: Meter>(
    pattern: &TwigPattern,
    streams: &[&IdColumns],
    meter: &mut M,
) -> Vec<Vec<usize>> {
    let n = pattern.len();
    assert_eq!(streams.len(), n, "one stream per pattern node");
    let mut lists: Vec<NodeList> = (0..n)
        .map(|q| NodeList {
            entries: Vec::with_capacity(streams[q].len()),
            ranges: Vec::with_capacity(streams[q].len() * 2 * pattern.children(q).len()),
        })
        .collect();
    let is_leaf: Vec<bool> = (0..n).map(|q| pattern.children(q).is_empty()).collect();
    let mut cur = vec![0usize; n];
    // cached head pre ranks, u32::MAX = exhausted; patterns are tiny, so
    // a linear min scan beats a heap
    let mut heads: Vec<u32> = (0..n)
        .map(|q| streams[q].pre().first().copied().unwrap_or(u32::MAX))
        .collect();
    // chain of currently-open entries, outermost first, plus the number
    // of open entries per pattern node
    let mut open: Vec<(usize, usize)> = Vec::new();
    let mut open_count = vec![0usize; n];
    // total resident solution-list entries, for the high-water mark
    let mut resident = 0usize;
    loop {
        let mut q = 0;
        for r in 1..n {
            if heads[r] < heads[q] {
                q = r;
            }
        }
        if heads[q] == u32::MAX {
            break;
        }
        // only the post rank matters until an entry is actually pushed —
        // defer the depth gather instead of reassembling the full sid
        let post_q = streams[q].post()[cur[q]];
        // close every open entry whose interval ended before this
        // element: with arrivals in pre order it can contain neither the
        // element nor anything after it
        while let Some(&(oq, oi)) = open.last() {
            if lists[oq].entries[oi].sid.post < post_q {
                close_entry(pattern, &mut lists, oq, oi, meter);
                open_count[oq] -= 1;
                open.pop();
            } else {
                break;
            }
        }
        // TwigStack-style pruning: after the pops, every open entry
        // strictly contains the element, so a non-root element
        // participates in a solution only if some entry of its parent
        // pattern node is open right now. The same holds for every
        // `q`-element up to the parent's head, so seek instead of
        // stepping. Skipped counts exclude the inspected element.
        if let Some(p) = pattern.node(q).parent {
            if open_count[p] == 0 {
                if heads[p] == u32::MAX {
                    // parent exhausted with nothing open: no later
                    // q-element can ever be matched
                    meter.skipped((streams[q].len() - cur[q] - 1) as u64);
                    cur[q] = streams[q].len();
                    heads[q] = u32::MAX;
                } else {
                    // q held the minimum head, so heads[q] <= heads[p]
                    // and the seek always advances past cur[q]
                    let s = streams[q].seek_pre_gt(cur[q], heads[p], meter);
                    meter.skipped((s - cur[q] - 1) as u64);
                    cur[q] = s;
                    heads[q] = streams[q].pre().get(cur[q]).copied().unwrap_or(u32::MAX);
                }
                continue;
            }
        }
        if is_leaf[q] {
            // bound on pre: the run must stay strictly below every other
            // head so q keeps holding the merge minimum (ties fall back
            // to the scalar step, preserving its tie-break); bound on
            // post: the innermost open entry has the smallest open post,
            // so staying under it triggers no pops and keeps the parent
            // entry open for the whole run
            let mut pre_bound = u32::MAX;
            for (r, &h) in heads.iter().enumerate() {
                if r != q && h < pre_bound {
                    pre_bound = h;
                }
            }
            let post_bound = open
                .last()
                .map_or(u32::MAX, |&(oq, oi)| lists[oq].entries[oi].sid.post);
            let run = streams[q].leading_run(cur[q], pre_bound, post_bound, meter);
            if run == 1 {
                // dominant short-run case: a plain push beats the
                // zipped extend's iterator setup
                lists[q].entries.push(Entry {
                    sid: streams[q].sid(cur[q]),
                    payload: streams[q].payload(cur[q]),
                    satisfied: true,
                });
                resident += 1;
                meter.solutions(resident);
                cur[q] += 1;
                heads[q] = streams[q].pre().get(cur[q]).copied().unwrap_or(u32::MAX);
                continue;
            }
            if run > 0 {
                let end = cur[q] + run;
                let pres = &streams[q].pre()[cur[q]..end];
                let posts = &streams[q].post()[cur[q]..end];
                let depths = &streams[q].depth()[cur[q]..end];
                let packed = pres.iter().zip(posts).zip(depths);
                match streams[q].payloads() {
                    Some(pl) => lists[q].entries.extend(packed.zip(&pl[cur[q]..end]).map(
                        |(((&p, &o), &d), &w)| Entry {
                            sid: StructuralId::new(p, o, d),
                            payload: w as usize,
                            satisfied: true,
                        },
                    )),
                    None => lists[q].entries.extend(packed.zip(cur[q]..end).map(
                        |(((&p, &o), &d), w)| Entry {
                            sid: StructuralId::new(p, o, d),
                            payload: w,
                            satisfied: true,
                        },
                    )),
                }
                resident += run;
                meter.solutions(resident);
                cur[q] += run;
                heads[q] = streams[q].pre().get(cur[q]).copied().unwrap_or(u32::MAX);
                continue;
            }
        }
        let sid = streams[q].sid(cur[q]);
        let payload = streams[q].payload(cur[q]);
        cur[q] += 1;
        heads[q] = streams[q].pre().get(cur[q]).copied().unwrap_or(u32::MAX);
        for k in 0..pattern.children(q).len() {
            let c = pattern.children(q)[k];
            let start = lists[c].entries.len() as u32;
            lists[q].ranges.push(start);
            lists[q].ranges.push(0);
        }
        lists[q].entries.push(Entry {
            sid,
            payload,
            satisfied: false,
        });
        resident += 1;
        meter.solutions(resident);
        open.push((q, lists[q].entries.len() - 1));
        meter.stack_depth(open.len());
        open_count[q] += 1;
    }
    while let Some((oq, oi)) = open.pop() {
        close_entry(pattern, &mut lists, oq, oi, meter);
    }
    enumerate(pattern, &lists, meter)
}

/// Walk the satisfied entries top-down and emit every root-to-leaf
/// combination. Satisfiability flags guarantee every recursive call
/// produces at least one solution, so this is output-sensitive.
fn enumerate<M: Meter>(
    pattern: &TwigPattern,
    lists: &[NodeList],
    meter: &mut M,
) -> Vec<Vec<usize>> {
    let n = pattern.len();
    let mut child_pos = vec![0usize; n];
    for q in 0..n {
        for (k, &c) in pattern.children(q).iter().enumerate() {
            child_pos[c] = k;
        }
    }
    let mut out = Vec::new();
    let mut chosen = vec![0usize; n];
    let mut assignment = vec![0usize; n];
    for (ri, root) in lists[0].entries.iter().enumerate() {
        if !root.satisfied {
            continue;
        }
        chosen[0] = ri;
        assignment[0] = root.payload;
        fill(
            pattern,
            lists,
            &child_pos,
            1,
            &mut chosen,
            &mut assignment,
            &mut out,
            meter,
        );
    }
    // cascade-compatible order: lexicographic by payload in node order
    out.sort_unstable();
    out
}

/// Assign pattern node `j` (nodes are parent-before-child, so `j`'s
/// parent is already chosen) and recurse; at `j == n` one full solution
/// is complete.
#[allow(clippy::too_many_arguments)]
fn fill<M: Meter>(
    pattern: &TwigPattern,
    lists: &[NodeList],
    child_pos: &[usize],
    j: usize,
    chosen: &mut [usize],
    assignment: &mut [usize],
    out: &mut Vec<Vec<usize>>,
    meter: &mut M,
) {
    if j == pattern.len() {
        out.push(assignment.to_vec());
        return;
    }
    let node = pattern.node(j);
    let p = node.parent.expect("non-root node has a parent");
    let psid = lists[p].entries[chosen[p]].sid;
    let kids = pattern.children(p).len();
    let (start, end) = lists[p].window(kids, chosen[p], child_pos[j]);
    meter.comparisons((end - start) as u64);
    for fi in start..end {
        let f = lists[j].entries[fi];
        if f.satisfied && axis_match(psid, f.sid, node.axis) {
            chosen[j] = fi;
            assignment[j] = f.payload;
            fill(
                pattern,
                lists,
                child_pos,
                j + 1,
                chosen,
                assignment,
                out,
                meter,
            );
        }
    }
}

/// Desugar a [`LogicalPlan::TwigJoin`] into the equivalent left-deep
/// cascade of binary `Inner` structural joins: the inverse of
/// [`fuse_struct_joins`], and the logical reading of the cascade arm the
/// twig cursor binds for shapes the holistic operator does not cover.
pub fn twig_to_cascade(root: &LogicalPlan, steps: &[TwigStep]) -> LogicalPlan {
    steps.iter().fold(root.clone(), |acc, s| {
        acc.struct_join(
            s.input.clone(),
            s.parent_attr.as_str(),
            s.attr.as_str(),
            s.axis,
            JoinKind::Inner,
        )
    })
}

/// Rewrite every maximal cascade of flat `Inner` structural joins over
/// top-level ID attributes into a single [`LogicalPlan::TwigJoin`],
/// recursing through all other operators. Left-deep chains extend the
/// twig's step list directly; a *right*-nested twig is spliced into the
/// enclosing pattern when the enclosing join keys on the nested twig's
/// root attribute (witnessed by the nested first step hanging off it) —
/// without the splice, a right-deep `a//(b//c)` plan evaluates as two
/// nested twigs and materializes the same multiplying `b//c`
/// intermediate the holistic operator exists to avoid. Joins with
/// nesting, outer/semi flavours or dotted (map-extended) attributes are
/// left untouched — the holistic operator only covers the conjunctive
/// core.
pub fn fuse_struct_joins(plan: &LogicalPlan) -> LogicalPlan {
    use LogicalPlan::*;
    match plan {
        StructJoin {
            left,
            right,
            left_attr,
            right_attr,
            axis,
            kind: JoinKind::Inner,
            nest_as: None,
        } if !left_attr.as_str().contains('.') && !right_attr.as_str().contains('.') => {
            let mut step = TwigStep {
                input: fuse_struct_joins(right),
                parent_attr: left_attr.clone(),
                attr: right_attr.clone(),
                axis: *axis,
            };
            // right-deep splice: the nested twig's first step hangs off
            // its root (twig_shape resolves it against the root schema
            // alone), so `attr == first.parent_attr` proves the enclosing
            // join keys on that root and the patterns merge into one tree
            let mut spliced = Vec::new();
            if let TwigJoin { steps, .. } = &step.input {
                if steps.first().is_some_and(|s| s.parent_attr == step.attr) {
                    if let TwigJoin { root, steps } = step.input {
                        step.input = *root;
                        spliced = steps;
                    }
                }
            }
            match fuse_struct_joins(left) {
                TwigJoin { root, mut steps } => {
                    steps.push(step);
                    steps.extend(spliced);
                    TwigJoin { root, steps }
                }
                other => {
                    let mut steps = vec![step];
                    steps.extend(spliced);
                    TwigJoin {
                        root: Box::new(other),
                        steps,
                    }
                }
            }
        }
        _ => plan.map_children(fuse_struct_joins),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::DEFAULT_BLOCK;
    use obs::NoMeter;
    use xmltree::{generate, NodeKind};

    type Stream = Vec<(StructuralId, u32)>;

    fn ids(doc: &xmltree::Document, label: &str) -> Stream {
        doc.nodes_with_label(label, NodeKind::Element)
            .enumerate()
            .map(|(i, n)| (doc.structural_id(n), i as u32))
            .collect()
    }

    /// Pack with the given fence block size and run the kernel.
    fn join_with<M: Meter>(
        pattern: &TwigPattern,
        streams: &[&Stream],
        block: usize,
        meter: &mut M,
    ) -> Vec<Vec<usize>> {
        let cols: Vec<IdColumns> = streams
            .iter()
            .map(|s| IdColumns::from_pairs(s, block))
            .collect();
        let refs: Vec<&IdColumns> = cols.iter().collect();
        twig_join(pattern, &refs, meter)
    }

    fn join(pattern: &TwigPattern, streams: &[&Stream]) -> Vec<Vec<usize>> {
        join_with(pattern, streams, DEFAULT_BLOCK, &mut NoMeter)
    }

    /// Obviously-correct reference: backtracking over the full candidate
    /// space, checking every pattern edge with the axis predicate.
    fn reference(pattern: &TwigPattern, streams: &[&Stream]) -> Vec<Vec<usize>> {
        fn go(
            pattern: &TwigPattern,
            streams: &[&Stream],
            j: usize,
            sids: &mut Vec<StructuralId>,
            asg: &mut Vec<usize>,
            out: &mut Vec<Vec<usize>>,
        ) {
            if j == pattern.len() {
                out.push(asg.clone());
                return;
            }
            let node = pattern.node(j);
            for &(sid, pay) in streams[j] {
                let ok = match node.parent {
                    None => true,
                    Some(p) => axis_match(sids[p], sid, node.axis),
                };
                if ok {
                    sids[j] = sid;
                    asg[j] = pay as usize;
                    go(pattern, streams, j + 1, sids, asg, out);
                }
            }
        }
        let n = pattern.len();
        let mut out = Vec::new();
        let mut sids = vec![StructuralId::new(0, 0, 0); n];
        let mut asg = vec![0usize; n];
        go(pattern, streams, 0, &mut sids, &mut asg, &mut out);
        out.sort_unstable();
        out
    }

    /// The kernel must match the reference under every fence layout.
    fn check(pattern: &TwigPattern, streams: &[&Stream]) {
        let want = reference(pattern, streams);
        for block in [1, 2, 7, 64] {
            assert_eq!(
                join_with(pattern, streams, block, &mut NoMeter),
                want,
                "kernel diverged at block={block}"
            );
        }
    }

    #[test]
    fn chains_match_reference_on_xmark() {
        let doc = generate::xmark(3, 7);
        use Axis::{Child, Descendant};
        let cases: Vec<(Vec<&str>, Vec<Axis>)> = vec![
            (vec!["site", "item"], vec![Descendant]),
            (
                vec!["item", "parlist", "listitem"],
                vec![Descendant, Descendant],
            ),
            (
                vec!["description", "parlist", "listitem", "text", "keyword"],
                vec![Child, Child, Child, Descendant],
            ),
            (
                vec!["parlist", "listitem", "keyword"],
                vec![Child, Descendant],
            ),
        ];
        for (labels, axes) in cases {
            let streams: Vec<Stream> = labels.iter().map(|l| ids(&doc, l)).collect();
            let refs: Vec<&Stream> = streams.iter().collect();
            check(&TwigPattern::chain(&axes), &refs);
        }
    }

    #[test]
    fn branching_pattern_matches_reference() {
        let doc = generate::xmark(3, 19);
        // item { /name, /description//keyword, //mail }
        let mut p = TwigPattern::root();
        p.add_child(0, Axis::Child); // name
        let d = p.add_child(0, Axis::Child); // description
        p.add_child(d, Axis::Descendant); // keyword
        p.add_child(0, Axis::Descendant); // mail
        let streams: Vec<Stream> = ["item", "name", "description", "keyword", "mail"]
            .iter()
            .map(|l| ids(&doc, l))
            .collect();
        let refs: Vec<&Stream> = streams.iter().collect();
        check(&p, &refs);
    }

    #[test]
    fn recursive_same_label_pattern() {
        // parlist//parlist//listitem: the same stream feeds two pattern
        // nodes; self-pairs must not appear
        let doc = generate::xmark(3, 7);
        let parlists = ids(&doc, "parlist");
        let listitems = ids(&doc, "listitem");
        let p = TwigPattern::chain(&[Axis::Descendant, Axis::Descendant]);
        let refs = [&parlists, &parlists, &listitems];
        let got = join(&p, &refs);
        assert!(!got.is_empty(), "xmark recursion must produce matches");
        assert!(got.iter().all(|s| s[0] != s[1]), "no self pairs");
        check(&p, &refs);
    }

    #[test]
    fn child_axis_filters_non_parents() {
        let doc = generate::xmark(2, 9);
        let anc = ids(&doc, "parlist");
        let desc = ids(&doc, "keyword");
        let child = join(&TwigPattern::chain(&[Axis::Child]), &[&anc, &desc]);
        let descd = join(&TwigPattern::chain(&[Axis::Descendant]), &[&anc, &desc]);
        assert!(
            child.len() < descd.len(),
            "{} vs {}",
            child.len(),
            descd.len()
        );
        check(&TwigPattern::chain(&[Axis::Child]), &[&anc, &desc]);
    }

    #[test]
    fn single_node_and_empty_streams() {
        let doc = generate::xmark(2, 5);
        let items = ids(&doc, "item");
        let empty = Stream::new();
        let sols = join(&TwigPattern::root(), &[&items]);
        assert_eq!(sols.len(), items.len());
        let p = TwigPattern::chain(&[Axis::Descendant]);
        assert!(join(&p, &[&items, &empty]).is_empty());
        assert!(join(&p, &[&empty, &items]).is_empty());
    }

    #[test]
    fn meter_counts_and_leaves_the_answer_alone() {
        let doc = generate::xmark(3, 7);
        let streams: Vec<Stream> = ["item", "parlist", "listitem"]
            .iter()
            .map(|l| ids(&doc, l))
            .collect();
        let refs: Vec<&Stream> = streams.iter().collect();
        let pattern = TwigPattern::chain(&[Axis::Descendant, Axis::Descendant]);
        let mut metrics = obs::ExecMetrics::default();
        let metered = join_with(&pattern, &refs, DEFAULT_BLOCK, &mut metrics);
        assert_eq!(metered, join(&pattern, &refs));
        assert!(!metered.is_empty());
        assert!(metrics.comparisons > 0, "{metrics:?}");
        assert!(metrics.stack_high_water >= 2, "{metrics:?}");
        assert!(metrics.solutions_high_water >= pattern.len() as u64);
    }

    #[test]
    fn selective_chain_skips_and_batches() {
        let doc = generate::xmark(4, 21);
        // mail//keyword: mails are rare and keywords are everywhere (most
        // sit under item descriptions), so most of the keyword stream is
        // prunable between consecutive mail subtrees — the kernel must
        // gallop over it — and the dense leaf runs inside a mail must go
        // through the bulk append
        let mails = ids(&doc, "mail");
        let keywords = ids(&doc, "keyword");
        let pattern = TwigPattern::chain(&[Axis::Descendant]);
        let mut metrics = obs::ExecMetrics::default();
        let got = join_with(&pattern, &[&mails, &keywords], DEFAULT_BLOCK, &mut metrics);
        assert_eq!(got, reference(&pattern, &[&mails, &keywords]));
        assert!(metrics.elements_skipped > 0, "{metrics:?}");
        assert!(metrics.batches_scanned > 0, "{metrics:?}");
        assert!(metrics.vector_compares > 0, "{metrics:?}");
    }

    #[test]
    fn duplicate_ids_stay_exact() {
        // multi-tuple join inputs repeat IDs; bulk appends and seeks
        // must stay exact on non-strictly sorted columns
        let doc = generate::xmark(3, 11);
        let items = ids(&doc, "item");
        let mut keywords = Stream::new();
        for (i, (sid, _)) in ids(&doc, "keyword").into_iter().enumerate() {
            for _ in 0..=(i % 3) {
                keywords.push((sid, keywords.len() as u32));
            }
        }
        for axis in [Axis::Child, Axis::Descendant] {
            check(&TwigPattern::chain(&[axis]), &[&items, &keywords]);
        }
    }

    #[test]
    fn fusion_and_desugaring_roundtrip() {
        use crate::plan::JoinKind;
        let cascade = LogicalPlan::scan("tag_book")
            .rename(&["b_id"])
            .struct_join(
                LogicalPlan::scan("tag_title").rename(&["t_id"]),
                "b_id",
                "t_id",
                Axis::Child,
                JoinKind::Inner,
            )
            .struct_join(
                LogicalPlan::scan("tag_author").rename(&["a_id"]),
                "b_id",
                "a_id",
                Axis::Descendant,
                JoinKind::Inner,
            );
        let fused = fuse_struct_joins(&cascade);
        let LogicalPlan::TwigJoin {
            ref root,
            ref steps,
        } = fused
        else {
            panic!("expected TwigJoin, got {fused}");
        };
        assert_eq!(steps.len(), 2);
        assert!(fused.size() < cascade.size());
        assert_eq!(twig_to_cascade(root, steps), cascade);
        assert_eq!(fused.scanned_relations(), cascade.scanned_relations());
        assert!(fused.to_string().starts_with("twig("), "{fused}");
    }

    #[test]
    fn fusion_skips_nest_and_outer_joins() {
        let nested = LogicalPlan::scan("a").struct_nest_join(
            LogicalPlan::scan("b"),
            "ID",
            "ID",
            Axis::Descendant,
            true,
            "bs",
        );
        assert_eq!(fuse_struct_joins(&nested), nested);
    }
}
