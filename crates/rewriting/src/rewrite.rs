//! Summary-based rewriting of query patterns using XAM views (§5.3–5.5).
//!
//! Generate-and-test, as in the paper: candidate plans are assembled from
//! view scans — single views with *compensations* (value selections,
//! navigations for uncovered query nodes), multi-view **structural joins**
//! (requiring structural IDs), **node-identity joins**, ancestor-ID
//! **derivation** for `p`-class IDs, and **unions** — and every candidate
//! is verified `S`-equivalent to the query via the Chapter 4 containment
//! procedure. Verification is exact, so the search may be (and is)
//! heuristically bounded without ever returning a wrong rewriting.
//!
//! Nested query patterns are rewritten by exact-shape view matches
//! (the §5.4 "extending rewriting" fragment); conjunctive/optional
//! patterns get the full search.
//!
//! The flat search reaches views through a [`ViewIndex`]: every
//! (sub-)pattern is annotated once, and only the views sharing a summary
//! path with one of its nodes are mapped — in view order, so the
//! candidate list is the one a scan of every view would build. [`Uload`]
//! holds an index over its store; the free functions build one per call.
//!
//! [`Uload`]: crate::Uload

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use algebra::{LogicalPlan, NavMode, Path, Schema};
use containment::canonical::path_annotations_all;
use containment::{contain, CanonicalCache, ContainOptions};
use summary::{Summary, SummaryNodeId};
use xam_core::ast::{Formula, Xam, XamNodeId};
use xam_core::semantics::{output_columns, StoredAttr};

use crate::planpat::PlanPattern;
use crate::viewindex::{Annotations, ViewIndex};

/// Execution context of the rewriting search: worker threads and the
/// shared containment cache. Distinct from [`RewriteConfig`] (which
/// bounds *what* is searched) — this only controls *how fast* and
/// never changes the produced rewriting set.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineOptions<'a> {
    /// Worker threads for candidate verification. `0`/`1` = sequential.
    pub threads: usize,
    /// Shared canonical-model/verdict cache; `None` disables caching.
    pub cache: Option<&'a CanonicalCache>,
    /// Amortized fingerprint of the summary (see
    /// [`containment::cache::summary_fingerprint`]).
    pub summary_fp: Option<u64>,
}

impl<'a> EngineOptions<'a> {
    fn contain_opts(&self, threads: usize) -> ContainOptions<'a> {
        ContainOptions {
            threads,
            cache: self.cache,
            summary_fp: self.summary_fp,
            aligned: None,
        }
    }
}

/// Search knobs.
#[derive(Debug, Clone, Copy)]
pub struct RewriteConfig {
    /// Maximum number of views joined in one rewriting.
    pub max_views: usize,
    /// Allow structural joins between views (needs `s`/`p` IDs). Turning
    /// this off reproduces the paper's point that some rewritings only
    /// exist thanks to structural identifiers (§5.2).
    pub use_structural_ids: bool,
    /// Allow union rewritings.
    pub allow_unions: bool,
    /// Allow navigation compensation: uncovered query nodes are reached
    /// by navigating the document from a stored structural ID. Off, views
    /// can only be combined by joins — the pure "answer from storage
    /// alone" regime, useful for ablations and for forcing join-shaped
    /// (twig-fusable) plans in `EXPLAIN ANALYZE` demonstrations.
    pub allow_navigation: bool,
    /// Cap on candidate mappings per view (search bound; verification
    /// keeps the result sound regardless).
    pub max_mappings: usize,
}

impl Default for RewriteConfig {
    fn default() -> Self {
        RewriteConfig {
            max_views: 3,
            use_structural_ids: true,
            allow_unions: true,
            allow_navigation: true,
            max_mappings: 48,
        }
    }
}

/// A verified rewriting.
#[derive(Debug, Clone)]
pub struct Rewriting {
    /// Executable plan over view scans, projected and cast so its output
    /// schema equals the query pattern's output schema.
    pub plan: LogicalPlan,
    /// The `S`-equivalent pattern of the (unprojected) plan.
    pub pattern: Xam,
    pub views_used: Vec<String>,
    /// Plan size (operator count) — the minimality metric of §5.3.
    pub size: usize,
}

/// Statistics of one rewriting run (for the §5.6 experiments).
#[derive(Debug, Clone, Copy, Default)]
pub struct RewriteStats {
    pub candidates_built: usize,
    pub candidates_verified: usize,
    pub rewritings_found: usize,
}

/// A candidate ready for verification: the plan pattern, its query
/// mapping, the verification pattern with its return nodes, and the
/// dedup key derived from the latter two.
type PreparedCandidate = (
    PlanPattern,
    HashMap<XamNodeId, XamNodeId>,
    Xam,
    Vec<XamNodeId>,
    String,
);

/// Rewrite query pattern `q` using the named views, returning verified
/// rewritings sorted by plan size (smallest first).
pub fn rewrite(q: &Xam, views: &[(String, Xam)], s: &Summary) -> (Vec<Rewriting>, RewriteStats) {
    rewrite_with_config(q, views, s, RewriteConfig::default())
}

/// As [`rewrite`] with explicit configuration.
pub fn rewrite_with_config(
    q: &Xam,
    views: &[(String, Xam)],
    s: &Summary,
    cfg: RewriteConfig,
) -> (Vec<Rewriting>, RewriteStats) {
    rewrite_with_engine(q, views, s, cfg, &EngineOptions::default())
}

/// As [`rewrite_with_config`] with an execution context: candidate
/// verification fans out over [`EngineOptions::threads`] scoped workers
/// and memoizes through the shared cache. The produced rewriting set is
/// identical to the sequential run — candidates are generated, deduped
/// and merged in one stable order; only the verification wall-clock
/// changes. Builds a [`ViewIndex`] over `views` for this call.
pub fn rewrite_with_engine(
    q: &Xam,
    views: &[(String, Xam)],
    s: &Summary,
    cfg: RewriteConfig,
    eng: &EngineOptions,
) -> (Vec<Rewriting>, RewriteStats) {
    rewrite_indexed(q, views, None, s, cfg, eng)
}

/// [`rewrite_with_engine`] over a [`ViewIndex`] already built for
/// `views`; `None` builds one if the flat search needs it.
pub(crate) fn rewrite_indexed(
    q: &Xam,
    views: &[(String, Xam)],
    index: Option<&ViewIndex>,
    s: &Summary,
    cfg: RewriteConfig,
    eng: &EngineOptions,
) -> (Vec<Rewriting>, RewriteStats) {
    let mut stats = RewriteStats::default();
    let q_rets = q.return_nodes();
    let q_has_nesting = q.pattern_nodes().any(|n| q.node(n).edge.sem.is_nested());

    let mut verified: Vec<Rewriting> = Vec::new();
    let mut contained_only: Vec<(PlanPattern, HashMap<XamNodeId, XamNodeId>)> = Vec::new();

    let mut prefix_counter = 0usize;
    let candidates = if q_has_nesting {
        let mut c = nested_exact_candidates(q, views, s, &mut stats);
        if cfg.max_views >= 2 {
            c.extend(nested_pair_candidates(
                q,
                views,
                &mut stats,
                &mut prefix_counter,
            ));
        }
        c
    } else {
        let built;
        let index = match index {
            Some(index) => index,
            None => {
                built = ViewIndex::build(views, s);
                &built
            }
        };
        debug_assert_eq!(index.len(), views.len(), "view index out of step");
        let search = FlatSearch {
            views,
            index,
            s,
            eng,
        };
        search.candidates(q, cfg, &mut stats, &mut prefix_counter)
    };

    // distinct mappings frequently induce the *same* verification pattern
    // (symmetric view orders, interchangeable mapping variants): the
    // expensive containment checks run once per distinct pattern, in
    // first-appearance order — workers return indexed verdicts, so the
    // merge below is independent of scheduling
    let prepared: Vec<PreparedCandidate> = candidates
        .into_iter()
        .map(|(pp, qmap)| {
            let (vp, p_rets) = verification_pattern(q, &pp, &qmap);
            let key = format!("{vp}|{p_rets:?}");
            (pp, qmap, vp, p_rets, key)
        })
        .collect();
    let mut unique: Vec<(&Xam, &[XamNodeId])> = Vec::new();
    let mut key_slot: HashMap<&str, usize> = HashMap::new();
    for (_, _, vp, p_rets, key) in &prepared {
        key_slot.entry(key.as_str()).or_insert_with(|| {
            unique.push((vp, p_rets));
            unique.len() - 1
        });
    }
    stats.candidates_verified += unique.len();
    let verdicts = verify_candidates(q, &q_rets, s, &unique, eng);

    for (pp, qmap, _, _, key) in &prepared {
        let (fwd_ok, bwd_ok) = verdicts[key_slot[key.as_str()]];
        if !fwd_ok {
            continue;
        }
        if bwd_ok {
            if let Some(rw) = finalize(q, pp.clone(), qmap) {
                verified.push(rw);
            }
        } else if cfg.allow_unions {
            contained_only.push((pp.clone(), qmap.clone()));
        }
    }

    // union rewritings: candidates each ⊆ q whose union covers q
    if verified.is_empty() && cfg.allow_unions && contained_only.len() >= 2 {
        if let Some(rw) = try_union(q, s, &contained_only, &mut stats) {
            verified.push(rw);
        }
    }

    verified.sort_by_key(|r| r.size);
    // drop redundant rewritings (same view multiset and size)
    verified.dedup_by(|a, b| a.views_used == b.views_used && a.size == b.size);
    stats.rewritings_found = verified.len();
    (verified, stats)
}

/// Verify the deduped candidates: forward (`vp ⊆ q`, required) and
/// backward (`q ⊆ vp`, only checked when forward holds) containment,
/// aligned on the query's return order. With more than one candidate and
/// `threads > 1` the work is dealt round-robin to scoped workers; each
/// returns `(index, verdict)` pairs, so assembly is order-independent.
/// A lone candidate instead parallelizes *inside* the containment check.
fn verify_candidates(
    q: &Xam,
    q_rets: &[XamNodeId],
    s: &Summary,
    unique: &[(&Xam, &[XamNodeId])],
    eng: &EngineOptions,
) -> Vec<(bool, bool)> {
    let one = |vp: &Xam, p_rets: &[XamNodeId], inner_threads: usize| -> (bool, bool) {
        let opts = eng.contain_opts(inner_threads);
        let fwd = contain(vp, q, s, &opts.with_aligned(p_rets, q_rets)).contained;
        let bwd = fwd && contain(q, vp, s, &opts.with_aligned(q_rets, p_rets)).contained;
        (fwd, bwd)
    };
    if eng.threads <= 1 || unique.len() <= 1 {
        return unique
            .iter()
            .map(|(vp, p_rets)| one(vp, p_rets, eng.threads))
            .collect();
    }
    let workers = eng.threads.min(unique.len());
    let mut verdicts = vec![(false, false); unique.len()];
    crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let one = &one;
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    for (i, (vp, p_rets)) in unique.iter().enumerate().skip(w).step_by(workers) {
                        mine.push((i, one(vp, p_rets, 1)));
                    }
                    mine
                })
            })
            .collect();
        for h in handles {
            for (i, v) in h.join().expect("verification worker panicked") {
                verdicts[i] = v;
            }
        }
    });
    verdicts
}

// --------------------------------------------------------------------
// candidate generation: flat patterns

/// What the flat candidate search reads: the views, their index, the
/// summary and the execution context.
struct FlatSearch<'a> {
    views: &'a [(String, Xam)],
    index: &'a ViewIndex,
    s: &'a Summary,
    eng: &'a EngineOptions<'a>,
}

impl FlatSearch<'_> {
    /// Per-node path annotations of a query (sub-)pattern, through the
    /// engine cache when there is one.
    fn annotate(&self, q: &Xam) -> Arc<Annotations> {
        match self.eng.cache {
            Some(c) => c.path_annotations(q, self.s, self.eng.summary_fp),
            None => Arc::new(path_annotations_all(q, self.s)),
        }
    }

    fn candidates(
        &self,
        q: &Xam,
        cfg: RewriteConfig,
        stats: &mut RewriteStats,
        prefix_counter: &mut usize,
    ) -> Vec<(PlanPattern, HashMap<XamNodeId, XamNodeId>)> {
        let mut out = Vec::new();
        // 1. single-view candidates over the whole pattern; the per-view
        // mapping budget shrinks with the view count so large view sets
        // stay tractable (every kept candidate is still exactly verified)
        let per_view = (cfg.max_mappings / self.views.len().max(1)).max(4);
        let q_ann = self.annotate(q);
        // views sharing no summary path with q have no mapping: skip them
        for pos in self.index.covering(&q_ann) {
            let (name, v) = &self.views[pos];
            let v_ann = self
                .index
                .annotations(pos)
                .expect("covering views are indexed");
            for h in node_mappings(q, v, &q_ann, v_ann, per_view) {
                // globally unique column prefix: the same view may appear
                // on both sides of a join, and colliding names would turn
                // join predicates into tautologies
                *prefix_counter += 1;
                if let Some(c) =
                    build_candidate(q, name, v, &h, *prefix_counter, cfg.allow_navigation, stats)
                {
                    out.push(c);
                }
            }
        }
        if cfg.max_views >= 2 {
            self.join_candidates(q, cfg, stats, prefix_counter, &mut out);
        }
        out
    }

    /// 2. multi-view joins: split q at an edge, rewrite parts, join.
    fn join_candidates(
        &self,
        q: &Xam,
        cfg: RewriteConfig,
        stats: &mut RewriteStats,
        prefix_counter: &mut usize,
        out: &mut Vec<(PlanPattern, HashMap<XamNodeId, XamNodeId>)>,
    ) {
        let splits = decompositions(q);
        for (upper, upper_map, sub, sub_map, join_node, axis, equality) in splits {
            if !equality && !cfg.use_structural_ids {
                continue;
            }
            let upper_cands = self.candidates(
                &upper,
                RewriteConfig {
                    max_views: 1,
                    ..cfg
                },
                stats,
                prefix_counter,
            );
            let sub_cands = self.candidates(
                &sub,
                RewriteConfig {
                    max_views: cfg.max_views - 1,
                    ..cfg
                },
                stats,
                prefix_counter,
            );
            for (upp, upp_qmap) in &upper_cands {
                // translate the join node through upper's map
                let Some(&u_in_upper) = upper_map.get(&join_node) else {
                    continue;
                };
                let Some(&u_node) = upp_qmap.get(&u_in_upper) else {
                    continue;
                };
                for (subpp, sub_qmap) in &sub_cands {
                    if upp.views_used.len() + subpp.views_used.len() > cfg.max_views {
                        continue;
                    }
                    let joined = if equality {
                        upp.clone().equality_join(subpp.clone(), u_node)
                    } else {
                        upp.clone().structural_join(subpp.clone(), u_node, axis)
                    };
                    let Some(joined) = joined else { continue };
                    stats.candidates_built += 1;
                    // merge q-node maps: upper part + sub part
                    let mut qmap: HashMap<XamNodeId, XamNodeId> = HashMap::new();
                    for (qo, qu) in &upper_map {
                        if let Some(&ppn) = upp_qmap.get(qu) {
                            qmap.insert(*qo, ppn);
                        }
                    }
                    // sub nodes were grafted: their pattern ids moved; the
                    // graft appended sub's pattern nodes in pre-order after
                    // the existing ones (except the unified root)
                    let offset = upp.pattern.len();
                    for (qo, qs) in &sub_map {
                        if let Some(&ppn) = sub_qmap.get(qs) {
                            let sub_root = subpp
                                .pattern
                                .children(XamNodeId::TOP)
                                .first()
                                .copied()
                                .unwrap_or(XamNodeId(1));
                            let target = if equality && ppn == sub_root {
                                u_node
                            } else {
                                // grafted ids follow creation order: compute
                                // by replaying the same traversal
                                remap_grafted(&subpp.pattern, ppn, sub_root, offset, equality)
                            };
                            qmap.insert(*qo, target);
                        }
                    }
                    out.push((joined, qmap));
                    if out.len() >= cfg.max_mappings * 4 {
                        return; // candidate budget; verification is exact
                    }
                }
            }
        }
    }
}

/// Where a grafted sub-pattern node ends up in the joined pattern: the
/// graft clones sub's nodes (minus the unified root for equality joins) in
/// pre-order starting at `offset`.
fn remap_grafted(
    sub: &Xam,
    node: XamNodeId,
    sub_root: XamNodeId,
    offset: usize,
    equality: bool,
) -> XamNodeId {
    // enumeration order of the graft: sub_root (only when not equality),
    // then the remaining nodes in pre-order
    let mut idx = 0usize;
    if !equality {
        if node == sub_root {
            return XamNodeId(offset as u32);
        }
        idx += 1;
    }
    for n in sub.pattern_nodes() {
        if n == sub_root {
            continue;
        }
        if n == node {
            return XamNodeId((offset + idx) as u32);
        }
        idx += 1;
    }
    XamNodeId(offset as u32)
}

/// The split points of a query pattern: for every non-root node `qb` with
/// parent `qa`, (upper = q minus subtree(qb), sub = subtree(qb)) for a
/// structural join at (qa, axis), and (upper = q minus the *children* of
/// qb, sub = subtree(qb)) for an identity join at qb.
#[allow(clippy::type_complexity)]
fn decompositions(
    q: &Xam,
) -> Vec<(
    Xam,
    HashMap<XamNodeId, XamNodeId>,
    Xam,
    HashMap<XamNodeId, XamNodeId>,
    XamNodeId,
    algebra::Axis,
    bool,
)> {
    let mut out = Vec::new();
    for qb in q.pattern_nodes() {
        let Some(qa) = q.parent(qb) else { continue };
        let (sub, sub_map) = subtree_with_map(q, qb);
        let axis = q.node(qb).edge.axis;
        if qa != XamNodeId::TOP {
            if let Some((upper, upper_map)) = remove_subtree(q, qb) {
                // structural join at qa
                out.push((
                    upper,
                    upper_map,
                    sub.clone(),
                    sub_map.clone(),
                    qa,
                    axis,
                    false,
                ));
            }
        }
        // identity join at qb: upper keeps qb but loses its children
        if !q.children(qb).is_empty() {
            if let Some((upper, upper_map)) = prune_children(q, qb) {
                out.push((upper, upper_map, sub, sub_map, qb, axis, true));
            }
        }
    }
    out
}

/// Copy of `q` re-rooted at `sub` (under a fresh `⊤` with the original
/// edge), with the old→new node map. The subtree root's edge keeps its
/// axis but becomes a plain join from `⊤` (it is the iteration root now).
pub fn subtree_with_map(q: &Xam, sub: XamNodeId) -> (Xam, HashMap<XamNodeId, XamNodeId>) {
    let mut out = Xam::top();
    out.ordered = q.ordered;
    let mut map = HashMap::new();
    fn rec(
        src: &Xam,
        from: XamNodeId,
        dst: &mut Xam,
        under: XamNodeId,
        map: &mut HashMap<XamNodeId, XamNodeId>,
    ) {
        let mut node = src.node(from).clone();
        node.children = Vec::new();
        if under == XamNodeId::TOP {
            node.edge = xam_core::ast::XamEdge {
                axis: algebra::Axis::Descendant,
                sem: xam_core::ast::EdgeSem::Join,
            };
        }
        let new = dst.add_child(under, node);
        map.insert(from, new);
        for &c in src.children(from) {
            rec(src, c, dst, new, map);
        }
    }
    rec(q, sub, &mut out, XamNodeId::TOP, &mut map);
    (out, map)
}

/// Copy of `q` without the subtree rooted at `victim` (with node map);
/// `None` if nothing would remain.
fn remove_subtree(q: &Xam, victim: XamNodeId) -> Option<(Xam, HashMap<XamNodeId, XamNodeId>)> {
    let mut out = Xam::top();
    out.ordered = q.ordered;
    let mut map = HashMap::new();
    fn rec(
        src: &Xam,
        n: XamNodeId,
        victim: XamNodeId,
        dst: &mut Xam,
        under: XamNodeId,
        map: &mut HashMap<XamNodeId, XamNodeId>,
    ) {
        for &c in src.children(n) {
            if c == victim {
                continue;
            }
            let mut node = src.node(c).clone();
            node.children = Vec::new();
            let new = dst.add_child(under, node);
            map.insert(c, new);
            rec(src, c, victim, dst, new, map);
        }
    }
    rec(
        q,
        XamNodeId::TOP,
        victim,
        &mut out,
        XamNodeId::TOP,
        &mut map,
    );
    if out.pattern_size() == 0 {
        None
    } else {
        Some((out, map))
    }
}

/// Copy of `q` with `node`'s children removed (with node map).
fn prune_children(q: &Xam, node: XamNodeId) -> Option<(Xam, HashMap<XamNodeId, XamNodeId>)> {
    let mut out = Xam::top();
    out.ordered = q.ordered;
    let mut map = HashMap::new();
    fn rec(
        src: &Xam,
        n: XamNodeId,
        stop: XamNodeId,
        dst: &mut Xam,
        under: XamNodeId,
        map: &mut HashMap<XamNodeId, XamNodeId>,
    ) {
        for &c in src.children(n) {
            let mut nd = src.node(c).clone();
            nd.children = Vec::new();
            let new = dst.add_child(under, nd);
            map.insert(c, new);
            if c != stop {
                rec(src, c, stop, dst, new, map);
            }
        }
    }
    rec(q, XamNodeId::TOP, node, &mut out, XamNodeId::TOP, &mut map);
    Some((out, map))
}

/// Enumerate partial node mappings `h : q-nodes ⇀ v-nodes` respecting
/// kinds, summary path annotations and tree structure; unmapped nodes
/// will be compensated by navigation. `q_ann` and `v_ann` are the two
/// patterns' per-node path annotations: the caller computes each once
/// (the query's per search call, the views' in the [`ViewIndex`]). A
/// pair is compatible when the kinds agree and the annotations meet, so
/// a view with no compatible pair yields no mapping — which is what lets
/// the index skip it.
fn node_mappings(
    q: &Xam,
    v: &Xam,
    q_ann: &[HashSet<SummaryNodeId>],
    v_ann: &[HashSet<SummaryNodeId>],
    cap: usize,
) -> Vec<HashMap<XamNodeId, XamNodeId>> {
    let compatible = |qn: XamNodeId, vn: XamNodeId| -> bool {
        let qd = q.node(qn);
        let vd = v.node(vn);
        if qd.is_attribute != vd.is_attribute {
            return false;
        }
        // annotations must intersect, else the pair is dead
        q_ann[qn.index()]
            .intersection(&v_ann[vn.index()])
            .next()
            .is_some()
    };
    let mut out: Vec<HashMap<XamNodeId, XamNodeId>> = Vec::new();
    let order: Vec<XamNodeId> = q.pattern_nodes().collect();

    #[allow(clippy::too_many_arguments)]
    fn assign(
        q: &Xam,
        v: &Xam,
        order: &[XamNodeId],
        idx: usize,
        cur: &mut HashMap<XamNodeId, XamNodeId>,
        compatible: &dyn Fn(XamNodeId, XamNodeId) -> bool,
        out: &mut Vec<HashMap<XamNodeId, XamNodeId>>,
        cap: usize,
    ) {
        if out.len() >= cap {
            return;
        }
        if idx == order.len() {
            if !cur.is_empty() {
                out.push(cur.clone());
            }
            return;
        }
        let qn = order[idx];
        let parent = q.parent(qn).unwrap();
        // option 1: map qn
        let candidates: Vec<XamNodeId> = if parent == XamNodeId::TOP {
            v.pattern_nodes().collect()
        } else if let Some(&vp) = cur.get(&parent) {
            // descendants of the parent's image (any depth; verification
            // settles axis questions)
            let mut desc = Vec::new();
            let mut stack: Vec<XamNodeId> = v.children(vp).to_vec();
            while let Some(c) = stack.pop() {
                desc.push(c);
                stack.extend_from_slice(v.children(c));
            }
            desc
        } else {
            // parent unmapped: if it can be *skipped* (stores nothing, no
            // predicate — e.g. a redundant //item above //listitem that
            // the summary implies), the child may map anywhere; the
            // equivalence verification rejects unsound skips
            let pd = q.node(parent);
            if !pd.is_return() && pd.value_predicate == Formula::True {
                v.pattern_nodes().collect()
            } else {
                Vec::new()
            }
        };
        for vn in candidates {
            if compatible(qn, vn) {
                cur.insert(qn, vn);
                assign(q, v, order, idx + 1, cur, compatible, out, cap);
                cur.remove(&qn);
            }
        }
        // option 2: leave qn unmapped (navigation compensation)
        assign(q, v, order, idx + 1, cur, compatible, out, cap);
    }

    let mut cur = HashMap::new();
    assign(q, v, &order, 0, &mut cur, &compatible, &mut out, cap);
    // prefer mappings covering more nodes
    out.sort_by_key(|h| usize::MAX - h.len());
    out
}

/// Build the compensated plan-pattern for one (view, mapping) pair.
#[allow(clippy::too_many_arguments)]
fn build_candidate(
    q: &Xam,
    view_name: &str,
    v: &Xam,
    h: &HashMap<XamNodeId, XamNodeId>,
    unique: usize,
    allow_navigation: bool,
    stats: &mut RewriteStats,
) -> Option<(PlanPattern, HashMap<XamNodeId, XamNodeId>)> {
    // flat views only for the compensation machinery
    if v.pattern_nodes().any(|n| v.node(n).edge.sem.is_nested()) {
        return None;
    }
    let prefix = format!("w{unique}_");
    let mut pp = PlanPattern::from_view(view_name, v, Some(&prefix));
    let mut qmap: HashMap<XamNodeId, XamNodeId> = HashMap::new();
    let mut skipped: std::collections::HashSet<XamNodeId> = std::collections::HashSet::new();
    // process q nodes in pre-order
    for qn in q.pattern_nodes() {
        let qd = q.node(qn);
        if let Some(&vn) = h.get(&qn) {
            qmap.insert(qn, vn);
        } else {
            let parent = q.parent(qn)?;
            // a storeless, unconstrained node whose ancestors are all
            // unmapped can be *dropped* — the verification decides whether
            // the summary makes it redundant
            let parent_gone = parent == XamNodeId::TOP || skipped.contains(&parent);
            if parent_gone {
                if !qd.is_return()
                    && qd.value_predicate == Formula::True
                    && !qd.edge.sem.is_nested()
                {
                    skipped.insert(qn);
                    continue;
                }
                return None;
            }
            // otherwise: navigation from the mapped parent
            if !allow_navigation {
                return None;
            }
            let &from = qmap.get(&parent)?;
            if qd.edge.sem.is_nested() {
                return None; // nested edges cannot be navigated flatly
            }
            let subtree_stores = std::iter::once(qn)
                .chain(descendants_of(q, qn))
                .any(|m| q.node(m).is_return());
            let mode = if qd.edge.sem.is_optional() {
                NavMode::Outer
            } else if !subtree_stores && q.children(qn).is_empty() {
                NavMode::Exists
            } else {
                NavMode::Flat
            };
            let new = pp.navigate(
                from,
                qd.edge.axis,
                qd.tag_predicate.as_deref(),
                qd.is_attribute,
                mode,
            )?;
            qmap.insert(qn, new);
        }
    }
    // value predicates
    for qn in q.pattern_nodes() {
        let f = &q.node(qn).value_predicate;
        if *f == Formula::True {
            continue;
        }
        let &pn = qmap.get(&qn)?;
        let already = &pp.pattern.node(pn).value_predicate;
        // if the plan node already carries an equal-or-stronger formula,
        // skip; otherwise filter
        if already == f {
            continue;
        }
        if !pp.filter_value(pn, f) {
            return None;
        }
    }
    // output attributes must be obtainable
    for qn in q.return_nodes() {
        let qd = q.node(qn).clone();
        let &pn = qmap.get(&qn)?;
        if qd.stores_id.is_some() && pp.cols.get(&pn).and_then(|c| c.id.clone()).is_none() {
            // §4.4's navigational-ID exploitation: if a descendant of `qn`
            // reached through a fixed `/`-chain carries a `p`-class ID,
            // the ancestor's identifier is *derivable* from it
            if !derive_id_from_descendant(q, &mut pp, &qmap, qn) {
                return None;
            }
        }
        if qd.stores_val && pp.value_column(pn).is_none() {
            return None;
        }
        if qd.stores_cont && pp.content_column(pn).is_none() {
            return None;
        }
    }
    stats.candidates_built += 1;
    Some((pp, qmap))
}

/// Try to manufacture `qn`'s ID column by deriving it from a mapped
/// descendant with a `p`-class (Dewey/ORDPATH-style) identifier connected
/// by parent-child edges only — the fixed depth offset makes the ancestor
/// ID computable (the paper's `p` IDs, §1.2.1 / §4.4).
fn derive_id_from_descendant(
    q: &Xam,
    pp: &mut PlanPattern,
    qmap: &HashMap<XamNodeId, XamNodeId>,
    qn: XamNodeId,
) -> bool {
    // BFS over `/`-edges below qn
    let mut frontier: Vec<(XamNodeId, u16)> = q
        .children(qn)
        .iter()
        .filter(|&&c| q.node(c).edge.axis == algebra::Axis::Child)
        .map(|&c| (c, 1u16))
        .collect();
    while let Some((qd, levels)) = frontier.pop() {
        if let Some(&pd) = qmap.get(&qd) {
            if pp
                .cols
                .get(&pd)
                .is_some_and(|c| c.id_kind == Some(xam_core::IdKind::Parent) && c.id.is_some())
            {
                if let Some(col) = pp.derive_ancestor_id(pd, levels) {
                    let pn = qmap[&qn];
                    pp.set_id_column(pn, col, xam_core::IdKind::Parent);
                    return true;
                }
            }
        }
        frontier.extend(
            q.children(qd)
                .iter()
                .filter(|&&c| q.node(c).edge.axis == algebra::Axis::Child)
                .map(|&c| (c, levels + 1)),
        );
    }
    false
}

fn descendants_of(q: &Xam, n: XamNodeId) -> Vec<XamNodeId> {
    let mut out = Vec::new();
    let mut stack: Vec<XamNodeId> = q.children(n).to_vec();
    while let Some(c) = stack.pop() {
        out.push(c);
        stack.extend_from_slice(q.children(c));
    }
    out
}

// --------------------------------------------------------------------
// nested patterns: exact-shape single-view rewriting (§5.4 fragment)

fn nested_exact_candidates(
    q: &Xam,
    views: &[(String, Xam)],
    s: &Summary,
    stats: &mut RewriteStats,
) -> Vec<(PlanPattern, HashMap<XamNodeId, XamNodeId>)> {
    let _ = s;
    let mut out = Vec::new();
    for (name, v) in views {
        if v.has_access_restrictions() {
            continue;
        }
        // shape-preserving tree isomorphism, allowing sibling permutation;
        // labels, axes and nesting compatibility are left to the Chapter 4
        // verification (incl. Prop 4.4.4)
        if v.len() != q.len() {
            continue;
        }
        if let Some(iso) = tree_isomorphism(q, v) {
            // the CastSchema finalization reads the *query's* schema, so
            // the view's column order must agree with the query's
            if output_order_compatible(q, v, &iso) {
                stats.candidates_built += 1;
                let pp = PlanPattern::from_view(name, v, None);
                out.push((pp, iso));
            }
        }
    }
    out
}

/// A kind/nesting-preserving isomorphism `q → v` up to sibling order.
fn tree_isomorphism(q: &Xam, v: &Xam) -> Option<HashMap<XamNodeId, XamNodeId>> {
    fn match_children(
        q: &Xam,
        v: &Xam,
        qn: XamNodeId,
        vn: XamNodeId,
        map: &mut HashMap<XamNodeId, XamNodeId>,
    ) -> bool {
        let qc: Vec<XamNodeId> = q.children(qn).to_vec();
        let vc: Vec<XamNodeId> = v.children(vn).to_vec();
        if qc.len() != vc.len() {
            return false;
        }
        fn assign(
            q: &Xam,
            v: &Xam,
            qc: &[XamNodeId],
            i: usize,
            used: &mut Vec<bool>,
            vc: &[XamNodeId],
            map: &mut HashMap<XamNodeId, XamNodeId>,
        ) -> bool {
            if i == qc.len() {
                return true;
            }
            let qn = qc[i];
            for (j, &vn) in vc.iter().enumerate() {
                if used[j] {
                    continue;
                }
                let (qd, vd) = (q.node(qn), v.node(vn));
                if qd.is_attribute != vd.is_attribute
                    || qd.edge.sem.is_nested() != vd.edge.sem.is_nested()
                    || qd.edge.sem.is_optional() != vd.edge.sem.is_optional()
                    || qd.edge.sem.is_semijoin() != vd.edge.sem.is_semijoin()
                {
                    continue;
                }
                used[j] = true;
                map.insert(qn, vn);
                if match_children(q, v, qn, vn, map) && assign(q, v, qc, i + 1, used, vc, map) {
                    return true;
                }
                map.remove(&qn);
                used[j] = false;
            }
            false
        }
        let mut used = vec![false; vc.len()];
        assign(q, v, &qc, 0, &mut used, &vc, map)
    }
    let mut map = HashMap::new();
    if match_children(q, v, XamNodeId::TOP, XamNodeId::TOP, &mut map) {
        Some(map)
    } else {
        None
    }
}

/// Pair-of-nested-views candidates: the two views share their root node
/// (same document node, joined by node identity on the root's ID); each
/// root-child subtree of the query maps isomorphically into one of the
/// views — the §5.2 scenario where `V1` holds the nested listitems and
/// `V2` the names of the *same* items.
fn nested_pair_candidates(
    q: &Xam,
    views: &[(String, Xam)],
    stats: &mut RewriteStats,
    prefix_counter: &mut usize,
) -> Vec<(PlanPattern, HashMap<XamNodeId, XamNodeId>)> {
    let mut out = Vec::new();
    let Some(&q_root) = q.children(XamNodeId::TOP).first() else {
        return out;
    };
    if q.children(XamNodeId::TOP).len() != 1 {
        return out;
    }
    let q_branches: Vec<XamNodeId> = q.children(q_root).to_vec();
    if q_branches.len() < 2 {
        return out;
    }
    for (n1, v1) in views {
        for (n2, v2) in views {
            if v1.has_access_restrictions() || v2.has_access_restrictions() {
                continue;
            }
            let (Some(&r1), Some(&r2)) = (
                v1.children(XamNodeId::TOP).first(),
                v2.children(XamNodeId::TOP).first(),
            ) else {
                continue;
            };
            // both roots must store an ID for the identity join
            if v1.node(r1).stores_id.is_none() || v2.node(r2).stores_id.is_none() {
                continue;
            }
            // assign each query branch wholly to one view
            let mut qmap_v1: HashMap<XamNodeId, XamNodeId> = HashMap::new();
            let mut qmap_v2: HashMap<XamNodeId, XamNodeId> = HashMap::new();
            let mut used1 = vec![false; v1.children(r1).len()];
            let mut used2 = vec![false; v2.children(r2).len()];
            let mut ok = true;
            let mut any_in_v2 = false;
            for &qb in &q_branches {
                let mut placed = false;
                for (j, &vb) in v1.children(r1).iter().enumerate() {
                    if used1[j] {
                        continue;
                    }
                    let mut m = HashMap::new();
                    if match_pair(q, v1, qb, vb, &mut m) {
                        used1[j] = true;
                        qmap_v1.extend(m);
                        placed = true;
                        break;
                    }
                }
                if placed {
                    continue;
                }
                for (j, &vb) in v2.children(r2).iter().enumerate() {
                    if used2[j] {
                        continue;
                    }
                    let mut m = HashMap::new();
                    if match_pair(q, v2, qb, vb, &mut m) {
                        used2[j] = true;
                        qmap_v2.extend(m);
                        placed = true;
                        any_in_v2 = true;
                        break;
                    }
                }
                if !placed {
                    ok = false;
                    break;
                }
            }
            if !ok || !any_in_v2 || qmap_v1.is_empty() {
                continue;
            }
            // build the identity-join plan
            *prefix_counter += 1;
            let p1 = format!("x{}_", *prefix_counter);
            *prefix_counter += 1;
            let p2 = format!("x{}_", *prefix_counter);
            let pp1 = PlanPattern::from_view(n1, v1, Some(&p1));
            let pp2 = PlanPattern::from_view(n2, v2, Some(&p2));
            let offset = pp1.pattern.len();
            let Some(joined) = pp1.equality_join(pp2, r1) else {
                continue;
            };
            stats.candidates_built += 1;
            let mut qmap: HashMap<XamNodeId, XamNodeId> = HashMap::new();
            qmap.insert(q_root, r1);
            for (qn, vn) in qmap_v1 {
                qmap.insert(qn, vn);
            }
            for (qn, vn) in qmap_v2 {
                let target = if vn == r2 {
                    r1
                } else {
                    remap_grafted(v2, vn, r2, offset, true)
                };
                qmap.insert(qn, target);
            }
            out.push((joined, qmap));
        }
    }
    out
}

/// Subtree isomorphism rooted at a (query node, view node) pair.
fn match_pair(
    q: &Xam,
    v: &Xam,
    qn: XamNodeId,
    vn: XamNodeId,
    map: &mut HashMap<XamNodeId, XamNodeId>,
) -> bool {
    let (qd, vd) = (q.node(qn), v.node(vn));
    if qd.is_attribute != vd.is_attribute
        || qd.edge.sem.is_nested() != vd.edge.sem.is_nested()
        || qd.edge.sem.is_optional() != vd.edge.sem.is_optional()
        || qd.edge.sem.is_semijoin() != vd.edge.sem.is_semijoin()
        || qd.tag_predicate != vd.tag_predicate
        || qd.value_predicate != vd.value_predicate
    {
        return false;
    }
    // stored attributes of the view must cover the query node's needs
    if (qd.stores_id.is_some() && vd.stores_id.is_none())
        || (qd.stores_val && !vd.stores_val)
        || (qd.stores_cont && !vd.stores_cont)
        || (qd.stores_tag && !vd.stores_tag)
    {
        return false;
    }
    map.insert(qn, vn);
    let qc: Vec<XamNodeId> = q.children(qn).to_vec();
    let vc: Vec<XamNodeId> = v.children(vn).to_vec();
    if qc.len() != vc.len() {
        map.remove(&qn);
        return false;
    }
    fn assign(
        q: &Xam,
        v: &Xam,
        qc: &[XamNodeId],
        i: usize,
        used: &mut Vec<bool>,
        vc: &[XamNodeId],
        map: &mut HashMap<XamNodeId, XamNodeId>,
    ) -> bool {
        if i == qc.len() {
            return true;
        }
        for (j, &vn) in vc.iter().enumerate() {
            if used[j] {
                continue;
            }
            used[j] = true;
            if match_pair(q, v, qc[i], vn, map) && assign(q, v, qc, i + 1, used, vc, map) {
                return true;
            }
            used[j] = false;
        }
        false
    }
    let mut used = vec![false; vc.len()];
    if assign(q, v, &qc, 0, &mut used, &vc, map) {
        true
    } else {
        map.remove(&qn);
        false
    }
}

/// Do the view's output columns, traversed in the view's own order, line
/// up positionally with the query's (same node via the isomorphism, same
/// attribute)? Required for the schema cast.
fn output_order_compatible(q: &Xam, v: &Xam, iso: &HashMap<XamNodeId, XamNodeId>) -> bool {
    let qc = output_columns(q);
    let vc = output_columns(v);
    if qc.len() != vc.len() {
        return false;
    }
    qc.iter()
        .zip(&vc)
        .all(|(a, b)| iso.get(&a.node) == Some(&b.node) && a.attr == b.attr)
}

// --------------------------------------------------------------------
// verification and finalization

/// Build the pattern used for equivalence testing: the candidate's
/// pattern with stored attributes aligned to the query's (extra stored
/// items in views are projected away by the final plan, so they must not
/// enter the signature comparison).
fn verification_pattern(
    q: &Xam,
    pp: &PlanPattern,
    qmap: &HashMap<XamNodeId, XamNodeId>,
) -> (Xam, Vec<XamNodeId>) {
    let mut vp = pp.pattern.clone();
    for n in vp.all_nodes().collect::<Vec<_>>() {
        let node = vp.node_mut(n);
        node.stores_id = None;
        node.stores_val = false;
        node.stores_cont = false;
        node.stores_tag = false;
        node.requires_id = false;
        node.requires_val = false;
        node.requires_tag = false;
    }
    let mut rets = Vec::new();
    for qn in q.return_nodes() {
        let pn = qmap[&qn];
        let qd = q.node(qn);
        let node = vp.node_mut(pn);
        node.stores_id = qd.stores_id;
        node.stores_val = qd.stores_val;
        node.stores_cont = qd.stores_cont;
        node.stores_tag = qd.stores_tag;
        rets.push(pn);
    }
    (vp, rets)
}

/// Project + cast the candidate plan so its output schema matches the
/// query pattern's output schema exactly.
fn finalize(
    q: &Xam,
    mut pp: PlanPattern,
    qmap: &HashMap<XamNodeId, XamNodeId>,
) -> Option<Rewriting> {
    let q_cols = output_columns(q);
    let mut proj: Vec<Path> = Vec::new();
    for c in &q_cols {
        let pn = qmap[&c.node];
        let col = match c.attr {
            StoredAttr::Id => pp.cols.get(&pn)?.id.clone()?,
            StoredAttr::Val => pp.value_column(pn)?,
            StoredAttr::Cont => pp.content_column(pn)?,
            StoredAttr::Tag => pp.cols.get(&pn)?.tag.clone()?,
        };
        proj.push(Path::new(col));
    }
    // Π° — XAM semantics is duplicate-free (Definition 2.2.3), and the
    // compensated plan may produce duplicates (e.g. identity joins of
    // overlapping views)
    let plan = LogicalPlan::Project {
        input: Box::new(pp.plan.clone()),
        cols: proj,
        distinct: true,
    };
    let plan = LogicalPlan::CastSchema {
        input: Box::new(plan),
        schema: q_schema(q),
    };
    let size = plan.size();
    Some(Rewriting {
        plan,
        pattern: pp.pattern,
        views_used: pp.views_used,
        size,
    })
}

/// The output schema of a query pattern (what the default pattern plan
/// produces), reconstructed from its column paths.
pub fn q_schema(q: &Xam) -> Schema {
    use algebra::Field;
    fn from_paths(paths: &[String]) -> Schema {
        let mut order: Vec<String> = Vec::new();
        let mut groups: HashMap<String, Vec<String>> = HashMap::new();
        for p in paths {
            let (head, rest) = match p.split_once('.') {
                Some((h, r)) => (h.to_string(), Some(r.to_string())),
                None => (p.clone(), None),
            };
            let e = groups.entry(head.clone()).or_insert_with(|| {
                order.push(head);
                Vec::new()
            });
            if let Some(r) = rest {
                e.push(r);
            }
        }
        Schema::new(
            order
                .into_iter()
                .map(|h| {
                    let subs = &groups[&h];
                    if subs.is_empty() {
                        Field::atom(h)
                    } else {
                        Field::nested(h, from_paths(subs))
                    }
                })
                .collect(),
        )
    }
    let paths: Vec<String> = output_columns(q).into_iter().map(|c| c.path).collect();
    from_paths(&paths)
}

// --------------------------------------------------------------------
// unions

fn try_union(
    q: &Xam,
    s: &Summary,
    contained: &[(PlanPattern, HashMap<XamNodeId, XamNodeId>)],
    stats: &mut RewriteStats,
) -> Option<Rewriting> {
    // test q ⊆ union of the contained candidates' patterns
    let pats: Vec<Xam> = contained
        .iter()
        .map(|(pp, qmap)| verification_pattern(q, pp, qmap).0)
        .collect();
    let refs: Vec<&Xam> = pats.iter().collect();
    stats.candidates_built += 1;
    if !containment::contained_in_union(q, &refs, s) {
        return None;
    }
    // assemble the union plan (schemas already aligned by finalize)
    let mut plans = Vec::new();
    let mut views = Vec::new();
    for (pp, qmap) in contained {
        let rw = finalize(q, pp.clone(), qmap)?;
        views.extend(rw.views_used);
        plans.push(rw.plan);
    }
    let mut iter = plans.into_iter();
    let mut plan = iter.next()?;
    for p in iter {
        plan = plan.union(p);
    }
    let size = plan.size();
    views.sort();
    views.dedup();
    Some(Rewriting {
        plan,
        pattern: q.clone(),
        views_used: views,
        size,
    })
}
