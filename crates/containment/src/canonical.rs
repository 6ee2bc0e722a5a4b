//! Canonical models of patterns under a summary (§4.3).
//!
//! An embedding of a pattern into the summary (label- and axis-preserving,
//! Definition 4.1.1 transposed to `S`) induces a *canonical tree*: one
//! distinguished node per pattern node, connected by the parent-child
//! chains the summary dictates. The set of canonical trees of all
//! embeddings — duplicate-free — is the canonical model `mod_S(p)`, and
//! containment reduces to evaluating the container pattern on each
//! canonical tree (Proposition 4.4.1).
//!
//! Optional edges multiply the model by erasure subsets (§4.3.2);
//! decorated patterns carry their value formulas onto the distinguished
//! nodes.

use std::collections::HashSet;

use summary::{Summary, SummaryNodeId};
use xam_core::ast::{Axis, Formula, Xam, XamNodeId};
use xmltree::NodeKind;

/// An embedding of the pattern's non-`⊤` nodes into summary nodes
/// (indexed by XAM node index; the `⊤` slot is unused).
pub type SummaryEmbedding = Vec<Option<SummaryNodeId>>;

/// Does pattern node `pn` match summary node `sn` (label and kind; value
/// formulas do not restrict summary embeddings — they decorate the
/// canonical tree — but unsatisfiable formulas kill the pattern)?
pub fn node_matches(xam: &Xam, pn: XamNodeId, s: &Summary, sn: SummaryNodeId) -> bool {
    let node = xam.node(pn);
    let kind = s.kind(sn);
    let kind_ok = if node.is_attribute {
        kind == NodeKind::Attribute
    } else {
        kind == NodeKind::Element
    };
    if !kind_ok {
        return false;
    }
    if let Some(t) = &node.tag_predicate {
        if s.label(sn) != t {
            return false;
        }
    }
    if node.value_predicate != Formula::True && !node.value_predicate.satisfiable() {
        return false;
    }
    true
}

/// Candidate summary images for `pn` given the image of its parent
/// (`None` = the virtual document node above the summary root).
fn candidates(
    xam: &Xam,
    pn: XamNodeId,
    s: &Summary,
    parent_image: Option<SummaryNodeId>,
) -> Vec<SummaryNodeId> {
    let axis = xam.node(pn).edge.axis;
    let pool: Vec<SummaryNodeId> = match (parent_image, axis) {
        (None, Axis::Child) => vec![s.root()],
        (None, Axis::Descendant) => s.all_nodes().collect(),
        (Some(p), Axis::Child) => s.children(p).to_vec(),
        (Some(p), Axis::Descendant) => s.descendants(p),
    };
    pool.into_iter()
        .filter(|&sn| node_matches(xam, pn, s, sn))
        .collect()
}

/// Enumerate the strict (non-optional-aware) embeddings of the pattern
/// into the summary, invoking `visit` for each; `visit` returning `false`
/// aborts the enumeration (early exit for negative containment).
pub fn for_each_embedding<F: FnMut(&SummaryEmbedding) -> bool>(
    xam: &Xam,
    s: &Summary,
    visit: &mut F,
) -> bool {
    fn assign<F: FnMut(&SummaryEmbedding) -> bool>(
        xam: &Xam,
        s: &Summary,
        order: &[XamNodeId],
        idx: usize,
        cur: &mut SummaryEmbedding,
        visit: &mut F,
    ) -> bool {
        if idx == order.len() {
            return visit(cur);
        }
        let pn = order[idx];
        let parent = xam.parent(pn).unwrap();
        let parent_image = if parent == XamNodeId::TOP {
            None
        } else {
            cur[parent.index()]
        };
        for c in candidates(xam, pn, s, parent_image) {
            cur[pn.index()] = Some(c);
            if !assign(xam, s, order, idx + 1, cur, visit) {
                return false;
            }
        }
        cur[pn.index()] = None;
        true
    }
    // pre-order: parents before children (creation order guarantees this)
    let order: Vec<XamNodeId> = xam.pattern_nodes().collect();
    let mut cur: SummaryEmbedding = vec![None; xam.len()];
    assign(xam, s, &order, 0, &mut cur, visit)
}

/// Collect all strict embeddings (convenience wrapper).
pub fn embeddings(xam: &Xam, s: &Summary) -> Vec<SummaryEmbedding> {
    let mut out = Vec::new();
    for_each_embedding(xam, s, &mut |e| {
        out.push(e.clone());
        true
    });
    out
}

/// The *path annotation* of a pattern node (Definition 4.3.1): the set of
/// summary nodes it maps to under some embedding.
pub fn path_annotation(xam: &Xam, s: &Summary, pn: XamNodeId) -> HashSet<SummaryNodeId> {
    let mut out = HashSet::new();
    for_each_embedding(xam, s, &mut |e| {
        if let Some(sn) = e[pn.index()] {
            out.insert(sn);
        }
        true
    });
    out
}

/// Path annotations of *every* pattern node (indexed by XAM node index,
/// `⊤`'s slot empty), computed in one enumeration pass — the rewriter
/// needs all of them, and a pass per node repeats the identical
/// enumeration `|p|` times.
pub fn path_annotations_all(xam: &Xam, s: &Summary) -> Vec<HashSet<SummaryNodeId>> {
    let mut out: Vec<HashSet<SummaryNodeId>> = vec![HashSet::new(); xam.len()];
    for_each_embedding(xam, s, &mut |e| {
        for n in xam.pattern_nodes() {
            if let Some(sn) = e[n.index()] {
                out[n.index()].insert(sn);
            }
        }
        true
    });
    out
}

/// A node of a canonical tree.
#[derive(Debug, Clone)]
pub struct CanNode {
    /// The summary node this canonical node stands on (its path).
    pub summary: SummaryNodeId,
    pub parent: Option<usize>,
    pub children: Vec<usize>,
    /// Depth within the canonical tree (root = 1).
    pub depth: u16,
    /// The decoration formula: the pattern node's value formula for
    /// distinguished nodes, `T` for chain nodes (§4.3.2).
    pub formula: Formula,
}

/// A canonical tree `t_e ∈ mod_S(p)` (Definition in §4.3.1).
#[derive(Debug, Clone)]
pub struct CanonicalTree {
    pub nodes: Vec<CanNode>,
    /// For each pattern node (by XAM index): the canonical node it is
    /// distinguished on (`None` for `⊤`, or for pattern nodes erased by an
    /// optional-edge erasure set `F`).
    pub distinguished: Vec<Option<usize>>,
    /// The return tuple: summary nodes of the pattern's return nodes
    /// (`None` = `⊥` under erased optional edges).
    pub return_tuple: Vec<Option<SummaryNodeId>>,
}

impl CanonicalTree {
    pub fn root(&self) -> usize {
        0
    }

    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Structural key for duplicate elimination in `mod_S(p)`: a 64-bit
    /// order-canonical hash (children sorted by subtree hash) combined
    /// with the return tuple. Collisions are astronomically unlikely at
    /// model sizes of a few thousand trees.
    pub fn key(&self) -> u64 {
        fn mix(h: u64, v: u64) -> u64 {
            // splitmix64-style mixing
            let mut z = h ^ v.wrapping_mul(0x9E3779B97F4A7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        }
        fn formula_hash(f: &Formula) -> u64 {
            use std::collections::hash_map::DefaultHasher;
            use std::hash::{Hash, Hasher};
            if *f == Formula::True {
                return 0;
            }
            let mut h = DefaultHasher::new();
            format!("{f}").hash(&mut h);
            h.finish() | 1
        }
        fn rec(t: &CanonicalTree, n: usize) -> u64 {
            let mut h = mix(0x5151_0A0A, t.nodes[n].summary.0 as u64 + 1);
            h = mix(h, formula_hash(&t.nodes[n].formula));
            let mut kids: Vec<u64> = t.nodes[n].children.iter().map(|&c| rec(t, c)).collect();
            kids.sort_unstable();
            for k in kids {
                h = mix(h, k);
            }
            h
        }
        let mut h = rec(self, 0);
        for r in &self.return_tuple {
            h = mix(h, r.map(|s| s.0 as u64 + 2).unwrap_or(1));
        }
        h
    }

    /// Is canonical node `a` an ancestor of `b`?
    pub fn is_ancestor(&self, a: usize, b: usize) -> bool {
        let mut cur = self.nodes[b].parent;
        while let Some(c) = cur {
            if c == a {
                return true;
            }
            cur = self.nodes[c].parent;
        }
        false
    }
}

/// Build the canonical tree of one embedding, optionally erasing the
/// subtrees under the optional-edge erasure set `erase` (pattern node ids
/// whose subtree is dropped; must be lower ends of optional edges).
pub fn canonical_tree(
    xam: &Xam,
    s: &Summary,
    e: &SummaryEmbedding,
    erase: &HashSet<XamNodeId>,
) -> CanonicalTree {
    let rets = xam.return_nodes();
    canonical_tree_with_rets(xam, s, e, erase, &rets)
}

/// As [`canonical_tree`], but with an explicit return-node list — the
/// rewriter aligns a rewriting pattern's return order with the query's.
pub fn canonical_tree_with_rets(
    xam: &Xam,
    s: &Summary,
    e: &SummaryEmbedding,
    erase: &HashSet<XamNodeId>,
    rets: &[XamNodeId],
) -> CanonicalTree {
    let mut t = CanonicalTree {
        nodes: Vec::new(),
        distinguished: vec![None; xam.len()],
        return_tuple: Vec::new(),
    };
    // which pattern nodes survive the erasure (a node is erased if it or
    // any ancestor is in `erase`)
    let mut alive = vec![true; xam.len()];
    for n in xam.pattern_nodes() {
        let erased_here = erase.contains(&n);
        let parent_alive = xam.parent(n).map(|p| alive[p.index()]).unwrap_or(true);
        alive[n.index()] = parent_alive && !erased_here;
    }
    // insert pattern nodes in pre-order, adding the summary chains
    for n in xam.pattern_nodes() {
        if !alive[n.index()] {
            continue;
        }
        let sn = e[n.index()].expect("strict embedding");
        let parent = xam.parent(n).unwrap();
        if parent == XamNodeId::TOP {
            // chain from the summary root down to sn
            let chain = summary_chain(s, None, sn);
            let mut prev: Option<usize> = if t.nodes.is_empty() {
                None
            } else {
                // multiple ⊤ children: root the chains at the same
                // canonical root if they share the summary root
                Some(t.root())
            };
            for (i, &cs) in chain.iter().enumerate() {
                if i == 0 {
                    if t.nodes.is_empty() {
                        t.nodes.push(CanNode {
                            summary: cs,
                            parent: None,
                            children: Vec::new(),
                            depth: 1,
                            formula: Formula::True,
                        });
                        prev = Some(0);
                    } else {
                        prev = Some(t.root());
                    }
                    continue;
                }
                let idx = push_child(&mut t, prev.unwrap(), cs, Formula::True);
                prev = Some(idx);
            }
            let last = prev.unwrap();
            finish_distinguished(xam, &mut t, n, last);
        } else {
            let panchor = t.distinguished[parent.index()].expect("parent placed first");
            // chain strictly below the parent's summary node
            let chain = summary_chain(s, Some(t.nodes[panchor].summary), sn);
            let mut prev = panchor;
            for &cs in &chain {
                prev = push_child(&mut t, prev, cs, Formula::True);
            }
            finish_distinguished(xam, &mut t, n, prev);
        }
    }
    // return tuple
    for &r in rets {
        if alive[r.index()] {
            t.return_tuple.push(e[r.index()]);
        } else {
            t.return_tuple.push(None);
        }
    }
    t
}

fn push_child(t: &mut CanonicalTree, parent: usize, summary: SummaryNodeId, f: Formula) -> usize {
    let depth = t.nodes[parent].depth + 1;
    let idx = t.nodes.len();
    t.nodes.push(CanNode {
        summary,
        parent: Some(parent),
        children: Vec::new(),
        depth,
        formula: f,
    });
    t.nodes[parent].children.push(idx);
    idx
}

fn finish_distinguished(xam: &Xam, t: &mut CanonicalTree, n: XamNodeId, can_idx: usize) {
    t.distinguished[n.index()] = Some(can_idx);
    // carry the decoration (value formula) onto the distinguished node;
    // conflicting formulas on a shared summary node stay on separate
    // canonical nodes because each pattern node got its own chain
    let f = xam.node(n).value_predicate.clone();
    if f != Formula::True {
        let merged = std::mem::replace(&mut t.nodes[can_idx].formula, Formula::True);
        t.nodes[can_idx].formula = merged.and(f);
    }
}

/// The summary chain from `from` (exclusive; `None` = above the root) down
/// to `to` (inclusive), top-down.
fn summary_chain(
    s: &Summary,
    from: Option<SummaryNodeId>,
    to: SummaryNodeId,
) -> Vec<SummaryNodeId> {
    let mut chain = Vec::new();
    let mut cur = Some(to);
    while let Some(c) = cur {
        if Some(c) == from {
            break;
        }
        chain.push(c);
        cur = s.parent(c);
    }
    chain.reverse();
    chain
}

/// The optional-edge erasure sets of a pattern: all subsets of lower ends
/// of optional edges (§4.3.2). The empty set is included.
pub fn erasure_sets(xam: &Xam) -> Vec<HashSet<XamNodeId>> {
    let optional: Vec<XamNodeId> = xam
        .pattern_nodes()
        .filter(|&n| xam.node(n).edge.sem.is_optional())
        .collect();
    let mut out = Vec::new();
    // cap the subset blowup at 2^8 erasure sets: beyond that the model is
    // enumerated on a subset lattice prefix (the paper's optional-edge
    // experiment uses patterns whose optional count stays single-digit)
    let m = optional.len().min(8);
    for mask in 0..(1u32 << m) {
        let mut set = HashSet::new();
        for (i, &n) in optional.iter().take(m).enumerate() {
            if mask & (1 << i) != 0 {
                set.insert(n);
            }
        }
        out.push(set);
    }
    out
}

/// Statistics of a canonical-model enumeration (for the experiments).
#[derive(Debug, Clone, Copy, Default)]
pub struct ModelStats {
    /// `|mod_S(p)|` after duplicate elimination.
    pub size: usize,
    /// Number of raw embeddings enumerated.
    pub embeddings: usize,
}

/// Materialize the full canonical model `mod_S(p)` (duplicate-free),
/// including optional-edge erasures. For an erasure set `F`, the tree
/// `t_{e,F}` is kept only if the full pattern still evaluates non-empty on
/// it — which the optional semantics guarantees here because erased
/// subtrees are exactly optional ones.
pub fn canonical_model(xam: &Xam, s: &Summary) -> (Vec<CanonicalTree>, ModelStats) {
    let mut stats = ModelStats::default();
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    let erasures = erasure_sets(xam);
    for_each_embedding(xam, s, &mut |e| {
        stats.embeddings += 1;
        for f in &erasures {
            let t = canonical_tree(xam, s, e, f);
            let key = t.key();
            if seen.contains(&key) {
                continue;
            }
            // §4.3.2: t_{e,F} joins the model only if the pattern still
            // produces its (⊥-padded) return tuple on the erased tree —
            // erasing an optional branch whose match survives via another
            // chain would contradict the ⊥-minimality of optional
            // embeddings.
            if !f.is_empty() && !crate::pattern_eval::accepts_tuple(xam, s, &t, &t.return_tuple) {
                continue;
            }
            seen.insert(key);
            out.push(t);
        }
        true
    });
    stats.size = out.len();
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use summary::Summary;
    use xam_core::parse_xam;
    use xmltree::parse_document;

    fn fig47_summary() -> Summary {
        // the summary of Figure 4.7: a root with nested b/c structure
        // /a {1:/a, 2:/a/b, 3:/a/b/c(?), ...} — approximate the figure with
        // a recursive-ish document
        let doc = parse_document("<a><b><c><b><e/></b></c><e/></b><d><b><e/></b></d></a>").unwrap();
        Summary::of_document(&doc)
    }

    #[test]
    fn embeddings_respect_labels_and_axes() {
        let s = fig47_summary();
        let p = parse_xam("//b[id:s]{ //e[id:s] }").unwrap();
        let es = embeddings(&p, &s);
        assert!(!es.is_empty());
        for e in &es {
            let b = e[1].unwrap();
            let ee = e[2].unwrap();
            assert_eq!(s.label(b), "b");
            assert_eq!(s.label(ee), "e");
            assert!(s.is_ancestor_or_self(b, ee) && b != ee);
        }
    }

    #[test]
    fn child_from_top_reaches_root_only() {
        let s = fig47_summary();
        let p = parse_xam("/a[id:s]").unwrap();
        assert_eq!(embeddings(&p, &s).len(), 1);
        let p = parse_xam("/b[id:s]").unwrap();
        assert_eq!(embeddings(&p, &s).len(), 0);
    }

    #[test]
    fn star_nodes_match_any_element() {
        let s = fig47_summary();
        let p = parse_xam("//*[id:s]").unwrap();
        assert_eq!(embeddings(&p, &s).len(), s.len());
    }

    #[test]
    fn canonical_tree_has_summary_chains() {
        let s = fig47_summary();
        let p = parse_xam("//a{ //e[id:s] }").unwrap();
        let (model, stats) = canonical_model(&p, &s);
        assert_eq!(stats.size, model.len());
        assert!(!model.is_empty());
        for t in &model {
            // root of the canonical tree is the summary root (a)
            assert_eq!(t.nodes[0].summary, s.root());
            // every non-root node's summary parent matches its tree parent
            for (i, n) in t.nodes.iter().enumerate().skip(1) {
                let tp = n.parent.unwrap();
                assert_eq!(s.parent(n.summary), Some(t.nodes[tp].summary), "node {i}");
            }
        }
    }

    #[test]
    fn duplicate_embeddings_collapse() {
        // //a//*//e with * on different intermediate nodes can produce the
        // same canonical tree; the model is duplicate-free
        let s = fig47_summary();
        let p = parse_xam("//a{ //*{ //e[id:s] } }").unwrap();
        let (model, stats) = canonical_model(&p, &s);
        assert!(stats.embeddings >= model.len());
        let mut keys = HashSet::new();
        for t in &model {
            assert!(keys.insert(t.key()));
        }
    }

    #[test]
    fn optional_edges_multiply_model() {
        let s = fig47_summary();
        let strict = parse_xam("//b[id:s]{ //e[id:s] }").unwrap();
        let optional = parse_xam("//b[id:s]{ //? e[id:s] }").unwrap();
        let (m1, _) = canonical_model(&strict, &s);
        let (m2, _) = canonical_model(&optional, &s);
        assert!(m2.len() > m1.len());
        // some erased trees have ⊥ in the return tuple
        assert!(m2.iter().any(|t| t.return_tuple.contains(&None)));
    }

    #[test]
    fn unsatisfiable_formula_kills_pattern() {
        let s = fig47_summary();
        let p = parse_xam("//e[id:s,val>5,val<2]").unwrap();
        assert!(embeddings(&p, &s).is_empty());
    }

    #[test]
    fn path_annotations() {
        let s = fig47_summary();
        let p = parse_xam("//b{ //e[id:s] }").unwrap();
        let ann = path_annotation(&p, &s, xam_core::XamNodeId(2));
        assert!(!ann.is_empty());
        for sn in &ann {
            assert_eq!(s.label(*sn), "e");
        }
    }
}
