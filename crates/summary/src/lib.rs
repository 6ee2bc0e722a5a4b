//! # summary — XML path summaries (strong DataGuides) with constraints
//!
//! Implements Chapter 4.2 of the paper: the *path summary* `S(D)` of a
//! document `D` is a tree with one node per distinct rooted label path in
//! `D` (Definition 4.2.1), and the *enhanced* summary additionally labels
//! each edge with an integrity annotation (Definition 4.2.3):
//!
//! * `1` (**one-to-one**): every document node on the parent path has
//!   *exactly one* child on the child path;
//! * `+` (**strong**): every document node on the parent path has *at
//!   least one* child on the child path;
//! * `*`: no constraint.
//!
//! Summary nodes double as *path numbers* (Example 4.2.1); attribute paths
//! are labelled `@name` and text paths `#text`. Summaries are the source of
//! structural constraints for the containment (Chapter 4) and rewriting
//! (Chapter 5) algorithms.

use std::collections::HashMap;
use std::fmt;

use xmltree::{Document, NodeId, NodeKind};

/// Index of a node in a [`Summary`]; `SummaryNodeId(0)` is the root path.
/// The 1-based *path number* of the paper is `id.0 + 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SummaryNodeId(pub u32);

impl SummaryNodeId {
    pub const ROOT: SummaryNodeId = SummaryNodeId(0);

    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The 1-based path number used in the paper's figures.
    pub fn path_number(self) -> u32 {
        self.0 + 1
    }
}

impl fmt::Display for SummaryNodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Edge annotation of an enhanced summary (Definition 4.2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeCard {
    /// `1`: exactly one child on this path under every parent-path node.
    One,
    /// `+`: at least one ("strong edge").
    Plus,
    /// `*`: no constraint.
    Star,
}

impl EdgeCard {
    /// Does this annotation guarantee at least one child?
    pub fn is_strong(self) -> bool {
        matches!(self, EdgeCard::One | EdgeCard::Plus)
    }

    pub fn is_one_to_one(self) -> bool {
        self == EdgeCard::One
    }
}

#[derive(Debug, Clone)]
struct SummaryNode {
    label: String,
    kind: NodeKind,
    parent: Option<SummaryNodeId>,
    children: Vec<SummaryNodeId>,
    /// Annotation of the edge from the parent (root: `One`).
    card: EdgeCard,
}

/// A path summary, optionally enhanced with `1`/`+` edge constraints.
#[derive(Debug, Clone)]
pub struct Summary {
    nodes: Vec<SummaryNode>,
    /// (parent summary node, label) → child summary node
    index: HashMap<(SummaryNodeId, String), SummaryNodeId>,
}

impl Summary {
    /// Build the strong-DataGuide summary of a document, including `1`/`+`
    /// edge annotations. Runs in `O(|D|)`.
    pub fn of_document(doc: &Document) -> Summary {
        let mut s = Summary {
            nodes: Vec::new(),
            index: HashMap::new(),
        };
        s.nodes.push(SummaryNode {
            label: doc.label(doc.root()).to_string(),
            kind: NodeKind::Element,
            parent: None,
            children: Vec::new(),
            card: EdgeCard::One,
        });
        // φ : document node → summary node
        let mut phi: Vec<SummaryNodeId> = vec![SummaryNodeId::ROOT; doc.len()];
        let mut children = ChildMemo::default();
        // Per summary node: how many document nodes lie on the path, how
        // many document parents have a child on it, and the latest such
        // parent. The document nodes on one path arrive grouped by parent
        // (their parents all lie on the parent path, so none contains
        // another), which makes "same parent as the previous node on this
        // path" the test for a parent's second child.
        let mut on_path: Vec<u32> = vec![1];
        let mut parents_with: Vec<u32> = vec![0];
        let mut last_parent: Vec<Option<NodeId>> = vec![None];
        for n in doc.all_nodes() {
            let Some(p) = doc.parent(n) else { continue };
            let sp = phi[p.index()];
            let sn = children.resolve(doc, sp, n, |label| {
                let sn = SummaryNodeId(s.nodes.len() as u32);
                s.nodes.push(SummaryNode {
                    label: doc.label(n).to_string(),
                    kind: doc.kind(n),
                    parent: Some(sp),
                    children: Vec::new(),
                    // optimistic; demoted below
                    card: EdgeCard::One,
                });
                s.nodes[sp.index()].children.push(sn);
                s.index.insert((sp, label), sn);
                on_path.push(0);
                parents_with.push(0);
                last_parent.push(None);
                Some(sn)
            });
            let sn = sn.expect("a missing path is created");
            phi[n.index()] = sn;
            on_path[sn.index()] += 1;
            if last_parent[sn.index()] == Some(p) {
                // a parent with >1 children on the path: One → Plus
                s.nodes[sn.index()].card = EdgeCard::Plus;
            } else {
                last_parent[sn.index()] = Some(p);
                parents_with[sn.index()] += 1;
            }
        }
        // a parent-path node with no child on the path: the edge is Star
        for (node, &with_child) in s.nodes.iter_mut().zip(&parents_with).skip(1) {
            let parent = node.parent.expect("only the root has no parent");
            if with_child < on_path[parent.index()] {
                node.card = EdgeCard::Star;
            }
        }
        s
    }

    /// Number of summary nodes (`|S|`).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    pub fn root(&self) -> SummaryNodeId {
        SummaryNodeId::ROOT
    }

    /// Label of a summary node (without `@` sigil; see [`Summary::kind`]).
    pub fn label(&self, n: SummaryNodeId) -> &str {
        &self.nodes[n.index()].label
    }

    pub fn kind(&self, n: SummaryNodeId) -> NodeKind {
        self.nodes[n.index()].kind
    }

    pub fn parent(&self, n: SummaryNodeId) -> Option<SummaryNodeId> {
        self.nodes[n.index()].parent
    }

    pub fn children(&self, n: SummaryNodeId) -> &[SummaryNodeId] {
        &self.nodes[n.index()].children
    }

    /// Annotation of the edge from `n`'s parent to `n`.
    pub fn edge_card(&self, n: SummaryNodeId) -> EdgeCard {
        self.nodes[n.index()].card
    }

    /// Is every edge on the path from `anc` down to `desc` strong (`1`/`+`)?
    /// (Used by rewriting: a strong chain guarantees non-empty joins.)
    pub fn strong_chain(&self, anc: SummaryNodeId, desc: SummaryNodeId) -> bool {
        let mut cur = desc;
        while cur != anc {
            if !self.edge_card(cur).is_strong() {
                return false;
            }
            match self.parent(cur) {
                Some(p) => cur = p,
                None => return false,
            }
        }
        true
    }

    /// Is every edge between `anc` and `desc` one-to-one? (Condition for
    /// relaxing nested-pattern containment, §4.4.5.)
    pub fn one_to_one_chain(&self, anc: SummaryNodeId, desc: SummaryNodeId) -> bool {
        let mut cur = desc;
        while cur != anc {
            if !self.edge_card(cur).is_one_to_one() {
                return false;
            }
            match self.parent(cur) {
                Some(p) => cur = p,
                None => return false,
            }
        }
        true
    }

    /// Is `anc` an ancestor of (or equal to) `desc` in the summary tree?
    pub fn is_ancestor_or_self(&self, anc: SummaryNodeId, desc: SummaryNodeId) -> bool {
        let mut cur = Some(desc);
        while let Some(c) = cur {
            if c == anc {
                return true;
            }
            cur = self.parent(c);
        }
        false
    }

    /// Depth of a summary node (root = 1).
    pub fn depth(&self, n: SummaryNodeId) -> u16 {
        let mut d = 1;
        let mut cur = n;
        while let Some(p) = self.parent(cur) {
            d += 1;
            cur = p;
        }
        d
    }

    /// All summary nodes in creation (pre-ish) order.
    pub fn all_nodes(&self) -> impl Iterator<Item = SummaryNodeId> + '_ {
        (0..self.nodes.len() as u32).map(SummaryNodeId)
    }

    /// All summary nodes with the given label (any kind).
    pub fn nodes_with_label<'a>(
        &'a self,
        label: &'a str,
    ) -> impl Iterator<Item = SummaryNodeId> + 'a {
        self.all_nodes()
            .filter(move |&n| self.nodes[n.index()].label == label)
    }

    /// The child of `n` along `label` (`@name` for attributes), if any.
    pub fn child_by_label(&self, n: SummaryNodeId, label: &str) -> Option<SummaryNodeId> {
        self.index.get(&(n, label.to_string())).copied()
    }

    /// Resolve a rooted label path like `/site/regions/item` (or
    /// `/a/b/@x`) to its summary node.
    pub fn node_on_path(&self, path: &str) -> Option<SummaryNodeId> {
        let mut parts = path.split('/').filter(|p| !p.is_empty());
        let first = parts.next()?;
        if first != self.nodes[0].label {
            return None;
        }
        let mut cur = SummaryNodeId::ROOT;
        for p in parts {
            cur = self.child_by_label(cur, p)?;
        }
        Some(cur)
    }

    /// The rooted label path of a summary node, e.g. `/site/regions/item`.
    pub fn path_of(&self, n: SummaryNodeId) -> String {
        let mut parts = Vec::new();
        let mut cur = Some(n);
        while let Some(c) = cur {
            let node = &self.nodes[c.index()];
            match node.kind {
                NodeKind::Attribute => parts.push(format!("@{}", node.label)),
                _ => parts.push(node.label.clone()),
            }
            cur = node.parent;
        }
        parts.reverse();
        let mut out = String::new();
        for p in parts {
            out.push('/');
            out.push_str(&p);
        }
        out
    }

    /// Descendants of `n` (excluding `n`), depth-first.
    pub fn descendants(&self, n: SummaryNodeId) -> Vec<SummaryNodeId> {
        let mut out = Vec::new();
        let mut stack: Vec<SummaryNodeId> = self.children(n).to_vec();
        while let Some(c) = stack.pop() {
            out.push(c);
            stack.extend_from_slice(self.children(c));
        }
        out
    }

    /// Count of strong (`+` or `1`) edges — `n_s` in Figure 4.13.
    pub fn strong_edge_count(&self) -> usize {
        self.nodes
            .iter()
            .skip(1)
            .filter(|n| n.card.is_strong())
            .count()
    }

    /// Count of one-to-one (`1`) edges — `n_1` in Figure 4.13.
    pub fn one_to_one_edge_count(&self) -> usize {
        self.nodes
            .iter()
            .skip(1)
            .filter(|n| n.card.is_one_to_one())
            .count()
    }

    /// Does `doc` conform to this summary, i.e. `S(doc)` has exactly the
    /// same paths and `doc` satisfies every `1`/`+` edge constraint
    /// (Definitions 4.2.2 / 4.2.3)?
    pub fn conforms(&self, doc: &Document) -> bool {
        let other = Summary::of_document(doc);
        if other.len() != self.len() {
            return false;
        }
        for n in other.all_nodes() {
            let Some(mine) = self.node_on_path(&other.path_of(n)) else {
                return false;
            };
            // other's computed edge cards are the tightest true ones, so
            // self's declared constraints must be implied by them
            let required = self.edge_card(mine);
            let actual = other.edge_card(n);
            let ok = match required {
                EdgeCard::Star => true,
                EdgeCard::Plus => actual.is_strong(),
                EdgeCard::One => actual.is_one_to_one(),
            };
            if !ok {
                return false;
            }
        }
        true
    }

    /// The summary node of each document node (the `φ` function of
    /// Definition 4.2.1), for a conforming document.
    pub fn classify(&self, doc: &Document) -> Option<Vec<SummaryNodeId>> {
        let mut phi = vec![SummaryNodeId::ROOT; doc.len()];
        if doc.label(doc.root()) != self.nodes[0].label {
            return None;
        }
        let mut children = ChildMemo::default();
        for n in doc.all_nodes() {
            let Some(p) = doc.parent(n) else { continue };
            let sp = phi[p.index()];
            phi[n.index()] =
                children.resolve(doc, sp, n, |label| self.child_by_label(sp, &label))?;
        }
        Some(phi)
    }
}

/// The summary child a document node falls on, remembered per `(parent
/// summary node, label id, kind)` of one document: the string-keyed
/// [`Summary::index`] is consulted once per summary edge, not once per
/// document node.
#[derive(Default)]
struct ChildMemo {
    seen: HashMap<(SummaryNodeId, u32, NodeKind), SummaryNodeId>,
}

impl ChildMemo {
    /// The child of `sp` that `n` falls on; `miss` gets the edge label
    /// (`@name` for attributes) the first time the edge is seen.
    fn resolve(
        &mut self,
        doc: &Document,
        sp: SummaryNodeId,
        n: NodeId,
        miss: impl FnOnce(String) -> Option<SummaryNodeId>,
    ) -> Option<SummaryNodeId> {
        let key = (sp, doc.label_id(n), doc.kind(n));
        if let Some(&sn) = self.seen.get(&key) {
            return Some(sn);
        }
        let label = match doc.kind(n) {
            NodeKind::Attribute => format!("@{}", doc.label(n)),
            _ => doc.label(n).to_string(),
        };
        let sn = miss(label)?;
        self.seen.insert(key, sn);
        Some(sn)
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn rec(
            s: &Summary,
            n: SummaryNodeId,
            depth: usize,
            f: &mut fmt::Formatter<'_>,
        ) -> fmt::Result {
            let node = &s.nodes[n.index()];
            let card = match node.card {
                EdgeCard::One => "1",
                EdgeCard::Plus => "+",
                EdgeCard::Star => "*",
            };
            let sigil = match node.kind {
                NodeKind::Attribute => "@",
                _ => "",
            };
            writeln!(
                f,
                "{}{}{} [{}] ({})",
                "  ".repeat(depth),
                sigil,
                node.label,
                card,
                n.path_number()
            )?;
            for &c in &node.children {
                rec(s, c, depth + 1, f)?;
            }
            Ok(())
        }
        rec(self, SummaryNodeId::ROOT, 0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmltree::generate;
    use xmltree::parse_document;

    #[test]
    fn summary_of_bib_sample() {
        let doc = generate::bib_sample();
        let s = Summary::of_document(&doc);
        assert_eq!(s.label(s.root()), "library");
        let book = s.node_on_path("/library/book").unwrap();
        assert_eq!(s.label(book), "book");
        assert!(s.node_on_path("/library/book/@year").is_some());
        assert!(s.node_on_path("/library/phdthesis/title").is_some());
        assert!(s.node_on_path("/library/article").is_none());
    }

    #[test]
    fn one_node_per_distinct_path() {
        let doc = parse_document("<a><b><c/></b><b><c/><c/></b></a>").unwrap();
        let s = Summary::of_document(&doc);
        assert_eq!(s.len(), 3); // a, a/b, a/b/c
    }

    #[test]
    fn edge_annotations() {
        // every a has b children (strong); every b has exactly one c (1);
        // d appears under only one of the two b's (*)
        let doc = parse_document("<a><b><c/><d/></b><b><c/></b></a>").unwrap();
        let s = Summary::of_document(&doc);
        let b = s.node_on_path("/a/b").unwrap();
        let c = s.node_on_path("/a/b/c").unwrap();
        let d = s.node_on_path("/a/b/d").unwrap();
        assert_eq!(s.edge_card(b), EdgeCard::Plus);
        assert_eq!(s.edge_card(c), EdgeCard::One);
        assert_eq!(s.edge_card(d), EdgeCard::Star);
    }

    #[test]
    fn plus_vs_one() {
        let doc = parse_document("<a><b/><b/></a>").unwrap();
        let s = Summary::of_document(&doc);
        let b = s.node_on_path("/a/b").unwrap();
        assert_eq!(s.edge_card(b), EdgeCard::Plus);
    }

    #[test]
    fn chains() {
        let doc = parse_document("<a><b><c/></b></a>").unwrap();
        let s = Summary::of_document(&doc);
        let a = s.root();
        let c = s.node_on_path("/a/b/c").unwrap();
        assert!(s.strong_chain(a, c));
        assert!(s.one_to_one_chain(a, c));
        assert!(s.is_ancestor_or_self(a, c));
        assert!(!s.is_ancestor_or_self(c, a));
    }

    #[test]
    fn xmark_summary_is_scale_invariant() {
        let s1 = Summary::of_document(&generate::xmark(3, 1));
        let s2 = Summary::of_document(&generate::xmark(30, 1));
        assert_eq!(s1.len(), s2.len(), "summary must not grow with scale");
        assert!(s1.len() > 150, "XMark-like summary too small: {}", s1.len());
    }

    #[test]
    fn dblp_summary_small_with_strong_edges() {
        let s = Summary::of_document(&generate::dblp(200, 5));
        assert!(s.len() < 80, "DBLP summary too big: {}", s.len());
        assert!(s.strong_edge_count() > 10);
        assert!(s.one_to_one_edge_count() > 5);
    }

    #[test]
    fn conformance() {
        let d1 = generate::dblp(50, 1);
        let s = Summary::of_document(&d1);
        assert!(s.conforms(&d1));
        let d2 = generate::bib_sample();
        assert!(!s.conforms(&d2));
    }

    #[test]
    fn classify_maps_nodes_to_paths() {
        let doc = generate::bib_sample();
        let s = Summary::of_document(&doc);
        let phi = s.classify(&doc).unwrap();
        for n in doc.all_nodes() {
            assert_eq!(s.path_of(phi[n.index()]), doc.label_path(n));
        }
    }

    #[test]
    fn path_numbers_are_stable() {
        let doc = generate::bib_sample();
        let s = Summary::of_document(&doc);
        let book = s.node_on_path("/library/book").unwrap();
        assert_eq!(book.path_number(), 2); // second path discovered
    }

    #[test]
    fn display_renders_tree() {
        let doc = parse_document("<a><b x=\"1\"/></a>").unwrap();
        let s = Summary::of_document(&doc);
        let out = s.to_string();
        assert!(out.contains("a [1]"));
        assert!(out.contains("@x"));
    }

    #[test]
    fn descendants_enumeration() {
        let doc = parse_document("<a><b><c/></b><d/></a>").unwrap();
        let s = Summary::of_document(&doc);
        let all = s.descendants(s.root());
        assert_eq!(all.len(), 3);
    }
}
