//! The XML document tree (§1.1 of the paper).
//!
//! A [`Document`] owns an arena of nodes. Nodes are referred to by
//! [`NodeId`], a dense index into the arena assigned in *document order*
//! (pre-order), so the `pre` component of a node's structural identifier is
//! exactly its `NodeId`. Elements, attributes and text nodes are all
//! first-class; the paper's element *value* (`text()` result) and *content*
//! (serialized subtree) are derived on demand.

use std::collections::HashMap;
use std::fmt;

use crate::dewey::DeweyId;
use crate::ids::StructuralId;

/// Index of a node within a [`Document`] arena; doubles as the pre-order
/// rank of the node, since nodes are created in document order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The root element of every sealed document (the document node itself is
    /// implicit; index 0 is the top element, as in the paper we "refer to the
    /// unique element child of the document node as the document's root").
    pub const ROOT: NodeId = NodeId(0);

    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Iterator over a run of a document's postings, in document order.
pub type NodeIds<'a> = std::iter::Copied<std::slice::Iter<'a, NodeId>>;

/// The kind of an XML node. The document node is implicit; per the paper we
/// ignore it and treat the top element as the root.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// An element node (`Φ_e`).
    Element,
    /// An attribute node (`Φ_a`); its label is the attribute name *without*
    /// the `@` sigil, and its value is the attribute value.
    Attribute,
    /// A text leaf; its "label" is the reserved name `#text`.
    Text,
}

#[derive(Debug, Clone)]
struct NodeData {
    kind: NodeKind,
    /// Interned label id. For text nodes, the id of `#text`.
    label: u32,
    parent: Option<NodeId>,
    children: Vec<NodeId>,
    /// Direct textual payload: attribute value or text-node characters.
    /// `None` for elements.
    text: Option<Box<str>>,
    /// Post-order rank, filled in when the document is sealed.
    post: u32,
    /// Depth: root element has depth 1.
    depth: u16,
}

/// An immutable XML document: an arena of nodes in document order, plus a
/// label interner. Build one with [`DocumentBuilder`] or
/// [`crate::parser::parse_document`].
#[derive(Debug, Clone)]
pub struct Document {
    nodes: Vec<NodeData>,
    labels: Vec<Box<str>>,
    label_ids: HashMap<Box<str>, u32>,
    postings: Postings,
}

/// Indexed by `kind as usize`.
const KINDS: [NodeKind; 3] = [NodeKind::Element, NodeKind::Attribute, NodeKind::Text];

/// Node lists per `(label, kind)` and per kind, in CSR layout: filled
/// once when the document is sealed, so the tag-derived collection `R_t`
/// is a slice of length `|R_t|` instead of a filter over all nodes.
#[derive(Debug, Clone, Default)]
struct Postings {
    /// `by_label[offsets[k]..offsets[k + 1]]` holds the nodes of posting
    /// `k = 3 · label id + kind index`, in document order.
    offsets: Vec<u32>,
    by_label: Vec<NodeId>,
    /// All elements, then all attributes, each run in document order.
    by_kind: Vec<NodeId>,
    element_count: usize,
}

impl Postings {
    fn key(label: u32, kind: NodeKind) -> usize {
        label as usize * KINDS.len() + kind as usize
    }

    /// Counting sort of the node arena by posting key (stable, so every
    /// posting stays in document order).
    fn build(nodes: &[NodeData], label_count: usize) -> Postings {
        let mut offsets = vec![0u32; label_count * KINDS.len() + 1];
        let mut kind_counts = [0usize; KINDS.len()];
        for d in nodes {
            offsets[Postings::key(d.label, d.kind) + 1] += 1;
            kind_counts[d.kind as usize] += 1;
        }
        for k in 1..offsets.len() {
            offsets[k] += offsets[k - 1];
        }
        let mut next = offsets.clone();
        let mut by_label = vec![NodeId::ROOT; nodes.len()];
        let element_count = kind_counts[NodeKind::Element as usize];
        let mut by_kind =
            vec![NodeId::ROOT; element_count + kind_counts[NodeKind::Attribute as usize]];
        let mut next_of_kind = [0, element_count];
        for (i, d) in nodes.iter().enumerate() {
            let id = NodeId(i as u32);
            let slot = &mut next[Postings::key(d.label, d.kind)];
            by_label[*slot as usize] = id;
            *slot += 1;
            // text nodes have no per-kind run
            if let Some(slot) = next_of_kind.get_mut(d.kind as usize) {
                by_kind[*slot] = id;
                *slot += 1;
            }
        }
        Postings {
            offsets,
            by_label,
            by_kind,
            element_count,
        }
    }

    fn posting(&self, key: usize) -> &[NodeId] {
        &self.by_label[self.offsets[key] as usize..self.offsets[key + 1] as usize]
    }
}

impl Document {
    /// Number of nodes (elements + attributes + text leaves).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of element nodes.
    pub fn element_count(&self) -> usize {
        self.postings.element_count
    }

    /// The root element of the document.
    pub fn root(&self) -> NodeId {
        NodeId::ROOT
    }

    /// Kind of `n`.
    pub fn kind(&self, n: NodeId) -> NodeKind {
        self.nodes[n.index()].kind
    }

    /// Label (tag name / attribute name / `#text`) of `n`.
    pub fn label(&self, n: NodeId) -> &str {
        &self.labels[self.nodes[n.index()].label as usize]
    }

    /// Interned label id of `n`; equal labels share ids.
    pub fn label_id(&self, n: NodeId) -> u32 {
        self.nodes[n.index()].label
    }

    /// Look up the interned id of a label, if any node uses it.
    pub fn find_label(&self, label: &str) -> Option<u32> {
        self.label_ids.get(label).copied()
    }

    /// Parent of `n` (`None` for the root element).
    pub fn parent(&self, n: NodeId) -> Option<NodeId> {
        self.nodes[n.index()].parent
    }

    /// Children of `n` in document order (attributes first, then
    /// element/text children, matching construction order).
    pub fn children(&self, n: NodeId) -> &[NodeId] {
        &self.nodes[n.index()].children
    }

    /// `(pre, post, depth)` structural identifier of `n` (§1.2.1).
    pub fn structural_id(&self, n: NodeId) -> StructuralId {
        let d = &self.nodes[n.index()];
        StructuralId {
            pre: n.0,
            post: d.post,
            depth: d.depth,
        }
    }

    /// Dewey (navigational) identifier of `n`: the chain of child ranks from
    /// the root. Computed on demand; O(depth).
    pub fn dewey_id(&self, n: NodeId) -> DeweyId {
        let mut steps = Vec::with_capacity(self.nodes[n.index()].depth as usize);
        let mut cur = n;
        while let Some(p) = self.parent(cur) {
            let rank = self.children(p).iter().position(|&c| c == cur).unwrap() as u32;
            steps.push(rank);
            cur = p;
        }
        steps.reverse();
        DeweyId::from_steps(steps)
    }

    /// True iff `anc` is a proper ancestor of `desc` (the `≺≺` predicate).
    pub fn is_ancestor(&self, anc: NodeId, desc: NodeId) -> bool {
        self.structural_id(anc)
            .is_ancestor_of(self.structural_id(desc))
    }

    /// True iff `p` is the parent of `c` (the `≺` predicate).
    pub fn is_parent(&self, p: NodeId, c: NodeId) -> bool {
        self.parent(c) == Some(p)
    }

    /// The *value* of a node (§1.1): for text nodes and attributes, their
    /// payload; for elements, the concatenation of all descendant text, in
    /// document order (the XPath `text()`-derived string value).
    pub fn value(&self, n: NodeId) -> String {
        let mut out = String::new();
        self.write_value(n, &mut out);
        out
    }

    /// Append the value of `n` (see [`Document::value`]) to `out`.
    pub fn write_value(&self, n: NodeId, out: &mut String) {
        match &self.nodes[n.index()].text {
            Some(t) => out.push_str(t),
            None => self.collect_text(n, out),
        }
    }

    fn collect_text(&self, n: NodeId, out: &mut String) {
        for &c in self.children(n) {
            let d = &self.nodes[c.index()];
            match d.kind {
                NodeKind::Text => out.push_str(d.text.as_deref().unwrap_or("")),
                NodeKind::Element => self.collect_text(c, out),
                NodeKind::Attribute => {}
            }
        }
    }

    /// The *content* of a node (§1.1): the serialization of the subtree
    /// rooted at `n` (for attributes, `name="value"`).
    pub fn content(&self, n: NodeId) -> String {
        let mut out = String::new();
        crate::parser::serialize_node(self, n, &mut out);
        out
    }

    /// Iterator over all nodes in document (pre) order.
    pub fn all_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Iterator over all element nodes in document order.
    pub fn elements(&self) -> NodeIds<'_> {
        let p = &self.postings;
        p.by_kind[..p.element_count].iter().copied()
    }

    /// Iterator over all attribute nodes in document order.
    pub fn attributes(&self) -> NodeIds<'_> {
        let p = &self.postings;
        p.by_kind[p.element_count..].iter().copied()
    }

    /// Nodes of the given kind with the given label, in document order.
    /// This is the *tag-derived collection* `R_t` of Definition 2.2.1
    /// restricted to node ids (the algebra layer adds Val/Tag/Cont
    /// columns); it walks the label's posting, `O(|R_t|)`.
    pub fn nodes_with_label(&self, label: &str, kind: NodeKind) -> NodeIds<'_> {
        self.label_posting(Some(label), kind).iter().copied()
    }

    /// The posting of `(label, kind)` as a slice in document order, or,
    /// for `None`, every node of `kind` (for `Text`, the `#text`
    /// posting). Sorted by `pre`, so the nodes of it inside a subtree are
    /// one contiguous run a binary search finds.
    pub fn label_posting(&self, label: Option<&str>, kind: NodeKind) -> &[NodeId] {
        let p = &self.postings;
        match (label, kind) {
            (None, NodeKind::Element) => &p.by_kind[..p.element_count],
            (None, NodeKind::Attribute) => &p.by_kind[p.element_count..],
            (label, kind) => match self.find_label(label.unwrap_or("#text")) {
                Some(id) => p.posting(Postings::key(id, kind)),
                None => &[],
            },
        }
    }

    /// Every non-empty `(label, kind)` posting with its nodes in document
    /// order — one pass over these visits each node exactly once.
    pub fn postings(&self) -> impl Iterator<Item = (&str, NodeKind, &[NodeId])> {
        self.labels.iter().enumerate().flat_map(move |(id, label)| {
            KINDS.iter().filter_map(move |&kind| {
                let posting = self.postings.posting(Postings::key(id as u32, kind));
                (!posting.is_empty()).then_some((&**label, kind, posting))
            })
        })
    }

    /// Descendants of `n` (excluding `n`), in document order. Relies on the
    /// pre/post plane: descendants are the contiguous pre-order ids whose
    /// post is smaller.
    pub fn descendants(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let sid = self.structural_id(n);
        ((n.0 + 1)..self.nodes.len() as u32)
            .map(NodeId)
            .take_while(move |m| self.structural_id(*m).post < sid.post)
    }

    /// The rooted label path of a node, e.g. `/bib/book/title` (attributes
    /// get an `@` sigil, text nodes `#text`), used to key path summaries.
    pub fn label_path(&self, n: NodeId) -> String {
        let mut parts = Vec::new();
        let mut cur = Some(n);
        while let Some(c) = cur {
            let d = &self.nodes[c.index()];
            let lbl = &self.labels[d.label as usize];
            match d.kind {
                NodeKind::Attribute => parts.push(format!("@{lbl}")),
                _ => parts.push(lbl.to_string()),
            }
            cur = d.parent;
        }
        parts.reverse();
        let mut out = String::new();
        for p in parts {
            out.push('/');
            out.push_str(&p);
        }
        out
    }

    /// All interned labels.
    pub fn labels(&self) -> impl Iterator<Item = &str> {
        self.labels.iter().map(|l| &**l)
    }
}

/// Incremental builder for [`Document`]s. Elements are opened and closed in
/// document order; attribute and text leaves attach to the open element.
///
/// ```
/// use xmltree::{DocumentBuilder, NodeKind};
/// let mut b = DocumentBuilder::new();
/// let book = b.open_element("book");
/// b.attribute("year", "1999");
/// let t = b.open_element("title");
/// b.text("Data on the Web");
/// b.close_element();
/// b.close_element();
/// let doc = b.finish();
/// assert_eq!(doc.label(doc.root()), "book");
/// assert_eq!(doc.value(t), "Data on the Web");
/// assert_eq!(doc.kind(doc.children(book)[0]), NodeKind::Attribute);
/// ```
#[derive(Debug)]
pub struct DocumentBuilder {
    doc: Document,
    stack: Vec<NodeId>,
}

impl Default for DocumentBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl DocumentBuilder {
    pub fn new() -> Self {
        DocumentBuilder {
            doc: Document {
                nodes: Vec::new(),
                labels: Vec::new(),
                label_ids: HashMap::new(),
                postings: Postings::default(),
            },
            stack: Vec::new(),
        }
    }

    fn intern(&mut self, label: &str) -> u32 {
        if let Some(&id) = self.doc.label_ids.get(label) {
            return id;
        }
        let id = self.doc.labels.len() as u32;
        let boxed: Box<str> = label.into();
        self.doc.labels.push(boxed.clone());
        self.doc.label_ids.insert(boxed, id);
        id
    }

    fn push_node(&mut self, kind: NodeKind, label: &str, text: Option<&str>) -> NodeId {
        let label = self.intern(label);
        let id = NodeId(self.doc.nodes.len() as u32);
        let parent = self.stack.last().copied();
        let depth = parent
            .map(|p| self.doc.nodes[p.index()].depth + 1)
            .unwrap_or(1);
        if let Some(p) = parent {
            self.doc.nodes[p.index()].children.push(id);
        } else {
            assert!(
                self.doc.nodes.is_empty(),
                "document must have a single root element"
            );
            assert_eq!(kind, NodeKind::Element, "root must be an element");
        }
        self.doc.nodes.push(NodeData {
            kind,
            label,
            parent,
            children: Vec::new(),
            text: text.map(Into::into),
            post: 0,
            depth,
        });
        id
    }

    /// Open a new element as the next child of the currently open element
    /// (or as the root). Returns its id.
    pub fn open_element(&mut self, label: &str) -> NodeId {
        let id = self.push_node(NodeKind::Element, label, None);
        self.stack.push(id);
        id
    }

    /// Close the currently open element.
    pub fn close_element(&mut self) {
        self.stack
            .pop()
            .expect("close_element without matching open_element");
    }

    /// Attach an attribute to the currently open element.
    pub fn attribute(&mut self, name: &str, value: &str) -> NodeId {
        assert!(!self.stack.is_empty(), "attribute outside any element");
        self.push_node(NodeKind::Attribute, name, Some(value))
    }

    /// Attach a text leaf to the currently open element.
    pub fn text(&mut self, chars: &str) -> NodeId {
        assert!(!self.stack.is_empty(), "text outside any element");
        self.push_node(NodeKind::Text, "#text", Some(chars))
    }

    /// Convenience: `<label>text</label>` as a single call.
    pub fn leaf_element(&mut self, label: &str, text: &str) -> NodeId {
        let id = self.open_element(label);
        self.text(text);
        self.close_element();
        id
    }

    /// Finish construction: assigns post-order ranks, builds the label
    /// postings and returns the immutable document. Panics if elements remain open or the document is
    /// empty.
    pub fn finish(mut self) -> Document {
        assert!(self.stack.is_empty(), "unclosed elements at finish()");
        assert!(!self.doc.nodes.is_empty(), "empty document");
        // Iterative post-order numbering.
        let mut counter: u32 = 0;
        let mut visit: Vec<(NodeId, bool)> = vec![(NodeId::ROOT, false)];
        while let Some((n, expanded)) = visit.pop() {
            if expanded {
                self.doc.nodes[n.index()].post = counter;
                counter += 1;
            } else {
                visit.push((n, true));
                let children = self.doc.nodes[n.index()].children.clone();
                for c in children.into_iter().rev() {
                    visit.push((c, false));
                }
            }
        }
        self.doc.postings = Postings::build(&self.doc.nodes, self.doc.labels.len());
        self.doc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Document {
        // <a><b>x</b><c at="1"><d/></c></a>
        let mut b = DocumentBuilder::new();
        b.open_element("a");
        b.leaf_element("b", "x");
        b.open_element("c");
        b.attribute("at", "1");
        b.open_element("d");
        b.close_element();
        b.close_element();
        b.close_element();
        b.finish()
    }

    #[test]
    fn builder_shapes_tree() {
        let d = sample();
        assert_eq!(d.label(d.root()), "a");
        let kids = d.children(d.root());
        assert_eq!(kids.len(), 2);
        assert_eq!(d.label(kids[0]), "b");
        assert_eq!(d.label(kids[1]), "c");
        assert_eq!(d.element_count(), 4);
    }

    #[test]
    fn pre_order_equals_node_id() {
        let d = sample();
        let mut seen = Vec::new();
        fn rec(d: &Document, n: NodeId, seen: &mut Vec<NodeId>) {
            seen.push(n);
            for &c in d.children(n) {
                rec(d, c, seen);
            }
        }
        rec(&d, d.root(), &mut seen);
        for (i, n) in seen.iter().enumerate() {
            assert_eq!(n.0 as usize, i);
        }
    }

    #[test]
    fn post_order_is_consistent() {
        let d = sample();
        // root must have the largest post rank
        let root_post = d.structural_id(d.root()).post;
        for n in d.all_nodes() {
            assert!(d.structural_id(n).post <= root_post);
        }
        // every child has smaller post than its parent
        for n in d.all_nodes() {
            if let Some(p) = d.parent(n) {
                assert!(d.structural_id(n).post < d.structural_id(p).post);
            }
        }
    }

    #[test]
    fn depth_starts_at_one() {
        let d = sample();
        assert_eq!(d.structural_id(d.root()).depth, 1);
        let c = d.children(d.root())[1];
        assert_eq!(d.structural_id(c).depth, 2);
    }

    #[test]
    fn values_concatenate_text() {
        let d = sample();
        assert_eq!(d.value(d.root()), "x");
        let b = d.children(d.root())[0];
        assert_eq!(d.value(b), "x");
    }

    #[test]
    fn attribute_value() {
        let d = sample();
        let c = d.children(d.root())[1];
        let at = d.children(c)[0];
        assert_eq!(d.kind(at), NodeKind::Attribute);
        assert_eq!(d.label(at), "at");
        assert_eq!(d.value(at), "1");
    }

    #[test]
    fn ancestor_predicates() {
        let d = sample();
        let c = d.children(d.root())[1];
        let dd = *d
            .children(c)
            .iter()
            .find(|&&k| d.kind(k) == NodeKind::Element)
            .unwrap();
        assert!(d.is_ancestor(d.root(), dd));
        assert!(d.is_parent(c, dd));
        assert!(!d.is_ancestor(dd, d.root()));
    }

    #[test]
    fn descendants_iterator() {
        let d = sample();
        let descs: Vec<_> = d.descendants(d.root()).collect();
        assert_eq!(descs.len(), d.len() - 1);
        let c = d.children(d.root())[1];
        let under_c: Vec<_> = d.descendants(c).collect();
        assert_eq!(under_c.len(), 2); // attribute + d element
    }

    #[test]
    fn label_paths() {
        let d = sample();
        let c = d.children(d.root())[1];
        assert_eq!(d.label_path(c), "/a/c");
        let at = d.children(c)[0];
        assert_eq!(d.label_path(at), "/a/c/@at");
    }

    #[test]
    fn nodes_with_label_filters_kind() {
        let d = sample();
        assert_eq!(d.nodes_with_label("b", NodeKind::Element).count(), 1);
        assert_eq!(d.nodes_with_label("at", NodeKind::Attribute).count(), 1);
        assert_eq!(d.nodes_with_label("at", NodeKind::Element).count(), 0);
        assert_eq!(d.nodes_with_label("zzz", NodeKind::Element).count(), 0);
    }

    #[test]
    fn postings_partition_the_nodes_in_document_order() {
        let d = crate::generate::xmark(2, 3);
        let mut seen = 0;
        for (label, kind, posting) in d.postings() {
            assert!(posting.windows(2).all(|w| w[0] < w[1]), "{label}");
            for &n in posting {
                assert_eq!((d.label(n), d.kind(n)), (label, kind));
            }
            assert_eq!(d.nodes_with_label(label, kind).len(), posting.len());
            assert_eq!(d.label_posting(Some(label), kind), posting);
            seen += posting.len();
        }
        assert_eq!(seen, d.len());
        assert!(d.label_posting(Some("zzz"), NodeKind::Element).is_empty());
        assert_eq!(
            d.label_posting(None, NodeKind::Element),
            d.elements().collect::<Vec<_>>()
        );
        assert_eq!(
            d.label_posting(None, NodeKind::Attribute),
            d.attributes().collect::<Vec<_>>()
        );
        assert_eq!(
            d.label_posting(None, NodeKind::Text),
            d.label_posting(Some("#text"), NodeKind::Text)
        );
        let by_filter = |k| {
            d.all_nodes()
                .filter(|&n| d.kind(n) == k)
                .collect::<Vec<_>>()
        };
        assert_eq!(
            d.elements().collect::<Vec<_>>(),
            by_filter(NodeKind::Element)
        );
        assert_eq!(
            d.attributes().collect::<Vec<_>>(),
            by_filter(NodeKind::Attribute)
        );
        assert_eq!(d.element_count(), d.elements().len());
        assert_eq!(
            d.nodes_with_label("#text", NodeKind::Text).len(),
            by_filter(NodeKind::Text).len()
        );
    }

    #[test]
    fn dewey_ids_follow_child_ranks() {
        let d = sample();
        assert_eq!(d.dewey_id(d.root()).steps(), &[] as &[u32]);
        let c = d.children(d.root())[1];
        assert_eq!(d.dewey_id(c).steps(), &[1]);
        let at = d.children(c)[0];
        assert_eq!(d.dewey_id(at).steps(), &[1, 0]);
    }

    #[test]
    #[should_panic(expected = "unclosed")]
    fn unclosed_panics() {
        let mut b = DocumentBuilder::new();
        b.open_element("a");
        let _ = b.finish();
    }
}
