//! The view index: "which views can cover query node `n`" as a lookup by
//! summary path, not a scan of every view.
//!
//! The summary is the directory of access paths (Arion et al., *Path
//! Summaries and Path Partitioning*): a view node can stand for a query
//! node only if their path annotations (Definition 4.3.1) share a summary
//! node. The index annotates each view once and keeps, per summary node,
//! the ascending positions of the views with a node on that path. The
//! flat rewriting search annotates its (sub-)pattern once and visits only
//! the views the index returns for the pattern's summary nodes.
//!
//! Skipping the other views is exact: a summary node's kind fixes
//! `is_attribute`, so a shared summary node is precisely a compatible
//! (query node, view node) pair, and `node_mappings` yields nothing for a
//! view with no compatible pair. R-marked (index) views are held as empty
//! slots: the flat search has no bind-join to use them with.

use std::collections::{HashMap, HashSet};

use containment::canonical::path_annotations_all;
use summary::{Summary, SummaryNodeId};
use xam_core::Xam;

/// Per-node path annotations of a pattern, indexed by XAM node index.
pub type Annotations = Vec<HashSet<SummaryNodeId>>;

/// Path annotations of a view set plus posting lists from summary node to
/// the ascending positions of the views that reach it. Positions are the
/// views' positions in the definition slice the index was built for.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ViewIndex {
    /// Per view position: its annotations, `None` for an R-marked view.
    views: Vec<Option<Annotations>>,
    /// Summary node → ascending view positions; no empty lists.
    postings: HashMap<SummaryNodeId, Vec<usize>>,
}

impl ViewIndex {
    /// Index every view of `views`, in order.
    pub fn build(views: &[(String, Xam)], s: &Summary) -> ViewIndex {
        let mut index = ViewIndex::default();
        for (pos, (_, v)) in views.iter().enumerate() {
            index.set(pos, v, s);
        }
        index
    }

    /// Index `v` at position `pos`: appended when `pos` is the current
    /// view count, otherwise replacing the definition held there (a view
    /// name added again keeps its position).
    pub(crate) fn set(&mut self, pos: usize, v: &Xam, s: &Summary) {
        assert!(pos <= self.views.len(), "view position {pos} out of range");
        if pos == self.views.len() {
            self.views.push(None);
        }
        if let Some(old) = self.views[pos].take() {
            for sn in old.iter().flatten() {
                if let Some(list) = self.postings.get_mut(sn) {
                    if let Ok(i) = list.binary_search(&pos) {
                        list.remove(i);
                    }
                    if list.is_empty() {
                        self.postings.remove(sn);
                    }
                }
            }
        }
        if v.has_access_restrictions() {
            return;
        }
        let ann = path_annotations_all(v, s);
        for &sn in ann.iter().flatten() {
            let list = self.postings.entry(sn).or_default();
            if let Err(i) = list.binary_search(&pos) {
                list.insert(i, pos);
            }
        }
        self.views[pos] = Some(ann);
    }

    /// The annotations of the view at `pos` (`None` if R-marked).
    pub(crate) fn annotations(&self, pos: usize) -> Option<&Annotations> {
        self.views.get(pos)?.as_ref()
    }

    /// Ascending positions of the views with a node whose annotation meets
    /// some node annotation of `q_ann`.
    pub fn covering(&self, q_ann: &[HashSet<SummaryNodeId>]) -> Vec<usize> {
        let mut out: Vec<usize> = q_ann
            .iter()
            .flatten()
            .filter_map(|sn| self.postings.get(sn))
            .flatten()
            .copied()
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Number of view positions (R-marked views included).
    pub fn len(&self) -> usize {
        self.views.len()
    }

    pub fn is_empty(&self) -> bool {
        self.views.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xam_core::parse_xam;
    use xmltree::generate::bib_sample;

    fn views(defs: &[(&str, &str)]) -> Vec<(String, Xam)> {
        defs.iter()
            .map(|(n, t)| (n.to_string(), parse_xam(t).unwrap()))
            .collect()
    }

    #[test]
    fn covering_views_share_a_summary_path() {
        let s = Summary::of_document(&bib_sample());
        let vs = views(&[
            ("titles", "//title[id:s,val]"),
            ("authors", "//author[id:s,val]"),
            ("years", "//book{ /@year[val] }"),
            ("index", "//book[id:s]{ /title[val!] }"),
            ("books", "//book[id:s]"),
        ]);
        let index = ViewIndex::build(&vs, &s);
        assert_eq!(index.len(), 5);
        assert!(
            index.annotations(3).is_none(),
            "R-marked views are not indexed"
        );
        let q = parse_xam("//book[id:s]{ /title[val] }").unwrap();
        let q_ann = path_annotations_all(&q, &s);
        // `years` reaches `book` through its parent node
        assert_eq!(index.covering(&q_ann), vec![0, 2, 4]);
        let q = parse_xam("//@year[val]").unwrap();
        assert_eq!(index.covering(&path_annotations_all(&q, &s)), vec![2]);
    }

    #[test]
    fn replacing_a_view_equals_building_afresh() {
        let s = Summary::of_document(&bib_sample());
        let mut vs = views(&[("a", "//title[id:s]"), ("b", "//author[id:s]")]);
        let mut index = ViewIndex::build(&vs, &s);
        vs[0].1 = parse_xam("//book[id:s]{ /author[val] }").unwrap();
        index.set(0, &vs[0].1, &s);
        assert_eq!(index, ViewIndex::build(&vs, &s));
        vs[1].1 = parse_xam("//author[id:s!]").unwrap();
        index.set(1, &vs[1].1, &s);
        assert_eq!(index, ViewIndex::build(&vs, &s));
    }
}
