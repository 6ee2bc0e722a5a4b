//! Columnar ID-stream index: per `(label, kind)` sorted
//! [`StructuralId`] columns, built in one pass over a document's label
//! postings and cached in a [`Catalog`] as scannable `ids_<label>` relations.
//!
//! The holistic twig operator (`algebra::twig`) consumes one pre-sorted
//! ID stream per pattern node. Before this index, every pattern node
//! re-ran a `nodes_with_label` scan over the whole document; the index
//! pays that scan once per document and serves each stream as a slice.
//! Document order *is* pre order, so the columns come out sorted for
//! free and the catalog entries can declare `OrderSpec::by("ID")` —
//! letting the evaluator skip its defensive re-sort.
//!
//! Every column is also kept packed as [`IdColumns`]
//! ([`IdStreamIndex::columnar`]) — the layout the join kernels read,
//! whose sorted `pre` column and `max_post` fences let lookups jump over
//! irrelevant stream regions instead of scanning them.

use std::collections::HashMap;

use algebra::{IdColumns, OrderSpec, Relation, Schema, Tuple, TupleBatch, Value};
use xmltree::{Document, NodeKind, StructuralId};

use algebra::Catalog;

#[derive(Debug, Clone)]
struct Column {
    ids: Vec<StructuralId>,
    /// The same stream in the packed structure-of-arrays layout the join
    /// kernels read. Kept alongside the array-of-structs `ids` so
    /// `scan_slices` can stay zero-copy.
    cols: IdColumns,
}

/// The index: one sorted `Vec<StructuralId>` column per `(label, kind)`,
/// each also packed.
#[derive(Debug, Default, Clone)]
pub struct IdStreamIndex {
    columns: HashMap<(String, NodeKind), Column>,
}

impl IdStreamIndex {
    /// Build all columns in one walk over the document's postings
    /// (document order is pre order, so every column is born sorted).
    pub fn build(doc: &Document) -> IdStreamIndex {
        let span = tracing::debug_span!(target: "uload::storage", "idstream_build");
        let _g = span.enter();
        let columns = doc
            .postings()
            // text nodes carry no label worth indexing
            .filter(|&(_, kind, _)| kind != NodeKind::Text)
            .map(|(label, kind, posting)| {
                let ids: Vec<StructuralId> =
                    posting.iter().map(|&n| doc.structural_id(n)).collect();
                let cols = IdColumns::from_sids(&ids);
                ((label.to_string(), kind), Column { ids, cols })
            })
            .collect();
        let idx = IdStreamIndex { columns };
        tracing::debug!(
            target: "uload::storage",
            "built ID-stream index: {} columns, {} ids",
            idx.len(),
            idx.total_ids()
        );
        idx
    }

    fn column(&self, label: &str, kind: NodeKind) -> Option<&Column> {
        self.columns.get(&(label.to_string(), kind))
    }

    /// The sorted ID column for a `(label, kind)` pair; empty when the
    /// document has no such nodes.
    pub fn stream(&self, label: &str, kind: NodeKind) -> &[StructuralId] {
        self.column(label, kind)
            .map(|c| c.ids.as_slice())
            .unwrap_or(&[])
    }

    /// Shorthand for element streams (the common twig case).
    pub fn elements(&self, label: &str) -> &[StructuralId] {
        self.stream(label, NodeKind::Element)
    }

    /// The packed structure-of-arrays layout of a column, if the column
    /// exists — the physical representation the join kernels consume,
    /// and the place to seek: [`IdColumns::seek_pre_gt`] finds the first
    /// possible descendant of an anchor, [`IdColumns::seek_past`] the
    /// first element past its whole subtree. Payloads are positions,
    /// matching the order of [`IdStreamIndex::stream`].
    pub fn columnar(&self, label: &str, kind: NodeKind) -> Option<&IdColumns> {
        self.column(label, kind).map(|c| &c.cols)
    }

    /// Number of distinct `(label, kind)` columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Total IDs stored across all columns.
    pub fn total_ids(&self) -> usize {
        self.columns.values().map(|c| c.ids.len()).sum()
    }

    /// Borrowed view of a column as contiguous ID slices of at most
    /// `batch_size` elements — the zero-copy basis of
    /// [`IdStreamIndex::scan_batches`], and the right entry point for
    /// callers that work on raw IDs.
    pub fn scan_slices<'a>(
        &'a self,
        label: &str,
        kind: NodeKind,
        batch_size: usize,
    ) -> impl Iterator<Item = &'a [StructuralId]> + 'a {
        self.stream(label, kind).chunks(batch_size.max(1))
    }

    /// Stream a `(label, kind)` column as single-attribute `(ID)`
    /// [`TupleBatch`]es of at most `batch_size` rows each — the batched
    /// scan the pipelined executor pulls instead of materializing the
    /// whole `ids_<label>` relation up front. The column itself is never
    /// copied: each slice from [`IdStreamIndex::scan_slices`] is turned
    /// into tuples only at this cursor boundary, one batch at a time.
    /// Batches preserve document order (each one's rows are ID-sorted
    /// and contiguous).
    pub fn scan_batches<'a>(
        &'a self,
        label: &str,
        kind: NodeKind,
        batch_size: usize,
    ) -> impl Iterator<Item = TupleBatch> + 'a {
        self.scan_slices(label, kind, batch_size).map(|chunk| {
            TupleBatch::new(
                chunk
                    .iter()
                    .map(|&sid| Tuple::new(vec![Value::Id(sid)]))
                    .collect(),
            )
        })
    }

    /// Catalog name of a label's element column (attributes get an `@`).
    pub fn relation_of(label: &str) -> String {
        format!("ids_{label}")
    }

    /// Cache every column in the catalog as a single-attribute `(ID)`
    /// relation ordered by ID, so plans can scan streams by name and the
    /// evaluator sees them as pre-sorted.
    pub fn register(&self, catalog: &mut Catalog) {
        for ((label, kind), col) in &self.columns {
            let name = match kind {
                NodeKind::Attribute => format!("ids_@{label}"),
                _ => Self::relation_of(label),
            };
            let tuples = col
                .ids
                .iter()
                .map(|&sid| Tuple::new(vec![Value::Id(sid)]))
                .collect();
            catalog.insert_ordered(
                name,
                Relation::new(Schema::atoms(&["ID"]), tuples),
                OrderSpec::by("ID"),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmltree::generate;

    #[test]
    fn columns_match_label_scans() {
        let doc = generate::xmark(3, 11);
        let idx = IdStreamIndex::build(&doc);
        for label in ["item", "keyword", "parlist", "listitem", "name"] {
            let want: Vec<StructuralId> = doc
                .nodes_with_label(label, NodeKind::Element)
                .map(|n| doc.structural_id(n))
                .collect();
            assert_eq!(idx.elements(label), want.as_slice(), "{label}");
            assert!(idx.elements(label).windows(2).all(|w| w[0].pre < w[1].pre));
        }
        assert!(idx.elements("no_such_label").is_empty());
        assert!(!idx.is_empty());
        assert!(idx.total_ids() > 0);
    }

    #[test]
    fn attribute_columns_are_separate() {
        let doc = generate::bib_sample();
        let idx = IdStreamIndex::build(&doc);
        let attrs = idx.stream("year", NodeKind::Attribute);
        assert!(!attrs.is_empty(), "bib sample has @year");
        assert!(idx.elements("year").is_empty(), "no year *elements*");
    }

    #[test]
    fn batched_scans_chunk_without_loss_or_reorder() {
        let doc = generate::xmark(3, 11);
        let idx = IdStreamIndex::build(&doc);
        let whole = idx.elements("item");
        assert!(whole.len() > 3);
        for bs in [1, 2, whole.len() - 1, whole.len(), whole.len() + 1] {
            let batches: Vec<TupleBatch> =
                idx.scan_batches("item", NodeKind::Element, bs).collect();
            assert!(batches.iter().all(|b| b.len() <= bs && !b.is_empty()));
            assert_eq!(batches.len(), whole.len().div_ceil(bs), "batch_size {bs}");
            let flat: Vec<StructuralId> = batches
                .iter()
                .flat_map(|b| b.tuples.iter().map(|t| t.get(0).as_id().unwrap()))
                .collect();
            assert_eq!(flat, whole, "batch_size {bs}");
        }
        // degenerate batch size clamps to 1 instead of spinning forever
        let n = idx.scan_batches("item", NodeKind::Element, 0).count();
        assert_eq!(n, whole.len());
        assert_eq!(idx.scan_batches("nope", NodeKind::Element, 8).count(), 0);
    }

    #[test]
    fn scan_slices_borrow_the_column() {
        let doc = generate::xmark(2, 5);
        let idx = IdStreamIndex::build(&doc);
        let whole = idx.elements("item");
        let slices: Vec<&[StructuralId]> = idx.scan_slices("item", NodeKind::Element, 4).collect();
        let flat: Vec<StructuralId> = slices.iter().flat_map(|s| s.iter().copied()).collect();
        assert_eq!(flat, whole);
        // slices alias the column storage — no copies
        assert_eq!(slices[0].as_ptr(), whole.as_ptr());
    }

    #[test]
    fn register_caches_streams_in_catalog() {
        let doc = generate::xmark(2, 5);
        let idx = IdStreamIndex::build(&doc);
        let mut cat = Catalog::new();
        idx.register(&mut cat);
        let rel = cat.get(&IdStreamIndex::relation_of("item")).unwrap();
        assert_eq!(rel.len(), idx.elements("item").len());
        assert_eq!(rel.schema, Schema::atoms(&["ID"]));
        assert_eq!(
            rel.tuples[0].get(0).as_id().unwrap(),
            idx.elements("item")[0]
        );
    }

    #[test]
    fn columnar_layout_mirrors_the_streams() {
        let doc = generate::xmark(3, 7);
        let idx = IdStreamIndex::build(&doc);
        for label in ["item", "keyword", "parlist"] {
            let cols = idx.columnar(label, NodeKind::Element).unwrap();
            let ids = idx.elements(label);
            assert_eq!(cols.len(), ids.len(), "{label}");
            for (i, &sid) in ids.iter().enumerate() {
                assert_eq!(cols.sid(i), sid);
                assert_eq!(cols.payload(i), i);
            }
        }
        assert!(idx.columnar("no_such", NodeKind::Element).is_none());
    }
}
