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
//! Two access-method refinements ride on top of the plain columns:
//!
//! * every column is also kept packed as [`IdColumns`]
//!   ([`IdStreamIndex::columnar`]) — the layout the join kernels read,
//!   whose sorted `pre` column and `max_post` fences let lookups jump
//!   over irrelevant stream regions instead of scanning them;
//! * [`IdStreamIndex::build_with_summary`] additionally splits each
//!   column into per-summary-path partitions (φ of Definition 4.2.1),
//!   and [`IdStreamIndex::pruned_stream`] reassembles, in pre order,
//!   only the partitions a query pattern can actually touch — the
//!   partition selection of `summary::matching`.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use algebra::{IdColumns, OrderSpec, Relation, Schema, Tuple, TupleBatch, Value};
use summary::{Summary, SummaryNodeId};
use xmltree::{Document, NodeKind, StructuralId};

use algebra::Catalog;

/// Keep-fraction above which [`IdStreamIndex::pruned_stream`] serves the
/// whole column instead of merging partitions: when the summary keeps
/// more than 3/4 of a column, the k-way heap merge and the repacking of
/// its output cost more than the scan they save, so the stored column is
/// served as it is.
const KEEP_FALLBACK_NUM: usize = 3;
const KEEP_FALLBACK_DEN: usize = 4;

/// One summary-path slice of a column: the IDs (in document order) of
/// exactly the nodes classified to `path`.
#[derive(Debug, Clone)]
pub struct Partition {
    pub path: SummaryNodeId,
    pub ids: Vec<StructuralId>,
}

/// A pruned scan's result: the merged IDs plus how many of the column's
/// partitions were opened to produce them — the `partitions_opened /
/// partitions_total` figures of the execution metrics. The stream is
/// packed, so it is fenced and seekable by construction and seeks
/// compose with pruning: either the stored column (fallback case) or the
/// merged output.
#[derive(Debug, Clone)]
pub struct PrunedStream {
    /// Pre-sorted merge of the selected partitions; payloads are
    /// positions in the merged stream.
    pub cols: IdColumns,
    pub opened: usize,
    pub total: usize,
}

#[derive(Debug, Clone)]
struct Column {
    ids: Vec<StructuralId>,
    /// The same stream in the packed structure-of-arrays layout the join
    /// kernels read. Kept alongside the array-of-structs `ids` so
    /// `scan_slices` can stay zero-copy.
    cols: IdColumns,
    /// Summary-path partitions, sorted by path id; empty when the index
    /// was built without a summary.
    partitions: Vec<Partition>,
}

/// The index: one sorted `Vec<StructuralId>` column per `(label, kind)`,
/// each also packed and (optionally) split into summary-path partitions.
#[derive(Debug, Default, Clone)]
pub struct IdStreamIndex {
    columns: HashMap<(String, NodeKind), Column>,
}

impl IdStreamIndex {
    /// Build all columns in one walk over the document's postings
    /// (document order is pre order, so every column is born sorted).
    pub fn build(doc: &Document) -> IdStreamIndex {
        IdStreamIndex::build_inner(doc, None)
    }

    /// [`IdStreamIndex::build`] plus per-summary-path partitioning of
    /// every column, using the φ classification of `summary`. A document
    /// that does not conform to the summary gets unpartitioned columns
    /// (pruned scans then degrade to full scans, never to wrong ones).
    pub fn build_with_summary(doc: &Document, summary: &Summary) -> IdStreamIndex {
        IdStreamIndex::build_inner(doc, summary.classify(doc).as_deref())
    }

    fn build_inner(doc: &Document, phi: Option<&[SummaryNodeId]>) -> IdStreamIndex {
        let span = tracing::debug_span!(target: "uload::storage", "idstream_build");
        let _g = span.enter();
        // scratch for partitioning one posting: summary path → its slot
        // in that posting's partition list
        let path_count = phi.map_or(0, |phi| {
            phi.iter().map(|p| p.index() + 1).max().unwrap_or(0)
        });
        let mut slot_of: Vec<Option<usize>> = vec![None; path_count];
        let columns = doc
            .postings()
            // text nodes carry no label worth indexing
            .filter(|&(_, kind, _)| kind != NodeKind::Text)
            .map(|(label, kind, posting)| {
                let ids: Vec<StructuralId> =
                    posting.iter().map(|&n| doc.structural_id(n)).collect();
                let mut partitions: Vec<Partition> = Vec::new();
                if let Some(phi) = phi {
                    for (&n, &sid) in posting.iter().zip(&ids) {
                        let path = phi[n.index()];
                        let slot = *slot_of[path.index()].get_or_insert_with(|| {
                            partitions.push(Partition {
                                path,
                                ids: Vec::new(),
                            });
                            partitions.len() - 1
                        });
                        partitions[slot].ids.push(sid);
                    }
                    for p in &partitions {
                        slot_of[p.path.index()] = None;
                    }
                    partitions.sort_by_key(|p| p.path);
                }
                let cols = IdColumns::from_sids(&ids);
                (
                    (label.to_string(), kind),
                    Column {
                        ids,
                        cols,
                        partitions,
                    },
                )
            })
            .collect();
        let idx = IdStreamIndex { columns };
        tracing::debug!(
            target: "uload::storage",
            "built ID-stream index: {} columns, {} ids, partitioned: {}",
            idx.len(),
            idx.total_ids(),
            phi.is_some()
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

    /// The column's summary-path partitions (empty unless built with
    /// [`IdStreamIndex::build_with_summary`]).
    pub fn partitions(&self, label: &str, kind: NodeKind) -> &[Partition] {
        self.column(label, kind)
            .map(|c| c.partitions.as_slice())
            .unwrap_or(&[])
    }

    /// Reassemble, in pre order, only the partitions whose summary path
    /// is in `allowed` (which must be sorted — `summary::matching`
    /// returns its candidate sets sorted). Without partitions the whole
    /// column is returned and `opened == total == 0` signals that no
    /// pruning was available.
    ///
    /// When the selected partitions hold more than
    /// `KEEP_FALLBACK_NUM/KEEP_FALLBACK_DEN` of the column, the scan
    /// serves the whole stored column instead: the merge would cost
    /// more than the few elements it removes. `opened == total` reports
    /// the declined pruning honestly. Genuinely pruned merges are packed
    /// afresh, so seeks compose either way.
    pub fn pruned_stream(
        &self,
        label: &str,
        kind: NodeKind,
        allowed: &[SummaryNodeId],
    ) -> PrunedStream {
        debug_assert!(allowed.windows(2).all(|w| w[0] <= w[1]));
        let Some(c) = self.column(label, kind) else {
            return PrunedStream {
                cols: IdColumns::default(),
                opened: 0,
                total: 0,
            };
        };
        if c.partitions.is_empty() {
            return PrunedStream {
                cols: c.cols.clone(),
                opened: 0,
                total: 0,
            };
        }
        let selected: Vec<&Partition> = c
            .partitions
            .iter()
            .filter(|p| allowed.binary_search(&p.path).is_ok())
            .collect();
        let kept: usize = selected.iter().map(|p| p.ids.len()).sum();
        if kept * KEEP_FALLBACK_DEN > c.ids.len() * KEEP_FALLBACK_NUM {
            return PrunedStream {
                cols: c.cols.clone(),
                opened: c.partitions.len(),
                total: c.partitions.len(),
            };
        }
        // k-way merge by pre rank via a min-heap of partition heads;
        // partitions are individually sorted, so each element costs
        // O(log k) instead of a linear scan over all open cursors
        let mut ids = Vec::with_capacity(kept);
        let mut cursors = vec![0usize; selected.len()];
        let mut heap: BinaryHeap<Reverse<(u32, usize)>> = selected
            .iter()
            .enumerate()
            .filter(|(_, p)| !p.ids.is_empty())
            .map(|(i, p)| Reverse((p.ids[0].pre, i)))
            .collect();
        while let Some(Reverse((_, i))) = heap.pop() {
            ids.push(selected[i].ids[cursors[i]]);
            cursors[i] += 1;
            if let Some(next) = selected[i].ids.get(cursors[i]) {
                heap.push(Reverse((next.pre, i)));
            }
        }
        PrunedStream {
            cols: IdColumns::from_sids(&ids),
            opened: selected.len(),
            total: c.partitions.len(),
        }
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
    use algebra::NoMeter;
    use xmltree::generate;

    fn sids(cols: &IdColumns) -> Vec<StructuralId> {
        (0..cols.len()).map(|i| cols.sid(i)).collect()
    }

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
    fn summary_partitions_cover_each_column_exactly() {
        let doc = generate::xmark(2, 9);
        let s = Summary::of_document(&doc);
        let idx = IdStreamIndex::build_with_summary(&doc, &s);
        for label in ["keyword", "item", "text"] {
            let parts = idx.partitions(label, NodeKind::Element);
            assert!(!parts.is_empty(), "{label} must be partitioned");
            let total: usize = parts.iter().map(|p| p.ids.len()).sum();
            assert_eq!(total, idx.elements(label).len(), "{label}");
            // partitions hold the φ classification: every id's label path
            // is the partition's summary path
            for p in parts {
                assert_eq!(s.label(p.path), label);
            }
        }
        // unsummarized build has no partitions
        let plain = IdStreamIndex::build(&doc);
        assert!(plain.partitions("keyword", NodeKind::Element).is_empty());
    }

    #[test]
    fn pruned_streams_merge_selected_partitions_in_pre_order() {
        let doc = generate::xmark(2, 9);
        let s = Summary::of_document(&doc);
        let idx = IdStreamIndex::build_with_summary(&doc, &s);
        let parts = idx.partitions("keyword", NodeKind::Element);
        assert!(parts.len() >= 2, "need several keyword paths");
        // all partitions selected ⇒ keep-fraction fallback: the full
        // stored column, opened == total
        let all: Vec<SummaryNodeId> = parts.iter().map(|p| p.path).collect();
        let full = idx.pruned_stream("keyword", NodeKind::Element, &all);
        assert_eq!(sids(&full.cols), idx.elements("keyword"));
        assert_eq!(full.opened, full.total);
        // a single small partition (under the keep-fraction threshold)
        // comes back verbatim, still pre-sorted
        let small = parts.iter().min_by_key(|p| p.ids.len()).unwrap();
        assert!(small.ids.len() * 4 <= idx.elements("keyword").len() * 3);
        let one = idx.pruned_stream("keyword", NodeKind::Element, &[small.path]);
        assert_eq!(sids(&one.cols), small.ids);
        assert_eq!(one.opened, 1);
        assert!(one.cols.pre().windows(2).all(|w| w[0] < w[1]));
        // nothing selected → empty stream, zero opened
        let none = idx.pruned_stream("keyword", NodeKind::Element, &[]);
        assert!(none.cols.is_empty());
        assert_eq!(none.opened, 0);
        assert_eq!(none.total, parts.len());
        // unpartitioned index: full column, opened == total == 0
        let plain = IdStreamIndex::build(&doc);
        let fallback = plain.pruned_stream("keyword", NodeKind::Element, &[]);
        assert_eq!(sids(&fallback.cols), plain.elements("keyword"));
        assert_eq!((fallback.opened, fallback.total), (0, 0));
    }

    #[test]
    fn pruned_streams_carry_composable_fences() {
        // a genuinely pruned merge must arrive fenced over exactly the
        // merged output, positions as payloads, so seeks compose with
        // pruning
        let doc = generate::xmark(3, 11);
        let s = Summary::of_document(&doc);
        let idx = IdStreamIndex::build_with_summary(&doc, &s);
        let parts = idx.partitions("keyword", NodeKind::Element);
        let mut chosen: Vec<SummaryNodeId> = Vec::new();
        let mut kept = 0usize;
        let limit = idx.elements("keyword").len() / 2;
        for p in parts {
            if kept + p.ids.len() <= limit {
                chosen.push(p.path);
                kept += p.ids.len();
            }
        }
        chosen.sort_unstable();
        assert!(!chosen.is_empty(), "need a sub-threshold selection");
        let pruned = idx.pruned_stream("keyword", NodeKind::Element, &chosen);
        let ids = sids(&pruned.cols);
        assert_eq!(ids.len(), kept);
        assert!(ids.len() < idx.elements("keyword").len());
        assert!((0..ids.len()).all(|i| pruned.cols.payload(i) == i));
        // both seeks land where a linear scan of the merged stream does
        for &anchor in idx.elements("item").iter().step_by(3) {
            let gt = ids
                .iter()
                .position(|s| s.pre > anchor.pre)
                .unwrap_or(ids.len());
            assert_eq!(pruned.cols.seek_pre_gt(0, anchor.pre, &mut NoMeter), gt);
            let past = ids
                .iter()
                .position(|s| s.pre > anchor.pre && s.post > anchor.post)
                .unwrap_or(ids.len());
            assert_eq!(pruned.cols.seek_past(0, anchor, &mut NoMeter), past);
        }
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
