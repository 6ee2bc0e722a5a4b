//! The experiment datasets (Figure 4.13): synthetic stand-ins for the
//! paper's documents, at scales keeping laptop runtimes reasonable while
//! preserving the table's shape — summaries are small and barely grow
//! with document size.

use summary::Summary;
use xmltree::{generate, Document};

/// A named document + its summary.
pub struct Dataset {
    pub name: &'static str,
    pub doc: Document,
    pub summary: Summary,
}

impl Dataset {
    fn new(name: &'static str, doc: Document) -> Dataset {
        let summary = Summary::of_document(&doc);
        Dataset { name, doc, summary }
    }
}

/// The small XMark document (≈ the paper's XMark11), cached summary.
pub fn xmark_small() -> Dataset {
    Dataset::new("XMark-small", generate::xmark(15, 42))
}

/// The medium XMark document (≈ XMark111).
pub fn xmark_medium() -> Dataset {
    Dataset::new("XMark-medium", generate::xmark(120, 42))
}

/// The large XMark document (≈ XMark233).
pub fn xmark_large() -> Dataset {
    Dataset::new("XMark-large", generate::xmark(250, 42))
}

/// DBLP-like, small (≈ DBLP'02).
pub fn dblp_small() -> Dataset {
    Dataset::new("DBLP-small", generate::dblp(3000, 7))
}

/// DBLP-like, larger (≈ DBLP'05).
pub fn dblp_large() -> Dataset {
    Dataset::new("DBLP-large", generate::dblp(7000, 7))
}

pub fn shakespeare() -> Dataset {
    Dataset::new("Shakespeare", generate::shakespeare(20, 3))
}

pub fn nasa() -> Dataset {
    Dataset::new("NASA", generate::nasa(150, 4))
}

pub fn swissprot() -> Dataset {
    Dataset::new("SwissProt", generate::swissprot(250, 5))
}

/// All Figure 4.13 rows, in the paper's order.
pub fn all() -> Vec<Dataset> {
    vec![
        shakespeare(),
        nasa(),
        swissprot(),
        xmark_small(),
        xmark_medium(),
        xmark_large(),
        dblp_small(),
        dblp_large(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xmark_summary_stable_across_scales() {
        let a = xmark_small();
        let b = xmark_medium();
        assert_eq!(a.summary.len(), b.summary.len());
        assert!(b.doc.len() > 5 * a.doc.len());
    }

    #[test]
    fn dblp_summaries_are_small_and_constrained() {
        let s = dblp_small().summary;
        assert!(s.len() < 80);
        assert!(s.strong_edge_count() > 10);
        assert!(s.one_to_one_edge_count() > 5);
    }

    #[test]
    fn table_has_eight_rows() {
        // use the cheap datasets only to keep the test fast
        for d in [shakespeare(), xmark_small(), dblp_small()] {
            let s = &d.summary;
            assert!(!d.doc.is_empty() && !s.is_empty());
            assert!(
                s.strong_edge_count() >= s.one_to_one_edge_count() || s.strong_edge_count() > 0
            );
        }
    }
}
