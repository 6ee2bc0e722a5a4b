//! # rewriting — view-based XQuery rewriting using XAM materialized views
//!
//! Chapter 5 of the paper, following the architecture of Figure 5.1:
//!
//! 1. the query is translated into an algebraic expression over **query
//!    tree patterns** `XQ_1 … XQ_n` (Chapter 3, the `xquery` crate);
//! 2. each query pattern is rewritten individually against the XAM view
//!    set under the summary constraints ([`rewrite()`]) — generate-and-test
//!    over view scans, compensations (value filters, navigation),
//!    structural / node-identity joins exploiting **ID properties**
//!    (structural IDs enable joins between views with no common node;
//!    `p`-class IDs let the plan *derive* ancestor identifiers), and
//!    unions;
//! 3. complete rewritings substitute a rewriting for each pattern in the
//!    query's combined plan ([`pipeline::Uload`]), producing a plan that
//!    runs **entirely over the materialized views** — total rewritings, no
//!    base store assumed.

pub mod cost;
pub mod pipeline;
pub mod planpat;
pub mod rewrite;
pub mod viewindex;

pub use cost::{CostModel, Estimate, EstimateNode};
pub use pipeline::{
    plan_fingerprint, EngineConfig, Explain, PreparedQuery, QueryItem, QueryOutput, QueryResults,
    Uload, UloadBuilder,
};
pub use planpat::PlanPattern;
pub use rewrite::{
    rewrite, rewrite_with_config, rewrite_with_engine, EngineOptions, RewriteConfig, RewriteStats,
    Rewriting,
};
pub use viewindex::ViewIndex;

#[cfg(test)]
mod tests {
    use super::*;
    use summary::Summary;
    use xam_core::parse_xam;
    use xmltree::generate::{bib_sample, xmark};

    fn views(defs: &[(&str, &str)]) -> Vec<(String, xam_core::Xam)> {
        defs.iter()
            .map(|(n, t)| (n.to_string(), parse_xam(t).unwrap()))
            .collect()
    }

    #[test]
    fn identity_rewriting_found() {
        let doc = bib_sample();
        let s = Summary::of_document(&doc);
        let q = parse_xam("//book[id:s]{ /title[val] }").unwrap();
        let vs = views(&[("v_exact", "//book[id:s]{ /title[val] }")]);
        let (rws, stats) = rewrite(&q, &vs, &s);
        assert!(!rws.is_empty(), "identity rewriting must exist");
        assert_eq!(rws[0].views_used, vec!["v_exact"]);
        assert!(stats.candidates_verified >= 1);
    }

    #[test]
    fn no_rewriting_from_unrelated_view() {
        let doc = bib_sample();
        let s = Summary::of_document(&doc);
        let q = parse_xam("//book[id:s]{ /title[val] }").unwrap();
        let vs = views(&[("v_auth", "//author[id:s,val]")]);
        let (rws, _) = rewrite(&q, &vs, &s);
        assert!(rws.is_empty());
    }

    #[test]
    fn view_with_weaker_predicate_is_filtered() {
        let doc = bib_sample();
        let s = Summary::of_document(&doc);
        // query wants 1999 books; the view stores all years
        let q = parse_xam(r#"//book[id:s]{ /@year[val="1999"] }"#).unwrap();
        let vs = views(&[("v_years", "//book[id:s]{ /@year[val] }")]);
        let (rws, _) = rewrite(&q, &vs, &s);
        assert!(!rws.is_empty(), "selection compensation must apply");
        // execute and check
        let mut store = storage::MaterializedStore::new();
        for (n, v) in &vs {
            store.add_view(n.clone(), v.clone(), &doc).unwrap();
        }
        let ev = algebra::Evaluator::with_document(store.catalog(), &doc);
        let rel = ev.eval(&rws[0].plan).unwrap();
        assert_eq!(rel.len(), 1);
    }

    #[test]
    fn navigation_compensation() {
        let doc = bib_sample();
        let s = Summary::of_document(&doc);
        // query wants book IDs + author values; the view stores only books
        let q = parse_xam("//book[id:s]{ /author[val] }").unwrap();
        let vs = views(&[("v_books", "//book[id:s]")]);
        let (rws, _) = rewrite(&q, &vs, &s);
        assert!(!rws.is_empty(), "navigation compensation must apply");
        let mut store = storage::MaterializedStore::new();
        for (n, v) in &vs {
            store.add_view(n.clone(), v.clone(), &doc).unwrap();
        }
        let ev = algebra::Evaluator::with_document(store.catalog(), &doc);
        let rel = ev.eval(&rws[0].plan).unwrap();
        assert_eq!(rel.len(), 3); // (book, author) pairs
    }

    #[test]
    fn structural_join_of_two_views() {
        let doc = bib_sample();
        let s = Summary::of_document(&doc);
        let q = parse_xam("//book[id:s]{ /title[id:s,val] }").unwrap();
        let vs = views(&[
            ("v_books", "//book[id:s]"),
            ("v_titles", "//title[id:s,val]"),
        ]);
        let (rws, _) = rewrite(&q, &vs, &s);
        assert!(!rws.is_empty(), "structural join rewriting must exist");
        let multi = rws.iter().find(|r| r.views_used.len() == 2);
        assert!(multi.is_some(), "a two-view rewriting must be found");
        let mut store = storage::MaterializedStore::new();
        for (n, v) in &vs {
            store.add_view(n.clone(), v.clone(), &doc).unwrap();
        }
        let ev = algebra::Evaluator::with_document(store.catalog(), &doc);
        let rel = ev.eval(&multi.unwrap().plan).unwrap();
        assert_eq!(rel.len(), 2); // both books have titles
    }

    #[test]
    fn structural_ids_required_for_join() {
        let doc = bib_sample();
        let s = Summary::of_document(&doc);
        let q = parse_xam("//book[id:i]{ /title[id:i,val] }").unwrap();
        // views with *simple* ids: structural join impossible; the only
        // hope is identity joins, but the views share no node
        let vs = views(&[
            ("v_books", "//book[id:i]"),
            ("v_titles", "//title[id:i,val]"),
        ]);
        let cfg = RewriteConfig {
            use_structural_ids: false,
            ..Default::default()
        };
        let (rws, _) = rewrite_with_config(&q, &vs, &s, cfg);
        // identity self-joins may legitimately appear, but no rewriting may
        // *combine* the two views: they share no node and cannot be
        // structurally joined without structural IDs
        let combines = rws.iter().any(|r| {
            r.views_used.contains(&"v_books".to_string())
                && r.views_used.contains(&"v_titles".to_string())
        });
        assert!(
            !combines,
            "no structural IDs → the two views cannot be combined"
        );
        // with structural IDs the combination exists
        let q_s = parse_xam("//book[id:s]{ /title[id:s,val] }").unwrap();
        let vs_s = views(&[
            ("v_books", "//book[id:s]"),
            ("v_titles", "//title[id:s,val]"),
        ]);
        let (rws2, _) = rewrite(&q_s, &vs_s, &s);
        assert!(rws2.iter().any(|r| {
            r.views_used.contains(&"v_books".to_string())
                && r.views_used.contains(&"v_titles".to_string())
        }));
    }

    #[test]
    fn identity_join_on_common_node() {
        let doc = bib_sample();
        let s = Summary::of_document(&doc);
        let q = parse_xam("//book[id:i]{ /title[val], /author[val] }").unwrap();
        // both views store the *same* book node (simple IDs suffice for ⋈=)
        let vs = views(&[
            ("v_bt", "//book[id:i]{ /title[val] }"),
            ("v_ba", "//book[id:i]{ /author[val] }"),
        ]);
        let (rws, _) = rewrite(&q, &vs, &s);
        let multi = rws.iter().find(|r| r.views_used.len() == 2);
        assert!(multi.is_some(), "identity-join rewriting must exist");
        let mut store = storage::MaterializedStore::new();
        for (n, v) in &vs {
            store.add_view(n.clone(), v.clone(), &doc).unwrap();
        }
        let ev = algebra::Evaluator::with_document(store.catalog(), &doc);
        let rel = ev.eval(&multi.unwrap().plan).unwrap();
        assert_eq!(rel.len(), 3); // (title × author) per book: 2 + 1
    }

    #[test]
    fn union_rewriting() {
        let doc = bib_sample();
        let s = Summary::of_document(&doc);
        // query: all titles; views partition them by parent kind
        let q = parse_xam("//title[id:s,val]").unwrap();
        let vs = views(&[
            ("v_bt", "//book{ /title[id:s,val] }"),
            ("v_pt", "//phdthesis{ /title[id:s,val] }"),
        ]);
        let (rws, _) = rewrite(&q, &vs, &s);
        assert!(!rws.is_empty(), "union rewriting must exist");
        let rw = &rws[0];
        assert_eq!(rw.views_used.len(), 2);
        let mut store = storage::MaterializedStore::new();
        for (n, v) in &vs {
            store.add_view(n.clone(), v.clone(), &doc).unwrap();
        }
        let ev = algebra::Evaluator::with_document(store.catalog(), &doc);
        let rel = ev.eval(&rw.plan).unwrap();
        assert_eq!(rel.len(), 3); // all three titles
    }

    #[test]
    fn summary_bridges_path_gaps() {
        // view stores //listitem; query asks //parlist//listitem//keyword:
        // the summary knows every listitem sits under a parlist, so the
        // view plus navigation suffices (without the summary, the //parlist
        // ancestor could not be dropped)
        let doc = xmark(2, 9);
        let s = Summary::of_document(&doc);
        let q = parse_xam("//parlist{ //listitem[id:s]{ //keyword[val] } }").unwrap();
        let vs = views(&[("v_li", "//listitem[id:s]")]);
        let (rws, _) = rewrite(&q, &vs, &s);
        assert!(
            !rws.is_empty(),
            "summary constraints must license the rewriting"
        );
        let mut store = storage::MaterializedStore::new();
        for (n, v) in &vs {
            store.add_view(n.clone(), v.clone(), &doc).unwrap();
        }
        let ev = algebra::Evaluator::with_document(store.catalog(), &doc);
        let rel = ev.eval(&rws[0].plan).unwrap();
        // ground truth via direct evaluation
        let direct = xam_core::evaluate(&q, &doc).unwrap();
        assert_eq!(rel.len(), direct.len());
    }

    #[test]
    fn nested_view_exact_match() {
        let doc = xmark(2, 9);
        let s = Summary::of_document(&doc);
        let q = parse_xam("//item[id:s]{ /name[val], //n? listitem[id:s,cont] }").unwrap();
        let vs = views(&[("v1", "//item[id:s]{ /name[val], //n? listitem[id:s,cont] }")]);
        let (rws, _) = rewrite(&q, &vs, &s);
        assert!(!rws.is_empty(), "exact nested view must be used");
        let mut store = storage::MaterializedStore::new();
        for (n, v) in &vs {
            store.add_view(n.clone(), v.clone(), &doc).unwrap();
        }
        let ev = algebra::Evaluator::with_document(store.catalog(), &doc);
        let rel = ev.eval(&rws[0].plan).unwrap();
        let direct = xam_core::evaluate(&q, &doc).unwrap();
        assert_eq!(rel.len(), direct.len());
        // and the schemas agree with the pattern's own names
        assert_eq!(rel.schema, direct.schema);
    }

    #[test]
    fn parent_id_derivation_from_dewey_ids() {
        // the view stores only parlist IDs (p-class); the query needs the
        // *description* IDs — derivable because description/parlist is a
        // parent-child edge and the IDs are navigational (§4.4)
        let doc = xmark(2, 3);
        let s = Summary::of_document(&doc);
        let q = parse_xam("//description[id:p]{ /parlist }").unwrap();
        let vs = views(&[("v_parlists", "//description{ /parlist[id:p] }")]);
        let (rws, _) = rewrite(&q, &vs, &s);
        assert!(
            !rws.is_empty(),
            "parent-ID derivation must enable the rewriting"
        );
        assert!(
            format!("{}", rws[0].plan).contains("parent^1"),
            "{}",
            rws[0].plan
        );
        // and it executes correctly
        let mut store = storage::MaterializedStore::new();
        for (n, v) in &vs {
            store.add_view(n.clone(), v.clone(), &doc).unwrap();
        }
        let ev = algebra::Evaluator::with_document(store.catalog(), &doc);
        let rel = ev.eval(&rws[0].plan).unwrap();
        let direct = xam_core::evaluate(&q, &doc).unwrap();
        assert_eq!(rel.len(), direct.len());
        // with s-class IDs in the view, derivation is illegal and no
        // rewriting exists
        let vs2 = views(&[("v_parlists", "//description{ /parlist[id:s] }")]);
        let q2 = parse_xam("//description[id:s]{ /parlist }").unwrap();
        let (rws2, _) = rewrite(&q2, &vs2, &s);
        assert!(
            rws2.is_empty(),
            "s-class IDs must not allow parent derivation"
        );
    }

    #[test]
    fn rewriting_results_match_direct_evaluation() {
        // end-to-end correctness sweep over several query/view pairs
        let doc = bib_sample();
        let s = Summary::of_document(&doc);
        let cases: Vec<(&str, Vec<(&str, &str)>)> = vec![
            (
                "//book[id:s]{ /author[id:s,val] }",
                vec![("v", "//book[id:s]{ /author[id:s,val] }")],
            ),
            ("//book[id:s]", vec![("v", "//book[id:s,cont]")]),
            (
                "//author[id:s,val]",
                vec![("v", "//library{ //author[id:s,val] }")],
            ),
        ];
        for (qt, vdefs) in cases {
            let q = parse_xam(qt).unwrap();
            let vs = views(&vdefs);
            let (rws, _) = rewrite(&q, &vs, &s);
            assert!(!rws.is_empty(), "no rewriting for {qt}");
            let mut store = storage::MaterializedStore::new();
            for (n, v) in &vs {
                store.add_view(n.clone(), v.clone(), &doc).unwrap();
            }
            let ev = algebra::Evaluator::with_document(store.catalog(), &doc);
            let rel = ev.eval(&rws[0].plan).unwrap();
            let direct = xam_core::evaluate(&q, &doc).unwrap();
            assert_eq!(rel.len(), direct.len(), "cardinality for {qt}");
        }
    }
}
