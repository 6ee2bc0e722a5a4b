//! Algebraic translation `alg(q)` (§3.3.1–3.3.2) and end-to-end execution.
//!
//! The combined plan mirrors the paper's final form of §3.3.3:
//!
//! ```text
//! alg(q) = xml_templ( σ_post( ⟦XQ_1⟧ × ⟦XQ_2⟧ × … ) )
//! ```
//!
//! where each `⟦XQ_i⟧` is the structural-join tree of one maximal query
//! pattern (its algebraic XAM semantics, Chapter 2), `σ_post` applies the
//! value joins / `ftcontains` residue, and `xml_templ` tags the result.
//! [`combine_plans`] emits that form with each equality of `σ_post`
//! already folded into the product it filters (`σ_{a=b}(L × R)` is
//! `L ⋈_{a=b} R`, which the engine hashes); a `×` survives only between
//! patterns no equality connects.
//! [`execute_query`] runs the pipeline directly against the tag-derived
//! collections of a document — the "default storage" path; the rewriting
//! crate substitutes materialized views for the pattern plans instead.

use std::collections::HashMap;

use algebra::{Catalog, EvalError, Evaluator, JoinKind, LogicalPlan, Path, Predicate, Relation};
use xmltree::Document;

use crate::extract::{extract_patterns, ExtractError, ExtractedQuery};
use crate::parse::{parse_query, Query, QueryParseError};

/// Everything that can go wrong when running a query.
#[derive(Debug)]
pub enum QueryError {
    Parse(QueryParseError),
    Extract(ExtractError),
    Eval(EvalError),
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Parse(e) => write!(f, "{e}"),
            QueryError::Extract(e) => write!(f, "{e}"),
            QueryError::Eval(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<QueryParseError> for QueryError {
    fn from(e: QueryParseError) -> Self {
        QueryError::Parse(e)
    }
}

impl From<ExtractError> for QueryError {
    fn from(e: ExtractError) -> Self {
        QueryError::Extract(e)
    }
}

impl From<EvalError> for QueryError {
    fn from(e: EvalError) -> Self {
        QueryError::Eval(e)
    }
}

/// Build the executable logical plan of an extracted query, where each
/// pattern is answered by the given per-pattern plan (index-aligned with
/// `ex.patterns`). The rewriting layer passes view-based plans here; the
/// default path passes the patterns' own structural-join plans.
///
/// The pattern plans are folded left to right. A post-filter with an
/// equality between the pattern being added and an earlier one becomes
/// (part of) that step's join predicate, provided it reads no later
/// pattern — the lowest join covering its columns; a step no such filter
/// reaches is a product. The remaining filters (`<`, `contains`,
/// conditions within one pattern) are selections on top, in their
/// original order. Row order is that of `σ_post` over the left-deep
/// product in every case.
pub fn combine_plans(ex: &ExtractedQuery, pattern_plans: Vec<LogicalPlan>) -> LogicalPlan {
    // the pattern each top-level output field belongs to (node names are
    // unique across the patterns of one extraction)
    let head = |path: &str| path.split('.').next().unwrap_or(path).to_string();
    let mut owner: HashMap<String, usize> = HashMap::new();
    for (k, p) in ex.patterns.iter().enumerate() {
        for c in xam_core::semantics::output_columns(p) {
            owner.insert(head(&c.path), k);
        }
    }
    let owner_of = |c: &Path| owner.get(&head(c.as_str())).copied();
    let mut pending: Vec<&Predicate> = ex.post_filters.iter().collect();
    let mut plans = pattern_plans.into_iter().enumerate();
    let (_, mut plan) = plans.next().expect("at least one pattern");
    for (k, p) in plans {
        let (on, rest): (Vec<_>, Vec<_>) = pending.into_iter().partition(|f| {
            let covered = f
                .columns()
                .into_iter()
                .all(|c| owner_of(c).is_some_and(|o| o <= k));
            covered
                && f.equi_conjuncts()
                    .into_iter()
                    .any(|(a, b)| (owner_of(a) == Some(k)) != (owner_of(b) == Some(k)))
        });
        pending = rest;
        plan = match on.into_iter().cloned().reduce(Predicate::and) {
            Some(pred) => plan.join(p, pred, JoinKind::Inner),
            None => plan.product(p),
        };
    }
    for f in pending {
        plan = plan.select(f.clone());
    }
    LogicalPlan::XmlTemplate {
        input: Box::new(plan),
        templ: ex.template.clone(),
    }
}

/// The default per-pattern plan: the pattern's own algebraic semantics
/// over tag-derived collections, projected (duplicate-preserving — FLWR
/// iteration keeps multiplicities) to its output columns.
pub fn default_pattern_plan(xam: &xam_core::Xam) -> LogicalPlan {
    let cols: Vec<Path> = xam_core::semantics::output_columns(xam)
        .into_iter()
        .map(|c| Path::new(c.path))
        .collect();
    LogicalPlan::Project {
        input: Box::new(xam_core::semantics::build_join_plan(xam)),
        cols,
        distinct: false,
    }
}

/// Translate a query text to (extraction, combined logical plan).
pub fn query_plan(text: &str) -> Result<(ExtractedQuery, LogicalPlan), QueryError> {
    let q: Query = parse_query(text)?;
    let ex = extract_patterns(&q)?;
    let plans = ex.patterns.iter().map(default_pattern_plan).collect();
    let plan = combine_plans(&ex, plans);
    Ok((ex, plan))
}

/// Parse, extract, translate and execute a query over a document,
/// returning one serialized XML string per result item.
///
/// ```
/// let doc = xmltree::generate::bib_sample();
/// let out = xquery::execute_query(
///     r#"for $b in doc("bib.xml")//book return <info>{$b/title}</info>"#,
///     &doc,
/// ).unwrap();
/// assert_eq!(out.len(), 2);
/// assert!(out[0].contains("<title>Data on the Web</title>"));
/// ```
pub fn execute_query(text: &str, doc: &Document) -> Result<Vec<String>, QueryError> {
    execute_query_with_plan(text, doc).map(|(out, _)| out)
}

/// [`execute_query`], additionally returning the combined logical plan
/// that was executed (callers fingerprint or inspect it).
pub fn execute_query_with_plan(
    text: &str,
    doc: &Document,
) -> Result<(Vec<String>, LogicalPlan), QueryError> {
    let (ex, plan) = query_plan(text)?;
    let mut catalog = Catalog::new();
    for p in &ex.patterns {
        merge_catalog(&mut catalog, xam_core::semantics::build_catalog(p, doc));
    }
    let ev = Evaluator::with_document(&catalog, doc);
    let rel: Relation = ev.eval(&plan)?;
    let out = rel
        .tuples
        .iter()
        .map(|t| t.get(0).as_str().unwrap_or("").to_string())
        .collect();
    Ok((out, plan))
}

fn merge_catalog(into: &mut Catalog, mut from: Catalog) {
    for name in from.names().map(str::to_string).collect::<Vec<_>>() {
        if let Some(rel) = from.remove(&name) {
            into.insert(name, rel);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmltree::generate::{bib_document, bib_sample, xmark};

    #[test]
    fn simple_flwr_executes() {
        let doc = bib_sample();
        let out = execute_query(
            r#"for $b in doc("bib.xml")//book return <info>{$b/author}{$b/title}</info>"#,
            &doc,
        )
        .unwrap();
        assert_eq!(out.len(), 2);
        assert!(out[0].contains("<author>Abiteboul</author>"));
        assert!(out[0].contains("<author>Suciu</author>"));
        assert!(out[0].contains("<title>Data on the Web</title>"));
        assert!(out[1].contains("The Syntactic Web"));
    }

    #[test]
    fn where_filters() {
        let doc = bib_document();
        let out = execute_query(
            r#"for $x in doc("bib.xml")//book where $x/year = "1999" return <t>{$x/title/text()}</t>"#,
            &doc,
        )
        .unwrap();
        assert_eq!(out, vec!["<t>Data on the Web</t>"]);
    }

    #[test]
    fn empty_subexpressions_still_construct() {
        // the §3.1 requirement: constructors emit even for empty content
        let doc = bib_sample();
        let out =
            execute_query(r#"for $x in doc("d")//book return <r>{$x/@year}</r>"#, &doc).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[1], "<r></r>"); // the second book has no year
    }

    #[test]
    fn nested_blocks_group_correctly() {
        let doc = xmark(2, 5);
        let out = execute_query(
            r#"for $x in doc("X")//item return
               <res_item>{$x/name/text()},
                 for $y in $x//description return <res_desc>{$y//listitem}</res_desc>
               </res_item>"#,
            &doc,
        )
        .unwrap();
        // one result per item
        let items = doc.elements().filter(|&n| doc.label(n) == "item").count();
        assert_eq!(out.len(), items);
        for o in &out {
            assert!(o.starts_with("<res_item>"));
        }
        // at least one item has listitems inside its res_desc
        assert!(out.iter().any(|o| o.contains("<res_desc><listitem")));
    }

    #[test]
    fn ftcontains_query_runs() {
        let doc = bib_sample();
        let out = execute_query(
            r#"for $t in doc("d")//book/title where $t ftcontains "Web" return <hit>{$t/text()}</hit>"#,
            &doc,
        )
        .unwrap();
        assert_eq!(out.len(), 2); // both book titles contain "Web"
    }

    #[test]
    fn value_join_across_patterns() {
        // books and theses published the same year
        let doc = bib_sample();
        let out = execute_query(
            r#"for $b in doc("d")//book, $p in doc("d")//phdthesis
               where $b/@year = $p/@year
               return <pair>{$b/title/text()}</pair>"#,
            &doc,
        )
        .unwrap();
        assert_eq!(out.len(), 0); // 1999 ≠ 2004
        let out = execute_query(
            r#"for $b in doc("d")//book, $p in doc("d")//phdthesis
               where $b/@year < $p/@year
               return <pair>{$b/title/text()}</pair>"#,
            &doc,
        )
        .unwrap();
        assert_eq!(out.len(), 1);
        assert!(out[0].contains("Data on the Web"));
    }

    /// The operator under the `xml_templ` root.
    fn body(text: &str) -> LogicalPlan {
        match query_plan(text).unwrap().1 {
            LogicalPlan::XmlTemplate { input, .. } => *input,
            other => panic!("no xml_templ root: {other}"),
        }
    }

    #[test]
    fn equality_filter_becomes_a_join() {
        let plan = body(
            r#"for $b in doc("d")//book, $p in doc("d")//phdthesis
               where $b/@year = $p/@year return <pair>{$b/title/text()}</pair>"#,
        );
        let LogicalPlan::Join {
            left,
            right,
            pred,
            kind: JoinKind::Inner,
        } = &plan
        else {
            panic!("expected a join: {plan}")
        };
        assert_eq!(pred.equi_conjuncts().len(), 1, "{pred}");
        for side in [left, right] {
            assert!(matches!(**side, LogicalPlan::Project { .. }), "{side}");
        }
        assert_eq!(plan.node_label(), "HashJoin(⋈)");
    }

    #[test]
    fn two_equalities_over_three_patterns_join_left_deep_in_pattern_order() {
        let plan = body(
            r#"for $a in doc("d")//book, $b in doc("d")//phdthesis, $c in doc("d")//article
               where $a/@year = $b/@year and $c/title = $a/title return <r>{$c/title/text()}</r>"#,
        );
        let LogicalPlan::Join {
            left: ab,
            right: c,
            pred: ac,
            ..
        } = &plan
        else {
            panic!("expected a join on top: {plan}")
        };
        let LogicalPlan::Join {
            left: a, right: b, ..
        } = &**ab
        else {
            panic!("expected a left-deep join: {plan}")
        };
        for (side, label) in [(a, "book"), (b, "phdthesis"), (c, "article")] {
            assert!(matches!(**side, LogicalPlan::Project { .. }), "{side}");
            let scans = side.scanned_relations();
            assert!(scans[0].contains(label), "{label} out of order: {scans:?}");
        }
        // the second filter names $c first: it still attaches where $c joins
        assert!(ac.to_string().contains("title"), "{ac}");
    }

    #[test]
    fn equality_skipping_a_pattern_joins_over_the_product() {
        let plan = body(
            r#"for $a in doc("d")//book, $b in doc("d")//phdthesis, $c in doc("d")//article
               where $c/title = $a/title return <r>{$b/title/text()}</r>"#,
        );
        let LogicalPlan::Join { left, .. } = &plan else {
            panic!("expected a join on top: {plan}")
        };
        assert!(matches!(**left, LogicalPlan::Product { .. }), "{left}");
    }

    #[test]
    fn non_equality_filters_stay_selections() {
        // `contains` rides above the join the equality made
        let plan = body(
            r#"for $b in doc("d")//book, $p in doc("d")//phdthesis
               where $b/@year = $p/@year and $b/title ftcontains "Web"
               return <pair>{$b/title/text()}</pair>"#,
        );
        let LogicalPlan::Select { input, pred } = &plan else {
            panic!("expected a selection on top: {plan}")
        };
        assert!(pred.to_string().contains("contains"), "{pred}");
        assert!(matches!(**input, LogicalPlan::Join { .. }), "{input}");
        // `<` alone: selection over the product, as in §3.3.3
        let plan = body(
            r#"for $b in doc("d")//book, $p in doc("d")//phdthesis
               where $b/@year < $p/@year return <pair>{$b/title/text()}</pair>"#,
        );
        let LogicalPlan::Select { input, .. } = &plan else {
            panic!("expected a selection on top: {plan}")
        };
        assert!(matches!(**input, LogicalPlan::Product { .. }), "{input}");
    }

    #[test]
    fn unfiltered_patterns_stay_a_product() {
        let plan =
            body(r#"for $x in doc("d")//book, $y in doc("d")//author return <r>{$x/title}</r>"#);
        assert!(matches!(plan, LogicalPlan::Product { .. }), "{plan}");
    }

    #[test]
    fn plain_path_query() {
        let doc = bib_sample();
        let out = execute_query(r#"doc("d")//book/title"#, &doc).unwrap();
        assert_eq!(out.len(), 2);
        assert!(out[0].contains("<title>"));
    }

    #[test]
    fn multiplicity_preserved() {
        // two authors on the first book → two rows for the author query
        let doc = bib_sample();
        let out = execute_query(
            r#"for $a in doc("d")//book/author return <a>{$a/text()}</a>"#,
            &doc,
        )
        .unwrap();
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn bracket_predicate_filters_binding() {
        let doc = bib_sample();
        let out = execute_query(
            r#"for $b in doc("d")//book[author] return <t>{$b/title/text()}</t>"#,
            &doc,
        )
        .unwrap();
        assert_eq!(out.len(), 2);
        let out =
            execute_query(r#"doc("d")//book[title = "Data on the Web"]/author"#, &doc).unwrap();
        assert_eq!(out.len(), 2); // Abiteboul, Suciu
    }
}
