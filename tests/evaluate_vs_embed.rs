//! Differential test of the algebraic XAM semantics (`xam_core::evaluate`,
//! the view-materialization path) against the embedding semantics of
//! `xam_core::embed`, over generated XAMs × documents.
//!
//! `evaluate` builds only the columns a XAM reads and lets `Π_χ` skip
//! duplicate elimination when the kept IDs form a key; the cases below
//! are the ones either shortcut can get wrong.
//!
//! The embeddings share no code with the executor, so this is also the
//! executor's reference: each case's plan additionally runs through
//! `build_cursor` a row at a time and seven at a time, and must give the
//! relation `evaluate` (the same plan as one batch) gave.

use std::collections::{BTreeSet, HashSet};

use algebra::{FieldKind, Relation, Schema, Tuple, Value};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use summary::Summary;
use uload_bench::pattern_gen::{self, GenConfig};
use xam_core::semantics::{
    build_catalog, build_join_plan, final_projection, output_columns, Route, StoredAttr,
};
use xam_core::{parse_xam, EdgeSem, IdKind, Xam};
use xmltree::{Document, DocumentBuilder};

/// One flattened result row: `(dotted column path, rendered value)`,
/// sorted by path.
type Row = Vec<(String, String)>;

const NULL: &str = "⊥";

fn render(v: &Value) -> String {
    match v {
        Value::Null => NULL.to_string(),
        Value::Id(id) => format!("#{}", id.pre),
        Value::Str(s) => format!("{s:?}"),
        other => panic!("unexpected value {other} in a XAM result"),
    }
}

/// Unnest one tuple completely. An empty (or `⊥`) collection yields one
/// row of nulls, as an unmatched optional subtree does under embeddings.
fn flatten(schema: &Schema, t: &Tuple, prefix: &str) -> Vec<Row> {
    let mut rows: Vec<Row> = vec![Vec::new()];
    for (i, f) in schema.fields.iter().enumerate() {
        let name = format!("{prefix}{}", f.name);
        let parts: Vec<Row> = match &f.kind {
            FieldKind::Atom => vec![vec![(name, render(t.get(i)))]],
            FieldKind::Nested(inner) => {
                let inner_prefix = format!("{name}.");
                let nested: Vec<Row> = match t.get(i) {
                    Value::Coll(c) => c
                        .tuples
                        .iter()
                        .flat_map(|it| flatten(inner, it, &inner_prefix))
                        .collect(),
                    _ => Vec::new(),
                };
                if nested.is_empty() {
                    let nulls = inner
                        .leaf_names()
                        .into_iter()
                        .map(|l| (format!("{inner_prefix}{l}"), NULL.to_string()))
                        .collect();
                    vec![nulls]
                } else {
                    nested
                }
            }
        };
        rows = rows
            .iter()
            .flat_map(|r| {
                parts.iter().map(move |p| {
                    let mut row = r.clone();
                    row.extend(p.iter().cloned());
                    row
                })
            })
            .collect();
    }
    rows
}

fn flattened(rel: &Relation) -> BTreeSet<Row> {
    rel.tuples
        .iter()
        .flat_map(|t| flatten(&rel.schema, t, ""))
        .map(|mut r| {
            r.sort();
            r
        })
        .collect()
}

/// What `⟦χ⟧_d` must hold, from the embeddings alone: one row per
/// embedding, projected to the XAM's stored items.
fn expected(xam: &Xam, doc: &Document) -> BTreeSet<Row> {
    let cols = output_columns(xam);
    xam_core::embed::embeddings(xam, doc)
        .into_iter()
        .map(|e| {
            let mut row: Row = cols
                .iter()
                .map(|c| {
                    let v = e[c.node.index()].map_or(Value::Null, |d| match c.attr {
                        StoredAttr::Id => Value::Id(doc.structural_id(d)),
                        StoredAttr::Tag => Value::str(doc.label(d)),
                        StoredAttr::Val => Value::str(doc.value(d)),
                        StoredAttr::Cont => Value::str(doc.content(d)),
                    });
                    (c.path.clone(), render(&v))
                })
                .collect();
            row.sort();
            row
        })
        .collect()
}

/// `evaluate` agrees with the embeddings, `Π_χ` left no duplicate
/// among the top-level tuples (whether or not it ran the dedup pass),
/// and cutting the input into batches changes nothing.
fn check(xam: &Xam, doc: &Document) -> Result<(), String> {
    let rel = xam_core::evaluate(xam, doc).map_err(|e| format!("evaluate failed: {e}\n{xam}"))?;
    let (cat, plan) = (
        build_catalog(xam, doc),
        final_projection(xam, build_join_plan(xam)),
    );
    for batch_size in [1, 7] {
        let cfg = algebra::CursorConfig {
            batch_size,
            ..Default::default()
        };
        let batched = algebra::build_cursor(&plan, &cat, Some(doc), &cfg)
            .and_then(|exec| exec.collect())
            .map_err(|e| format!("batch {batch_size} failed: {e}\n{xam}"))?;
        if batched != rel {
            return Err(format!(
                "batch {batch_size} gave {} rows, one batch {}\n{xam}",
                batched.len(),
                rel.len()
            ));
        }
    }
    let distinct: HashSet<String> = rel.tuples.iter().map(|t| t.to_string()).collect();
    if distinct.len() != rel.len() {
        return Err(format!(
            "{} duplicate tuples survive Π_χ\n{xam}",
            rel.len() - distinct.len()
        ));
    }
    let (got, want) = (flattened(&rel), expected(xam, doc));
    if got != want {
        let extra: Vec<_> = got.difference(&want).take(3).collect();
        let missing: Vec<_> = want.difference(&got).take(3).collect();
        return Err(format!(
            "evaluate ≠ embeddings ({} vs {} rows)\nextra {extra:?}\nmissing {missing:?}\n{xam}",
            got.len(),
            want.len()
        ));
    }
    Ok(())
}

/// Small documents with repeated and recursive labels, attributes, and
/// digit values for `val = c` predicates to hit.
fn arb_document() -> impl Strategy<Value = Document> {
    prop::collection::vec((0usize..5, 0usize..4, 0usize..4), 4..36).prop_map(|ops| {
        let labels = ["a", "b", "c", "item", "name"];
        let mut b = DocumentBuilder::new();
        b.open_element("root");
        let mut depth = 1usize;
        for (l, action, v) in ops {
            match action {
                0 => {
                    b.open_element(labels[l]);
                    if v < 2 {
                        b.attribute("k", &v.to_string());
                    }
                    depth += 1;
                }
                1 if depth > 1 => {
                    b.close_element();
                    depth -= 1;
                }
                _ => {
                    b.leaf_element(labels[l], &v.to_string());
                }
            }
        }
        while depth > 0 {
            b.close_element();
            depth -= 1;
        }
        b.finish()
    })
}

/// A satisfiable pattern over the document's summary from
/// `bench::pattern_gen`, then re-decorated: every node stores a random
/// subset of ID/Tag/Val/Cont (so predicates sit on nodes without `Val`,
/// `cont` on inner nodes, IDs go missing under `Π_χ`), and edges below
/// the root turn into semi- and nest joins.
fn arb_xam(doc: &Document, seed: u64) -> Option<Xam> {
    let s = Summary::of_document(doc);
    let mut rng = SmallRng::seed_from_u64(seed);
    let labels: Vec<String> = s
        .all_nodes()
        .filter(|&n| s.kind(n) == xmltree::NodeKind::Element)
        .map(|n| s.label(n).to_string())
        .collect();
    let cfg = GenConfig {
        size: rng.gen_range(2..6),
        return_count: rng.gen_range(1..3),
        return_labels: (0..2)
            .map(|_| labels[rng.gen_range(0..labels.len())].clone())
            .collect(),
        p_star: 0.3,
        p_value_pred: 0.3,
        p_descendant: 0.5,
        p_optional: 0.4,
    };
    let mut xam = pattern_gen::generate(&s, &cfg, &mut rng)?;
    let nodes: Vec<_> = xam.pattern_nodes().collect();
    for &n in &nodes {
        let below_root = xam.parent(n) != Some(xam.root());
        let node = xam.node_mut(n);
        node.stores_id = rng.gen_bool(0.5).then_some(IdKind::Structural);
        node.stores_tag = rng.gen_bool(0.3);
        node.stores_val = rng.gen_bool(0.3);
        node.stores_cont = rng.gen_bool(0.2);
        if below_root && rng.gen_bool(0.4) {
            node.edge.sem = match node.edge.sem {
                EdgeSem::Outer => EdgeSem::NestOuter,
                _ if rng.gen_bool(0.5) => EdgeSem::Semi,
                _ => EdgeSem::NestJoin,
            };
        }
    }
    // Π_χ needs at least one column
    if output_columns(&xam).is_empty() {
        xam.node_mut(nodes[0]).stores_tag = true;
    }
    Some(xam)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(600))]

    #[test]
    fn evaluate_matches_embeddings(doc in arb_document(), seed in 0u64..1_000_000) {
        if let Some(xam) = arb_xam(&doc, seed) {
            if let Err(why) = check(&xam, &doc) {
                prop_assert!(false, "{}\nover {}", why, xmltree::parser::serialize(&doc));
            }
        }
    }
}

/// Two books share a title and an author, `sec` nests in itself, one
/// book has no year and one editor no affiliation.
fn lib_document() -> Document {
    xmltree::parse_document(concat!(
        "<lib>",
        r#"<book year="1999" lang="en"><title>Data on the Web</title><author>Abiteboul</author>"#,
        "<author>Suciu</author><editor><affil>INRIA</affil></editor></book>",
        "<book><title>The Syntactic Web</title><author>Lerners-Bee</author></book>",
        r#"<book year="2001"><title>Data on the Web</title><author>Suciu</author><editor/></book>"#,
        r#"<thesis year="2004"><title>Next</title><author>Smith</author>"#,
        "<sec><sec><p>1</p></sec><p>2</p></sec></thesis>",
        "</lib>",
    ))
    .unwrap()
}

/// The shapes demand pruning and the dedup shortcut can get wrong,
/// spelled out over [`lib_document`].
#[test]
fn forced_cases_match_embeddings() {
    let lib = lib_document();
    let cases = [
        // value predicate on a node that does not store Val
        r#"//book[id:s]{ /@year[val="1999"] }"#,
        r#"//book[tag]{ /title[val!="Next"], /author[id:s] }"#,
        r#"//*[id:s]{ /s @year[val>2000] }"#,
        r#"//book[val]{ /author[id:s,val="Suciu"] }"#,
        // cont on an inner node, nothing else stored there
        "//book[cont]{ /title[id:s] }",
        "//lib[id:s]{ /book[cont]{ /author[val] } }",
        "//thesis{ /sec[cont]{ //p[id:s] } }",
        // `*` and attribute nodes
        "//*[id:s,tag]{ /@*[id:s,val] }",
        "//*[tag]{ /*[tag]{ /*[tag] } }",
        "//book{ /@year[val] }",
        "//*[tag]{ /s @lang }",
        // unstored-ID nodes: Π_χ must still eliminate duplicates
        "//book[tag]{ /author }",
        "//book{ /title[val] }",
        "//lib{ //author[val] }",
        "//*{ /? author[tag] }",
        "//book{ /? editor[id:s] }",
        "//sec{ //p[id:s] }",
        "//sec[tag]{ //p }",
        // … and must keep tuples that only a `/`-chain tells apart
        "/lib{ /book{ /author[id:s,val] } }",
        "/lib{ /book[val]{ /title[id:s] } }",
        "//thesis{ /sec{ /sec{ /p[id:s] } } }",
        // semi / outer / nest edges
        "//book[id:s]{ /s author, /n? e:editor[id:s]{ /affil[val] } }",
        "//book[id:s]{ /n a:author[val], /? e:editor[id:s] }",
        "//book[tag]{ /n a:author[val] }",
        "//lib[id:s]{ /n b:book[id:s]{ /n a:author[id:s,tag] } }",
        "//book[id:s]{ /? e:editor{ /affil[id:s] } }",
        "//book{ /? e:editor{ /affil[id:s] } }",
        "//sec[id:s]{ //n p[id:s], /s sec }",
    ];
    for text in cases {
        let xam = parse_xam(text).unwrap_or_else(|e| panic!("{text}: {e}"));
        check(&xam, &lib).unwrap_or_else(|why| panic!("{text}: {why}"));
    }
    // the cases are not vacuous: duplicates do arise and do get removed
    let titles = xam_core::evaluate(&parse_xam("//book{ /title[val] }").unwrap(), &lib).unwrap();
    assert_eq!(titles.len(), 2, "three books, two distinct titles");
    let ps = xam_core::evaluate(&parse_xam("//sec{ //p[id:s] }").unwrap(), &lib).unwrap();
    assert_eq!(ps.len(), 2, "`1` lies under both `sec`s, once in the view");
}

/// Chain XAMs, which `evaluate` reads off the label postings, and the
/// chains next to them that must stay on the join tree; `check` holds
/// either to the join tree's relation row for row. In `r`, `a` nests in
/// itself, so `//a{ /b }`'s join tree is `a`-major: `b` at pre 5, 3, 8,
/// not the posting's 3, 5, 8.
#[test]
fn forced_chain_cases_match_embeddings() {
    let lib = lib_document();
    let r =
        xmltree::parse_document("<r><a><a><b>1</b></a><b>2</b></a><a><b>3</b></a></r>").unwrap();
    let posting = [
        // `*` nodes
        (&lib, "//*[id:s]{ /*[id:s,tag] }"),
        (&lib, "/lib{ /*[tag]{ /author[id:s,val] } }"),
        (&lib, "//*[id:s]{ /@*[id:s,val] }"),
        // an attribute leaf
        (&lib, "/lib{ /book{ /@year[id:s,val] } }"),
        // `/`-rooted, top label not the root's
        (&lib, "/book{ /title[id:s] }"),
        (&lib, "/thesis[id:s]"),
        // nothing stored: one empty tuple per binding
        (&lib, "/lib"),
        (&r, "/lib"),
        // recursive labels under `//`
        (&lib, "//sec[id:s]{ /sec[id:s]{ /p[id:s] } }"),
        (&lib, "//sec{ /p[id:s,cont] }"),
        (&r, "//a{ /b[id:s] }"),
        (&r, "//a[id:s,tag]{ /b[id:s,val] }"),
        (&r, "//*{ /a{ /b[id:s] } }"),
        // a label the document lacks
        (&r, "//a{ /c[id:s] }"),
    ];
    let join_tree = [
        // a value formula
        (
            &lib,
            r#"/lib{ /book{ /title[id:s,val="Data on the Web"] } }"#,
        ),
        // kept IDs that are no key
        (&lib, "//*[tag]{ /*[tag] }"),
        (&lib, "//title[tag,val]"),
        (&r, "//a{ /b[val] }"),
        // `//` below the top
        (&r, "//a{ //b[id:s] }"),
    ];
    for (route, cases) in [
        (Route::Posting, &posting[..]),
        (Route::JoinTree, &join_tree[..]),
    ] {
        for &(doc, text) in cases {
            let xam = parse_xam(text).unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(Route::of(&xam), route, "{text}");
            check(&xam, doc).unwrap_or_else(|why| panic!("{text}: {why}"));
        }
    }
    let bs = xam_core::evaluate(&parse_xam("//a{ /b[id:s] }").unwrap(), &r).unwrap();
    let pres: Vec<u32> = bs
        .tuples
        .iter()
        .map(|t| t.get(0).as_id().unwrap().pre)
        .collect();
    assert_eq!(pres, [5, 3, 8]);
}
