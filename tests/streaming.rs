//! End-to-end tests of the streaming `Uload::query` API: streamed rows
//! equal materialized `answer` rows at every batch size, early
//! termination cancels the cursor tree, the stream profile carries the
//! executor's counters, and the typed `Uload::execute_direct` façade
//! behaves.

use uload::prelude::*;

const QUERY: &str = r#"for $x in doc("X")//item return <res>{$x/name/text()}</res>"#;
const VIEW: &str = "//item[id:s]{ /n? name1:name[val] }";

fn engine(doc: &Document, batch_size: usize, profiling: bool) -> Uload {
    let mut u = Uload::builder()
        .document(doc)
        .batch_size(batch_size)
        .profiling(profiling)
        .build()
        .unwrap();
    u.add_view_text("V", VIEW, doc).unwrap();
    u
}

#[test]
fn streamed_rows_equal_answer_rows_at_every_batch_size() {
    let doc = generate::xmark(2, 13);
    let base = engine(&doc, 1024, false);
    let (want, used) = base.answer(QUERY, &doc).unwrap();
    assert!(want.len() > 2, "workload must produce several rows");
    let n = want.len();
    for bs in [1, 2, n - 1, n, n + 1, 1023, 1024, 1025] {
        let u = engine(&doc, bs, false);
        let mut results = u.query(QUERY, &doc).unwrap();
        assert_eq!(results.batch_size(), bs);
        assert_eq!(results.rewritings().len(), used.len());
        let got: Vec<String> = results.by_ref().collect::<Result<_>>().unwrap();
        assert_eq!(got, want, "batch_size {bs}");
        assert_eq!(results.rows_emitted() as usize, n);
    }
}

/// A cross-pattern value join — its key columns inside the `/n?` nested
/// collections of both views — streams the rows `answer` materializes,
/// in the same order, whatever the batch size does to the left input.
#[test]
fn value_join_streams_equal_answer_rows_at_every_batch_size() {
    const JOIN: &str = r#"for $p in doc("X")//person, $b in doc("X")//buyer where $b/@person = $p/@id return <r>{$p/name/text()}</r>"#;
    let doc = generate::xmark(20, 13);
    let engine = |batch_size| {
        let mut u = Uload::builder()
            .document(&doc)
            .batch_size(batch_size)
            .build()
            .unwrap();
        for (name, view) in [
            (
                "person_idname",
                "//person[id:s]{ /n? @id[val], /n? name[val] }",
            ),
            ("buyer_person", "//buyer[id:s]{ /n? @person[val] }"),
        ] {
            u.add_view_text(name, view, &doc).unwrap();
        }
        u
    };
    let (want, _) = engine(1024).answer(JOIN, &doc).unwrap();
    assert!(want.len() > 2, "workload must produce several rows");
    let direct = Uload::execute_direct(JOIN, &doc).unwrap().into_strings();
    assert_eq!(
        want, direct,
        "views and direct evaluation agree row for row"
    );
    // n: the left (person) input's size, where batch boundaries bite
    let n = doc
        .nodes_with_label("person", xmltree::NodeKind::Element)
        .len();
    for bs in [1, 2, n - 1, n, n + 1, 1024] {
        let u = engine(bs);
        let mut results = u.query(JOIN, &doc).unwrap();
        let got: Vec<String> = results.by_ref().collect::<Result<_>>().unwrap();
        assert_eq!(got, want, "batch_size {bs}");
        assert!(
            results.peak_resident_tuples() < (n * want.len()) as u64,
            "batch_size {bs}: a product was staged"
        );
    }
}

#[test]
fn next_batch_streams_the_same_rows() {
    let doc = generate::xmark(2, 13);
    let u = engine(&doc, 4, false);
    let (want, _) = u.answer(QUERY, &doc).unwrap();
    let mut results = u.query(QUERY, &doc).unwrap();
    let mut got = Vec::new();
    while let Some(batch) = results.next_batch().unwrap() {
        assert!(!batch.is_empty() || got.is_empty());
        for t in &batch.tuples {
            got.push(t.get(0).as_str().unwrap_or("").to_string());
        }
    }
    assert_eq!(got, want);
}

#[test]
fn early_termination_closes_the_cursor_tree() {
    let doc = generate::xmark(3, 13);
    let u = engine(&doc, 1, false);
    let (all, _) = u.answer(QUERY, &doc).unwrap();
    assert!(all.len() > 5);

    let mut results = u.query(QUERY, &doc).unwrap();
    let first: Vec<String> = results.by_ref().take(3).collect::<Result<_>>().unwrap();
    assert_eq!(first, all[..3].to_vec());
    let rows_when_stopped = results.rows_emitted();
    results.close();
    // closing is idempotent and ends the stream for good
    results.close();
    assert!(results.next().is_none());
    assert!(results.next_batch().unwrap().is_none());
    assert_eq!(results.rows_emitted(), rows_when_stopped);
    // with one-row batches, stopping after 3 rows must not have drained
    // the whole result set through the root
    assert!(
        rows_when_stopped < all.len() as u64,
        "early close pulled all {} rows",
        all.len()
    );
}

#[test]
fn dropping_results_mid_stream_is_clean() {
    let doc = generate::xmark(2, 13);
    let u = engine(&doc, 1, false);
    let mut results = u.query(QUERY, &doc).unwrap();
    let _ = results.next().unwrap().unwrap();
    drop(results); // Drop must close the tree without panicking
}

#[test]
fn stream_profile_reports_executor_counters() {
    let doc = generate::xmark(2, 13);
    let u = engine(&doc, 8, true);
    let mut results = u.query(QUERY, &doc).unwrap();
    let n = results.by_ref().count() as u64;
    let prof = results.stream_profile();
    assert_eq!(prof.rows, n);
    assert_eq!(prof.batch_size, 8);
    assert!(prof.batches >= n / 8);
    assert!(prof.peak_resident_tuples > 0);
    // profiling engine → per-operator entries, pre-order (root first)
    assert!(!prof.ops.is_empty());
    assert_eq!(prof.ops[0].rows, n);
    let json = prof.to_json().to_string_compact();
    assert!(json.contains("peak_resident_tuples"));

    // without profiling, the totals stay live but per-op entries are off
    let plain = engine(&doc, 8, false);
    let mut r2 = plain.query(QUERY, &doc).unwrap();
    let n2 = r2.by_ref().count() as u64;
    assert_eq!(n2, n);
    let p2 = r2.stream_profile();
    assert_eq!(p2.rows, n);
    assert!(p2.ops.is_empty());
}

/// `plan` with every `TwigJoin` desugared to its binary cascade.
fn desugar_twigs(plan: &algebra::LogicalPlan) -> algebra::LogicalPlan {
    match plan.map_children(desugar_twigs) {
        algebra::LogicalPlan::TwigJoin { root, steps } => algebra::twig_to_cascade(&root, &steps),
        other => other,
    }
}

#[test]
fn query_streams_what_the_cascade_oracle_answers() {
    // join-only rewriting over two single-node views: the prepared plan
    // always fuses into a twig, streamed three rows a batch; the oracle
    // runs the same plan with the twig desugared to its cascade
    let doc = generate::xmark(2, 13);
    let mut cfg = EngineConfig::default();
    cfg.rewrite.allow_navigation = false;
    let mut u = Uload::builder()
        .document(&doc)
        .config(cfg)
        .batch_size(3)
        .build()
        .unwrap();
    u.add_view_text("v_items", "//item[id:s]", &doc).unwrap();
    u.add_view_text("v_names", "//name[id:s,val]", &doc)
        .unwrap();
    let q = r#"doc("X")//item/name"#;
    let prep = u.prepare_query(q).unwrap();
    assert!(prep.plan().to_string().contains("twig("), "{}", prep.plan());
    let streamed: Vec<String> = u.query(q, &doc).unwrap().collect::<Result<_>>().unwrap();
    let cascade = desugar_twigs(prep.plan());
    assert!(!cascade.to_string().contains("twig("), "{cascade}");
    let ccfg = algebra::CursorConfig::default();
    let oracle: Vec<String> =
        algebra::build_cursor(&cascade, u.store().catalog(), Some(&doc), &ccfg)
            .unwrap()
            .collect()
            .unwrap()
            .tuples
            .iter()
            .map(|t| t.get(0).as_str().unwrap_or("").to_string())
            .collect();
    assert!(!streamed.is_empty());
    assert_eq!(streamed, oracle);
}

/// Tag-partition ID views plus value views of the leaves the queries
/// return: the XMark half of the `bulk_load` physical design.
fn tag_and_value_views(doc: &Document) -> Vec<(String, String)> {
    let s = Summary::of_document(doc);
    let mut seen = std::collections::BTreeSet::new();
    let mut out = Vec::new();
    for n in s.all_nodes() {
        let l = s.label(n);
        if s.kind(n) == xmltree::NodeKind::Element
            && s.parent(n).is_some()
            && seen.insert(l.to_string())
        {
            out.push((format!("tagpart_{l}"), format!("//{l}[id:s]")));
        }
    }
    for l in ["keyword", "bold", "name", "increase", "date", "emph"] {
        out.push((format!("val_{l}"), format!("//{l}[id:s,val]")));
    }
    out
}

/// One rooted child chain per summary path, ending in `[id:s,val]`: the
/// DBLP half of the `bulk_load` physical design.
fn path_views(doc: &Document) -> Vec<(String, String)> {
    let s = Summary::of_document(doc);
    let mut out = Vec::new();
    for n in s.all_nodes() {
        if s.kind(n) == xmltree::NodeKind::Text {
            continue;
        }
        let mut chain = Vec::new();
        let mut cur = Some(n);
        while let Some(c) = cur {
            let sigil = if s.kind(c) == xmltree::NodeKind::Attribute {
                "@"
            } else {
                ""
            };
            chain.push(format!("{sigil}{}", s.label(c)));
            cur = s.parent(c);
        }
        chain.reverse();
        let mut text = String::new();
        for (i, l) in chain.iter().enumerate() {
            text.push_str(if i == 0 { "/" } else { "{ /" });
            text.push_str(l);
        }
        text.push_str("[id:s,val]");
        text.push_str(&" }".repeat(chain.len() - 1));
        let name = storage::PathPartitionStore::relation_of(&s.path_of(n));
        out.push((name, text));
    }
    out
}

/// The `bulk_load` query shapes — navigation cascades from stored IDs
/// under a `π°` — stream: every `π°` keeps a key of its input, so none
/// hashes, except the one over a value join that drops the key of its
/// one-row `path-dblp` side. Rows equal direct evaluation at batch 1 and
/// at 1024.
#[test]
fn bulk_load_navigation_plans_stream() {
    let xmark = generate::xmark(20, 11);
    let dblp = generate::dblp(300, 11);
    let designs = [
        (&xmark, tag_and_value_views(&xmark)),
        (&dblp, path_views(&dblp)),
    ];
    // (query, document, breakers)
    let cases: [(&str, usize, &[&str]); 5] = [
        (
            r#"for $d in doc("X")//description, $p in $d//parlist, $k in $p//keyword return <r>{$k/text()}</r>"#,
            0,
            &[],
        ),
        (
            r#"for $t in doc("X")//text, $b in $t//bold return <r>{$b/text()}</r>"#,
            0,
            &[],
        ),
        (
            r#"for $m in doc("X")//mail, $k in $m//keyword return <r>{$k/text()}</r>"#,
            0,
            &[],
        ),
        (
            r#"for $a in doc("D")/dblp/article, $t in $a/title, $y in $a/year return <r>{$t/text()},{$y/text()}</r>"#,
            1,
            &["Project°"],
        ),
        (
            r#"for $a in doc("D")//article, $u in $a/author return <r>{$u/text()}</r>"#,
            1,
            &[],
        ),
    ];
    for (q, d, breakers) in cases {
        let (doc, views) = &designs[d];
        let direct = Uload::execute_direct(q, doc).unwrap().into_strings();
        assert!(direct.len() > 2, "{q}: {} rows", direct.len());
        for bs in [1, 1024] {
            let mut u = Uload::builder()
                .document(doc)
                .batch_size(bs)
                .build()
                .unwrap();
            for (v, text) in views {
                u.add_view_text(v.clone(), text, doc).unwrap();
            }
            let prep = u.prepare_query(q).unwrap();
            let got: Vec<&str> = prep
                .breakers()
                .iter()
                .map(|b| b.split('[').next().unwrap_or(""))
                .collect();
            assert_eq!(got, breakers, "{q}: {}", prep.plan());
            let rows: Vec<String> = u.query(q, doc).unwrap().collect::<Result<_>>().unwrap();
            assert_eq!(rows, direct, "{q} at batch {bs}");
        }
    }
}

#[test]
fn query_surfaces_planning_errors_before_streaming() {
    let doc = generate::bib_sample();
    let u = Uload::builder().document(&doc).build().unwrap();
    // no views registered: the rewriting phase must fail, not streaming
    assert!(matches!(
        u.query(r#"doc("d")//book/title"#, &doc),
        Err(Error::NoRewriting { .. })
    ));
}

#[test]
fn batch_size_zero_is_rejected_at_build_time() {
    let doc = generate::bib_sample();
    assert!(matches!(
        Uload::builder().document(&doc).batch_size(0).build(),
        Err(Error::Config(_))
    ));
}

#[test]
fn execute_query_returns_typed_output_with_stable_fingerprint() {
    let doc = generate::bib_sample();
    let q = r#"for $b in doc("d")//book return <r>{$b/title}</r>"#;
    let out = Uload::execute_direct(q, &doc).unwrap();
    assert_eq!(out.items.len(), 2);
    assert!(out.items[0].xml.contains("<title>Data on the Web</title>"));
    // the fingerprint is a function of the plan: same query, same value
    let again = Uload::execute_direct(q, &doc).unwrap();
    assert_eq!(out.plan_fingerprint, again.plan_fingerprint);
    assert_eq!(out, again);
    // a different query plans differently
    let other = Uload::execute_direct(r#"doc("d")//book/title"#, &doc).unwrap();
    assert_ne!(out.plan_fingerprint, other.plan_fingerprint);
}

#[test]
fn into_strings_preserves_items_in_order() {
    let doc = generate::bib_sample();
    let q = r#"for $b in doc("d")//book return <r>{$b/title}</r>"#;
    let out = Uload::execute_direct(q, &doc).unwrap();
    let items: Vec<String> = out.items.iter().map(|i| i.xml.clone()).collect();
    assert_eq!(out.into_strings(), items);
}
