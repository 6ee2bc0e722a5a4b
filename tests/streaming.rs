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

#[test]
fn query_honors_twigstack_toggle() {
    let doc = generate::xmark(2, 13);
    let run = |twig: bool| {
        let mut u = Uload::builder()
            .document(&doc)
            .use_twigstack(twig)
            .batch_size(3)
            .build()
            .unwrap();
        u.add_view_text("V", VIEW, &doc).unwrap();
        let results = u.query(QUERY, &doc).unwrap();
        results.collect::<Result<Vec<String>>>().unwrap()
    };
    let with_twig = run(true);
    let without = run(false);
    assert!(!with_twig.is_empty());
    assert_eq!(with_twig, without);
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
