//! `EXPLAIN ANALYZE` integration tests: hand-computed profiles on a
//! fixed bib QEP (plan tree and stream report read off one run), kernel
//! counters through the metered stream on a selective twig,
//! profiled-equals-plain on random twig workloads, and the JSON contract
//! against `schemas/query_profile.schema.json`.

use proptest::prelude::*;
use uload::prelude::*;

/// The engine used throughout: join-only rewriting (navigation
/// compensation off) over two single-node views, so the executed plan is
/// a structural join that fuses into a twig.
fn bib_engine(doc: &Document) -> Uload {
    let mut cfg = EngineConfig {
        profiling: true,
        ..Default::default()
    };
    cfg.rewrite.allow_navigation = false;
    let mut u = Uload::builder().document(doc).config(cfg).build().unwrap();
    u.add_view_text("v_books", "//book[id:s]", doc).unwrap();
    u.add_view_text("v_titles", "//title[id:s,val]", doc)
        .unwrap();
    u
}

#[test]
fn bib_qep_profile_hand_computed() {
    let doc = generate::bib_sample();
    let u = bib_engine(&doc);
    let q = r#"doc("d")//book/title"#;
    let (out, used, profile) = u.answer_profiled(q, &doc).unwrap();

    // hand-computed cardinalities on the fixed bib sample
    let books = u.store().relation("v_books").unwrap().len();
    let titles = u.store().relation("v_titles").unwrap().len();
    assert_eq!(books, 2, "bib has two books");
    assert_eq!(out.len(), 2, "each book contributes one title");
    assert_eq!(used[0].views_used, vec!["v_books", "v_titles"]);
    assert_eq!(profile.plan.actual_rows as usize, out.len());

    // the executed QEP: XmlTemplate → CastSchema → Project° → TwigJoin
    // over (Rename→Scan(v_books), Fetch→Rename→Scan(v_titles)) = 9 nodes
    assert_eq!(profile.plan.node_count(), 9, "\n{}", profile.render());
    let mut leaves = Vec::new();
    collect_leaves(&profile.plan, &mut leaves);
    assert_eq!(leaves.len(), 2);
    for leaf in &leaves {
        assert!(leaf.op.starts_with("Scan("), "leaf {}", leaf.op);
    }
    let leaf_rows: Vec<usize> = leaves.iter().map(|l| l.actual_rows as usize).collect();
    assert!(leaf_rows.contains(&books) && leaf_rows.contains(&titles));

    // the twig node recorded kernel work and carries both estimates
    let twig = find_op(&profile.plan, "TwigJoin").expect("fused twig in the plan");
    assert!(twig.metrics.comparisons > 0);
    assert!(twig.est_cost > 0.0 && twig.est_rows > 0.0);
    assert_eq!(twig.children.len(), 2);

    // parent times include children (per-node clocks are monotone up)
    check_time_monotone(&profile.plan);

    // phase timings cover the whole lifecycle
    let names: Vec<&str> = profile.phases.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, ["parse", "extract", "rewrite", "plan", "eval"]);

    // the profile also carries the executor's stream report of the same
    // run: per-operator counters in pre-order (root first)
    let streamed = profile.streamed.as_ref().expect("streamed profile");
    assert_eq!(streamed.rows as usize, out.len());
    assert!(streamed.batches >= 1);
    assert!(streamed.peak_resident_tuples > 0);
    assert_eq!(streamed.ops[0].rows, streamed.rows);

    // one run, one set of counters: the plan tree flattened in pre-order
    // is the stream report's op list — same labels, rows and kernel
    // metrics, node for node
    let mut tree = Vec::new();
    pre_order(&profile.plan, &mut tree);
    assert_eq!(streamed.ops.len(), tree.len(), "one entry per QEP operator");
    for (node, op) in tree.iter().zip(&streamed.ops) {
        assert_eq!(node.op, op.op);
        assert_eq!(node.actual_rows, op.rows, "{}", op.op);
        assert_eq!(node.metrics, op.metrics, "{}", op.op);
        assert!(op.batches >= 1, "{}", op.op);
    }
}

fn pre_order<'p>(n: &'p PlanNodeProfile, out: &mut Vec<&'p PlanNodeProfile>) {
    out.push(n);
    for c in &n.children {
        pre_order(c, out);
    }
}

fn collect_leaves<'p>(n: &'p PlanNodeProfile, out: &mut Vec<&'p PlanNodeProfile>) {
    if n.children.is_empty() {
        out.push(n);
    }
    for c in &n.children {
        collect_leaves(c, out);
    }
}

fn find_op<'p>(n: &'p PlanNodeProfile, prefix: &str) -> Option<&'p PlanNodeProfile> {
    if n.op.starts_with(prefix) {
        return Some(n);
    }
    n.children.iter().find_map(|c| find_op(c, prefix))
}

fn check_time_monotone(n: &PlanNodeProfile) {
    let child_ns: u64 = n.children.iter().map(|c| c.time_ns).sum();
    assert!(
        n.time_ns >= child_ns,
        "{}: {} < sum of children {}",
        n.op,
        n.time_ns,
        child_ns
    );
    for c in &n.children {
        check_time_monotone(c);
    }
}

#[test]
fn profiled_answer_is_one_metered_run() {
    let doc = generate::bib_sample();
    let u = bib_engine(&doc);
    let q = r#"doc("d")//book/title"#;
    let (_, _, profile) = u.answer_profiled(q, &doc).unwrap();
    // last_profile() returns what answer_profiled returned
    assert_eq!(u.last_profile().as_ref(), Some(&profile));
    // the plan ran once: one q-error observation per plan node
    assert_eq!(u.q_error().observations(), profile.plan.node_count() as u64);
    // and the profile carries no second, alternative-arm run
    assert!(profile.to_json().get("arm").is_none());
}

#[test]
fn cache_stats_expose_per_map_occupancy() {
    let doc = generate::bib_sample();
    let u = bib_engine(&doc);
    u.answer_profiled(r#"doc("d")//book/title"#, &doc).unwrap();
    let stats = u.cache_stats().expect("default engine has a cache");
    assert!(stats.hits + stats.misses > 0, "{stats:?}");
    assert_eq!(
        stats.entries,
        stats.verdict_entries + stats.model_entries + stats.annotation_entries,
        "{stats:?}"
    );
    assert!(stats.entries > 0, "{stats:?}");
    // the profile snapshot mirrors the engine counters it was taken from
    let cache = u.last_profile().unwrap().cache.expect("cache in profile");
    assert_eq!(cache.verdict_entries, stats.verdict_entries);
    assert_eq!(cache.entries(), stats.entries);
}

#[test]
fn profile_json_matches_checked_in_schema() {
    let doc = generate::bib_sample();
    let u = bib_engine(&doc);
    let (_, _, profile) = u.answer_profiled(r#"doc("d")//book/title"#, &doc).unwrap();

    let schema_text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/schemas/query_profile.schema.json"
    ))
    .expect("checked-in schema");
    let schema = uload::json::parse(&schema_text).expect("schema parses");

    // the in-memory value validates, and so does its serialized round
    // trip (both pretty and compact)
    let value = profile.to_json();
    uload::json::validate(&value, &schema).expect("profile matches schema");
    for text in [value.to_string_pretty(), value.to_string_compact()] {
        let reparsed = uload::json::parse(&text).expect("emitted JSON parses");
        assert_eq!(reparsed, value);
        uload::json::validate(&reparsed, &schema).expect("round trip matches schema");
    }

    // an uncached engine emits "cache": null and still validates
    let mut cfg = EngineConfig {
        profiling: true,
        cache_capacity: 0,
        ..Default::default()
    };
    cfg.rewrite.allow_navigation = false;
    let mut u2 = Uload::builder().document(&doc).config(cfg).build().unwrap();
    u2.add_view_text("v_books", "//book[id:s]", &doc).unwrap();
    u2.add_view_text("v_titles", "//title[id:s,val]", &doc)
        .unwrap();
    let (_, _, p2) = u2.answer_profiled(r#"doc("d")//book/title"#, &doc).unwrap();
    assert!(p2.cache.is_none());
    uload::json::validate(&p2.to_json(), &schema).expect("null cache matches schema");
}

/// Seeking engages end to end, not just in kernel unit tests: on a
/// selective twig (mails are rare, keywords are everywhere) the metered
/// stream the server runs must report keyword elements jumped over and
/// lane compares spent — the counters `METRICS` and the benchmark's
/// `algebra.elements_skipped` are fed from.
#[test]
fn selective_twig_seeks_through_the_metered_stream() {
    let doc = generate::xmark(4, 21);
    let mut cfg = EngineConfig::default();
    cfg.rewrite.allow_navigation = false;
    let mut u = Uload::builder().document(&doc).config(cfg).build().unwrap();
    u.add_view_text("v_mails", "//mail[id:s]", &doc).unwrap();
    u.add_view_text("v_keywords", "//keyword[id:s,val]", &doc)
        .unwrap();
    // both steps bound, so rows are per (mail, keyword) pair on every path
    let q = r#"for $m in doc("X")//mail, $k in $m//keyword return <k>{$k/text()}</k>"#;
    let prep = u.prepare_query(q).unwrap();
    let handle = DocumentHandle::new(doc);

    let mut results = u.stream_prepared_metered(&prep, &handle).unwrap();
    let mut rows: Vec<String> = results.by_ref().collect::<Result<_>>().unwrap();
    let mut want = Uload::execute_direct(q, handle.document())
        .unwrap()
        .into_strings();
    assert!(!rows.is_empty());
    rows.sort_unstable();
    want.sort_unstable();
    assert_eq!(rows, want);

    let mut exec = uload::ExecMetrics::default();
    for op in &results.stream_profile().ops {
        exec.absorb(&op.metrics);
    }
    assert!(exec.elements_skipped > 0, "seek never engaged: {exec:?}");
    assert!(exec.vector_compares > 0, "{exec:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Profiled execution returns exactly the relation plain execution
    /// returns, on random XMark twig patterns, streamed or as one batch,
    /// and keeps one slot per plan node whose root counted every row.
    #[test]
    fn profiled_execution_matches_plain(
        spec in prop::collection::vec((0usize..10, 0usize..8, 0usize..2), 2..6),
    ) {
        let doc = generate::xmark(3, 7);
        let pool: [&'static str; 10] =
            ["site", "regions", "item", "name", "description",
             "parlist", "listitem", "text", "keyword", "mailbox"];
        let mut w = uload_bench::twig::TwigWorkload {
            name: "prop".into(),
            labels: Vec::new(),
            parents: Vec::new(),
            axes: Vec::new(),
        };
        for (k, &(label, parent, child)) in spec.iter().enumerate() {
            w.labels.push(pool[label]);
            w.parents.push(if k == 0 { 0 } else { parent % k });
            w.axes.push(if child == 1 { algebra::Axis::Child } else { algebra::Axis::Descendant });
        }
        let idx = IdStreamIndex::build(&doc);
        let streams = w.streams(&idx);
        if streams.iter().any(|s| s.is_empty()) {
            return Ok(()); // label absent: no ids_* relation to scan
        }
        let cat = uload_bench::twig::twig_catalog(&doc);
        let plan = w.twig_plan();
        let plain = Evaluator::new(&cat).eval(&plan).unwrap();
        for batch_size in [7, usize::MAX] {
            let ccfg = algebra::CursorConfig { batch_size, profiling: true };
            let mut exec = algebra::build_cursor(&plan, &cat, None, &ccfg).unwrap();
            let mut tuples = Vec::new();
            while let Some(b) = exec.next_batch().unwrap() {
                tuples.extend(b.tuples);
            }
            prop_assert_eq!(&plain.tuples, &tuples, "profiled != plain on {:?}", w.labels);
            let ops = exec.op_stats();
            prop_assert_eq!(ops.len(), plan.size());
            prop_assert_eq!(ops[0].cells.rows.get() as usize, plain.len());
        }
    }
}
