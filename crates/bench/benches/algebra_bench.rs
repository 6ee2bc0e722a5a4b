//! E8 + ablation 4 — algebra benchmarks: the QEP catalogue plans and the
//! StackTree vs nested-loop structural-join comparison (DESIGN.md).

use algebra::eval::{derived, ColumnDemand};
use algebra::{Axis, Evaluator, JoinKind, LogicalPlan};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use summary::Summary;
use xmltree::{generate, NodeKind};

fn stacktree_vs_nested_loop(c: &mut Criterion) {
    let doc = generate::xmark(40, 42);
    let mut cat = algebra::Catalog::new();
    for (name, label) in [("items", "item"), ("keywords", "keyword")] {
        let rel = derived(&doc, Some(label), NodeKind::Element, ColumnDemand::ALL);
        cat.insert(name, rel);
    }
    let plan = LogicalPlan::scan("items")
        .rename(&["i_id", "i_tag", "i_val", "i_cont"])
        .struct_join(
            LogicalPlan::scan("keywords").rename(&["k_id", "k_tag", "k_val", "k_cont"]),
            "i_id",
            "k_id",
            Axis::Descendant,
            JoinKind::Inner,
        )
        .project(&["i_id", "k_id"]);
    let mut g = c.benchmark_group("structural_join");
    g.bench_function("stacktree", |b| {
        let ev = Evaluator::with_document(&cat, &doc);
        b.iter(|| ev.eval(&plan).unwrap().len())
    });
    g.bench_function("nested_loop", |b| {
        let mut ev = Evaluator::with_document(&cat, &doc);
        ev.config.use_stacktree = false;
        b.iter(|| ev.eval(&plan).unwrap().len())
    });
    g.finish();
}

fn qep_plans(c: &mut Criterion) {
    let doc = generate::bib_document();
    let s = Summary::of_document(&doc);
    let mut g = c.benchmark_group("qep_catalogue");
    for (name, q) in [
        ("qep1", storage::qep::qep1(&doc)),
        ("qep3", storage::qep::qep3(&doc)),
        ("qep6", storage::qep::qep6(&doc)),
        ("qep7", storage::qep::qep7(&doc, &s)),
        ("qep11", storage::qep::qep11(&doc, &s)),
        ("qep13", storage::qep::qep13(&doc, &s)),
    ] {
        g.bench_function(BenchmarkId::from_parameter(name), |b| {
            let ev = Evaluator::with_document(&q.catalog, &doc);
            b.iter(|| ev.eval(&q.plan).unwrap().len())
        });
    }
    g.finish();
}

fn xam_evaluation(c: &mut Criterion) {
    let doc = generate::xmark(10, 42);
    let xam = xam_core::parse_xam("//item[id:s]{ /name[val], //n? li:listitem[id:s] }").unwrap();
    c.bench_function("xam_evaluate_xmark", |b| {
        b.iter(|| xam_core::evaluate(&xam, &doc).unwrap().len())
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = stacktree_vs_nested_loop, qep_plans, xam_evaluation
}
criterion_main!(benches);
