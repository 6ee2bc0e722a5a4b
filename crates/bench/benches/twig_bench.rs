//! Twig ablation: every workload of `experiments::twig_workloads` —
//! XMark descendant chains of depth 2–5 and child-axis stars of fanout
//! 1–4 — timed under the three physical operators: the holistic
//! `TwigStack` merge, the binary `StackTree` cascade (intermediate
//! solution lists materialized and re-sorted per step), and the naive
//! nested-loop cascade. All three produce identical solution sets
//! (asserted by the `twig_ablation` driver and the proptest suite);
//! only wall-clock may differ.

use algebra::{twig_join, IdColumns, NoMeter};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use storage::IdStreamIndex;
use uload_bench::experiments::{cascade_solutions, twig_workloads};

fn twig_vs_cascades(c: &mut Criterion) {
    let doc = xmltree::generate::xmark(15, 42);
    let idx = IdStreamIndex::build(&doc);
    let mut g = c.benchmark_group("e10_twig_ablation");
    g.sample_size(10);
    for w in twig_workloads() {
        let pattern = w.pattern();
        // base streams are packed once, outside the timed closures
        let streams = w.streams(&idx);
        let cols = w.columns(&idx);
        let refs: Vec<&IdColumns> = cols.iter().collect();
        g.bench_function(BenchmarkId::new("twig", &w.name), |b| {
            b.iter(|| twig_join(&pattern, &refs, &mut NoMeter).len())
        });
        g.bench_function(BenchmarkId::new("stacktree", &w.name), |b| {
            b.iter(|| cascade_solutions(&w.parents, &w.axes, &streams, Some(&cols)).len())
        });
        g.bench_function(BenchmarkId::new("nestedloop", &w.name), |b| {
            b.iter(|| cascade_solutions(&w.parents, &w.axes, &streams, None).len())
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = twig_vs_cascades
}
criterion_main!(benches);
