//! Profiling overhead on the twig workloads of `uload_bench::twig`.
//!
//! Two price points per workload, both the one executor drained at an
//! unbounded batch:
//!
//! * `off` — the production path: `Evaluator::eval`, kernels
//!   monomorphized over `NoMeter` (counter calls compile to nothing).
//!   This must track the seed's unprofiled numbers — the off-path
//!   overhead claim in EXPERIMENTS.md.
//! * `metered` — the same run with `CursorConfig::profiling` on: a slot
//!   per plan node, counter increments and one clock read per batch paid.
//!   This run *is* `EXPLAIN ANALYZE`; there is no third, re-executing
//!   mode to price.

use algebra::{build_cursor, CursorConfig, Evaluator};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use uload_bench::twig::{twig_catalog, twig_workloads};

fn profiling_price_points(c: &mut Criterion) {
    let doc = xmltree::generate::xmark(15, 42);
    let cat = twig_catalog(&doc);
    let metered = CursorConfig {
        batch_size: usize::MAX,
        profiling: true,
    };
    let mut g = c.benchmark_group("profiling_overhead");
    g.sample_size(10);
    for w in twig_workloads() {
        let plan = w.twig_plan();
        g.bench_function(BenchmarkId::new("off", &w.name), |b| {
            let ev = Evaluator::new(&cat);
            b.iter(|| ev.eval(&plan).unwrap().len())
        });
        g.bench_function(BenchmarkId::new("metered", &w.name), |b| {
            b.iter(|| {
                build_cursor(&plan, &cat, None, &metered)
                    .unwrap()
                    .collect()
                    .unwrap()
                    .len()
            })
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = profiling_price_points
}
criterion_main!(benches);
