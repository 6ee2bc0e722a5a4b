//! E6 — §5.6: rewriting time against view sets of growing size, with the
//! structural-ID ablation (DESIGN.md choice 3).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use uload_bench::{datasets, pattern_gen, pattern_gen::GenConfig};

fn rewriting_vs_views(c: &mut Criterion) {
    let ds = datasets::xmark_small();
    let q = &pattern_gen::generate_set(
        &ds.summary,
        &GenConfig::xmark(4, 1).with_optional(0.0),
        1,
        4242,
    )[0];
    let mut g = c.benchmark_group("sec5_6_rewriting");
    for n_views in [2usize, 5] {
        let mut views: Vec<(String, xam_core::Xam)> = pattern_gen::generate_set(
            &ds.summary,
            &GenConfig::xmark(3, 1).with_optional(0.0),
            n_views - 1,
            99,
        )
        .into_iter()
        .enumerate()
        .map(|(i, v)| (format!("n{i}"), v))
        .collect();
        views.push(("exact".into(), q.clone()));
        g.bench_with_input(BenchmarkId::new("positive", n_views), &views, |b, vs| {
            b.iter(|| rewriting::rewrite(q, vs, &ds.summary))
        });
        let cfg = rewriting::RewriteConfig {
            use_structural_ids: false,
            ..Default::default()
        };
        g.bench_with_input(BenchmarkId::new("no_sids", n_views), &views, |b, vs| {
            b.iter(|| rewriting::rewrite_with_config(q, vs, &ds.summary, cfg))
        });
    }
    // a realistic view count: the XMark tag-partition model (one
    // `//l[id:s]` per element label) plus the exact view
    let mut views = storage::catalog::tag_partition_model(&ds.summary);
    views.push(("exact".into(), q.clone()));
    g.bench_with_input(
        BenchmarkId::new("tag_partition", views.len()),
        &views,
        |b, vs| b.iter(|| rewriting::rewrite(q, vs, &ds.summary)),
    );
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = rewriting_vs_views
}
criterion_main!(benches);
