//! `bulk_load`, `adhoc_rewrite` and `prepared_joins`: one client, the
//! engine called in-process, one round structure.
//!
//! A round is: (`bulk_load` only) load every document afresh → plan
//! every query once (`plan_ms`) → the measured query phase, every query
//! through both executors with every answer checked → in the recorded
//! rounds of a traced run, the per-layer probes.

use std::time::Instant;

use uload::prelude::*;

use super::{note_inputs, oracle_pass, Run};
use crate::engine::{self, ms_since, Digest, Loaded};
use crate::inputs::{Class, QuerySpec};
use crate::report::Samples;
use crate::sys::process_cpu_ms;
use crate::trace::Tracer;

/// What distinguishes the three in-process workloads.
pub struct Shape {
    /// Load every document afresh each round (`bulk_load`); otherwise a
    /// load phase up front.
    reload_every_round: bool,
    /// Queries arrive as text and are planned on every issue
    /// (`answer` / `query`); otherwise prepared plans are executed.
    adhoc: bool,
    config: EngineConfig,
}

impl Shape {
    pub fn of(workload: &str) -> Shape {
        let mut config = EngineConfig::default();
        if workload == "prepared_joins" {
            // answer from storage alone: join-shaped, twig-fusable plans
            config.rewrite.allow_navigation = false;
            config.rewrite.max_views = 5;
        }
        Shape {
            reload_every_round: workload == "bulk_load",
            adhoc: workload == "adhoc_rewrite",
            config,
        }
    }
}

/// The engine configuration `serve_swap` shares with `prepared_joins`.
pub fn joins_config() -> EngineConfig {
    Shape::of("prepared_joins").config
}

/// Load every document once into `loaded`; each load is one `load_s`
/// sample. The previous generation is dropped first: two resident at
/// once would double `peak_rss_mb`.
pub fn reload(run: &mut Run, config: &EngineConfig, loaded: &mut Vec<Loaded>) -> uload::Result<()> {
    loaded.clear();
    for d in &run.inputs.docs {
        let (fresh, secs) = engine::load(d, config, &mut run.tracer, &mut run.samples.layers)?;
        Samples::push(&mut run.samples.load_s, d.name, secs);
        loaded.push(fresh);
    }
    if run.tracer.enabled() {
        let bytes: usize = run.inputs.docs.iter().map(|d| d.xml.len()).sum();
        let parse_ms = run.samples.layers.current("xmltree.parse_ms");
        run.samples.layers.sample(
            "xmltree.parse_mb_per_s",
            bytes as f64 / 1e6 / (parse_ms / 1e3),
        );
    }
    Ok(())
}

/// Plan every query on engines that have not planned anything yet: the
/// warm-up that fills the `CanonicalCache`, kept by a traced run as
/// `containment.cold_plan_ms`.
fn cold_pass(run: &mut Run, loaded: &[Loaded]) -> uload::Result<()> {
    let t = Instant::now();
    for q in &run.inputs.queries {
        loaded[q.doc].engine.prepare_query(q.text)?;
    }
    run.samples
        .layers
        .sample("containment.cold_plan_ms", ms_since(t));
    Ok(())
}

/// Plan every query once with a warm `CanonicalCache`: one `plan_ms`
/// sample per query.
fn plan_phase(run: &mut Run, loaded: &[Loaded]) -> uload::Result<Vec<PreparedQuery>> {
    let span = run.tracer.open("plan_phase");
    let mut preps = Vec::new();
    for q in &run.inputs.queries {
        let (prep, ms) = run.tracer.timed("rewriting.prepare", || {
            loaded[q.doc].engine.prepare_query(q.text)
        });
        preps.push(prep?);
        Samples::push(&mut run.samples.plan_ms, q.name, ms);
        run.samples.layers.add("rewriting.prepare_ms", ms);
    }
    run.tracer.close(span);
    Ok(preps)
}

/// One checked operation's measurements.
struct Op {
    digest: Digest,
    ms: f64,
    first_batch_ms: Option<f64>,
}

fn class_metric(class: Class) -> &'static str {
    match class {
        Class::Twig => "algebra.twig_ms",
        Class::Scan => "algebra.scan_ms",
        Class::IdJoin => "algebra.idjoin_ms",
    }
}

/// In the recorded rounds of the ad-hoc workload the façade call is
/// replaced by its two public stages: plan here, then execute. Returns
/// the fresh plan and what planning took.
fn plan_stage(
    shape: &Shape,
    tr: &mut Tracer,
    q: &QuerySpec,
    l: &Loaded,
) -> uload::Result<Option<(PreparedQuery, f64)>> {
    if !shape.adhoc {
        return Ok(None);
    }
    let (prep, ms) = tr.timed("rewriting.prepare", || l.engine.prepare_query(q.text));
    Ok(Some((prep?, ms)))
}

/// The materializing executor on one query.
fn op_materialized(
    run: &mut Run,
    shape: &Shape,
    q: &QuerySpec,
    l: &Loaded,
    prep: &PreparedQuery,
) -> uload::Result<Op> {
    let (tr, layers) = (&mut run.tracer, &mut run.samples.layers);
    if shape.adhoc && !tr.enabled() {
        let t = Instant::now();
        let (rows, _) = l.engine.answer(q.text, l.handle.document())?;
        return Ok(Op {
            digest: Digest::of(rows.iter().map(String::as_str)),
            ms: ms_since(t),
            first_batch_ms: None,
        });
    }
    let planned = plan_stage(shape, tr, q, l)?;
    let (prep, plan_ms) = planned.as_ref().map_or((prep, 0.0), |(p, ms)| (p, *ms));
    let (digest, exec_ms) = engine::run_materialized(&l.engine, prep, &l.handle, tr, layers)?;
    layers.add(class_metric(q.class), exec_ms);
    Ok(Op {
        digest,
        ms: plan_ms + exec_ms,
        first_batch_ms: None,
    })
}

/// The streaming executor on one query, drained.
fn op_streamed(
    run: &mut Run,
    shape: &Shape,
    q: &QuerySpec,
    l: &Loaded,
    prep: &PreparedQuery,
) -> uload::Result<Op> {
    let (tr, layers) = (&mut run.tracer, &mut run.samples.layers);
    if shape.adhoc && !tr.enabled() {
        let started = Instant::now();
        let mut results = l.engine.query(q.text, l.handle.document())?;
        let out = engine::drain(&mut results, started)?;
        return Ok(Op {
            digest: out.digest,
            ms: out.total_ms,
            first_batch_ms: Some(out.first_batch_ms),
        });
    }
    let planned = plan_stage(shape, tr, q, l)?;
    let (prep, plan_ms) = planned.as_ref().map_or((prep, 0.0), |(p, ms)| (p, *ms));
    let out = engine::run_streamed(&l.engine, prep, &l.handle, tr, layers)?;
    Ok(Op {
        digest: out.digest,
        ms: plan_ms + out.total_ms,
        first_batch_ms: Some(plan_ms + out.first_batch_ms),
    })
}

/// The measured query phase: every query through both executors, every
/// answer compared with the oracle's.
fn query_phase(
    run: &mut Run,
    shape: &Shape,
    loaded: &[Loaded],
    preps: &[PreparedQuery],
    expected: &[Digest],
) {
    let span = run.tracer.open("query_phase");
    let (cpu0, t0) = (process_cpu_ms(), Instant::now());
    let mut ops = 0u64;
    for (i, q) in run.inputs.queries.iter().enumerate() {
        for streamed in [false, true] {
            let executor = match (shape.adhoc, streamed) {
                (true, false) => "answer",
                (true, true) => "query",
                (false, false) => "mat",
                (false, true) => "stream",
            };
            let kind = format!("{}/{executor}", q.name);
            let kind_span = run.tracer.open(&kind);
            let op = if streamed {
                op_streamed
            } else {
                op_materialized
            };
            let outcome = op(run, shape, q, &loaded[q.doc], &preps[i]);
            run.tracer.close(kind_span);
            match outcome {
                Ok(op) => {
                    let ok = op.digest == expected[i];
                    run.samples.check(ok, || {
                        format!(
                            "{kind}: {} rows differ from the oracle's {}",
                            op.digest.rows(),
                            expected[i].rows()
                        )
                    });
                    if ok {
                        ops += 1;
                        Samples::push(&mut run.samples.query_ms, &kind, op.ms);
                        if let Some(first) = op.first_batch_ms {
                            Samples::push(&mut run.samples.first_batch_ms, &kind, first);
                        }
                        run.samples
                            .layers
                            .add("algebra.rows_out", op.digest.rows() as f64);
                    }
                }
                Err(e) => run.samples.check(false, || format!("{kind}: {e}")),
            }
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    run.samples
        .round_cpu_ms
        .push((process_cpu_ms() - cpu0) / ops.max(1) as f64);
    run.samples.round_qps.push(ops as f64 / wall_s);
    run.tracer.close(span);
}

/// The per-layer probes of a recorded round: the public stages behind
/// `prepare_query` called one by one, direct containment tests, metered
/// and profiled execution. Outside the suite time.
fn probes(
    run: &mut Run,
    loaded: &[Loaded],
    preps: &[PreparedQuery],
    first: bool,
) -> uload::Result<()> {
    let span = run.tracer.open("probes");
    let (tr, layers) = (&mut run.tracer, &mut run.samples.layers);
    let (mut patterns, mut rewritings, mut contain_calls, mut models) =
        (0usize, 0usize, 0u64, 0usize);
    let (mut verified, mut found) = (0usize, 0usize);
    for q in &run.inputs.queries {
        let e = &loaded[q.doc].engine;
        let (parsed, ms) = tr.timed("xquery.parse", || xquery::parse_query(q.text));
        layers.add("xquery.parse_ms", ms);
        let parsed = parsed.map_err(|e| uload::Error::Parse(e.to_string()))?;
        let (extracted, ms) = tr.timed("xquery.extract", || xquery::extract_patterns(&parsed));
        layers.add("xquery.extract_ms", ms);
        let extracted = extracted.map_err(|e| uload::Error::Translate(e.to_string()))?;
        patterns += extracted.patterns.len();
        for pat in &extracted.patterns {
            let (rws, ms) = tr.timed("rewriting.rewrite", || e.rewrite_pattern(pat));
            layers.add("rewriting.rewrite_ms", ms);
            rewritings += rws.len();
            // direct containment tests, no cache: every view against the pattern
            let (_, ms) = tr.timed("containment.contain", || {
                for (_, view) in e.store().definitions() {
                    std::hint::black_box(contain(
                        view,
                        pat,
                        e.summary(),
                        &ContainOptions::default(),
                    ));
                    contain_calls += 1;
                }
            });
            layers.add("containment.contain_ms", ms);
            if first {
                // counts repeat exactly for a seed: taken once
                models += canonical_model(pat, e.summary()).1.size;
                let (_, stats) = rewrite_with_engine(
                    pat,
                    e.store().definitions(),
                    e.summary(),
                    e.config().rewrite,
                    &EngineOptions::default(),
                );
                verified += stats.candidates_verified;
                found += stats.rewritings_found;
            }
        }
    }
    let plan_self = layers.current("rewriting.prepare_ms")
        - layers.current("xquery.parse_ms")
        - layers.current("xquery.extract_ms")
        - layers.current("rewriting.rewrite_ms");
    layers.sample("rewriting.plan_self_ms", plan_self.max(0.0));
    if first {
        layers.set("xquery.patterns", patterns as f64);
        layers.set("rewriting.rewritings", rewritings as f64);
        layers.set("containment.contain_calls", contain_calls as f64);
        layers.set("containment.canonical_models", models as f64);
        layers.set(
            "rewriting.verified_per_found",
            verified as f64 / found.max(1) as f64,
        );
    }

    // kernel counters through the metered stream, and what profiling costs
    let (mut comparisons, mut skipped) = (0u64, 0u64);
    let (mut profile_ms, mut plain_ms) = (0.0, 0.0);
    for (q, prep) in run.inputs.queries.iter().zip(preps) {
        let l = &loaded[q.doc];
        if first {
            let mut results = l.engine.stream_prepared_metered(prep, &l.handle)?;
            engine::drain(&mut results, Instant::now())?;
            for op in results.stream_profile().ops {
                comparisons += op.metrics.comparisons;
                skipped += op.metrics.elements_skipped;
            }
        }
        if q.class == Class::Twig {
            let (profile, ms) =
                tr.timed("obs.profile", || l.engine.profile_prepared(prep, &l.handle));
            profile?;
            profile_ms += ms;
            let (out, ms) = tr.timed("algebra.exec_mat", || {
                l.engine.execute_prepared(prep, &l.handle)
            });
            out?;
            plain_ms += ms;
        }
    }
    if plain_ms > 0.0 {
        layers.sample("obs.profile_overhead", profile_ms / plain_ms);
    }
    if first {
        layers.set("algebra.comparisons", comparisons as f64);
        layers.set("algebra.elements_skipped", skipped as f64);
    }
    tr.close(span);
    Ok(())
}

/// `(hits, misses)` of the engines' `CanonicalCache`s so far.
fn cache_lookups(loaded: &[Loaded]) -> (u64, u64) {
    loaded
        .iter()
        .filter_map(|l| l.engine.cache_stats())
        .fold((0, 0), |a, s| (a.0 + s.hits, a.1 + s.misses))
}

pub fn run(run: &mut Run, shape: &Shape) -> uload::Result<()> {
    let expected = oracle_pass(run.inputs, &mut run.samples)?;
    note_inputs(run.inputs, &mut run.samples);
    run.begin_measured();

    let epochs = if shape.reload_every_round {
        1
    } else {
        run.opts.epochs()
    };
    let mut loaded: Vec<Loaded> = Vec::new();
    let mut probed = false;
    for epoch in 0..epochs {
        if !shape.reload_every_round {
            run.tracer.set_enabled(run.opts.traced);
            reload(run, &shape.config, &mut loaded)?;
            run.samples.layers.end_pass();
            cold_pass(run, &loaded)?;
        }
        while run.more_rounds(epoch, epochs) {
            let recorded = run.begin_round();
            let round = run.tracer.open("round");
            let t = Instant::now();
            if shape.reload_every_round {
                reload(run, &shape.config, &mut loaded)?;
                cold_pass(run, &loaded)?;
            }
            let preps = plan_phase(run, &loaded)?;
            let cache_before = cache_lookups(&loaded);
            query_phase(run, shape, &loaded, &preps, &expected);
            let suite_ms = ms_since(t);
            run.tracer.close(round);

            let layers = &mut run.samples.layers;
            let (mat, stream) = (
                layers.current("algebra.exec_mat_ms"),
                layers.current("algebra.exec_stream_ms"),
            );
            if mat > 0.0 {
                layers.sample("algebra.stream_over_mat", stream / mat);
            }
            if shape.adhoc {
                // a warm pass of ad-hoc planning: how much of it the cache answered
                let after = cache_lookups(&loaded);
                let (hits, misses) = (after.0 - cache_before.0, after.1 - cache_before.1);
                if hits + misses > 0 {
                    layers.sample(
                        "containment.cache_hit_rate",
                        hits as f64 / (hits + misses) as f64,
                    );
                }
            }
            if recorded {
                probes(run, &loaded, &preps, !probed)?;
                probed = true;
            }
            run.samples.layers.end_pass();
            run.end_round(suite_ms, recorded);
        }
    }

    let tuples: usize = loaded.iter().map(|l| l.engine.store().total_tuples()).sum();
    let ids: usize = loaded.iter().map(|l| l.id_streams.total_ids()).sum();
    run.samples.note("view_tuples", tuples);
    run.samples.note("idstream_ids", ids);
    Ok(())
}
