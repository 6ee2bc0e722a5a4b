//! Experiment drivers: one function per table/figure of the paper's
//! evaluation (see DESIGN.md's per-experiment index). Shared by the
//! `experiments` binary (which prints the series) and the Criterion
//! benches (which time the hot kernels).

use std::time::Instant;

use containment::{contain, CanonicalCache, ContainOptions};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use rewriting::EngineOptions;
use summary::Summary;
use xam_core::Xam;

use crate::datasets::{self, Dataset, DatasetRow};
use crate::pattern_gen::{self, GenConfig};
use crate::xmark_queries;

// --------------------------------------------------------------------
// E1 — Figure 4.13: documents and their summaries

pub fn fig4_13() -> Vec<DatasetRow> {
    datasets::all().iter().map(|d| d.row()).collect()
}

// --------------------------------------------------------------------
// E2 — Figure 4.14 (top): XMark query-pattern self-containment

#[derive(Debug, Clone)]
pub struct QueryContainmentRow {
    pub name: String,
    pub pattern_size: usize,
    pub model_size: usize,
    pub micros: f64,
}

/// For each XMark query pattern: `|mod_S(p)|` and the time of the
/// self-containment test under the XMark summary.
pub fn fig4_14_queries(ds: &Dataset) -> Vec<QueryContainmentRow> {
    let mut rows = Vec::new();
    let mut pats = xmark_queries::patterns();
    // replace q7 by its multi-variable version (the paper's outlier)
    if let Some(p) = pats.iter_mut().find(|(n, _)| n == "q7") {
        p.1 = xmark_queries::q7_multivariable();
    }
    for (name, p) in pats {
        let t0 = Instant::now();
        let outcome = contain(&p, &p, &ds.summary, &ContainOptions::default());
        let micros = t0.elapsed().as_secs_f64() * 1e6;
        assert!(outcome.contained, "{name} must be self-contained");
        rows.push(QueryContainmentRow {
            name,
            pattern_size: p.pattern_size(),
            model_size: outcome.model_size,
            micros,
        });
    }
    rows
}

// --------------------------------------------------------------------
// E3/E4/E5 — Figure 4.14 (bottom) & 4.15: synthetic pattern containment

#[derive(Debug, Clone)]
pub struct SyntheticPoint {
    pub size: usize,
    pub return_count: usize,
    /// Average time of *positive* containment tests (µs).
    pub positive_us: f64,
    pub positives: usize,
    /// Average time of *negative* tests (µs).
    pub negative_us: f64,
    pub negatives: usize,
    /// Average canonical-model size over the positive tests.
    pub avg_model: f64,
}

/// The §4.6 synthetic experiment: for each pattern size and return count,
/// generate `set_size` satisfiable patterns and test `p_i ⊆_S p_j` for
/// `j = i..set_size`, averaging positive and negative times separately.
pub fn synthetic_containment(
    summary: &Summary,
    mk_cfg: impl Fn(usize, usize) -> GenConfig,
    sizes: &[usize],
    return_counts: &[usize],
    set_size: usize,
    seed: u64,
) -> Vec<SyntheticPoint> {
    synthetic_containment_with(
        summary,
        mk_cfg,
        sizes,
        return_counts,
        set_size,
        seed,
        1,
        None,
    )
}

/// One worker's share of a containment grid cell: all `p_i ⊆_S p_j`
/// tests with `i ≡ worker (mod stride)`. Returns
/// `(pos_µs, #pos, neg_µs, #neg, Σ model sizes)`.
fn containment_cell(
    pats: &[Xam],
    worker: usize,
    stride: usize,
    summary: &Summary,
    cache: Option<&CanonicalCache>,
) -> (f64, usize, f64, usize, usize) {
    let mut opts = ContainOptions::default();
    if let Some(c) = cache {
        opts = opts.with_cache(c);
    }
    let (mut pos_t, mut neg_t) = (0.0f64, 0.0f64);
    let (mut pos_n, mut neg_n) = (0usize, 0usize);
    let mut model_sum = 0usize;
    for i in (worker..pats.len()).step_by(stride.max(1)) {
        for j in i..pats.len() {
            let t0 = Instant::now();
            let o = contain(&pats[i], &pats[j], summary, &opts);
            let us = t0.elapsed().as_secs_f64() * 1e6;
            if o.contained {
                pos_t += us;
                pos_n += 1;
                model_sum += o.model_size;
            } else {
                neg_t += us;
                neg_n += 1;
            }
        }
    }
    (pos_t, pos_n, neg_t, neg_n, model_sum)
}

/// As [`synthetic_containment`], but the `p_i ⊆_S p_j` grid of each cell
/// is split round-robin over `threads` scoped workers, optionally sharing
/// a [`CanonicalCache`]. Counts and model sizes are identical to the
/// sequential run; only wall-clock changes.
#[allow(clippy::too_many_arguments)]
pub fn synthetic_containment_with(
    summary: &Summary,
    mk_cfg: impl Fn(usize, usize) -> GenConfig,
    sizes: &[usize],
    return_counts: &[usize],
    set_size: usize,
    seed: u64,
    threads: usize,
    cache: Option<&CanonicalCache>,
) -> Vec<SyntheticPoint> {
    let mut out = Vec::new();
    for &size in sizes {
        for &r in return_counts {
            let cfg = mk_cfg(size, r);
            let pats = pattern_gen::generate_set(summary, &cfg, set_size, seed + size as u64);
            let workers = threads.max(1).min(pats.len().max(1));
            let parts: Vec<(f64, usize, f64, usize, usize)> = if workers <= 1 {
                vec![containment_cell(&pats, 0, 1, summary, cache)]
            } else {
                crossbeam::thread::scope(|scope| {
                    let handles: Vec<_> = (0..workers)
                        .map(|w| {
                            let pats = &pats;
                            scope.spawn(move || containment_cell(pats, w, workers, summary, cache))
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("containment worker panicked"))
                        .collect()
                })
            };
            let (mut pos_t, mut neg_t) = (0.0f64, 0.0f64);
            let (mut pos_n, mut neg_n) = (0usize, 0usize);
            let mut model_sum = 0usize;
            for (pt, pn, nt, nn, ms) in parts {
                pos_t += pt;
                pos_n += pn;
                neg_t += nt;
                neg_n += nn;
                model_sum += ms;
            }
            out.push(SyntheticPoint {
                size,
                return_count: r,
                positive_us: if pos_n > 0 { pos_t / pos_n as f64 } else { 0.0 },
                positives: pos_n,
                negative_us: if neg_n > 0 { neg_t / neg_n as f64 } else { 0.0 },
                negatives: neg_n,
                avg_model: if pos_n > 0 {
                    model_sum as f64 / pos_n as f64
                } else {
                    0.0
                },
            });
        }
    }
    out
}

/// Figure 4.14 bottom: synthetic containment on the XMark summary.
pub fn fig4_14_synthetic(ds: &Dataset, set_size: usize) -> Vec<SyntheticPoint> {
    synthetic_containment(
        &ds.summary,
        GenConfig::xmark,
        &[3, 5, 7, 9, 11, 13],
        &[1, 2, 3],
        set_size,
        2024,
    )
}

/// Figure 4.15: the same experiment on the DBLP summary (the paper finds
/// it ≈4× faster than XMark).
pub fn fig4_15(ds: &Dataset, set_size: usize) -> Vec<SyntheticPoint> {
    synthetic_containment(
        &ds.summary,
        GenConfig::dblp,
        &[3, 5, 7, 9, 11, 13],
        &[1, 2, 3],
        set_size,
        2025,
    )
}

/// E5 — the optional-edge ablation of §4.6: containment time vs the
/// optional-edge probability (the paper reports ≈2× slowdown at 50%).
pub fn optional_ablation(ds: &Dataset, set_size: usize) -> Vec<(f64, f64)> {
    let mut out = Vec::new();
    for p_opt in [0.0, 0.5, 1.0] {
        let cfg = GenConfig::xmark(9, 2).with_optional(p_opt);
        let pats = pattern_gen::generate_set(&ds.summary, &cfg, set_size, 777);
        let t0 = Instant::now();
        let mut n = 0;
        for i in 0..pats.len() {
            for j in i..pats.len() {
                let _ = contain(&pats[i], &pats[j], &ds.summary, &ContainOptions::default());
                n += 1;
            }
        }
        let us = t0.elapsed().as_secs_f64() * 1e6 / n as f64;
        out.push((p_opt, us));
    }
    out
}

// --------------------------------------------------------------------
// E6 — §5.6: rewriting performance

#[derive(Debug, Clone)]
pub struct RewritePoint {
    pub n_views: usize,
    /// Average time when a rewriting exists (µs).
    pub positive_us: f64,
    /// Average time when none exists (µs).
    pub negative_us: f64,
    /// Rewritings found per positive trial, averaged.
    pub avg_found: f64,
    /// As positive_us, but with structural-ID reasoning disabled.
    pub positive_no_sid_us: f64,
    /// Fraction of positive trials still rewritable without structural IDs.
    pub no_sid_found_frac: f64,
}

/// Rewriting time vs. view-set size: each trial rewrites a generated
/// query pattern against `n` views; in positive trials the view set
/// contains views that cover the query (its own pattern plus fragments),
/// in negative trials only unrelated views.
pub fn sec5_6(ds: &Dataset, view_counts: &[usize], trials: usize) -> Vec<RewritePoint> {
    sec5_6_with(ds, view_counts, trials, &EngineOptions::default())
}

/// As [`sec5_6`], but every rewrite runs through the given engine
/// context (worker threads for candidate verification, shared cache).
pub fn sec5_6_with(
    ds: &Dataset,
    view_counts: &[usize],
    trials: usize,
    eng: &EngineOptions,
) -> Vec<RewritePoint> {
    let mut rng = SmallRng::seed_from_u64(31337);
    let _ = &mut rng;
    let mut out = Vec::new();
    for &n_views in view_counts {
        let mut pos_t = 0.0;
        let mut neg_t = 0.0;
        let mut pos_found = 0.0;
        let mut nosid_t = 0.0;
        let mut nosid_found = 0usize;
        for trial in 0..trials {
            let qcfg = GenConfig::xmark(4, 1).with_optional(0.0);
            let qs = pattern_gen::generate_set(&ds.summary, &qcfg, 1, 9000 + trial as u64);
            let q = &qs[0];
            // noise views: other generated patterns with IDs stored
            let noise = pattern_gen::generate_set(
                &ds.summary,
                &GenConfig::xmark(3, 1).with_optional(0.0),
                n_views.saturating_sub(1),
                500 + trial as u64,
            );
            let mut views: Vec<(String, Xam)> = noise
                .into_iter()
                .enumerate()
                .map(|(i, v)| (format!("noise{i}"), v))
                .collect();
            // negative trial: noise only
            let t0 = Instant::now();
            let (rw_neg, _) = rewriting::rewrite_with_engine(
                q,
                &views,
                &ds.summary,
                rewriting::RewriteConfig::default(),
                eng,
            );
            neg_t += t0.elapsed().as_secs_f64() * 1e6;
            let _ = rw_neg;
            // positive trial: add the covering view
            views.push(("exact".into(), q.clone()));
            let t0 = Instant::now();
            let (rw_pos, _) = rewriting::rewrite_with_engine(
                q,
                &views,
                &ds.summary,
                rewriting::RewriteConfig::default(),
                eng,
            );
            pos_t += t0.elapsed().as_secs_f64() * 1e6;
            pos_found += rw_pos.len() as f64;
            // ablation: structural IDs off
            let cfg = rewriting::RewriteConfig {
                use_structural_ids: false,
                ..Default::default()
            };
            let t0 = Instant::now();
            let (rw_nosid, _) = rewriting::rewrite_with_engine(q, &views, &ds.summary, cfg, eng);
            nosid_t += t0.elapsed().as_secs_f64() * 1e6;
            if !rw_nosid.is_empty() {
                nosid_found += 1;
            }
        }
        out.push(RewritePoint {
            n_views,
            positive_us: pos_t / trials as f64,
            negative_us: neg_t / trials as f64,
            avg_found: pos_found / trials as f64,
            positive_no_sid_us: nosid_t / trials as f64,
            no_sid_found_frac: nosid_found as f64 / trials as f64,
        });
    }
    out
}

// --------------------------------------------------------------------
// E8 — the §2.1 QEP catalogue

#[derive(Debug, Clone)]
pub struct QepRow {
    pub name: &'static str,
    pub operators: usize,
    pub rows: usize,
    pub micros: f64,
}

pub fn qep_catalogue() -> Vec<QepRow> {
    use storage::qep;
    let doc = xmltree::generate::bib_document();
    let sec_doc = xmltree::generate::bib_document_with_sections();
    let s = Summary::of_document(&doc);
    let s_sec = Summary::of_document(&sec_doc);
    let mut rows = Vec::new();
    let mut run = |q: qep::Qep, doc: &xmltree::Document| {
        let ev = algebra::Evaluator::with_document(&q.catalog, doc);
        let t0 = Instant::now();
        let rel = ev.eval(&q.plan).expect("QEP must evaluate");
        let micros = t0.elapsed().as_secs_f64() * 1e6;
        rows.push(QepRow {
            name: q.name,
            operators: q.operators(),
            rows: rel.len(),
            micros,
        });
    };
    run(qep::qep1(&doc), &doc);
    run(qep::qep3(&doc), &doc);
    run(qep::qep4(&doc), &doc);
    run(qep::qep5(&doc), &doc);
    run(qep::qep6(&doc), &doc);
    run(qep::qep7(&doc, &s), &doc);
    run(qep::qep8(&sec_doc, &s_sec), &sec_doc);
    run(qep::qep9(&sec_doc, &s_sec), &sec_doc);
    run(qep::qep10(&doc, &s), &doc);
    run(qep::qep11(&doc, &s), &doc);
    run(qep::qep12(&doc, &s), &doc);
    run(qep::qep13(&doc, &s), &doc);
    rows
}

// --------------------------------------------------------------------
// E10 — holistic twig joins vs binary cascades (the twig_bench ablation)

/// One twig workload: a tree pattern (node `k`'s parent is `parents[k]`
/// via `axes[k]`; entry 0 is the root and its slots are unused) over one
/// XMark label stream per pattern node.
pub struct TwigWorkload {
    pub name: String,
    pub labels: Vec<&'static str>,
    pub parents: Vec<usize>,
    pub axes: Vec<algebra::Axis>,
}

impl TwigWorkload {
    /// The pattern as the holistic operator consumes it.
    pub fn pattern(&self) -> algebra::TwigPattern {
        let mut p = algebra::TwigPattern::root();
        for k in 1..self.labels.len() {
            p.add_child(self.parents[k], self.axes[k]);
        }
        p
    }

    /// One pre-sorted `(id, position)` stream per pattern node, served
    /// from the columnar index.
    pub fn streams(&self, idx: &storage::IdStreamIndex) -> Vec<Vec<(xmltree::StructuralId, u32)>> {
        self.labels
            .iter()
            .map(|l| {
                idx.elements(l)
                    .iter()
                    .enumerate()
                    .map(|(i, &sid)| (sid, i as u32))
                    .collect()
            })
            .collect()
    }

    /// The same streams as the store keeps them packed for the join
    /// kernels (payloads are positions, as in [`TwigWorkload::streams`];
    /// a label the document lacks is an empty column).
    pub fn columns(&self, idx: &storage::IdStreamIndex) -> Vec<algebra::IdColumns> {
        self.labels
            .iter()
            .map(|l| {
                idx.columnar(l, xmltree::NodeKind::Element)
                    .cloned()
                    .unwrap_or_default()
            })
            .collect()
    }

    /// The equivalent binary structural-join cascade as a logical plan
    /// over the catalog-registered `ids_*` relations.
    pub fn cascade_plan(&self) -> algebra::LogicalPlan {
        use algebra::{JoinKind, LogicalPlan};
        use storage::IdStreamIndex;
        let cols: Vec<String> = (0..self.labels.len()).map(|i| format!("id{i}")).collect();
        let mut plan = LogicalPlan::scan(IdStreamIndex::relation_of(self.labels[0]))
            .rename(&[cols[0].as_str()]);
        for k in 1..self.labels.len() {
            plan = plan.struct_join(
                LogicalPlan::scan(IdStreamIndex::relation_of(self.labels[k]))
                    .rename(&[cols[k].as_str()]),
                cols[self.parents[k]].as_str(),
                cols[k].as_str(),
                self.axes[k],
                JoinKind::Inner,
            );
        }
        plan
    }

    /// The fused holistic plan the planner produces for the same twig.
    pub fn twig_plan(&self) -> algebra::LogicalPlan {
        algebra::fuse_struct_joins(&self.cascade_plan())
    }
}

fn chain(name: &str, labels: &[&'static str]) -> TwigWorkload {
    let n = labels.len();
    TwigWorkload {
        name: name.to_string(),
        labels: labels.to_vec(),
        parents: (0..n).map(|k| k.saturating_sub(1)).collect(),
        axes: vec![algebra::Axis::Descendant; n],
    }
}

fn fan(name: &str, root: &'static str, children: &[&'static str]) -> TwigWorkload {
    let mut labels = vec![root];
    labels.extend_from_slice(children);
    TwigWorkload {
        name: name.to_string(),
        labels,
        parents: vec![0; children.len() + 1],
        axes: vec![algebra::Axis::Child; children.len() + 1],
    }
}

/// The bench grid: XMark descendant chains of depth 2–5 (through the
/// recursive `parlist` region, where the cascade's intermediate pair
/// lists blow up) and child-axis stars of fanout 1–4 under `item`.
pub fn twig_workloads() -> Vec<TwigWorkload> {
    vec![
        chain("chain_depth2", &["description", "parlist"]),
        chain("chain_depth3", &["description", "parlist", "listitem"]),
        chain(
            "chain_depth4",
            &["description", "parlist", "listitem", "text"],
        ),
        chain(
            "chain_depth5",
            &["description", "parlist", "listitem", "text", "keyword"],
        ),
        // pruning twigs: the binary cascade materializes intermediate
        // lists that later steps mostly (or entirely) discard — nested
        // parlists are rare, and `bold` never contains `keyword`
        chain(
            "chain_deep4",
            &["description", "parlist", "parlist", "listitem"],
        ),
        chain(
            "chain_selective4",
            &["description", "text", "bold", "keyword"],
        ),
        fan("fan_width1", "item", &["location"]),
        fan("fan_width2", "item", &["location", "quantity"]),
        fan("fan_width3", "item", &["location", "quantity", "name"]),
        fan(
            "fan_width4",
            "item",
            &["location", "quantity", "name", "description"],
        ),
    ]
}

/// Build the catalog of cached ID streams the twig plans scan.
pub fn twig_catalog(doc: &xmltree::Document) -> algebra::Catalog {
    let mut catalog = algebra::Catalog::new();
    storage::IdStreamIndex::build(doc).register(&mut catalog);
    catalog
}

/// The binary-cascade physical operator, at the same level as
/// [`algebra::twig_join`]: one [`stack_tree_pairs`] per pattern edge
/// (`packed` = the base streams as the store serves them, packed once by
/// the caller) or, with `packed = None`, one [`nested_loop_pairs`], with
/// the intermediate solution list materialized between steps and the
/// join column re-sorted and re-packed per step — exactly the work a
/// binary-join engine performs, minus the (engine-neutral) tuple
/// formatting.
///
/// [`stack_tree_pairs`]: algebra::stacktree::stack_tree_pairs
/// [`nested_loop_pairs`]: algebra::stacktree::nested_loop_pairs
pub fn cascade_solutions(
    parents: &[usize],
    axes: &[algebra::Axis],
    streams: &[Vec<(xmltree::StructuralId, u32)>],
    packed: Option<&[algebra::IdColumns]>,
) -> Vec<Vec<usize>> {
    use algebra::stacktree::{nested_loop_pairs, stack_tree_pairs};
    use algebra::{IdColumns, NoMeter, DEFAULT_BLOCK};
    let n = streams.len();
    let mut tuples: Vec<Vec<usize>> = streams[0].iter().map(|&(_, p)| vec![p as usize]).collect();
    for k in 1..n {
        let p = parents[k];
        let mut left: Vec<(xmltree::StructuralId, u32)> = tuples
            .iter()
            .enumerate()
            .map(|(ti, t)| {
                let ti = u32::try_from(ti).expect("intermediate list exceeds 2^32 rows");
                (streams[p][t[p]].0, ti)
            })
            .collect();
        let pairs = match packed {
            Some(cols) => {
                left.sort_unstable_by_key(|&(s, _)| s.pre);
                let lc = IdColumns::from_pairs(&left, DEFAULT_BLOCK);
                stack_tree_pairs(&lc, &cols[k], axes[k], &mut NoMeter)
            }
            None => nested_loop_pairs(&left, &streams[k], axes[k]),
        };
        tuples = pairs
            .into_iter()
            .map(|(ti, di)| {
                let mut t = tuples[ti].clone();
                t.push(di);
                t
            })
            .collect();
    }
    tuples
}

/// One measured row of the twig ablation.
#[derive(Debug, Clone)]
pub struct TwigRow {
    pub name: String,
    /// Output cardinality (identical across all three engines).
    pub rows: usize,
    /// Median wall-clock per engine, nanoseconds.
    pub twig_ns: u128,
    pub cascade_ns: u128,
    pub nested_ns: u128,
}

impl TwigRow {
    /// Cascade-over-twig speedup ratio.
    pub fn speedup_vs_cascade(&self) -> f64 {
        self.cascade_ns as f64 / self.twig_ns.max(1) as f64
    }

    /// Nested-loop-over-twig speedup ratio.
    pub fn speedup_vs_nested(&self) -> f64 {
        self.nested_ns as f64 / self.twig_ns.max(1) as f64
    }
}

fn median_ns(mut samples: Vec<u128>) -> u128 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Run every twig workload under the three physical operators —
/// holistic TwigStack, binary StackTree cascade, naive nested-loop
/// cascade — checking that all three (and the planner-fused logical
/// plan) agree before timing them `reps` times each.
pub fn twig_ablation(doc: &xmltree::Document, reps: usize) -> Vec<TwigRow> {
    use algebra::{twig_join, Evaluator, IdColumns, NoMeter};
    let idx = storage::IdStreamIndex::build(doc);
    let catalog = twig_catalog(doc);
    let mut out = Vec::new();
    for w in twig_workloads() {
        let pattern = w.pattern();
        // the base streams are packed once, outside every timed region,
        // exactly as the store serves them
        let streams = w.streams(&idx);
        let cols = w.columns(&idx);
        let refs: Vec<&IdColumns> = cols.iter().collect();
        // correctness first: all three operators and the planner path
        // must agree on the solution set
        let twig_sols = twig_join(&pattern, &refs, &mut NoMeter);
        let mut stack_sols = cascade_solutions(&w.parents, &w.axes, &streams, Some(&cols));
        stack_sols.sort_unstable();
        assert_eq!(twig_sols, stack_sols, "{}: twig vs StackTree", w.name);
        let mut nested_sols = cascade_solutions(&w.parents, &w.axes, &streams, None);
        nested_sols.sort_unstable();
        assert_eq!(twig_sols, nested_sols, "{}: twig vs nested loop", w.name);
        let ev = Evaluator::new(&catalog);
        let planned = ev.eval(&w.twig_plan()).expect("twig plan must evaluate");
        assert_eq!(planned.len(), twig_sols.len(), "{}: planner path", w.name);
        // then time each operator
        let time = |f: &dyn Fn() -> usize| {
            let mut samples = Vec::with_capacity(reps.max(1));
            for _ in 0..reps.max(1) {
                let t0 = Instant::now();
                let rows = f();
                samples.push(t0.elapsed().as_nanos());
                assert_eq!(rows, twig_sols.len());
            }
            median_ns(samples)
        };
        let twig_ns = time(&|| twig_join(&pattern, &refs, &mut NoMeter).len());
        let cascade_ns =
            time(&|| cascade_solutions(&w.parents, &w.axes, &streams, Some(&cols)).len());
        let nested_ns = time(&|| cascade_solutions(&w.parents, &w.axes, &streams, None).len());
        out.push(TwigRow {
            name: w.name,
            rows: twig_sols.len(),
            twig_ns,
            cascade_ns,
            nested_ns,
        });
    }
    out
}

// --------------------------------------------------------------------
// E9 — §4.5 minimization

pub fn minimize_demo() -> Vec<String> {
    let doc =
        xmltree::parse_document("<a><f><d><e>1</e></d></f><d><x><e>2</e></x></d></a>").unwrap();
    let s = Summary::of_document(&doc);
    let p = xam_core::parse_xam("//a{ //f{ //d{ //e[id:s] } } }").unwrap();
    let mut out = Vec::new();
    out.push(format!("input pattern ({} nodes):\n{p}", p.pattern_size()));
    for m in containment::minimize_by_contraction(&p, &s) {
        out.push(format!(
            "S-contraction fixpoint ({} nodes):\n{m}",
            m.pattern_size()
        ));
    }
    for m in containment::minimize_global(&p, &s) {
        out.push(format!("global minimum ({} nodes):\n{m}", m.pattern_size()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_14_queries_runs() {
        let ds = datasets::xmark_small();
        let rows = fig4_14_queries(&ds);
        assert_eq!(rows.len(), 20);
        // q7's model is the outlier, as in the paper
        let q7 = rows.iter().find(|r| r.name == "q7").unwrap();
        let max_other = rows
            .iter()
            .filter(|r| r.name != "q7")
            .map(|r| r.model_size)
            .max()
            .unwrap();
        assert!(
            q7.model_size > max_other,
            "{} vs {max_other}",
            q7.model_size
        );
    }

    #[test]
    fn synthetic_experiment_small() {
        let ds = datasets::xmark_small();
        let pts = synthetic_containment(&ds.summary, GenConfig::xmark, &[3, 5], &[1], 8, 1);
        assert_eq!(pts.len(), 2);
        for p in &pts {
            // every pattern is at least self-contained
            assert!(p.positives >= 8, "{p:?}");
        }
    }

    #[test]
    fn twig_ablation_engines_agree_on_small_xmark() {
        let doc = xmltree::generate::xmark(3, 11);
        let rows = twig_ablation(&doc, 1);
        assert_eq!(rows.len(), 10, "6 chains + 4 fans");
        // at least the shallow workloads must match something
        assert!(rows.iter().any(|r| r.rows > 0), "{rows:?}");
        // twig_ablation itself asserts all three engines agree per row
        for r in &rows {
            assert!(
                r.twig_ns > 0 && r.cascade_ns > 0 && r.nested_ns > 0,
                "{r:?}"
            );
        }
    }

    #[test]
    fn qep_catalogue_runs_and_agrees() {
        let rows = qep_catalogue();
        assert_eq!(rows.len(), 12);
        // the q-answering plans agree on cardinality
        let q_rows: Vec<usize> = rows
            .iter()
            .filter(|r| {
                r.name.starts_with("QEP1 ")
                    || r.name.starts_with("QEP4")
                    || r.name.starts_with("QEP5")
                    || r.name.starts_with("QEP6")
                    || r.name.starts_with("QEP7")
            })
            .map(|r| r.rows)
            .collect();
        assert!(q_rows.iter().all(|&c| c == q_rows[0]), "{q_rows:?}");
    }

    #[test]
    fn minimize_demo_produces_smaller_patterns() {
        let lines = minimize_demo();
        assert!(lines.len() >= 3);
        assert!(lines.last().unwrap().contains("global minimum"));
    }

    #[test]
    // ~22 minutes in a debug build (the full §5.6 rewriting sweep over
    // xmark_small): far too slow for the tier-1 `cargo test` gate. CI
    // runs it explicitly with `--ignored` in a non-blocking job.
    #[ignore = "slow: full rewriting sweep; run with `cargo test -- --ignored`"]
    fn rewriting_experiment_small() {
        let ds = datasets::xmark_small();
        let pts = sec5_6(&ds, &[2], 2);
        assert_eq!(pts.len(), 1);
        assert!(pts[0].avg_found >= 1.0, "{pts:?}");
    }
}
