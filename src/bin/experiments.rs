//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run --release --bin experiments              # everything
//! cargo run --release --bin experiments -- fig4_13   # one experiment
//! cargo run --release --bin experiments -- quick     # reduced set sizes
//! cargo run --release --bin experiments -- quick fig4_13 minimize
//! ```
//!
//! Experiments (ids from DESIGN.md's per-experiment index):
//! `fig4_13` (E1, datasets & summaries), `fig4_14_queries` (E2, XMark
//! query pattern containment), `fig4_14_synthetic` (E3, synthetic
//! containment, XMark summary), `fig4_15` (E4, DBLP), `optional_ablation`
//! (E5), `sec5_6` (E6, rewriting), `qep_catalogue` (E8, §2.1 plans),
//! `minimize` (E9, §4.5). Each one is a function below that computes its
//! table and prints it.
//!
//! `--profile` runs one view-backed query with `EXPLAIN ANALYZE` and
//! prints the rendered profile; `--profile-json` prints the same profile
//! as JSON (nothing else goes to stdout, so it pipes cleanly). Set
//! `ULOAD_LOG=uload=debug` (or any `target=level` filter) to stream the
//! engine's tracing output to stderr during any experiment.

use std::time::Instant;

use containment::{contain, ContainOptions};
use summary::Summary;
use uload_bench::pattern_gen::{self, GenConfig};
use uload_bench::{datasets, xmark_queries};
use xam_core::Xam;

fn main() {
    uload::init_from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let profile_json = args.iter().any(|a| a == "--profile-json");
    if profile_json || args.iter().any(|a| a == "--profile") {
        profile_demo(profile_json);
        return;
    }
    let quick = args.iter().any(|a| a == "quick");
    // `quick` and `all` are modifiers, not experiment names: `fig4_15
    // quick` runs just E4 at reduced size, `quick` alone runs everything
    let named: Vec<&String> = args
        .iter()
        .filter(|a| *a != "quick" && *a != "all")
        .collect();
    let want = |name: &str| named.is_empty() || named.iter().any(|a| *a == name);
    let set_size = if quick { 10 } else { 40 };

    if want("fig4_13") {
        fig4_13();
    }
    if want("fig4_14_queries") {
        fig4_14_queries();
    }
    if want("fig4_14_synthetic") {
        header("E3 / Figure 4.14 (bottom) — synthetic containment, XMark summary");
        let ds = datasets::xmark_small();
        synthetic_containment(
            &ds.summary,
            GenConfig::xmark,
            SIZES,
            RETURNS,
            set_size,
            2024,
        );
        println!("(paper: positive tests grow with size but stay moderate; negatives are faster — early exit)");
    }
    if want("fig4_15") {
        header("E4 / Figure 4.15 — synthetic containment, DBLP summary");
        let ds = datasets::dblp_small();
        synthetic_containment(&ds.summary, GenConfig::dblp, SIZES, RETURNS, set_size, 2025);
        println!("(paper: ≈4× faster than on the XMark summary — smaller canonical models)");
    }
    if want("optional_ablation") {
        optional_ablation(set_size.min(16));
    }
    if want("sec5_6") {
        sec5_6(&[2, 5, 10], if quick { 2 } else { 4 });
    }
    if want("qep_catalogue") {
        qep_catalogue();
    }
    if want("minimize") {
        minimize();
    }
}

fn profile_demo(json_out: bool) {
    let doc = uload::generate::xmark(8, 42);
    let mut cfg = uload::EngineConfig {
        profiling: true,
        ..Default::default()
    };
    // join-only rewriting (no navigation compensation): the two
    // single-node views can only combine through a structural join, which
    // fuses into a twig — so the profile shows the holistic operator
    cfg.rewrite.allow_navigation = false;
    let mut u = uload::Uload::builder()
        .document(&doc)
        .config(cfg)
        .build()
        .expect("engine over xmark");
    u.add_view_text("v_items", "//item[id:s]", &doc)
        .expect("v_items");
    u.add_view_text("v_names", "//name[id:s,val]", &doc)
        .expect("v_names");
    let q = r#"doc("X")//item/name"#;
    let (out, used, profile) = u.answer_profiled(q, &doc).expect("profiled answer");
    if json_out {
        // stdout carries only the JSON document
        println!("{}", profile.to_json().to_string_pretty());
        eprintln!("({} results via {:?})", out.len(), used[0].views_used);
    } else {
        header("EXPLAIN ANALYZE over the view-backed engine");
        println!("{}", profile.render());
        println!("({} results via views {:?})", out.len(), used[0].views_used);
    }
}

fn header(title: &str) {
    println!("\n==========================================================");
    println!("{title}");
    println!("==========================================================");
}

fn micros_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e6
}

/// E1 / Figure 4.13: each dataset's size, summary size, strong edges
/// and one-to-one edges.
fn fig4_13() {
    header("E1 / Figure 4.13 — documents and their summaries");
    println!(
        "{:<14} {:>9} {:>6} {:>8} {:>8}",
        "dataset", "N", "|S|", "n_s", "n_1"
    );
    for d in datasets::all() {
        println!(
            "{:<14} {:>9} {:>6} {:>8} {:>8}",
            d.name,
            d.doc.len(),
            d.summary.len(),
            d.summary.strong_edge_count(),
            d.summary.one_to_one_edge_count()
        );
    }
    println!("(paper: XMark summary ~548 nodes, stable across scales; DBLP ~40-50 nodes, many 1/+ edges)");
}

/// E2 / Figure 4.14 (top): for each XMark query pattern, `|mod_S(p)|`
/// and the time of its self-containment test under the XMark summary.
/// Returns `(query, |mod_S(p)|)` per row.
fn fig4_14_queries() -> Vec<(String, usize)> {
    header("E2 / Figure 4.14 (top) — XMark query pattern containment");
    let ds = datasets::xmark_small();
    println!(
        "{:<6} {:>7} {:>10} {:>12}",
        "query", "|p|", "|mod_S(p)|", "time (µs)"
    );
    let mut pats = xmark_queries::patterns();
    // replace q7 by its multi-variable version (the paper's outlier)
    if let Some(p) = pats.iter_mut().find(|(n, _)| n == "q7") {
        p.1 = xmark_queries::q7_multivariable();
    }
    let mut rows = Vec::new();
    for (name, p) in pats {
        let t0 = Instant::now();
        let outcome = contain(&p, &p, &ds.summary, &ContainOptions::default());
        let micros = micros_since(t0);
        assert!(outcome.contained, "{name} must be self-contained");
        println!(
            "{:<6} {:>7} {:>10} {:>12.1}",
            name,
            p.pattern_size(),
            outcome.model_size,
            micros
        );
        rows.push((name, outcome.model_size));
    }
    println!("(paper: small models except q7, whose unrelated variables blow the model up)");
    rows
}

/// The pattern sizes and return counts of the §4.6 synthetic grid.
const SIZES: &[usize] = &[3, 5, 7, 9, 11, 13];
const RETURNS: &[usize] = &[1, 2, 3];

/// E3 / E4 (Figures 4.14 bottom and 4.15): for each pattern size and
/// return count, generate `set_size` satisfiable patterns and test
/// `p_i ⊆_S p_j` for `j = i..set_size`, averaging positive and negative
/// times separately. Prints one row per cell and returns its number of
/// positive tests.
fn synthetic_containment(
    summary: &Summary,
    mk_cfg: impl Fn(usize, usize) -> GenConfig,
    sizes: &[usize],
    return_counts: &[usize],
    set_size: usize,
    seed: u64,
) -> Vec<usize> {
    println!(
        "{:>5} {:>3} {:>12} {:>6} {:>12} {:>6} {:>10}",
        "size", "r", "pos (µs)", "#pos", "neg (µs)", "#neg", "avg |mod|"
    );
    let avg = |sum: f64, n: usize| if n > 0 { sum / n as f64 } else { 0.0 };
    let mut positives = Vec::new();
    for &size in sizes {
        for &r in return_counts {
            let pats =
                pattern_gen::generate_set(summary, &mk_cfg(size, r), set_size, seed + size as u64);
            let (mut pos_t, mut neg_t) = (0.0f64, 0.0f64);
            let (mut pos_n, mut neg_n) = (0usize, 0usize);
            let mut model_sum = 0usize;
            for i in 0..pats.len() {
                for j in i..pats.len() {
                    let t0 = Instant::now();
                    let o = contain(&pats[i], &pats[j], summary, &ContainOptions::default());
                    let us = micros_since(t0);
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
            println!(
                "{:>5} {:>3} {:>12.1} {:>6} {:>12.1} {:>6} {:>10.1}",
                size,
                r,
                avg(pos_t, pos_n),
                pos_n,
                avg(neg_t, neg_n),
                neg_n,
                avg(model_sum as f64, pos_n)
            );
            positives.push(pos_n);
        }
    }
    positives
}

/// E5 / §4.6: containment time vs the optional-edge probability (the
/// paper reports ≈2× slowdown at 50%).
fn optional_ablation(set_size: usize) {
    header("E5 / §4.6 — optional-edge ablation (size 9, r = 2)");
    let ds = datasets::xmark_small();
    println!("{:>8} {:>14}", "P(opt)", "avg test (µs)");
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
        println!("{:>8.1} {:>14.1}", p_opt, micros_since(t0) / n as f64);
    }
    println!("(paper: optional edges slow containment ≈2× vs conjunctive — far from the exponential worst case)");
}

/// E6 / §5.6: rewriting time vs view-set size. Each trial rewrites a
/// generated query pattern against `n` views: in the negative run the
/// view set holds only unrelated views, in the positive run it also
/// holds the query's own pattern; the positive run is repeated with
/// structural-ID reasoning off. Returns the rewritings found per
/// positive trial, averaged, for each view count.
fn sec5_6(view_counts: &[usize], trials: usize) -> Vec<f64> {
    use rewriting::{rewrite_with_config, RewriteConfig};
    header("E6 / §5.6 — rewriting performance vs view-set size");
    let ds = datasets::xmark_small();
    println!(
        "{:>7} {:>12} {:>12} {:>10} {:>14} {:>12}",
        "#views", "pos (µs)", "neg (µs)", "avg #rw", "no-sid (µs)", "no-sid found"
    );
    let no_sid = RewriteConfig {
        use_structural_ids: false,
        ..Default::default()
    };
    let mut found = Vec::new();
    for &n_views in view_counts {
        let (mut pos_t, mut neg_t, mut nosid_t) = (0.0, 0.0, 0.0);
        let (mut pos_found, mut nosid_found) = (0usize, 0usize);
        for trial in 0..trials as u64 {
            let qcfg = GenConfig::xmark(4, 1).with_optional(0.0);
            let q = pattern_gen::generate_set(&ds.summary, &qcfg, 1, 9000 + trial).remove(0);
            let noise = pattern_gen::generate_set(
                &ds.summary,
                &GenConfig::xmark(3, 1).with_optional(0.0),
                n_views.saturating_sub(1),
                500 + trial,
            );
            let mut views: Vec<(String, Xam)> = noise
                .into_iter()
                .enumerate()
                .map(|(i, v)| (format!("noise{i}"), v))
                .collect();
            let t0 = Instant::now();
            rewrite_with_config(&q, &views, &ds.summary, RewriteConfig::default());
            neg_t += micros_since(t0);
            views.push(("exact".into(), q.clone()));
            let t0 = Instant::now();
            let (rw, _) = rewrite_with_config(&q, &views, &ds.summary, RewriteConfig::default());
            pos_t += micros_since(t0);
            pos_found += rw.len();
            let t0 = Instant::now();
            let (rw, _) = rewrite_with_config(&q, &views, &ds.summary, no_sid);
            nosid_t += micros_since(t0);
            nosid_found += usize::from(!rw.is_empty());
        }
        let per_trial = |x: f64| x / trials as f64;
        println!(
            "{:>7} {:>12.0} {:>12.0} {:>10.1} {:>14.0} {:>12.2}",
            n_views,
            per_trial(pos_t),
            per_trial(neg_t),
            per_trial(pos_found as f64),
            per_trial(nosid_t),
            per_trial(nosid_found as f64)
        );
        found.push(per_trial(pos_found as f64));
    }
    println!(
        "(paper: rewriting time grows with the view set; structural IDs enable more rewritings)"
    );
    found
}

/// E8 / §2.1: the QEP catalogue, each plan evaluated over its storage
/// layout. Returns `(plan, rows)` per plan.
fn qep_catalogue() -> Vec<(&'static str, usize)> {
    use storage::qep;
    header("E8 / §2.1 — the QEP catalogue: one query, many storage layouts");
    println!(
        "{:<52} {:>5} {:>6} {:>10}",
        "plan", "ops", "rows", "time (µs)"
    );
    let doc = xmltree::generate::bib_document();
    let sec_doc = xmltree::generate::bib_document_with_sections();
    let s = Summary::of_document(&doc);
    let s_sec = Summary::of_document(&sec_doc);
    let mut rows = Vec::new();
    let mut run = |q: qep::Qep, doc: &xmltree::Document| {
        let ev = algebra::Evaluator::with_document(&q.catalog, doc);
        let t0 = Instant::now();
        let rel = ev.eval(&q.plan).expect("QEP must evaluate");
        let micros = micros_since(t0);
        println!(
            "{:<52} {:>5} {:>6} {:>10.1}",
            q.name,
            q.operators(),
            rel.len(),
            micros
        );
        rows.push((q.name, rel.len()));
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
    println!(
        "(q plans agree on results; indexes and blobs shrink plans — physical data independence)"
    );
    rows
}

/// E9 / §4.5: a pattern, its S-contraction fixpoint and its global
/// minimum under the summary of a small document. Returns the printed
/// blocks.
fn minimize() -> Vec<String> {
    header("E9 / §4.5 — pattern minimization under summary constraints");
    let doc = xmltree::parse_document("<a><f><d><e>1</e></d></f><d><x><e>2</e></x></d></a>")
        .expect("fixed document parses");
    let s = Summary::of_document(&doc);
    let p = xam_core::parse_xam("//a{ //f{ //d{ //e[id:s] } } }").expect("fixed pattern parses");
    let mut out = vec![format!("input pattern ({} nodes):\n{p}", p.pattern_size())];
    for m in containment::minimize_by_contraction(&p, &s) {
        out.push(format!(
            "S-contraction fixpoint ({} nodes):\n{m}",
            m.pattern_size()
        ));
    }
    for m in containment::minimize_global(&p, &s) {
        out.push(format!("global minimum ({} nodes):\n{m}", m.pattern_size()));
    }
    for line in &out {
        println!("{line}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q7_is_the_model_size_outlier() {
        let rows = fig4_14_queries();
        assert_eq!(rows.len(), 20);
        // q7's model is the outlier, as in the paper
        let q7 = rows.iter().find(|(n, _)| n == "q7").unwrap().1;
        let max_other = rows
            .iter()
            .filter(|(n, _)| n != "q7")
            .map(|r| r.1)
            .max()
            .unwrap();
        assert!(q7 > max_other, "{q7} vs {max_other}");
    }

    #[test]
    fn synthetic_experiment_small() {
        let ds = datasets::xmark_small();
        let positives = synthetic_containment(&ds.summary, GenConfig::xmark, &[3, 5], &[1], 8, 1);
        assert_eq!(positives.len(), 2);
        // every pattern is at least self-contained
        assert!(positives.iter().all(|&n| n >= 8), "{positives:?}");
    }

    #[test]
    fn qep_catalogue_runs_and_agrees() {
        let rows = qep_catalogue();
        assert_eq!(rows.len(), 12);
        // the q-answering plans agree on cardinality
        let q_rows: Vec<usize> = rows
            .iter()
            .filter(|(name, _)| {
                ["QEP1 ", "QEP4", "QEP5", "QEP6", "QEP7"]
                    .iter()
                    .any(|p| name.starts_with(p))
            })
            .map(|r| r.1)
            .collect();
        assert_eq!(q_rows.len(), 5);
        assert!(q_rows.iter().all(|&c| c == q_rows[0]), "{q_rows:?}");
    }

    #[test]
    fn minimize_produces_smaller_patterns() {
        let lines = minimize();
        assert!(lines.len() >= 3);
        assert!(lines.last().unwrap().contains("global minimum"));
    }

    #[test]
    // ~22 minutes in a debug build (the full §5.6 rewriting sweep over
    // xmark_small): far too slow for the tier-1 `cargo test` gate. CI
    // runs it explicitly with `--ignored` in a non-blocking job.
    #[ignore = "slow: full rewriting sweep; run with `cargo test -- --ignored`"]
    fn rewriting_experiment_small() {
        let found = sec5_6(&[2], 2);
        assert_eq!(found.len(), 1);
        assert!(found[0] >= 1.0, "{found:?}");
    }
}
