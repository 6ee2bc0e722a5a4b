//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run --release --bin experiments            # everything
//! cargo run --release --bin experiments -- fig4_13 # one experiment
//! cargo run --release --bin experiments -- quick   # reduced set sizes
//! cargo run --release --bin experiments -- twig quick # one, reduced
//! ```
//!
//! Experiments (ids from DESIGN.md):
//! `fig4_13` (datasets & summaries), `fig4_14_queries` (XMark query
//! pattern containment), `fig4_14_synthetic` (synthetic containment,
//! XMark summary), `fig4_15` (DBLP), `optional_ablation`, `sec5_6`
//! (rewriting), `qep_catalogue` (§2.1 plans), `minimize` (§4.5),
//! `twig` (E10 holistic twig-join ablation; writes `BENCH_twig.json`),
//! `server` (E13 multi-client query server: warm result-cache speedup
//! plus a QPS/latency sweep over client counts; writes
//! `BENCH_server.json`).
//!
//! `--profile` runs one view-backed query with `EXPLAIN ANALYZE` and
//! prints the rendered profile; `--profile-json` prints the same profile
//! as JSON (nothing else goes to stdout, so it pipes cleanly). Set
//! `ULOAD_LOG=uload=debug` (or any `target=level` filter) to stream the
//! engine's tracing output to stderr during any experiment.

use rewriting::EngineOptions;
use uload_bench::pattern_gen::GenConfig;
use uload_bench::{datasets, experiments};

fn main() {
    uload::init_from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let profile_json = args.iter().any(|a| a == "--profile-json");
    if profile_json || args.iter().any(|a| a == "--profile") {
        profile_demo(profile_json);
        return;
    }
    let quick = args.iter().any(|a| a == "quick");
    let threads = args
        .iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(1);
    // `quick` and `all` are modifiers, not experiment names: `twig
    // quick` runs just E10 at reduced size, `quick` alone runs everything
    let want = |name: &str| -> bool {
        let named: Vec<&String> = args
            .iter()
            .filter(|a| {
                *a != "--threads" && *a != "quick" && *a != "all" && a.parse::<usize>().is_err()
            })
            .collect();
        named.is_empty() || named.iter().any(|a| *a == name)
    };
    let set_size = if quick { 10 } else { 40 };

    if want("fig4_13") {
        fig4_13();
    }
    if want("fig4_14_queries") {
        fig4_14_queries();
    }
    if want("fig4_14_synthetic") {
        fig4_14_synthetic(set_size, threads);
    }
    if want("fig4_15") {
        fig4_15(set_size, threads);
    }
    if want("optional_ablation") {
        optional_ablation(set_size.min(16));
    }
    if want("sec5_6") {
        sec5_6(if quick { 2 } else { 4 }, threads);
    }
    if want("qep_catalogue") {
        qep_catalogue();
    }
    if want("minimize") {
        minimize();
    }
    if want("twig") {
        twig(quick);
    }
    if want("server") {
        server(quick);
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

fn fig4_13() {
    header("E1 / Figure 4.13 — documents and their summaries");
    println!(
        "{:<14} {:>9} {:>6} {:>8} {:>8}",
        "dataset", "N", "|S|", "n_s", "n_1"
    );
    for r in experiments::fig4_13() {
        println!(
            "{:<14} {:>9} {:>6} {:>8} {:>8}",
            r.name, r.n, r.summary_size, r.strong_edges, r.one_to_one_edges
        );
    }
    println!("(paper: XMark summary ~548 nodes, stable across scales; DBLP ~40-50 nodes, many 1/+ edges)");
}

fn fig4_14_queries() {
    header("E2 / Figure 4.14 (top) — XMark query pattern containment");
    let ds = datasets::xmark_small();
    println!(
        "{:<6} {:>7} {:>10} {:>12}",
        "query", "|p|", "|mod_S(p)|", "time (µs)"
    );
    for r in experiments::fig4_14_queries(&ds) {
        println!(
            "{:<6} {:>7} {:>10} {:>12.1}",
            r.name, r.pattern_size, r.model_size, r.micros
        );
    }
    println!("(paper: small models except q7, whose unrelated variables blow the model up)");
}

fn synthetic_table(points: &[experiments::SyntheticPoint]) {
    println!(
        "{:>5} {:>3} {:>12} {:>6} {:>12} {:>6} {:>10}",
        "size", "r", "pos (µs)", "#pos", "neg (µs)", "#neg", "avg |mod|"
    );
    for p in points {
        println!(
            "{:>5} {:>3} {:>12.1} {:>6} {:>12.1} {:>6} {:>10.1}",
            p.size,
            p.return_count,
            p.positive_us,
            p.positives,
            p.negative_us,
            p.negatives,
            p.avg_model
        );
    }
}

fn fig4_14_synthetic(set_size: usize, threads: usize) {
    header("E3 / Figure 4.14 (bottom) — synthetic containment, XMark summary");
    let ds = datasets::xmark_small();
    let pts = experiments::synthetic_containment_with(
        &ds.summary,
        GenConfig::xmark,
        &[3, 5, 7, 9, 11, 13],
        &[1, 2, 3],
        set_size,
        2024,
        threads,
        None,
    );
    synthetic_table(&pts);
    println!("(paper: positive tests grow with size but stay moderate; negatives are faster — early exit)");
}

fn fig4_15(set_size: usize, threads: usize) {
    header("E4 / Figure 4.15 — synthetic containment, DBLP summary");
    let ds = datasets::dblp_small();
    let pts = experiments::synthetic_containment_with(
        &ds.summary,
        GenConfig::dblp,
        &[3, 5, 7, 9, 11, 13],
        &[1, 2, 3],
        set_size,
        2025,
        threads,
        None,
    );
    synthetic_table(&pts);
    println!("(paper: ≈4× faster than on the XMark summary — smaller canonical models)");
}

fn optional_ablation(set_size: usize) {
    header("E5 / §4.6 — optional-edge ablation (size 9, r = 2)");
    let ds = datasets::xmark_small();
    println!("{:>8} {:>14}", "P(opt)", "avg test (µs)");
    for (p, us) in experiments::optional_ablation(&ds, set_size) {
        println!("{:>8.1} {:>14.1}", p, us);
    }
    println!("(paper: optional edges slow containment ≈2× vs conjunctive — far from the exponential worst case)");
}

fn sec5_6(trials: usize, threads: usize) {
    header("E6 / §5.6 — rewriting performance vs view-set size");
    let ds = datasets::xmark_small();
    let eng = EngineOptions {
        threads,
        ..Default::default()
    };
    let pts = experiments::sec5_6_with(&ds, &[2, 5, 10], trials, &eng);
    println!(
        "{:>7} {:>12} {:>12} {:>10} {:>14} {:>12}",
        "#views", "pos (µs)", "neg (µs)", "avg #rw", "no-sid (µs)", "no-sid found"
    );
    for p in pts {
        println!(
            "{:>7} {:>12.0} {:>12.0} {:>10.1} {:>14.0} {:>12.2}",
            p.n_views,
            p.positive_us,
            p.negative_us,
            p.avg_found,
            p.positive_no_sid_us,
            p.no_sid_found_frac
        );
    }
    println!(
        "(paper: rewriting time grows with the view set; structural IDs enable more rewritings)"
    );
}

fn qep_catalogue() {
    header("E8 / §2.1 — the QEP catalogue: one query, many storage layouts");
    println!(
        "{:<52} {:>5} {:>6} {:>10}",
        "plan", "ops", "rows", "time (µs)"
    );
    for r in experiments::qep_catalogue() {
        println!(
            "{:<52} {:>5} {:>6} {:>10.1}",
            r.name, r.operators, r.rows, r.micros
        );
    }
    println!(
        "(q plans agree on results; indexes and blobs shrink plans — physical data independence)"
    );
}

fn minimize() {
    header("E9 / §4.5 — pattern minimization under summary constraints");
    for line in experiments::minimize_demo() {
        println!("{line}");
    }
}

fn twig(quick: bool) {
    header("E10 — holistic twig joins vs binary cascades");
    let (scale, reps) = if quick { (4, 3) } else { (15, 7) };
    let doc = uload::generate::xmark(scale, 42);
    let rows = experiments::twig_ablation(&doc, reps);
    println!(
        "{:<14} {:>8} {:>12} {:>12} {:>12} {:>8} {:>8}",
        "workload", "rows", "twig (ns)", "stack (ns)", "nested (ns)", "x stack", "x nested"
    );
    for r in &rows {
        println!(
            "{:<14} {:>8} {:>12} {:>12} {:>12} {:>8.2} {:>8.2}",
            r.name,
            r.rows,
            r.twig_ns,
            r.cascade_ns,
            r.nested_ns,
            r.speedup_vs_cascade(),
            r.speedup_vs_nested()
        );
    }
    // machine-readable record of the ablation (hand-rolled JSON — the
    // workspace deliberately carries no serializer dependency)
    let mut json = String::from("{\n  \"experiment\": \"twig_ablation\",\n");
    json.push_str(&format!(
        "  \"document\": \"xmark({scale}, 42)\",\n  \"reps\": {reps},\n  \"workloads\": [\n"
    ));
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"rows\": {}, \"twig_ns\": {}, \"stacktree_ns\": {}, \
             \"nestedloop_ns\": {}, \"speedup_vs_stacktree\": {:.3}, \"speedup_vs_nestedloop\": {:.3}}}{}\n",
            r.name,
            r.rows,
            r.twig_ns,
            r.cascade_ns,
            r.nested_ns,
            r.speedup_vs_cascade(),
            r.speedup_vs_nested(),
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    match std::fs::write("BENCH_twig.json", &json) {
        Ok(()) => println!("(wrote BENCH_twig.json)"),
        Err(e) => eprintln!("(could not write BENCH_twig.json: {e})"),
    }
    println!(
        "(the holistic merge skips the cascade's intermediate pair lists; gains grow with depth)"
    );
}

fn server(quick: bool) {
    use std::time::Instant;
    use uload::server::{Client, Server, ServerConfig};

    header("E13 — multi-client query server: result cache and concurrency sweep");
    let (scale, reps, per_client) = if quick { (2, 8, 12) } else { (8, 25, 40) };
    let client_counts = [1usize, 2, 4, 8];
    let query = r#"for $x in doc("X")//item return <res>{$x/name/text()}</res>"#;

    let doc = uload::generate::xmark(scale, 42);
    let mut engine = uload::Uload::builder()
        .document(&doc)
        .batch_size(256)
        .cache_capacity(1024)
        .build()
        .expect("engine over xmark");
    engine
        .add_view_text("V", "//item[id:s]{ /n? name1:name[val] }", &doc)
        .expect("view definition");
    let handle = uload::DocumentHandle::new(doc.clone());
    let server = Server::start(ServerConfig::default(), engine, handle).expect("server start");

    let mut warm = Client::connect(server.addr()).expect("connect");
    let fp = warm.prepare(query).expect("prepare");

    // cold path: each repetition swaps the document first, minting a new
    // version so the (fingerprint, version) cache key can never match —
    // the server plans nothing (the query is prepared) but executes fully
    for _ in 0..reps {
        server.state().swap_document(doc.clone());
        let reply = warm.exec(fp).expect("uncached exec");
        assert!(!reply.cached, "document swap failed to invalidate");
    }
    // warm path: the last miss memoized the current version's rows
    for _ in 0..reps {
        let reply = warm.exec(fp).expect("cached exec");
        assert!(reply.cached, "warm exec missed the result cache");
    }
    // server-side latencies come from the telemetry histograms the
    // request path records into (request receipt → DONE), so the
    // comparison excludes the wire and measures execute-vs-memoize
    // honestly — and exercises the same snapshots METRICS serves
    let uncached_hist = server.state().metrics().exec_uncached_ns.snapshot();
    let cached_hist = server.state().metrics().exec_cached_ns.snapshot();
    assert_eq!(
        uncached_hist.count(),
        reps as u64,
        "uncached histogram missed executions"
    );
    assert_eq!(
        cached_hist.count(),
        reps as u64,
        "cached histogram missed cache hits"
    );
    let uncached_p50 = uncached_hist.p50();
    let cached_p50 = cached_hist.p50();
    let warm_speedup = uncached_p50 as f64 / cached_p50.max(1) as f64;
    println!(
        "{:<10} {:>12} {:>12} {:>12} {:>5}",
        "phase", "p50 (ns)", "p99 (ns)", "p999 (ns)", "n"
    );
    println!(
        "{:<10} {:>12} {:>12} {:>12} {:>5}",
        "uncached",
        uncached_p50,
        uncached_hist.p99(),
        uncached_hist.p999(),
        reps
    );
    println!(
        "{:<10} {:>12} {:>12} {:>12} {:>5}",
        "cached",
        cached_p50,
        cached_hist.p99(),
        cached_hist.p999(),
        reps
    );
    println!("warm result-cache speedup: {warm_speedup:.2}x");

    // concurrency sweep: N clients hammer the warm entry; each thread
    // records client-side wall latencies into its own lock-free
    // histogram and the per-round stats come from the merged snapshots
    // (the same mergeability METRICS relies on)
    let addr = server.addr().clone();
    let mut sweep = Vec::new();
    println!(
        "\n{:>7} {:>9} {:>10} {:>12} {:>12} {:>12}",
        "clients", "requests", "qps", "p50 (ns)", "p90 (ns)", "p99 (ns)"
    );
    for &n in &client_counts {
        // connect + prepare happen before the barrier: the timed window
        // holds requests only (accepting a connection costs an idle poll)
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(n + 1));
        let threads: Vec<_> = (0..n)
            .map(|_| {
                let addr = addr.clone();
                let barrier = barrier.clone();
                std::thread::spawn(move || {
                    let mut c = Client::connect(&addr).expect("sweep connect");
                    let fp = c.prepare(query).expect("sweep prepare");
                    barrier.wait();
                    let lat = uload::Histogram::new();
                    for _ in 0..per_client {
                        let start = Instant::now();
                        let reply = c.exec(fp).expect("sweep exec");
                        lat.record_duration(start.elapsed());
                        assert!(!reply.rows.is_empty(), "sweep exec lost its rows");
                    }
                    let _ = c.quit();
                    lat.snapshot()
                })
            })
            .collect();
        barrier.wait();
        let round = Instant::now();
        let mut lat = uload::HistogramSnapshot::empty();
        for t in threads {
            lat.merge(&t.join().expect("sweep thread"));
        }
        let wall = round.elapsed();
        let requests = n * per_client;
        let qps = requests as f64 / wall.as_secs_f64();
        println!(
            "{n:>7} {requests:>9} {qps:>10.0} {:>12} {:>12} {:>12}",
            lat.p50(),
            lat.p90(),
            lat.p99()
        );
        sweep.push((n, requests, qps, lat));
    }

    let rc = server.state().result_cache().counters();
    let canonical = server.state().engine().cache_stats();
    println!(
        "result cache: {} hits / {} misses ({:.1}% hit rate), {} entries",
        rc.hits,
        rc.misses,
        rc.hit_rate() * 100.0,
        rc.entries
    );
    if let Some(cs) = &canonical {
        let total = cs.hits + cs.misses;
        println!(
            "canonical cache: {} hits / {} misses ({:.1}% hit rate)",
            cs.hits,
            cs.misses,
            if total == 0 {
                0.0
            } else {
                cs.hits as f64 / total as f64 * 100.0
            }
        );
    }

    // machine-readable record (hand-rolled JSON — the workspace
    // deliberately carries no serializer dependency)
    let mut json = String::from("{\n  \"experiment\": \"server\",\n");
    json.push_str(&format!(
        "  \"document\": \"xmark({scale}, 42)\",\n  \"query\": \"{}\",\n  \
         \"reps\": {reps},\n  \"per_client_requests\": {per_client},\n",
        query.replace('\\', "\\\\").replace('"', "\\\"")
    ));
    json.push_str(&format!(
        "  \"uncached_ns_p50\": {uncached_p50},\n  \"cached_ns_p50\": {cached_p50},\n  \
         \"warm_speedup\": {warm_speedup:.3},\n"
    ));
    // full server-side snapshots (summary stats + non-empty buckets),
    // spliced in compact form from the telemetry layer's own serializer
    json.push_str(&format!(
        "  \"server_histograms\": {{\"uncached\": {}, \"cached\": {}}},\n  \"sweep\": [\n",
        uncached_hist.to_json().to_string_compact(),
        cached_hist.to_json().to_string_compact()
    ));
    for (i, (n, requests, qps, lat)) in sweep.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"clients\": {n}, \"requests\": {requests}, \"qps\": {qps:.1}, \
             \"p50_ns\": {}, \"p90_ns\": {}, \"p99_ns\": {}, \"p999_ns\": {}}}{}\n",
            lat.p50(),
            lat.p90(),
            lat.p99(),
            lat.p999(),
            if i + 1 == sweep.len() { "" } else { "," }
        ));
    }
    json.push_str(&format!(
        "  ],\n  \"result_cache\": {{\"hits\": {}, \"misses\": {}, \"insertions\": {}, \
         \"evictions\": {}, \"entries\": {}, \"hit_rate\": {:.4}}},\n",
        rc.hits,
        rc.misses,
        rc.insertions,
        rc.evictions,
        rc.entries,
        rc.hit_rate()
    ));
    match &canonical {
        Some(cs) => {
            let total = cs.hits + cs.misses;
            json.push_str(&format!(
                "  \"canonical_cache\": {{\"hits\": {}, \"misses\": {}, \"evictions\": {}, \
                 \"entries\": {}, \"hit_rate\": {:.4}}}\n",
                cs.hits,
                cs.misses,
                cs.evictions,
                cs.entries,
                if total == 0 {
                    0.0
                } else {
                    cs.hits as f64 / total as f64
                }
            ));
        }
        None => json.push_str("  \"canonical_cache\": null\n"),
    }
    json.push_str("}\n");
    match std::fs::write("BENCH_server.json", &json) {
        Ok(()) => println!("(wrote BENCH_server.json)"),
        Err(e) => eprintln!("(could not write BENCH_server.json: {e})"),
    }

    let _ = warm.quit();
    server.shutdown();
    server.wait();
    println!(
        "(cache hits bypass admission and the executor entirely — the warm path serves \
         memoized rows; the sweep shows the shared entry scaling across sessions)"
    );
}
