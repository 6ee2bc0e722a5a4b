//! The repo benchmark. One command runs four named workloads, each in
//! its own process, checks every answer against an oracle and prints
//! every metric by name and unit; `--trace 1` runs the same workload
//! with spans recorded around the calls into each crate and prints the
//! per-layer metrics instead. See `README.md` beside this crate.

mod compare;
mod engine;
mod inputs;
mod report;
mod spec;
mod stats;
mod sys;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use report::{Metric, Samples};
use uload::Json;
use workloads::{inprocess, serve_swap, Options, Run};

/// Set-ups per run, `setup_s` being their median: at least the first
/// number, and more (up to the second) while they have taken under
/// [`SETUP_FILL_S`] together, so that a set-up of a few milliseconds is
/// not a median of five noisy samples.
const SETUP_REPEATS: (usize, usize) = (5, 25);
const SETUP_FILL_S: f64 = 0.6;

const USAGE: &str = "usage:
  uload-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out-dir DIR]
  uload-benchmark --selfcheck [--runs N] [--seconds S] [--quick]
  uload-benchmark --diff OLD.json NEW.json
workloads: bulk_load adhoc_rewrite prepared_joins serve_swap (all four, each in its own process, when none is named)";

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
    out_dir: PathBuf,
    selfcheck: bool,
    runs: usize,
    diff: Option<(PathBuf, PathBuf)>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 42,
        seconds: 30.0,
        traced: false,
        quick: false,
        out_dir: PathBuf::from("benchmark/out"),
        selfcheck: false,
        runs: 6,
        diff: None,
    };
    let mut it = args.iter();
    let value = |it: &mut std::slice::Iter<String>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workload" => cli.workload = Some(value(&mut it, a)?),
            "--seed" => {
                cli.seed = value(&mut it, a)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                cli.seconds = value(&mut it, a)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds > 0.0 && cli.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                cli.traced = match value(&mut it, a)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--quick" => cli.quick = true,
            "--out-dir" => cli.out_dir = PathBuf::from(value(&mut it, a)?),
            "--selfcheck" => cli.selfcheck = true,
            "--runs" => {
                cli.runs = value(&mut it, a)?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?;
                if cli.runs < 2 {
                    return Err("--runs must be at least 2".into());
                }
            }
            "--diff" => {
                cli.diff = Some((
                    PathBuf::from(value(&mut it, a)?),
                    PathBuf::from(value(&mut it, a)?),
                ))
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if cli.quick && cli.seconds == 30.0 {
        cli.seconds = 2.0;
    }
    Ok(cli)
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!(
            "metric {:<32} {:>16.6} {:<6} n={:<4} {}",
            m.name, m.value, m.unit, m.min_samples, m.detail
        );
    }
}

/// Run one workload in this process. Prints the run and ends stdout
/// with the one-line JSON result.
fn run_workload(opts: &Options) -> Result<bool, String> {
    println!(
        "# uload-benchmark workload={} seed={} seconds={} trace={} quick={}",
        opts.workload, opts.seed, opts.seconds, opts.traced as u8, opts.quick
    );
    println!(
        "env nproc={} rustc={:?} commit={} loadavg={}",
        sys::nproc(),
        sys::rustc_version(),
        sys::commit(),
        sys::loadavg()
    );
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("{}: {e}", opts.out_dir.display()))?;

    // set-up: generate the inputs from the seed, several times over
    let mut samples = Samples::default();
    let build = || {
        let t = Instant::now();
        let inputs = inputs::build(&opts.workload, opts.seed, opts.quick)
            .ok_or_else(|| format!("unknown workload {:?}\n{USAGE}", opts.workload))?;
        Ok::<_, String>((inputs, t.elapsed().as_secs_f64()))
    };
    let (mut inputs, first_s) = build()?;
    samples.setup_s.push(first_s);
    while samples.setup_s.len() < SETUP_REPEATS.0
        || (samples.setup_s.len() < SETUP_REPEATS.1
            && samples.setup_s.iter().sum::<f64>() < SETUP_FILL_S)
    {
        let (again, secs) = build()?;
        inputs = again;
        samples.setup_s.push(secs);
    }

    let mut run = Run::new(opts, &inputs, samples);
    let outcome = if opts.workload == "serve_swap" {
        serve_swap::run(&mut run)
    } else {
        inprocess::run(&mut run, &inprocess::Shape::of(&opts.workload))
    };
    outcome.map_err(|e| format!("{}: {e}", opts.workload))?;
    let (samples, tracer) = run.finish();

    for (k, v) in samples
        .info
        .iter()
        .chain(report::pooled_info(&samples).iter())
    {
        println!("info {k}={v}");
    }
    let metrics = if opts.traced {
        // each layer's share of the whole round, and of its query phase alone
        for (root, label) in [("round", "round_share"), ("query_phase", "query_share")] {
            for (layer, share) in trace::layer_shares(tracer.spans(), root) {
                println!("info {label}.{layer}={share:.4}");
            }
        }
        let path = opts.out_dir.join(format!("trace-{}.json", opts.workload));
        std::fs::write(
            &path,
            tracer
                .to_json(&opts.workload, opts.seed)
                .to_string_compact(),
        )
        .map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "info trace_file={} spans={}",
            path.display(),
            tracer.spans().len()
        );
        report::per_layer(&samples)
    } else {
        report::end_to_end(&samples)
    };
    print_metrics(&metrics);
    if report::unstable(&samples) {
        println!(
            "unstable harness.calib_ms quartile spread {:.3} exceeds 0.15: the machine was noisy during this run",
            stats::quartile_spread(&samples.calib_ms)
        );
    }
    for f in &samples.failures {
        println!("failure {f}");
    }
    println!("attempted={} failed={}", samples.attempted, samples.failed);

    if !opts.traced {
        if let Some(bad) = metrics
            .iter()
            .find(|m| !(m.value.is_finite() && m.value > 0.0))
        {
            return Err(format!(
                "metric {} is {}, not a positive number",
                bad.name, bad.value
            ));
        }
    }
    let result = report::result_line(&samples, &metrics);
    let report_path = opts.out_dir.join(format!(
        "{}-{}.json",
        if opts.traced { "layers" } else { "report" },
        opts.workload
    ));
    let report = Json::obj(vec![
        ("result", result.clone()),
        ("samples", report::raw_samples(&samples)),
    ]);
    std::fs::write(&report_path, report.to_string_pretty())
        .map_err(|e| format!("{}: {e}", report_path.display()))?;
    println!("{}", result.to_string_compact());
    Ok(samples.failed == 0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if let Some((old, new)) = &cli.diff {
        compare::diff(old, new)
    } else if cli.selfcheck {
        compare::selfcheck(cli.runs, cli.seconds, cli.quick, &cli.out_dir)
    } else if let Some(workload) = cli.workload {
        run_workload(&Options {
            workload,
            seed: cli.seed,
            seconds: cli.seconds,
            traced: cli.traced,
            quick: cli.quick,
            out_dir: cli.out_dir,
        })
    } else {
        compare::run_all(cli.seed, cli.seconds, cli.quick, &cli.out_dir)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
