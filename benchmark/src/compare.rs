//! Everything that runs the benchmark more than once: the full run (all
//! four workloads, each in its own process, untraced then traced),
//! `--selfcheck` (does the benchmark agree with itself?) and `--diff`
//! (the bounds of `BENCHMARK.json` applied to two result files).

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};

use uload::{json, Json};

use crate::report::MIN_SAMPLES;
use crate::spec::{GATED_TIMINGS, WORKLOADS};
use crate::stats::{median, quartile_spread};

/// One end-to-end metric's entry in `BENCHMARK.json`.
struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The bounds the repository fixed, from `BENCHMARK.json` in the working
/// directory (or its parent, when run from inside `benchmark/`).
fn read_bounds() -> Result<Vec<Bound>, String> {
    let path = ["BENCHMARK.json", "../BENCHMARK.json"]
        .iter()
        .map(Path::new)
        .find(|p| p.exists())
        .ok_or("BENCHMARK.json not found in the working directory or its parent")?;
    let spec = read_json(path)?;
    let metrics = spec
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    metrics
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).ok_or(format!("end_to_end entry lacks {k:?}"));
            Ok(Bound {
                name: field("name")?.as_str().unwrap_or_default().to_string(),
                lower_is_better: field("better")?.as_str() == Some("lower"),
                bound: field("bound")?.as_f64().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

/// `name → value` of the `metrics` object of a result line.
fn metric_values(result: &Json) -> BTreeMap<String, f64> {
    match result.get("metrics") {
        Some(Json::Obj(fields)) => fields
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect(),
        _ => BTreeMap::new(),
    }
}

/// What one child run reported.
struct ChildRun {
    correct: bool,
    /// `name → value` from the JSON line.
    values: BTreeMap<String, f64>,
    /// `name → n` from the `metric` lines: fewest samples behind it.
    samples: BTreeMap<String, usize>,
    result: Json,
}

/// Run one workload in a process of its own and read back its result.
fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
    out_dir: &Path,
    echo: bool,
) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(out_dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if quick {
        cmd.arg("--quick");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if echo {
        print!("{stdout}");
    }
    if !output.status.success() && stdout.trim().is_empty() {
        return Err(format!("{workload} exited with {}", output.status));
    }
    let last = stdout.lines().last().unwrap_or_default();
    let result =
        json::parse(last).map_err(|e| format!("{workload}: last line is not JSON: {e}"))?;
    let values = metric_values(&result);
    if values.is_empty() {
        return Err(format!("{workload}: result has no metrics"));
    }
    let samples = stdout
        .lines()
        .filter_map(|l| {
            let mut words = l.strip_prefix("metric ")?.split_whitespace();
            let name = words.next()?;
            let n = words.find_map(|w| w.strip_prefix("n="))?.parse().ok()?;
            Some((name.to_string(), n))
        })
        .collect();
    Ok(ChildRun {
        correct: result.get("correct") == Some(&Json::Bool(true)),
        values,
        samples,
        result,
    })
}

/// The full run: every workload untraced, then traced, each in its own
/// process. Writes `results.json` (the input of `--diff`).
pub fn run_all(seed: u64, seconds: f64, quick: bool, out_dir: &Path) -> Result<bool, String> {
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let mut all_correct = true;
    let (mut results, mut layers) = (Vec::new(), Vec::new());
    for w in WORKLOADS {
        for traced in [false, true] {
            let child = run_child(w, seed, seconds, traced, quick, out_dir, true)?;
            all_correct &= child.correct;
            if traced { &mut layers } else { &mut results }.push((w.to_string(), child.result));
            println!();
        }
    }
    let file = Json::obj(vec![
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("results", Json::Obj(results)),
        ("layers", Json::Obj(layers)),
    ]);
    let path = out_dir.join("results.json");
    std::fs::write(&path, file.to_string_pretty())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("# wrote {}", path.display());
    Ok(all_correct)
}

/// How much worse `new` is than `old`, as a share of `old` (negative
/// when it improved).
fn worsening(old: f64, new: f64, lower_is_better: bool) -> f64 {
    let change = (new - old) / old;
    if lower_is_better {
        change
    } else {
        -change
    }
}

/// `--selfcheck`: N full untraced runs, split into two interleaved sets
/// that share one seed list; the sets' medians must agree within every
/// metric's bound, and no gated timing may rest on a value under 1 ms or
/// on fewer than nine samples.
pub fn selfcheck(runs: usize, seconds: f64, quick: bool, out_dir: &Path) -> Result<bool, String> {
    let bounds = read_bounds()?;
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    println!(
        "# selfcheck runs={runs} seconds={seconds} quick={quick} nproc={} loadavg={}",
        crate::sys::nproc(),
        crate::sys::loadavg()
    );
    // sets[set][(workload, metric)] = one value per run of that set
    let mut sets: [BTreeMap<(String, String), Vec<f64>>; 2] = Default::default();
    let mut pass = true;
    for r in 0..runs {
        let seed = 42 + (r / 2) as u64;
        for w in WORKLOADS {
            let child = run_child(w, seed, seconds, false, quick, out_dir, false)?;
            if !child.correct {
                println!("FAIL {w} run {r}: incorrect answers");
                pass = false;
            }
            for b in &bounds {
                let v = *child
                    .values
                    .get(&b.name)
                    .ok_or(format!("{w}: metric {} missing", b.name))?;
                sets[r % 2]
                    .entry((w.to_string(), b.name.clone()))
                    .or_default()
                    .push(v);
                if !GATED_TIMINGS.contains(&b.name.as_str()) {
                    continue;
                }
                let ms = if b.name.ends_with("_s") { v * 1e3 } else { v };
                let n = child.samples.get(&b.name).copied().unwrap_or(0);
                let floor = if quick { 2 } else { MIN_SAMPLES };
                if ms < 1.0 && !quick {
                    println!("FAIL {w}/{} run {r}: {ms:.4} ms is under 1 ms", b.name);
                    pass = false;
                }
                if n < floor {
                    println!(
                        "FAIL {w}/{} run {r}: rests on {n} samples, fewer than {floor}",
                        b.name
                    );
                    pass = false;
                }
            }
            println!("# run {r} {w} seed={seed} done");
        }
    }
    println!(
        "{:<16} {:<24} {:>14} {:>14} {:>9} {:>7} {:>8}  verdict",
        "workload", "metric", "median A", "median B", "worse", "bound", "spread A"
    );
    for w in WORKLOADS {
        for b in &bounds {
            let key = (w.to_string(), b.name.clone());
            let (a, bb) = (&sets[0][&key], &sets[1][&key]);
            let (ma, mb) = (median(a), median(bb));
            // either set may be the "parent": take the worse direction
            let worse =
                worsening(ma, mb, b.lower_is_better).max(worsening(mb, ma, b.lower_is_better));
            let ok = worse <= b.bound;
            pass &= ok;
            let spread = if a.len() >= 2 {
                quartile_spread(a)
            } else {
                f64::NAN
            };
            println!(
                "{:<16} {:<24} {:>14.6} {:>14.6} {:>8.2}% {:>6.0}% {:>7.2}%  {}",
                w,
                b.name,
                ma,
                mb,
                worse * 100.0,
                b.bound * 100.0,
                spread * 100.0,
                if ok { "PASS" } else { "FAIL" }
            );
        }
    }
    println!("# selfcheck {}", if pass { "PASS" } else { "FAIL" });
    Ok(pass)
}

/// `workload → metric → value` out of a result file: either the
/// `results.json` of a full run or the report of a single workload.
fn result_values(file: &Json) -> BTreeMap<String, BTreeMap<String, f64>> {
    match file.get("results") {
        Some(Json::Obj(runs)) => runs
            .iter()
            .map(|(w, run)| (w.clone(), metric_values(run)))
            .collect(),
        _ => BTreeMap::from([("run".to_string(), metric_values(file))]),
    }
}

/// `--diff old.json new.json`: every end-to-end metric of every workload
/// both files hold, judged against its bound.
pub fn diff(old: &Path, new: &Path) -> Result<bool, String> {
    let bounds = read_bounds()?;
    let (old, new) = (
        result_values(&read_json(old)?),
        result_values(&read_json(new)?),
    );
    let mut pass = true;
    let mut compared = 0;
    println!(
        "{:<16} {:<24} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "old", "new", "worse", "bound"
    );
    for (w, old_metrics) in &old {
        let Some(new_metrics) = new.get(w) else {
            continue;
        };
        for b in &bounds {
            let (Some(&o), Some(&n)) = (old_metrics.get(&b.name), new_metrics.get(&b.name)) else {
                continue;
            };
            let worse = worsening(o, n, b.lower_is_better);
            let ok = worse <= b.bound;
            pass &= ok;
            compared += 1;
            println!(
                "{:<16} {:<24} {:>14.6} {:>14.6} {:>8.2}% {:>6.0}%  {}",
                w,
                b.name,
                o,
                n,
                worse * 100.0,
                b.bound * 100.0,
                if ok { "PASS" } else { "REGRESSION" }
            );
        }
    }
    if compared == 0 {
        return Err("the two files share no workload and metric".into());
    }
    println!("# diff {}", if pass { "PASS" } else { "FAIL" });
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(100.0, 110.0, true) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, false) + 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, false) - 0.10).abs() < 1e-12);
    }

    #[test]
    fn result_values_reads_both_file_shapes() {
        let single =
            json::parse(r#"{"correct":true,"metrics":{"load_s":{"value":1.5,"unit":"s"}}}"#)
                .unwrap();
        assert_eq!(result_values(&single)["run"]["load_s"], 1.5);
        let full = json::parse(
            r#"{"results":{"bulk_load":{"metrics":{"load_s":{"value":2.5,"unit":"s"}}}}}"#,
        )
        .unwrap();
        assert_eq!(result_values(&full)["bulk_load"]["load_s"], 2.5);
    }
}
