//! `--quick` runs of all four workloads, traced and untraced: every
//! named metric is there, the names agree with `BENCHMARK.json`, and no
//! operation failed.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

use uload::{json, Json};

const EXE: &str = env!("CARGO_BIN_EXE_uload-benchmark");

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The `name → unit` pairs of one list of `BENCHMARK.json`.
fn declared(spec: &Json, list: &str) -> BTreeMap<String, String> {
    spec.get(list)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {list}"))
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("string field")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Run one workload and return `name → (value, unit)` of its JSON line.
fn run(workload: &str, traced: bool, out_dir: &Path) -> BTreeMap<String, (f64, String)> {
    let out = Command::new(EXE)
        .args(["--workload", workload, "--seed", "7", "--quick"])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(out_dir)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace={traced} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let result = json::parse(stdout.lines().last().expect("a last line")).expect("JSON last line");
    let Json::Obj(fields) = &result else {
        panic!("result is not an object")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{workload}");
    assert_eq!(
        result.get("failed").and_then(Json::as_f64),
        Some(0.0),
        "{workload}"
    );
    assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("no metrics")
    };
    metrics
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let unit = m
                .get("unit")
                .and_then(Json::as_str)
                .expect("unit")
                .to_string();
            (name.clone(), (value, unit))
        })
        .collect()
}

#[test]
fn quick_runs_report_every_named_metric() {
    let started = Instant::now();
    let spec_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let spec = json::parse(&std::fs::read_to_string(spec_path).expect("BENCHMARK.json")).unwrap();
    let end_to_end = declared(&spec, "end_to_end");
    let per_layer = declared(&spec, "per_layer");
    let workloads: Vec<String> = spec
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect();
    assert_eq!(
        workloads,
        ["bulk_load", "adhoc_rewrite", "prepared_joins", "serve_swap"]
    );
    for name in end_to_end.keys().chain(per_layer.keys()).chain(&workloads) {
        assert!(valid_name(name), "bad name {name:?}");
    }

    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    // largest value of each per-layer metric over the workloads: every
    // layer must show up on the workload that crosses it
    let mut layer_max: BTreeMap<String, f64> = BTreeMap::new();
    for w in &workloads {
        let metrics = run(w, false, &out_dir);
        let names: Vec<&String> = metrics.keys().collect();
        assert_eq!(names, end_to_end.keys().collect::<Vec<_>>(), "{w}");
        for (name, (value, unit)) in &metrics {
            assert!(value.is_finite() && *value > 0.0, "{w}/{name} = {value}");
            assert_eq!(unit, &end_to_end[name], "{w}/{name}");
        }

        let layers = run(w, true, &out_dir);
        let names: Vec<&String> = layers.keys().collect();
        assert_eq!(names, per_layer.keys().collect::<Vec<_>>(), "{w}");
        for (name, (value, unit)) in &layers {
            assert!(value.is_finite() && *value >= 0.0, "{w}/{name} = {value}");
            assert_eq!(unit, &per_layer[name], "{w}/{name}");
            let e = layer_max.entry(name.clone()).or_insert(0.0);
            *e = e.max(*value);
            // the server is crossed by one workload only
            if name.starts_with("server.") && w != "serve_swap" {
                assert_eq!(*value, 0.0, "{w}/{name}");
            }
        }
        assert!(out_dir.join(format!("trace-{w}.json")).exists());
    }
    for (name, max) in &layer_max {
        assert!(*max > 0.0, "per-layer metric {name} is 0 on every workload");
    }
    assert!(
        started.elapsed().as_secs() < 60,
        "smoke took {:?}",
        started.elapsed()
    );
}
