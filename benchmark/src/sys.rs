//! What the run header records about the machine, and the two process
//! counters (`utime+stime`, `VmHWM`) the cost metrics are read from.

use std::process::Command;

/// Process CPU time so far in milliseconds, all live threads.
///
/// Read from `/proc/self/task/*/schedstat` (nanoseconds on the CPU per
/// thread), which is `utime+stime` without the 10 ms tick of
/// `/proc/self/stat`: a query phase of 100 ms would otherwise be
/// measured to ±10 %. Falls back to `/proc/self/stat` where the kernel
/// keeps no schedstat.
pub fn process_cpu_ms() -> f64 {
    let per_task = std::fs::read_dir("/proc/self/task").ok().map(|tasks| {
        tasks
            .flatten()
            .filter_map(|t| std::fs::read_to_string(t.path().join("schedstat")).ok())
            .filter_map(|s| s.split_whitespace().next()?.parse::<f64>().ok())
            .sum::<f64>()
    });
    match per_task {
        Some(ns) if ns > 0.0 => ns / 1e6,
        _ => stat_cpu_ms(),
    }
}

/// `utime+stime` of `/proc/self/stat`, in ticks of 1/100 s.
fn stat_cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // fields after the parenthesised command name: state is field 3,
    // utime and stime are fields 14 and 15
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) * 10.0
}

/// Peak resident set size (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One-minute load average.
pub fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

pub fn rustc_version() -> String {
    command_line("rustc", &["--version"])
}

/// The commit being measured (`unknown` outside a git checkout).
pub fn commit() -> String {
    // only when the working directory itself is the checkout: git would
    // otherwise walk up and report some enclosing repository
    if std::path::Path::new(".git").exists() {
        command_line("git", &["rev-parse", "--short", "HEAD"])
    } else {
        "unknown".into()
    }
}
