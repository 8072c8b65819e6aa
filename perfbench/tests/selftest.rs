//! Self-test: every workload at a tiny size, untraced and traced.
//!
//! Checks the output contract: exit code 0, every metric named in
//! `BENCHMARK.json` in the final JSON line with its unit, every metric
//! the README names printed with its unit, no failed check and an
//! `error_rate` of 0. Run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Metrics every untraced run prints, per workload.
const END_TO_END: [(&str, &[&str]); 3] = [
    ("matrix", &["sampler_mpki_ratio", "sampler_ipc_speedup"]),
    ("replay_one", &[]),
    (
        "serve",
        &["jobs_per_s", "job_p50_ms", "job_p95_ms", "job_samples"],
    ),
];

/// Per-layer metrics only some workloads have, per workload.
const LAYERS: [(&str, &[&str]); 3] = [
    (
        "matrix",
        &[
            "replay.tdbp.coverage",
            "replay.cdbp.false_positive_rate",
            "replay.dip.miss_rate",
            "replay.rrip.ns_per_access",
            "replay.sampler.busy_s",
            "optimal.busy_s",
            "optimal.ns_per_access",
            "optimal.bypass_rate",
            "engine.busy_s",
            "engine.queue_wait_s",
            "engine.utilization",
            "engine.jobs_failed",
        ],
    ),
    ("replay_one", &[]),
    (
        "serve",
        &[
            "replay.sampler.busy_s",
            "serve.connect_ms",
            "serve.upload_mb",
            "serve.exec_ms",
            "serve.queue_wait_ms",
            "serve.overhead_ms",
            "serve.busy_replies",
            "serve.window_frames",
            "engine.busy_s",
            "engine.utilization",
        ],
    ),
];

/// `(name, unit)` of every metric listed under `section` in
/// `BENCHMARK.json` (one metric object per line).
fn contract(section: &str) -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    let field = |line: &str, key: &str| -> Option<String> {
        let rest = line.split_once(&format!("\"{key}\": \""))?.1;
        Some(rest.split('"').next()?.to_owned())
    };
    let mut current = "";
    let mut out = Vec::new();
    for line in text.lines() {
        for s in ["\"end_to_end\"", "\"per_layer\"", "\"workloads\""] {
            if line.contains(s) {
                current = s;
            }
        }
        if current.trim_matches('"') == section {
            if let (Some(name), Some(unit)) = (field(line, "name"), field(line, "unit")) {
                out.push((name, unit));
            }
        }
    }
    assert!(!out.is_empty(), "no {section} metrics in BENCHMARK.json");
    out
}

fn run(workload: &str, trace: u8) -> Output {
    let dir =
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("selftest-{workload}-{trace}"));
    std::fs::create_dir_all(&dir).expect("scratch directory");
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "0.2",
            "--trace",
            &trace.to_string(),
        ])
        .args(["--scale", "tiny"])
        .current_dir(&dir)
        .output()
        .expect("perfbench runs")
}

/// Checks one run's output and returns its printed `metric` lines as
/// `(name, value, unit)`.
fn check_output(workload: &str, trace: u8, out: &Output) -> Vec<(String, String, String)> {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{workload}/{trace} failed: {stderr}");
    let last = stdout.lines().last().expect("output has a last line");
    assert!(
        last.starts_with("{\"correct\":true,"),
        "{workload}/{trace}: {last}\n{stdout}"
    );
    assert!(last.contains("\"failed\":0,"), "{workload}/{trace}: {last}");
    let section = if trace == 0 {
        "end_to_end"
    } else {
        "per_layer"
    };
    for (name, unit) in contract(section) {
        let field = format!("\"{name}\":{{\"value\":");
        let at = last
            .find(&field)
            .unwrap_or_else(|| panic!("{workload}/{trace}: {name} missing in {last}"));
        let rest = &last[at + field.len()..];
        let (value, rest) = rest.split_once(',').expect("value is followed by a unit");
        value
            .parse::<f64>()
            .unwrap_or_else(|_| panic!("{workload}/{trace}: {name} = {value}"));
        assert!(
            rest.starts_with(&format!("\"unit\":\"{unit}\"}}")),
            "{workload}/{trace}: {name} unit in {rest}"
        );
    }
    stdout
        .lines()
        .filter_map(|l| l.strip_prefix("metric "))
        .map(|l| {
            let parts: Vec<&str> = l.split(' ').collect();
            assert_eq!(parts.len(), 3, "metric line '{l}' is NAME VALUE UNIT");
            parts[1]
                .parse::<f64>()
                .unwrap_or_else(|_| panic!("metric line '{l}' has a number"));
            (
                parts[0].to_owned(),
                parts[1].to_owned(),
                parts[2].to_owned(),
            )
        })
        .collect()
}

#[test]
fn every_workload_prints_every_metric_with_no_errors() {
    for (workload, extra) in END_TO_END {
        let printed = check_output(workload, 0, &run(workload, 0));
        let names: Vec<&str> = printed.iter().map(|m| m.0.as_str()).collect();
        for name in ["wall_s", "setup_s", "peak_rss_mb", "error_rate"]
            .iter()
            .chain(extra)
        {
            assert!(names.contains(name), "{workload}: {name} not printed");
        }
        let error_rate = printed
            .iter()
            .find(|m| m.0 == "error_rate")
            .expect("error_rate printed");
        assert_eq!(
            (error_rate.1.as_str(), error_rate.2.as_str()),
            ("0", "ratio"),
            "{workload}"
        );
    }
}

#[test]
fn every_traced_run_reports_its_layers_and_harness() {
    for (workload, extra) in LAYERS {
        let printed = check_output(workload, 1, &run(workload, 1));
        let names: Vec<&str> = printed.iter().map(|m| m.0.as_str()).collect();
        let common = [
            "harness.self_s",
            "harness.coverage",
            "harness.trace_overhead_s",
        ];
        for name in common.iter().chain(extra) {
            assert!(names.contains(name), "{workload}: {name} not printed");
        }
    }
}

#[test]
fn a_bad_invocation_fails_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("perfbench runs");
    assert!(!out.status.success());
    assert!(!String::from_utf8_lossy(&out.stdout).contains("\"correct\""));
}
