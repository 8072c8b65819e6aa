//! Out-of-range counts on the command line are usage errors: the process
//! exits with its usage error, writes nothing to stdout and creates no
//! file, instead of panicking on a recording it cannot index or aborting
//! on an allocation it cannot make.

use sdbp_traceio::{TraceMeta, TraceWriter};
use sdbp_workloads::benchmark;
use std::path::PathBuf;
use std::process::{Command, Output};

fn sdbp_repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sdbp-repro"))
        .args(args)
        .env("SDBP_INSTRUCTIONS", "20000")
        .output()
        .expect("sdbp-repro runs")
}

/// Asserts `out` is a usage error (exit 1, the usage text, no panic)
/// whose message contains `needle`, with nothing written to stdout.
fn assert_usage_error(out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains(needle), "stderr: {stderr}");
    assert!(stderr.contains("usage:"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "stdout: {}", String::from_utf8_lossy(&out.stdout));
}

/// A fresh scratch directory for one test.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sdbp-cli-limits-{test}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn experiment_runner_refuses_a_budget_past_the_recordable_maximum() {
    let from_flag = sdbp_repro(&["--instructions", "5000000000", "--serial", "fig4"]);
    let from_env = Command::new(env!("CARGO_BIN_EXE_sdbp-repro"))
        .args(["--serial", "fig4"])
        .env("SDBP_INSTRUCTIONS", "5000000000")
        .output()
        .expect("sdbp-repro runs");
    for out in [from_flag, from_env] {
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
        assert!(stderr.contains("instruction budget 5000000000 exceeds the recordable maximum"));
        assert!(stderr.contains("usage:"), "stderr: {stderr}");
        assert!(!stderr.contains("panicked"), "stderr: {stderr}");
        assert!(out.stdout.is_empty(), "stdout: {}", String::from_utf8_lossy(&out.stdout));
    }
}

#[test]
fn direct_replay_refuses_a_budget_past_the_recordable_maximum() {
    let out = sdbp_repro(&[
        "trace",
        "replay",
        "--workload",
        "456.hmmer",
        "--instructions",
        "5000000000",
    ]);
    assert_usage_error(&out, "exceeds the recordable maximum of 4294967295");
}

#[test]
fn record_refuses_a_budget_past_the_recordable_maximum_before_writing() {
    let dir = scratch("record");
    let path = dir.join("big.sdbt");
    let out = sdbp_repro(&[
        "trace",
        "record",
        "--workload",
        "456.hmmer",
        "--out",
        path.to_str().expect("utf-8 path"),
        "--instructions",
        "5000000000",
    ]);
    assert_usage_error(&out, "exceeds the recordable maximum of 4294967295");
    assert!(!path.exists(), "record created {} before refusing", path.display());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn info_caps_the_set_histogram_at_the_largest_llc() {
    let dir = scratch("info");
    let path = dir.join("hmmer.sdbt");
    let bench = benchmark("456.hmmer").expect("workload in suite");
    let file = std::fs::File::create(&path).expect("create trace");
    let mut writer = TraceWriter::new(std::io::BufWriter::new(file), TraceMeta::new(bench.name, 0))
        .expect("trace header");
    writer.write_all(bench.trace().take(20_000)).expect("write trace");
    writer.finish().expect("finish trace");
    let path = path.to_str().expect("utf-8 path");

    let out = sdbp_repro(&["trace", "info", path, "--set-histogram", "1099511627776"]);
    assert_usage_error(&out, "--set-histogram needs a power-of-two set count from 16 to 4194304");
    let out = sdbp_repro(&["trace", "info", path, "--set-histogram", "8388608"]);
    assert_usage_error(&out, "got 8388608");
    // The cap itself is still accepted.
    let out = sdbp_repro(&["trace", "info", path, "--set-histogram", "4194304"]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("set histogram: 4194304 sets"));
    std::fs::remove_dir_all(&dir).ok();
}
