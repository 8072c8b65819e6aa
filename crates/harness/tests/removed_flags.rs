//! `--shards` is not a flag of any `sdbp-repro` entry point: the
//! experiment runner, `trace replay` and `serve` must each refuse it with
//! their unknown-flag usage error instead of running and ignoring it.

use sdbp_traceio::{TraceMeta, TraceWriter};
use sdbp_workloads::benchmark;
use std::process::{Command, Output};

fn sdbp_repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sdbp-repro"))
        .args(args)
        .env("SDBP_INSTRUCTIONS", "20000")
        .output()
        .expect("sdbp-repro runs")
}

/// Asserts `out` is the unknown-flag usage error for `--shards`, with
/// exit code `code` and nothing written to stdout.
fn assert_refused(out: &Output, code: i32) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(code), "stderr: {stderr}");
    assert!(stderr.contains("unknown flag --shards"), "stderr: {stderr}");
    assert!(stderr.contains("usage:"), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "stdout: {}", String::from_utf8_lossy(&out.stdout));
}

#[test]
fn experiment_runner_rejects_shards() {
    assert_refused(&sdbp_repro(&["--shards", "4", "fig4"]), 2);
}

#[test]
fn trace_replay_rejects_shards() {
    let dir = std::env::temp_dir().join(format!("sdbp-removed-flags-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("hmmer.sdbt");
    let bench = benchmark("456.hmmer").unwrap();
    let file = std::fs::File::create(&path).unwrap();
    let mut writer =
        TraceWriter::new(std::io::BufWriter::new(file), TraceMeta::new(bench.name, 0)).unwrap();
    writer.write_all(bench.trace().take(20_000)).unwrap();
    writer.finish().unwrap();

    let path = path.to_str().unwrap();
    assert!(sdbp_repro(&["trace", "replay", path]).status.success(), "the archive replays");
    assert_refused(&sdbp_repro(&["trace", "replay", path, "--shards", "2"]), 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_rejects_shards() {
    assert_refused(&sdbp_repro(&["serve", "--shards", "2"]), 2);
}
