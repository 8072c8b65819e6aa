//! Result output: the human-readable metric lines, a result file with
//! the run's provenance, the span file of a traced run, and the final
//! JSON line.

use crate::{Config, Metric, Outcome};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// End-to-end metrics in the final JSON line of an untraced run: the
/// ones every workload has (see `BENCHMARK.json`).
pub const END_TO_END: [&str; 3] = ["wall_s", "setup_s", "peak_rss_mb"];

/// Per-layer metrics in the final JSON line of a traced run: the ones
/// every workload exercises (see `BENCHMARK.json`). The rest are printed
/// and written to the result file.
pub const PER_LAYER: [&str; 22] = [
    "trace.gen_s",
    "trace.gen_ns_per_instr",
    "traceio.load_s",
    "traceio.decode_s",
    "traceio.decode_ns_per_instr",
    "traceio.bytes_per_instr",
    "traceio.encode_s",
    "record.busy_s",
    "record.ns_per_instr",
    "record.llc_apki",
    "replay.build_s",
    "replay.busy_s",
    "replay.ns_per_access",
    "replay.lru.busy_s",
    "replay.lru.ns_per_access",
    "replay.lru.miss_rate",
    "cpu.busy_s",
    "cpu.ns_per_instr",
    "cpu.calls",
    "harness.self_s",
    "harness.coverage",
    "harness.trace_overhead_s",
];

/// Where results and span files go, relative to the working directory.
fn results_dir() -> PathBuf {
    PathBuf::from(".perfbench").join("results")
}

/// Peak resident set of this process in MiB, from `/proc/self/status`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The host's name, or `unknown`.
fn host() -> String {
    std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|h| h.trim().to_owned())
        .unwrap_or_else(|_| "unknown".to_owned())
}

/// The commit checked out in the working directory, read from `.git`
/// without running git, or `unknown` outside a repository.
fn git_commit() -> String {
    let resolve = |git: &Path| -> Option<String> {
        let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
        let head = head.trim();
        let Some(reference) = head.strip_prefix("ref: ") else {
            return Some(head.to_owned());
        };
        if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
            return Some(id.trim().to_owned());
        }
        let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
        packed.lines().find_map(|l| {
            let (id, name) = l.split_once(' ')?;
            (name == reference).then(|| id.to_owned())
        })
    };
    let mut dir = std::env::current_dir().ok();
    while let Some(d) = dir {
        let git = d.join(".git");
        if git.is_dir() {
            return resolve(&git).unwrap_or_else(|| "unknown".to_owned());
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    "unknown".to_owned()
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metrics_json(metrics: &[&Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(&m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// Adds the process-level metrics, prints every metric, writes the
/// result (and span) files, and prints the final JSON line.
///
/// # Errors
///
/// A metric the JSON line needs is missing or not finite, or a result
/// file cannot be written.
pub fn finish(cfg: &Config, out: &mut Outcome) -> Result<(), String> {
    if !cfg.traced {
        out.put("peak_rss_mb", peak_rss_mb()?, "MiB");
        let rate = out.checks.failed as f64 / out.checks.attempted.max(1) as f64;
        out.put("error_rate", rate, "ratio");
    }
    let provenance = format!(
        "host={} available_parallelism={} commit={} rustc={:?} workload={} seed={} seconds={} trace={} budget={:?}",
        host(),
        cfg.workers,
        git_commit(),
        env!("PERFBENCH_RUSTC"),
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.traced),
        out.budget,
    );
    println!("# {provenance}");
    for m in &out.metrics {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }
    for (name, values) in &out.samples {
        let v: Vec<String> = values.iter().map(f64::to_string).collect();
        println!("samples {name} {}", v.join(" "));
    }
    for f in &out.checks.failures {
        println!("FAILED {f}");
    }

    let wanted: &[&str] = if cfg.traced { &PER_LAYER } else { &END_TO_END };
    let mut selected = Vec::with_capacity(wanted.len());
    for name in wanted {
        let m = out
            .metrics
            .iter()
            .find(|m| m.name == *name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !m.value.is_finite() {
            return Err(format!("metric {name} is not finite: {}", m.value));
        }
        selected.push(m);
    }

    let dir = results_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let stem = format!(
        "{}-seed{}-trace{}",
        cfg.workload,
        cfg.seed,
        u8::from(cfg.traced)
    );
    if let Some(tracer) = &out.tracer {
        let path = dir.join(format!("{stem}.spans.jsonl"));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let all: Vec<&Metric> = out.metrics.iter().collect();
    let result =
        format!(
        "{{\"provenance\":{},\"attempted\":{},\"failed\":{},\"failures\":[{}],\"metrics\":{}}}\n",
        json_str(&provenance),
        out.checks.attempted,
        out.checks.failed,
        out.checks.failures.iter().map(|f| json_str(f)).collect::<Vec<_>>().join(","),
        metrics_json(&all),
    );
    let path = dir.join(format!("{stem}.json"));
    std::fs::write(&path, result).map_err(|e| format!("{}: {e}", path.display()))?;

    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        out.checks.failed == 0 && out.checks.attempted > 0,
        out.checks.attempted.max(1),
        out.checks.failed,
        metrics_json(&selected),
    );
    Ok(())
}
