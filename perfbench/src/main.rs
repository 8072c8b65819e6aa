//! The repository benchmark: one command, three workloads, every output
//! checked.
//!
//! ```text
//! perfbench --workload matrix|replay_one|serve --seed N --seconds S --trace 0|1 [--scale tiny]
//! ```
//!
//! With `--trace 0` the workload runs through its front door and the
//! end-to-end metrics are reported; with `--trace 1` a separate traced
//! run calls each layer's public functions with one span per call and
//! the per-layer metrics are reported. Every metric is printed as a
//! `metric NAME VALUE UNIT` line; the last line of standard output is
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! See `README.md` for the workloads, the metrics and the layer table.

mod layers;
mod matrix;
mod replay_one;
mod report;
mod serve;
mod spans;

use spans::{Scope, Span, Tracer};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// The seed every pinned digest is taken at. (The held-out seed, kept
/// out of tuning, is 7; see `README.md`.)
pub const DEFAULT_SEED: u64 = 1;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Parsed command line plus where the run may write.
#[derive(Debug)]
pub struct Config {
    /// Workload name.
    pub workload: String,
    /// Input seed (stream salt for every generated trace).
    pub seed: u64,
    /// Measurement window in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the front door.
    pub traced: bool,
    /// Tiny inputs for the self-test.
    pub tiny: bool,
    /// Worker threads: the host's `available_parallelism`.
    pub workers: usize,
    /// Scratch directory for inputs, removed at exit.
    pub work: PathBuf,
}

/// A named value with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    /// `name` or `<layer>.<metric>`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit, e.g. `s`, `ms`, `count`.
    pub unit: &'static str,
}

/// Output checks: operations attempted and failed, with the reasons.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations attempted (front-door calls, jobs, comparisons).
    pub attempted: u64,
    /// Operations that failed or whose output was wrong.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
}

impl Checks {
    /// Counts one operation, failing it with `why()` unless `ok`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(why());
            }
        }
    }
}

/// What a workload run hands back to the driver.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every metric, end-to-end (untraced) or per-layer (traced).
    pub metrics: Vec<Metric>,
    /// Output checks.
    pub checks: Checks,
    /// The workload's instruction budget, in words.
    pub budget: String,
    /// The traced run's spans, written out at exit.
    pub tracer: Option<Tracer>,
    /// Raw samples behind the medians, printed for inspection.
    pub samples: Vec<(String, Vec<f64>)>,
}

impl Outcome {
    /// Appends a metric.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit,
        });
    }
}

/// Set-up repeated [`SETUPS`] times into fresh directories: returns the
/// last set-up's value and spans, and every set-up's wall time.
pub struct Setup<T> {
    /// The last set-up's result.
    pub value: T,
    /// Its directory.
    pub dir: PathBuf,
    /// Wall seconds of each set-up.
    pub secs: Vec<f64>,
    /// Spans of the last set-up.
    pub spans: Vec<Span>,
}

/// Runs `f` [`SETUPS`] times, each into a fresh directory under the
/// work directory, timing each call.
pub fn setup<T>(
    cfg: &Config,
    tracer: &Tracer,
    mut f: impl FnMut(&Path, Scope<'_>) -> Result<T, String>,
) -> Result<Setup<T>, String> {
    let mut secs = Vec::with_capacity(SETUPS);
    let mut last: Option<(T, PathBuf, Vec<Span>)> = None;
    for k in 0..SETUPS {
        let dir = cfg.work.join(format!("setup-{k}"));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let started = Instant::now();
        let (value, _, spans) = tracer.root("setup", |at| f(&dir, at));
        let value = value?;
        secs.push(started.elapsed().as_secs_f64());
        if let Some((old, old_dir, _)) = last.replace((value, dir, spans)) {
            // Whatever the old set-up runs (a daemon) stops before its
            // directory goes.
            drop(old);
            std::fs::remove_dir_all(&old_dir).map_err(|e| format!("{}: {e}", old_dir.display()))?;
        }
    }
    let (value, dir, spans) = last.expect("at least one set-up ran");
    Ok(Setup {
        value,
        dir,
        secs,
        spans,
    })
}

/// Calls `rep` until `seconds` have passed and at least `min_reps`
/// repetitions ran.
pub fn repeat<T>(
    seconds: f64,
    min_reps: usize,
    mut rep: impl FnMut() -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let started = Instant::now();
    let mut out = Vec::new();
    while out.len() < min_reps || started.elapsed().as_secs_f64() < seconds {
        out.push(rep()?);
    }
    Ok(out)
}

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Linear-interpolated percentile `p` (0–100) of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// One repetition of a traced run: an untraced front-door call, then
/// the same work called layer by layer with spans.
pub struct TracedRep {
    /// Wall seconds of the untraced front-door call.
    pub front: f64,
    /// The traced pipeline's root span.
    pub root: Span,
    /// Seconds of the root span its child spans cover.
    pub covered: f64,
    /// Per-layer metrics of the traced pipeline.
    pub metrics: Vec<Metric>,
}

/// Calls `rep` for `cfg.seconds` (at least twice) and reports the
/// median of every per-layer metric, plus the `harness.*` metrics: the
/// front door's own time (its untraced wall minus the time its child
/// layers cover), the share of the traced wall the layers cover, and
/// the tracing overhead (traced minus untraced wall).
pub fn traced_run(
    cfg: &Config,
    out: &mut Outcome,
    mut rep: impl FnMut(&mut Outcome) -> Result<TracedRep, String>,
) -> Result<(), String> {
    let reps = repeat(cfg.seconds, 2, || rep(out))?;
    let first = &reps[0].metrics;
    for m in first {
        let values: Vec<f64> = reps
            .iter()
            .filter_map(|r| r.metrics.iter().find(|x| x.name == m.name))
            .map(|x| x.value)
            .collect();
        out.put(&m.name, median(&values), m.unit);
    }
    let front = median(&reps.iter().map(|r| r.front).collect::<Vec<_>>());
    let traced = median(&reps.iter().map(|r| r.root.secs()).collect::<Vec<_>>());
    let covered = median(&reps.iter().map(|r| r.covered).collect::<Vec<_>>());
    let coverage: Vec<f64> = reps.iter().map(|r| r.covered / r.root.secs()).collect();
    out.put("harness.self_s", front - covered, "s");
    out.put("harness.coverage", median(&coverage), "ratio");
    out.put("harness.front_door_s", front, "s");
    out.put("harness.traced_s", traced, "s");
    out.put("harness.trace_overhead_s", traced - front, "s");
    Ok(())
}

fn parse_args() -> Result<Config, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut traced = false;
    let mut tiny = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".to_owned());
                }
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got '{other}'")),
                }
            }
            "--scale" => {
                tiny = match value()?.as_str() {
                    "full" => false,
                    "tiny" => true,
                    other => return Err(format!("--scale takes full or tiny, got '{other}'")),
                }
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    let workload = workload.ok_or("--workload NAME is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}'; known: {}",
            WORKLOADS.join(", ")
        ));
    }
    let workers = std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1);
    let work = PathBuf::from(".perfbench").join(format!("work-{}", std::process::id()));
    Ok(Config {
        workload,
        seed,
        seconds,
        traced,
        tiny,
        workers,
        work,
    })
}

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["matrix", "replay_one", "serve"];

fn run(cfg: &Config) -> Result<Outcome, String> {
    match cfg.workload.as_str() {
        "matrix" => matrix::run(cfg),
        "replay_one" => replay_one::run(cfg),
        "serve" => serve::run(cfg),
        other => Err(format!("unknown workload '{other}'")),
    }
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&cfg.work) {
        eprintln!("perfbench: {}: {e}", cfg.work.display());
        return ExitCode::FAILURE;
    }
    let outcome = run(&cfg);
    let cleanup = std::fs::remove_dir_all(&cfg.work);
    let mut outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", cfg.workload);
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = cleanup {
        eprintln!("perfbench: removing {}: {e}", cfg.work.display());
        return ExitCode::FAILURE;
    }
    match report::finish(&cfg, &mut outcome) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
