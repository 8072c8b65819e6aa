//! `matrix`: the Figure 4 experiment through its front door.
//!
//! Front door: `experiments::Context::lru_matrix` + `singlecore::fig4`
//! on an `Engine` with `available_parallelism` workers, reading seeded
//! v2 archives through `SDBP_TRACE_DIR`. It covers the 19-benchmark
//! subset × `lru, tdbp, cdbp, dip, rrip, sampler`, plus MIN and the
//! timing model per cell.

use crate::layers::{self, Counts};
use crate::spans::{self, Scope, Tracer};
use crate::{Config, Metric, Outcome, TracedRep};
use sdbp_cache::recorder::RecordedWorkload;
use sdbp_cache::{CacheConfig, CacheStats};
use sdbp_engine::{Engine, Job};
use sdbp_harness::experiments::{singlecore, Context};
use sdbp_harness::runner::{PolicyKind, SingleResult, TRACE_DIR_ENV};
use sdbp_traceio::{BufferedTrace, FileSource, FORMAT_V2};
use sdbp_workloads::{subset, Benchmark};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Instructions per benchmark archive at full scale.
const INSTRUCTIONS: u64 = 1_000_000;
/// Instructions per benchmark archive at tiny scale.
const TINY_INSTRUCTIONS: u64 = 20_000;

/// FNV-1a digest of every cell's miss count (row-major, benchmark ×
/// policy) at [`crate::DEFAULT_SEED`] and full scale.
const PINNED_DIGEST: u64 = 0xb656_c9ef_136b_be3d;

/// The matrix columns, as the front door orders them.
fn policies() -> Vec<PolicyKind> {
    let mut p = vec![PolicyKind::Lru];
    p.extend(PolicyKind::lru_comparison());
    p
}

fn digest(matrix: &[Vec<SingleResult>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for cell in matrix.iter().flatten() {
        for b in cell.misses.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// One front-door call: a fresh context (so nothing is memoized), then
/// `fig4`. Returns the wall time, the rendered figure and the matrix.
fn front_door(workers: usize) -> (f64, String, Vec<Vec<SingleResult>>) {
    let ctx = Context::with_engine(Engine::with_workers(workers));
    let started = Instant::now();
    let figure = singlecore::fig4(&ctx);
    let wall = started.elapsed().as_secs_f64();
    (wall, figure, ctx.lru_matrix().clone())
}

/// Checks one front-door result: shape, determinism against the first
/// repetition (and the pinned digest at the default seed), and that
/// the figure's Optimal column is no worse than any policy's.
fn check_front_door(
    out: &mut Outcome,
    pinned: Option<u64>,
    first: &mut Option<u64>,
    figure: &str,
    matrix: &[Vec<SingleResult>],
    benches: &[Benchmark],
) {
    let shape = matrix.len() == benches.len() && matrix.iter().all(|r| r.len() == policies().len());
    out.checks
        .check(shape, || format!("matrix shape {}x?", matrix.len()));
    let d = digest(matrix);
    let expected = *first.get_or_insert(pinned.unwrap_or(d));
    out.checks.check(d == expected, || {
        format!("miss digest {d:#018x}, expected {expected:#018x}")
    });
    for bench in benches {
        let row = figure
            .lines()
            .find(|l| l.split_whitespace().next() == Some(bench.name));
        let values: Option<Vec<f64>> = row.and_then(|l| {
            l.split_whitespace()
                .skip(1)
                .map(|v| v.parse().ok())
                .collect()
        });
        let ok = match values.as_deref() {
            Some([policies @ .., optimal]) if policies.len() + 1 == matrix[0].len() => {
                policies.iter().all(|p| optimal <= p) && *optimal <= 1.0
            }
            _ => false,
        };
        out.checks.check(ok, || {
            format!("{}: MIN above a policy in {row:?}", bench.name)
        });
    }
}

/// The front door's pipeline, called layer by layer with spans:
/// record batch and matrix batch on an engine, then MIN serially, as
/// `fig4` runs it. Returns the repetition (with `front`, the untraced
/// wall it is compared with) and the misses per benchmark: one per
/// policy, then MIN's.
fn traced(
    tracer: &Tracer,
    setup: &crate::Setup<Counts>,
    benches: &[Benchmark],
    workers: usize,
    budget: u64,
    front: f64,
) -> Result<(TracedRep, Vec<Vec<u64>>), String> {
    let llc = CacheConfig::llc_2mb();
    let policies = policies();
    let engine = Engine::with_workers(workers);
    let (result, root, rep_spans) = tracer.root("harness.matrix", |at| {
        pipeline(at, setup, benches, &policies, &engine, llc, budget)
    });
    let (recordings, cells, optimal) = result?;
    let covered = spans::covered_secs(&rep_spans, root.id);

    let mut counts = setup.value.clone();
    for w in &recordings {
        counts.recorded += w.instructions();
        counts.llc_accesses += w.llc.len() as u64;
    }
    counts.timed = counts.recorded * policies.len() as u64;
    let mut misses = Vec::with_capacity(recordings.len());
    for (row, opt) in cells.chunks(policies.len()).zip(&optimal) {
        for (policy, stats) in policies.iter().zip(row) {
            *counts.replay.entry(policy.spec().name).or_default() += stats;
        }
        counts.optimal[0] += opt.accesses;
        counts.optimal[1] += opt.misses;
        counts.optimal[2] += opt.bypasses;
        let mut r: Vec<u64> = row.iter().map(|s| s.misses).collect();
        r.push(opt.misses);
        misses.push(r);
    }

    let mut all_spans = setup.spans.clone();
    all_spans.extend(rep_spans);
    let mut metrics = layers::layer_metrics(&all_spans, &counts);
    let t = engine.telemetry();
    let busy = t.busy().as_secs_f64();
    let queued: f64 = t
        .batches
        .iter()
        .flat_map(|b| &b.per_job)
        .map(|j| j.queued_for.as_secs_f64())
        .sum();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit,
        });
    };
    put("engine.busy_s", busy, "s");
    put("engine.queue_wait_s", queued, "s");
    put(
        "engine.utilization",
        busy / (t.elapsed().as_secs_f64() * workers as f64),
        "ratio",
    );
    put("engine.jobs_failed", t.failed() as f64, "count");
    let rep = TracedRep {
        front,
        root,
        covered,
        metrics,
    };
    Ok((rep, misses))
}

/// Loaded recordings, per-cell statistics and MIN results of one
/// traced repetition.
type Pipeline = (
    Vec<Arc<RecordedWorkload>>,
    Vec<CacheStats>,
    Vec<sdbp_optimal::OptimalResult>,
);

/// The layer calls of [`traced`], under the root span `at`.
fn pipeline(
    at: Scope<'_>,
    setup: &crate::Setup<Counts>,
    benches: &[Benchmark],
    policies: &[PolicyKind],
    engine: &Engine,
    llc: CacheConfig,
    budget: u64,
) -> Result<Pipeline, String> {
    let recordings = at.span("engine.record", |batch| {
        let jobs: Vec<Job<'_, Result<RecordedWorkload, String>>> = benches
            .iter()
            .enumerate()
            .map(|(i, bench)| {
                let at = at.under(batch).job(i as u64);
                let path = setup.dir.join(format!("{}.sdbt", bench.name));
                Job::new(format!("record/{}", bench.name), move || {
                    record(at, &path, bench.name, budget)
                })
            })
            .collect();
        engine
            .run_batch("record", jobs)
            .expect_all()
            .into_iter()
            .collect::<Result<Vec<_>, _>>()
    })?;
    let recordings: Vec<Arc<RecordedWorkload>> = recordings.into_iter().map(Arc::new).collect();

    let cells = at.span("engine.matrix", |batch| {
        let mut jobs: Vec<Job<'_, Result<CacheStats, String>>> = Vec::new();
        for (i, w) in recordings.iter().enumerate() {
            for (j, policy) in policies.iter().enumerate() {
                let at = at.under(batch).job((i * policies.len() + j) as u64);
                let w = Arc::clone(w);
                let spec = policy.spec();
                jobs.push(Job::new(
                    format!("{}/{}", w.name, policy.label()),
                    move || {
                        let r = layers::replay_spec(at, &spec, &w, llc, None)?;
                        layers::timing(at, &w, &r.hits);
                        Ok(r.stats)
                    },
                ));
            }
        }
        engine
            .run_batch("matrix", jobs)
            .expect_all()
            .into_iter()
            .collect::<Result<Vec<_>, _>>()
    })?;

    let optimal: Vec<sdbp_optimal::OptimalResult> = recordings
        .iter()
        .enumerate()
        .map(|(i, w)| {
            at.job(i as u64)
                .span("optimal", |_| sdbp_optimal::simulate(&w.llc, llc))
        })
        .collect();
    Ok((recordings, cells, optimal))
}

/// Loads one archive (span `traceio.load`) and records it (span
/// `record`, with the batch decodes as children).
fn record(at: Scope<'_>, path: &Path, name: &str, budget: u64) -> Result<RecordedWorkload, String> {
    let mut batches = at.span("traceio.load", |_| {
        FileSource::new(path)
            .and_then(|_| BufferedTrace::load(path))
            .map(BufferedTrace::into_batches)
            .map_err(|e| format!("{}: {e}", path.display()))
    })?;
    layers::record(at, name, &mut batches, budget)
}

/// Runs the workload.
///
/// # Errors
///
/// Set-up or a traced layer call fails.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let budget = if cfg.tiny {
        TINY_INSTRUCTIONS
    } else {
        INSTRUCTIONS
    };
    let benches = subset();
    let mut out = Outcome {
        budget: format!(
            "{budget} instructions x {} benchmarks (v2 archives)",
            benches.len()
        ),
        ..Outcome::default()
    };
    let tracer = Tracer::default();
    let setup = crate::setup(cfg, &tracer, |dir, at| {
        let mut counts = Counts::default();
        for (i, bench) in benches.iter().enumerate() {
            let path = dir.join(format!("{}.sdbt", bench.name));
            counts.archive_bytes +=
                layers::archive(at.job(i as u64), bench, cfg.seed, budget, FORMAT_V2, &path)?;
            counts.archived += budget;
        }
        Ok(counts)
    })?;
    // The front door reads its budget and archive directory from the
    // environment; no other thread exists yet.
    std::env::set_var("SDBP_INSTRUCTIONS", budget.to_string());
    std::env::set_var(TRACE_DIR_ENV, &setup.dir);

    let pinned = (cfg.seed == crate::DEFAULT_SEED && !cfg.tiny).then_some(PINNED_DIGEST);
    let mut first = None;
    if !cfg.traced {
        let reps = crate::repeat(cfg.seconds, 3, || {
            let (wall, figure, matrix) = front_door(cfg.workers);
            check_front_door(&mut out, pinned, &mut first, &figure, &matrix, &benches);
            Ok((wall, matrix))
        })?;
        let walls: Vec<f64> = reps.iter().map(|r| r.0).collect();
        let matrix = &reps[0].1;
        let ratios: Vec<f64> = matrix.iter().map(|row| row[5].mpki / row[0].mpki).collect();
        let speedups: Vec<f64> = matrix.iter().map(|row| row[5].ipc / row[0].ipc).collect();
        out.put("wall_s", crate::median(&walls), "s");
        out.put("setup_s", crate::median(&setup.secs), "s");
        out.samples.push(("wall_s".to_owned(), walls.clone()));
        out.samples.push(("setup_s".to_owned(), setup.secs.clone()));
        out.put("wall_samples", walls.len() as f64, "count");
        out.put(
            "sampler_mpki_ratio",
            ratios.iter().sum::<f64>() / ratios.len() as f64,
            "ratio",
        );
        let log_mean = speedups.iter().map(|s| s.ln()).sum::<f64>() / speedups.len() as f64;
        out.put("sampler_ipc_speedup", log_mean.exp(), "ratio");
        return Ok(out);
    }

    crate::traced_run(cfg, &mut out, |out| {
        let (front, figure, matrix) = front_door(cfg.workers);
        check_front_door(out, pinned, &mut first, &figure, &matrix, &benches);
        let (rep, misses) = traced(&tracer, &setup, &benches, cfg.workers, budget, front)?;
        for (b, (row, traced_row)) in matrix.iter().zip(&misses).enumerate() {
            let name = benches[b].name;
            let front: Vec<u64> = row.iter().map(|c| c.misses).collect();
            let same = traced_row[..front.len()] == front[..];
            out.checks
                .check(same, || format!("{name}: traced misses differ from fig4"));
            let min = traced_row[front.len()];
            let below = front.iter().all(|&m| min <= m);
            out.checks
                .check(below, || format!("{name}: MIN above a policy"));
        }
        Ok(rep)
    })?;
    out.tracer = Some(tracer);
    Ok(out)
}
