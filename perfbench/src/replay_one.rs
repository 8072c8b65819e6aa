//! `replay_one`: the `trace replay FILE --policy lru` path over one long
//! v1 archive, on a single thread.
//!
//! Front door: `tracecmd::workload_from_file` (load, decode, L1/L2
//! record) and `runner::run_policy` with `PolicyKind::Lru` (the
//! registry's `lru` spec: one LLC replay plus the timing model). The
//! output line is the one `trace replay` prints, and it must match a
//! replay straight from the generator byte for byte.

use crate::layers::{self, Counts};
use crate::spans::{self, Tracer};
use crate::{Config, Outcome, TracedRep};
use sdbp_cache::recorder::record_for_core;
use sdbp_cache::CacheConfig;
use sdbp_harness::runner::{run_policy, PolicyKind, SingleResult};
use sdbp_harness::tracecmd::workload_from_file;
use sdbp_traceio::{BufferedTrace, FileSource, FORMAT_V1};
use sdbp_workloads::{benchmark, Benchmark};
use std::path::Path;
use std::time::Instant;

/// The benchmark whose trace is replayed.
const BENCHMARK: &str = "456.hmmer";
/// Instructions in the archive at full scale.
const INSTRUCTIONS: u64 = 16_000_000;
/// Instructions in the archive at tiny scale.
const TINY_INSTRUCTIONS: u64 = 200_000;

/// The line `trace replay FILE --policy lru` prints for `r`.
fn line(r: &SingleResult) -> String {
    format!(
        "{} lru misses={} mpki={:.6} ipc={:.6}",
        r.benchmark, r.misses, r.mpki, r.ipc
    )
}

/// One front-door call; returns its wall time and output line.
fn front_door(path: &Path, llc: CacheConfig) -> Result<(f64, String), String> {
    let started = Instant::now();
    let workload = workload_from_file(path, 0)?;
    let r = run_policy(&workload, &PolicyKind::Lru, llc);
    Ok((started.elapsed().as_secs_f64(), line(&r)))
}

/// The same pipeline, called layer by layer with spans. Returns the
/// repetition (with `front`, the untraced wall it is compared with) and
/// its miss count.
fn traced(
    tracer: &Tracer,
    setup: &crate::Setup<Counts>,
    path: &Path,
    llc: CacheConfig,
    front: f64,
) -> Result<(TracedRep, u64), String> {
    let spec = PolicyKind::Lru.spec();
    let (result, root, rep_spans) = tracer.root("harness.replay_one", |at| {
        let (name, count, mut batches) = at.span("traceio.load", |_| {
            let err = |e: sdbp_traceio::TraceIoError| format!("{}: {e}", path.display());
            let source = FileSource::new(path).map_err(err)?;
            let trace = BufferedTrace::load(path).map_err(err)?;
            let meta = source.meta();
            Ok::<_, String>((meta.name.clone(), meta.count, trace.into_batches()))
        })?;
        let workload = layers::record(at, &name, &mut batches, count)?;
        let result = layers::replay_spec(at, &spec, &workload, llc, None)?;
        layers::timing(at, &workload, &result.hits);
        Ok::<_, String>((workload, result))
    });
    let (workload, result) = result?;
    let covered = spans::covered_secs(&rep_spans, root.id);

    let mut counts = setup.value.clone();
    counts.recorded = workload.instructions();
    counts.llc_accesses = workload.llc.len() as u64;
    counts.timed = workload.instructions();
    counts.replay.insert(spec.name, result.stats.clone());
    let mut all_spans = setup.spans.clone();
    all_spans.extend(rep_spans);
    let metrics = layers::layer_metrics(&all_spans, &counts);
    let rep = TracedRep {
        front,
        root,
        covered,
        metrics,
    };
    Ok((rep, result.stats.misses))
}

/// Runs the workload.
///
/// # Errors
///
/// Set-up, the reference replay or a layer call fails.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let budget = if cfg.tiny {
        TINY_INSTRUCTIONS
    } else {
        INSTRUCTIONS
    };
    let bench: Benchmark = benchmark(BENCHMARK).ok_or("benchmark missing from the suite")?;
    let llc = CacheConfig::llc_2mb();
    let mut out = Outcome {
        budget: format!("{budget} instructions of {BENCHMARK} (v1 archive)"),
        ..Outcome::default()
    };
    let tracer = Tracer::default();
    let file = format!("{BENCHMARK}.sdbt");
    let setup = crate::setup(cfg, &tracer, |dir, at| {
        let bytes = layers::archive(at, &bench, cfg.seed, budget, FORMAT_V1, &dir.join(&file))?;
        Ok(Counts {
            archived: budget,
            archive_bytes: bytes,
            ..Counts::default()
        })
    })?;
    let path = setup.dir.join(&file);

    // The byte-identity reference: the same replay straight from the
    // generator, outside the timed set-up.
    let direct = record_for_core(bench.name, bench.trace_seeded(cfg.seed), budget, 0);
    let expected = line(&run_policy(&direct, &PolicyKind::Lru, llc));
    drop(direct);

    if !cfg.traced {
        let walls = crate::repeat(cfg.seconds, 3, || {
            let (wall, got) = front_door(&path, llc)?;
            out.checks.check(got == expected, || {
                format!("archive replay '{got}' != generator '{expected}'")
            });
            Ok(wall)
        })?;
        out.put("wall_s", crate::median(&walls), "s");
        out.put("setup_s", crate::median(&setup.secs), "s");
        out.samples.push(("wall_s".to_owned(), walls.clone()));
        out.samples.push(("setup_s".to_owned(), setup.secs.clone()));
        out.put("wall_samples", walls.len() as f64, "count");
        return Ok(out);
    }

    crate::traced_run(cfg, &mut out, |out| {
        let (front, got) = front_door(&path, llc)?;
        out.checks.check(got == expected, || {
            format!("archive replay '{got}' != generator '{expected}'")
        });
        let (rep, misses) = traced(&tracer, &setup, &path, llc, front)?;
        let same = expected.contains(&format!(" misses={misses} "));
        out.checks
            .check(same, || format!("traced misses {misses} vs '{expected}'"));
        Ok(rep)
    })?;
    out.tracer = Some(tracer);
    Ok(out)
}
