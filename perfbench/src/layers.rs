//! Calls into each layer of the pipeline, one span per call.
//!
//! These are the same public functions the front doors use, in the
//! same order: `sdbp-trace` generator → `sdbp-traceio` writer / loader /
//! batch decoder → `sdbp_cache::recorder` → policy build + LLC replay →
//! `sdbp-optimal` → `sdbp-cpu` timing model. The traced run times them
//! from outside; the untraced run goes through the front doors.

use crate::spans::{self, Scope, Span};
use crate::Metric;
use sdbp_cache::recorder::{try_record_batches, RecordedWorkload};
use sdbp_cache::replay::{replay, replay_with_probe, ReplayProbe, ReplayResult};
use sdbp_cache::{Cache, CacheConfig, CacheStats, HitMap};
use sdbp_cpu::{CoreModel, Timing};
use sdbp_trace::batch::{InstrBatch, InstrBatcher};
use sdbp_trace::Instr;
use sdbp_traceio::{TraceMeta, TraceWriter};
use sdbp_workloads::Benchmark;
use std::collections::BTreeMap;
use std::path::Path;

/// Instructions generated (and encoded) per span during set-up.
const GEN_BLOCK: u64 = 1 << 16;

/// Work counted at the layer boundaries of a traced run, so ratios are
/// taken where the work happens.
#[derive(Clone, Debug, Default)]
pub struct Counts {
    /// Instructions generated and archived during set-up.
    pub archived: u64,
    /// Bytes of those archives.
    pub archive_bytes: u64,
    /// Instructions pushed through the L1/L2 recorder.
    pub recorded: u64,
    /// LLC accesses the recorder emitted.
    pub llc_accesses: u64,
    /// Summed LLC statistics per policy spec name.
    pub replay: BTreeMap<String, CacheStats>,
    /// MIN totals: accesses, misses, bypasses.
    pub optimal: [u64; 3],
    /// Instructions the timing model simulated.
    pub timed: u64,
}

/// Generates `instructions` instructions of `bench`'s stream `salt`
/// and writes them to `path` in container `version`, one `trace.gen`
/// and one `traceio.encode` span per block. Returns the file's size.
pub fn archive(
    at: Scope<'_>,
    bench: &Benchmark,
    salt: u64,
    instructions: u64,
    version: u32,
    path: &Path,
) -> Result<u64, String> {
    let err = |e: sdbp_traceio::TraceIoError| format!("{}: {e}", path.display());
    let meta = TraceMeta::new(bench.name, bench.stream_seed(salt)).with_version(version);
    let mut writer = TraceWriter::create(path, meta).map_err(err)?;
    let mut generator = bench.trace_seeded(salt);
    let mut block: Vec<Instr> = Vec::with_capacity(GEN_BLOCK as usize);
    let mut left = instructions;
    while left > 0 {
        let n = left.min(GEN_BLOCK);
        at.span("trace.gen", |_| {
            block.clear();
            block.extend(generator.by_ref().take(n as usize));
        });
        at.span("traceio.encode", |_| {
            writer.write_all(block.iter().copied())
        })
        .map_err(err)?;
        left -= n;
    }
    let summary = at
        .span("traceio.encode", |_| writer.finish())
        .map_err(err)?;
    Ok(summary.bytes)
}

/// A batch producer that records one `traceio.decode` span per batch
/// it decodes, so the recorder's own time is its span minus these.
struct TimedBatches<'a> {
    inner: &'a mut dyn InstrBatcher,
    at: Scope<'a>,
}

impl InstrBatcher for TimedBatches<'_> {
    fn next_batch(&mut self) -> Result<Option<InstrBatch<'_>>, String> {
        let Scope {
            tracer,
            parent,
            job,
        } = self.at;
        let id = tracer.next_id();
        let start_ns = tracer.now_ns();
        let batch = self.inner.next_batch();
        let end_ns = tracer.now_ns();
        let name = "traceio.decode".to_owned();
        tracer.push(Span {
            id,
            parent,
            name,
            job,
            start_ns,
            end_ns,
        });
        batch
    }
}

/// Runs the L1/L2 recorder over `batches` as span `record`, with the
/// batch decodes as its children.
pub fn record(
    at: Scope<'_>,
    name: &str,
    batches: &mut dyn InstrBatcher,
    instructions: u64,
) -> Result<RecordedWorkload, String> {
    at.span("record", |id| {
        let mut timed = TimedBatches {
            inner: batches,
            at: at.under(id),
        };
        try_record_batches(name, &mut timed, instructions, 0).map_err(|e| e.to_string())
    })
}

/// Builds `spec` (span `replay.build`) and replays `workload`'s LLC
/// stream through it (span `replay.{spec name}`).
pub fn replay_spec(
    at: Scope<'_>,
    spec: &sdbp::registry::PolicySpec,
    workload: &RecordedWorkload,
    llc: CacheConfig,
    probe: Option<&mut dyn ReplayProbe>,
) -> Result<ReplayResult, String> {
    let mut cache = at.span("replay.build", |_| {
        sdbp::registry::standard()
            .build(spec, llc, 1)
            .map(|policy| Cache::with_policy(llc, policy))
            .map_err(|e| e.to_string())
    })?;
    let name = format!("replay.{}", spec.name);
    Ok(at.span(&name, |_| match probe {
        Some(p) => replay_with_probe(&workload.llc, &mut cache, p),
        None => replay(&workload.llc, &mut cache),
    }))
}

/// Runs the timing model over `workload` with `hits` as span `cpu`.
pub fn timing(at: Scope<'_>, workload: &RecordedWorkload, hits: &HitMap) -> Timing {
    at.span("cpu", |_| {
        CoreModel::default().simulate(&workload.records, hits)
    })
}

/// Per-layer metrics named `<layer>.<metric>`, computed from one traced
/// repetition's spans and the counts taken at the same boundaries.
pub fn layer_metrics(spans: &[Span], counts: &Counts) -> Vec<Metric> {
    let per = |num: f64, den: u64| if den == 0 { 0.0 } else { num / den as f64 };
    let mut m: Vec<Metric> = Vec::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        m.push(Metric {
            name: name.to_owned(),
            value,
            unit,
        });
    };

    let gen_s = spans::total_secs(spans, "trace.gen");
    put("trace.gen_s", gen_s, "s");
    put(
        "trace.gen_ns_per_instr",
        per(gen_s * 1e9, counts.archived),
        "ns",
    );

    let decode_s = spans::total_secs(spans, "traceio.decode");
    put(
        "traceio.load_s",
        spans::total_secs(spans, "traceio.load"),
        "s",
    );
    put("traceio.decode_s", decode_s, "s");
    put(
        "traceio.decode_ns_per_instr",
        per(decode_s * 1e9, counts.recorded),
        "ns",
    );
    put(
        "traceio.bytes_per_instr",
        per(counts.archive_bytes as f64, counts.archived),
        "B",
    );
    put(
        "traceio.encode_s",
        spans::total_secs(spans, "traceio.encode"),
        "s",
    );

    let record_s = spans::total_secs(spans, "record") - decode_s;
    put("record.busy_s", record_s, "s");
    put(
        "record.ns_per_instr",
        per(record_s * 1e9, counts.recorded),
        "ns",
    );
    put(
        "record.llc_apki",
        per(counts.llc_accesses as f64 * 1000.0, counts.recorded),
        "1/kinstr",
    );

    put(
        "replay.build_s",
        spans::total_secs(spans, "replay.build"),
        "s",
    );
    let mut all_busy = 0.0;
    let mut all_accesses = 0u64;
    for (spec, stats) in &counts.replay {
        let busy = spans::total_secs(spans, &format!("replay.{spec}"));
        all_busy += busy;
        all_accesses += stats.accesses;
        put(&format!("replay.{spec}.busy_s"), busy, "s");
        put(
            &format!("replay.{spec}.ns_per_access"),
            per(busy * 1e9, stats.accesses),
            "ns",
        );
        put(
            &format!("replay.{spec}.miss_rate"),
            per(stats.misses as f64, stats.accesses),
            "ratio",
        );
        if stats.predictions > 0 {
            put(
                &format!("replay.{spec}.coverage"),
                stats.coverage(),
                "ratio",
            );
            put(
                &format!("replay.{spec}.false_positive_rate"),
                stats.false_positive_rate(),
                "ratio",
            );
        }
    }
    put("replay.busy_s", all_busy, "s");
    put(
        "replay.ns_per_access",
        per(all_busy * 1e9, all_accesses),
        "ns",
    );

    if counts.optimal[0] > 0 {
        let busy = spans::total_secs(spans, "optimal");
        put("optimal.busy_s", busy, "s");
        put(
            "optimal.ns_per_access",
            per(busy * 1e9, counts.optimal[0]),
            "ns",
        );
        put(
            "optimal.bypass_rate",
            per(counts.optimal[2] as f64, counts.optimal[0]),
            "ratio",
        );
    }

    let cpu_s = spans::total_secs(spans, "cpu");
    put("cpu.busy_s", cpu_s, "s");
    put("cpu.ns_per_instr", per(cpu_s * 1e9, counts.timed), "ns");
    put("cpu.calls", spans::count(spans, "cpu") as f64, "count");
    m
}
