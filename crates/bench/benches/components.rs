//! Micro-benchmarks of the core data structures: cache lookup, sampler
//! access, skewed tables, the lean LRU array, the timing model, the trace
//! generator, and Belady preprocessing.

use sdbp_bench::{criterion_group, criterion_main, Criterion, Throughput};
use sdbp_trace::rng::Rng64;
use sdbp::config::{SamplerConfig, TableConfig};
use sdbp::sampler::Sampler;
use sdbp::tables::SkewedTables;
use sdbp_bench::bench_workload;
use sdbp_cache::lru::LruArray;
use sdbp_cache::recorder::LlcAccess;
use sdbp_cache::{Cache, CacheConfig};
use sdbp_cpu::CoreModel;
use sdbp_trace::kernel::KernelSpec;
use sdbp_trace::{AccessKind, BlockAddr, Pc, TraceBuilder};
use std::hint::black_box;

const N: u64 = 100_000;

fn cache_access_throughput(c: &mut Criterion) {
    let mut rng = Rng64::seed_from_u64(1);
    let accesses: Vec<LlcAccess> = (0..N)
        .map(|_| {
            LlcAccess::demand(
                Pc::new(rng.gen_range(0u64..256) * 4),
                BlockAddr::new(rng.gen_range(0u64..100_000)),
                AccessKind::Read,
                0,
            )
        })
        .collect();
    let mut group = c.benchmark_group("cache_access");
    group.throughput(Throughput::Elements(N));
    group.bench_function("lru_2mb", |b| {
        b.iter(|| {
            let mut cache = Cache::new(CacheConfig::llc_2mb());
            for a in &accesses {
                black_box(cache.access(a));
            }
        })
    });
    group.bench_function("lean_lru_array", |b| {
        b.iter(|| {
            let mut cache = LruArray::new(CacheConfig::l2());
            for a in &accesses {
                black_box(cache.access(a.block, false));
            }
        })
    });
    group.finish();
}

fn sampler_access_throughput(c: &mut Criterion) {
    let mut rng = Rng64::seed_from_u64(2);
    let inputs: Vec<(BlockAddr, Pc)> = (0..N)
        .map(|_| (BlockAddr::new(rng.next_u64() >> 20), Pc::new(rng.gen_range(0u64..512) * 4)))
        .collect();
    let mut group = c.benchmark_group("sampler");
    group.throughput(Throughput::Elements(N));
    group.bench_function("access_train_predict", |b| {
        b.iter(|| {
            let mut sampler = Sampler::new(SamplerConfig::default(), 2048);
            let mut tables = SkewedTables::new(TableConfig::skewed());
            for (block, pc) in &inputs {
                black_box(sampler.access(0, *block, *pc, &mut tables));
            }
        })
    });
    group.finish();
}

fn skewed_tables_predict(c: &mut Criterion) {
    let mut tables = SkewedTables::new(TableConfig::skewed());
    for sig in 0..1000u64 {
        tables.train_dead(sig);
    }
    let mut group = c.benchmark_group("tables");
    group.throughput(Throughput::Elements(N));
    group.bench_function("predict", |b| {
        b.iter(|| {
            let mut dead = 0u64;
            for sig in 0..N {
                dead += u64::from(tables.predict(black_box(sig & 0x7fff)));
            }
            dead
        })
    });
    group.finish();
}

fn trace_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace");
    group.throughput(Throughput::Elements(N));
    group.bench_function("synthetic_generation", |b| {
        b.iter(|| {
            let trace = TraceBuilder::new(3)
                .kernel(KernelSpec::classed(1 << 22, 4096, vec![(2.0, 1), (1.0, 4)]).variants(8))
                .kernel(KernelSpec::streaming(1 << 24))
                .build();
            trace.take(N as usize).filter(sdbp_trace::Instr::is_mem).count()
        })
    });
    group.finish();
}

fn timing_model(c: &mut Criterion) {
    let w = bench_workload("429.mcf");
    let hits = vec![false; w.llc.len()];
    let mut group = c.benchmark_group("cpu");
    group.throughput(Throughput::Elements(w.instructions()));
    group.bench_function("timing_model", |b| {
        b.iter(|| CoreModel::default().simulate(black_box(&w.records), black_box(&hits)).cycles)
    });
    group.finish();
}

fn belady_preprocessing(c: &mut Criterion) {
    let w = bench_workload("456.hmmer");
    let mut group = c.benchmark_group("optimal");
    group.throughput(Throughput::Elements(w.llc.len() as u64));
    group.bench_function("next_use_distances", |b| {
        b.iter(|| sdbp_optimal::next_use_distances(black_box(&w.llc)))
    });
    group.bench_function("simulate", |b| {
        b.iter(|| sdbp_optimal::simulate(black_box(&w.llc), CacheConfig::llc_2mb()).misses)
    });
    group.finish();
}

fn recorder_pass(c: &mut Criterion) {
    let mut group = c.benchmark_group("recorder");
    group.throughput(Throughput::Elements(sdbp_bench::BENCH_INSTRUCTIONS));
    group.bench_function("record_hmmer", |b| {
        b.iter(|| bench_workload("456.hmmer").llc.len())
    });
    group.finish();
}

criterion_group!(
    benches,
    cache_access_throughput,
    sampler_access_throughput,
    skewed_tables_predict,
    trace_generation,
    timing_model,
    belady_preprocessing,
    recorder_pass
);
criterion_main!(benches);
