//! Regenerates `tests/golden/replay_miss_counts.tsv`, the fixture behind
//! the registry golden test (`tests/golden_replay.rs`) and the CI golden
//! gate: per-policy LLC miss counts on fixed-seed workloads. The same
//! replays also write `tests/golden/replay_full_stats.tsv`: every
//! `CacheStats` counter plus an FNV-1a digest of the per-access hit map,
//! so hits, bypasses, writebacks and predictor accounting are pinned too.
//! A third fixture, `tests/golden/timing_and_min.tsv`, pins the layers
//! around the replay: an FNV-1a digest of each recording (per-instruction
//! records and the LLC stream), Belady MIN with and without bypass for
//! each workload and geometry, and the default core model's cycle count
//! for every golden row.
//!
//! Every row is keyed by the policy's registry spec string and every
//! policy is built through `sdbp::registry::standard()` — the same path
//! the golden test replays — so the fixture pins both the policies'
//! behaviour and the spec grammar. Re-run this only when a policy's
//! behaviour changes *on purpose*:
//!
//! ```text
//! cargo run --release --offline --example golden_gen
//! ```

use sdbp_suite::cache::recorder::{record, InstrKind, InstrRecord, LlcAccess};
use sdbp_suite::cache::replay::replay;
use sdbp_suite::cache::{Cache, CacheConfig, HitMap};
use sdbp_suite::cpu::CoreModel;
use sdbp_suite::optimal;
use sdbp_suite::sdbp::registry::standard;

/// Workloads × LLC geometries covered by the fixture. The 256-set LLC
/// keeps every set under pressure (policies diverge quickly); the
/// 2048 × 16 row pins the paper geometry.
const ROWS: &[(&str, u64, usize, usize)] = &[
    ("456.hmmer", 500_000, 256, 16),
    ("462.libquantum", 500_000, 256, 16),
    ("456.hmmer", 500_000, 2048, 16),
];

/// Every registry spec the golden gate pins: each base entry plus the
/// parameterized sampler ablation rungs.
const SPECS: &[&str] = &[
    "lru",
    "random",
    "plru",
    "srrip",
    "dip",
    "tadip",
    "rrip",
    "tdbp",
    "tdbp-bursts",
    "cdbp",
    "aip",
    "sampler",
    "sampler-srrip",
    "random-sampler",
    "random-cdbp",
    "sampler:sampler=none,tables=1,entries=16384,threshold=2",
    "sampler:sampler=none",
    "sampler:assoc=16,tables=1,entries=16384,threshold=2",
    "sampler:assoc=16",
    "sampler:tables=1,entries=16384,threshold=2",
];

/// FNV-1a over the hit map, one byte (0 or 1) per access.
fn hit_digest(hits: &HitMap) -> u64 {
    fnv1a(hits.iter().map(u8::from))
}

/// FNV-1a over a byte stream.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// A record's packed byte: service level in bits 0-1 (non-memory, L1,
/// L2, LLC), dependence in bit 2.
fn record_byte(r: InstrRecord) -> u8 {
    let kind = match r.kind() {
        InstrKind::NonMem => 0,
        InstrKind::L1Hit => 1,
        InstrKind::L2Hit => 2,
        InstrKind::Llc => 3,
    };
    kind | u8::from(r.dependent()) << 2
}

/// FNV-1a over the records' packed bytes.
fn records_digest(records: &[InstrRecord]) -> u64 {
    fnv1a(records.iter().map(|&r| record_byte(r)))
}

/// FNV-1a over the LLC stream: per access, the little-endian bytes of
/// pc, block and instruction index, then the write flag and the core.
fn llc_digest(llc: &[LlcAccess]) -> u64 {
    fnv1a(llc.iter().flat_map(|a| {
        let words = [a.pc.raw(), a.block.raw(), u64::from(a.instr)];
        let tail = [u8::from(a.kind.is_write()), a.core];
        words.into_iter().flat_map(u64::to_le_bytes).chain(tail)
    }))
}

fn main() {
    let registry = standard();
    let mut out = String::from(
        "# Golden per-policy LLC miss counts (see examples/golden_gen.rs).\n\
         # workload\tinstructions\tsets\tways\tspec\tmisses\n",
    );
    let mut full = String::from(
        "# Golden per-policy CacheStats and hit-map digests (see examples/golden_gen.rs).\n\
         # workload\tinstructions\tsets\tways\tspec\taccesses\thits\tmisses\tbypasses\t\
         fills\tevictions\twritebacks\tpredictions\tpredictions_dead\tfalse_positives\t\
         hit_digest\n",
    );
    let mut timing = String::from(
        "# Golden recording digests, MIN results and core-model cycles \
         (see examples/golden_gen.rs).\n\
         # record\tworkload\tinstructions\trecords\trecords_digest\tllc_accesses\tllc_digest\n\
         # min\tworkload\tinstructions\tsets\tways\tbypass|no-bypass\thits\tmisses\tbypasses\n\
         # cycles\tworkload\tinstructions\tsets\tways\tspec\tcycles\n",
    );
    let mut recorded = Vec::new();
    for &(name, instructions, sets, ways) in ROWS {
        let bench = sdbp_suite::workloads::benchmark(name).expect("workload in suite");
        let w = record(bench.name, bench.trace(), instructions);
        if !recorded.contains(&(name, instructions)) {
            recorded.push((name, instructions));
            timing.push_str(&format!(
                "record\t{name}\t{instructions}\t{}\t{:016x}\t{}\t{:016x}\n",
                w.records.len(),
                records_digest(&w.records),
                w.llc.len(),
                llc_digest(&w.llc)
            ));
        }
        let llc = CacheConfig::new(sets, ways);
        for (label, r) in [
            ("bypass", optimal::simulate(&w.llc, llc)),
            ("no-bypass", optimal::simulate_no_bypass(&w.llc, llc)),
        ] {
            timing.push_str(&format!(
                "min\t{name}\t{instructions}\t{sets}\t{ways}\t{label}\t{}\t{}\t{}\n",
                r.hits, r.misses, r.bypasses
            ));
        }
        for spec in SPECS {
            let policy = registry.build_str(spec, llc, 1).expect("golden spec builds");
            let mut cache = Cache::with_policy(llc, policy);
            let r = replay(&w.llc, &mut cache);
            let (s, misses) = (&r.stats, r.stats.misses);
            out.push_str(&format!(
                "{name}\t{instructions}\t{sets}\t{ways}\t{spec}\t{misses}\n"
            ));
            full.push_str(&format!(
                "{name}\t{instructions}\t{sets}\t{ways}\t{spec}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t\
                 {}\t{}\t{}\t{:016x}\n",
                s.accesses,
                s.hits,
                s.misses,
                s.bypasses,
                s.fills,
                s.evictions,
                s.writebacks,
                s.predictions,
                s.predictions_dead,
                s.false_positives,
                hit_digest(&r.hits)
            ));
            let cycles = CoreModel::default().simulate(&w.records, &r.hits).cycles;
            timing.push_str(&format!(
                "cycles\t{name}\t{instructions}\t{sets}\t{ways}\t{spec}\t{cycles}\n"
            ));
            println!("{name} {sets}x{ways} {spec}: {misses}");
        }
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/replay_miss_counts.tsv");
    std::fs::create_dir_all(std::path::Path::new(path).parent().expect("has parent"))
        .expect("create tests/golden");
    std::fs::write(path, out).expect("write fixture");
    println!("wrote {path}");
    let full_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/replay_full_stats.tsv");
    std::fs::write(full_path, full).expect("write full-stats fixture");
    println!("wrote {full_path}");
    let timing_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/timing_and_min.tsv");
    std::fs::write(timing_path, timing).expect("write timing fixture");
    println!("wrote {timing_path}");
}
