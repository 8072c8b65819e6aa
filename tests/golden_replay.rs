//! The golden miss-count gate: every policy in
//! `tests/golden/replay_miss_counts.tsv` — built purely from its registry
//! spec string — must reproduce the recorded LLC miss count exactly.
//!
//! The fixture was generated by `examples/golden_gen.rs` *before* the
//! data-plane/policy-plane refactor, so this test is the proof that the
//! metadata-plane port and the registry construction path are
//! bit-identical to the original per-policy implementations. Regenerate
//! the fixture (same example) only for intentional behaviour changes.

use sdbp_suite::cache::recorder::{record, InstrKind, InstrRecord, LlcAccess, RecordedWorkload};
use sdbp_suite::cache::replay::replay;
use sdbp_suite::cache::{Cache, CacheConfig};
use sdbp_suite::cpu::CoreModel;
use sdbp_suite::sdbp::registry::standard;
use std::collections::BTreeMap;

const FIXTURE: &str = include_str!("golden/replay_miss_counts.tsv");

struct Row {
    workload: String,
    instructions: u64,
    sets: usize,
    ways: usize,
    spec: String,
    misses: u64,
}

fn rows() -> Vec<Row> {
    FIXTURE
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|line| {
            let f: Vec<&str> = line.split('\t').collect();
            assert_eq!(f.len(), 6, "malformed fixture line: {line:?}");
            Row {
                workload: f[0].to_owned(),
                instructions: f[1].parse().expect("instructions"),
                sets: f[2].parse().expect("sets"),
                ways: f[3].parse().expect("ways"),
                spec: f[4].to_owned(),
                misses: f[5].parse().expect("misses"),
            }
        })
        .collect()
}

#[test]
fn every_golden_spec_replays_to_the_recorded_miss_count() {
    let rows = rows();
    assert_eq!(rows.len(), 60, "fixture shape changed — regenerate deliberately");

    // One recording per (workload, instructions); replays share it.
    let mut recordings: BTreeMap<(String, u64), RecordedWorkload> = BTreeMap::new();
    let registry = standard();
    let mut failures = Vec::new();
    for row in &rows {
        let key = (row.workload.clone(), row.instructions);
        let w = recordings.entry(key).or_insert_with(|| {
            let bench =
                sdbp_suite::workloads::benchmark(&row.workload).expect("workload in suite");
            record(bench.name, bench.trace(), row.instructions)
        });
        let llc = CacheConfig::new(row.sets, row.ways);
        let policy = registry
            .build_str(&row.spec, llc, 1)
            .unwrap_or_else(|e| panic!("golden spec {:?} must build: {e}", row.spec));
        let mut cache = Cache::with_policy(llc, policy);
        let misses = replay(&w.llc, &mut cache).stats.misses;
        if misses != row.misses {
            failures.push(format!(
                "{} {}x{} {}: expected {} misses, got {misses}",
                row.workload, row.sets, row.ways, row.spec, row.misses
            ));
        }
    }
    assert!(failures.is_empty(), "golden drift:\n{}", failures.join("\n"));
}

/// Golden rows must survive the archival pipeline unchanged: record the
/// workload to a v1 `.sdbt`, convert it to the columnar v2 layout,
/// batch-decode the converted file through `BufferedTrace`, and the
/// replayed miss counts must equal the fixture bit for bit. This is the
/// acceptance gate for the v2 trace plane (DESIGN.md §14): a converted
/// trace is the *same* workload, not a similar one.
#[test]
fn golden_rows_replay_identically_through_a_v2_converted_trace() {
    use sdbp_suite::cache::recorder::try_record_batches;
    use sdbp_suite::traceio::{convert_path, BufferedTrace, TraceMeta, TraceWriter, FORMAT_V2};

    let rows = rows();
    let registry = standard();
    let dir = std::env::temp_dir();

    // One v1 recording + v2 conversion per (workload, instructions);
    // replays share the batch-decoded workload.
    let mut recordings: BTreeMap<(String, u64), RecordedWorkload> = BTreeMap::new();
    let mut checked = 0usize;
    let mut failures = Vec::new();
    for row in &rows {
        let key = (row.workload.clone(), row.instructions);
        let w = recordings.entry(key).or_insert_with(|| {
            let bench =
                sdbp_suite::workloads::benchmark(&row.workload).expect("workload in suite");
            let v1 = dir.join(format!(
                "sdbp-golden-v2-{}-{}-{}.v1.sdbt",
                std::process::id(),
                row.workload,
                row.instructions
            ));
            let v2 = v1.with_extension("v2.sdbt");
            let meta = TraceMeta::new(bench.name, bench.stream_seed(0));
            let mut writer = TraceWriter::create(&v1, meta).expect("write v1 golden trace");
            writer
                .write_all(bench.trace().take(row.instructions as usize))
                .expect("archive golden workload");
            writer.finish().expect("finish v1 golden trace");
            convert_path(&v1, &v2, FORMAT_V2).expect("convert golden trace to v2");
            let buffered = BufferedTrace::load(&v2).expect("load v2 golden trace");
            let mut batches = buffered.batches();
            let recorded =
                try_record_batches(bench.name, &mut batches, row.instructions, 0)
                    .expect("record from v2 batches");
            std::fs::remove_file(&v1).ok();
            std::fs::remove_file(&v2).ok();
            recorded
        });
        let llc = CacheConfig::new(row.sets, row.ways);
        let policy = registry
            .build_str(&row.spec, llc, 1)
            .unwrap_or_else(|e| panic!("golden spec {:?} must build: {e}", row.spec));
        let misses = replay(&w.llc, &mut Cache::with_policy(llc, policy)).stats.misses;
        checked += 1;
        if misses != row.misses {
            failures.push(format!(
                "{} {}x{} {}: expected {} misses via v2 trace, got {misses}",
                row.workload, row.sets, row.ways, row.spec, row.misses
            ));
        }
    }
    // The batched recorder must also reproduce the pinned recordings.
    for f in timing_rows("record") {
        let w = &recordings[&(f[1].to_owned(), f[2].parse().expect("instructions"))];
        let got = [
            format!("{:016x}", records_digest(&w.records)),
            format!("{:016x}", llc_digest(&w.llc)),
        ];
        if got[..] != [f[4], f[6]] {
            let want = [f[4], f[6]];
            failures.push(format!("record {} via v2 trace: expected {want:?}, got {got:?}", f[1]));
        }
    }
    assert!(failures.is_empty(), "v2 trace drift:\n{}", failures.join("\n"));
    assert!(checked >= 10, "only {checked} golden rows exercised the v2 path");
}

const FULL_FIXTURE: &str = include_str!("golden/replay_full_stats.tsv");

/// FNV-1a over the hit map, one byte (0 or 1) per access — the digest
/// `examples/golden_gen.rs` writes.
fn hit_digest(hits: &sdbp_suite::cache::HitMap) -> u64 {
    fnv1a(hits.iter().map(u8::from))
}

/// The full-stats gate: every golden row must reproduce *every*
/// `CacheStats` counter (hits, bypasses, fills, evictions, writebacks,
/// predictions, dead predictions, false positives) and the per-access hit
/// map bit for bit. The miss-count gate above cannot see a change that
/// trades a hit for a bypass or drops a writeback; this one can.
#[test]
fn every_golden_row_reproduces_its_full_stats_and_hit_map() {
    let rows: Vec<Vec<&str>> = FULL_FIXTURE
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|line| line.split('\t').collect())
        .collect();
    assert_eq!(rows.len(), 60, "fixture shape changed — regenerate deliberately");

    let mut recordings: BTreeMap<(String, u64), RecordedWorkload> = BTreeMap::new();
    let registry = standard();
    let mut failures = Vec::new();
    for f in &rows {
        assert_eq!(f.len(), 16, "malformed full-stats line: {f:?}");
        let num = |i: usize| -> u64 { f[i].parse().expect("numeric field") };
        let instructions = num(1);
        let w = recordings.entry((f[0].to_owned(), instructions)).or_insert_with(|| {
            let bench = sdbp_suite::workloads::benchmark(f[0]).expect("workload in suite");
            record(bench.name, bench.trace(), instructions)
        });
        let llc = CacheConfig::new(num(2) as usize, num(3) as usize);
        let policy = registry
            .build_str(f[4], llc, 1)
            .unwrap_or_else(|e| panic!("golden spec {:?} must build: {e}", f[4]));
        let r = replay(&w.llc, &mut Cache::with_policy(llc, policy));
        let s = &r.stats;
        let got = [
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
        ];
        let want: Vec<u64> = (5..15).map(num).collect();
        let digest = format!("{:016x}", hit_digest(&r.hits));
        if got[..] != want[..] || digest != f[15] {
            failures.push(format!(
                "{} {}x{} {}: expected {want:?} / {}, got {got:?} / {digest}",
                f[0], f[2], f[3], f[4], f[15]
            ));
        }
    }
    assert!(failures.is_empty(), "full-stats drift:\n{}", failures.join("\n"));
}

const TIMING_FIXTURE: &str = include_str!("golden/timing_and_min.tsv");

/// FNV-1a over a byte stream.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// FNV-1a over the records' packed bytes (service level in bits 0-1,
/// dependence in bit 2) — the digest `examples/golden_gen.rs` writes.
fn records_digest(records: &[InstrRecord]) -> u64 {
    fnv1a(records.iter().map(|r| {
        let kind = match r.kind() {
            InstrKind::NonMem => 0,
            InstrKind::L1Hit => 1,
            InstrKind::L2Hit => 2,
            InstrKind::Llc => 3,
        };
        kind | u8::from(r.dependent()) << 2
    }))
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

/// The rows of `timing_and_min.tsv` whose first field is `kind`, split
/// into fields.
fn timing_rows(kind: &str) -> Vec<Vec<&'static str>> {
    TIMING_FIXTURE
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|line| line.split('\t').collect::<Vec<_>>())
        .filter(|f| f[0] == kind)
        .collect()
}

/// The layers around the replay, pinned to values taken before their
/// data-first rewrite: the L1/L2 recorder (digests of the per-instruction
/// records and of the LLC stream), Belady MIN with and without bypass
/// (hits, misses, bypasses per workload and geometry), and the default
/// core model (cycles for every golden row's hit map). The replay gates
/// above see none of these: a timing model that drifts by one cycle, or
/// a MIN that breaks a tie the other way, would pass them.
#[test]
fn recording_min_and_timing_reproduce_the_pinned_fixture() {
    let (records, mins) = (timing_rows("record"), timing_rows("min"));
    let cycles = timing_rows("cycles");
    assert_eq!((records.len(), mins.len(), cycles.len()), (2, 6, 60), "fixture shape changed");

    let mut recordings: BTreeMap<(String, u64), RecordedWorkload> = BTreeMap::new();
    let mut recording = |workload: &str, instructions: &str| -> RecordedWorkload {
        let instructions: u64 = instructions.parse().expect("instructions");
        recordings
            .entry((workload.to_owned(), instructions))
            .or_insert_with(|| {
                let bench =
                    sdbp_suite::workloads::benchmark(workload).expect("workload in suite");
                record(bench.name, bench.trace(), instructions)
            })
            .clone()
    };
    let mut failures = Vec::new();
    for f in &records {
        assert_eq!(f.len(), 7, "malformed record line: {f:?}");
        let w = recording(f[1], f[2]);
        let got = [
            w.records.len().to_string(),
            format!("{:016x}", records_digest(&w.records)),
            w.llc.len().to_string(),
            format!("{:016x}", llc_digest(&w.llc)),
        ];
        if got[..] != f[3..] {
            failures.push(format!("record {}: expected {:?}, got {got:?}", f[1], &f[3..]));
        }
    }
    for f in &mins {
        assert_eq!(f.len(), 9, "malformed min line: {f:?}");
        let w = recording(f[1], f[2]);
        let llc = CacheConfig::new(f[3].parse().expect("sets"), f[4].parse().expect("ways"));
        let r = match f[5] {
            "bypass" => sdbp_suite::optimal::simulate(&w.llc, llc),
            "no-bypass" => sdbp_suite::optimal::simulate_no_bypass(&w.llc, llc),
            other => panic!("unknown MIN variant {other:?}"),
        };
        let got = [r.hits.to_string(), r.misses.to_string(), r.bypasses.to_string()];
        if got[..] != f[6..] {
            let want = &f[6..];
            failures.push(format!(
                "min {} {}x{} {}: expected {want:?}, got {got:?}",
                f[1], f[3], f[4], f[5]
            ));
        }
    }
    let registry = standard();
    for f in &cycles {
        assert_eq!(f.len(), 7, "malformed cycles line: {f:?}");
        let w = recording(f[1], f[2]);
        let llc = CacheConfig::new(f[3].parse().expect("sets"), f[4].parse().expect("ways"));
        let policy = registry
            .build_str(f[5], llc, 1)
            .unwrap_or_else(|e| panic!("golden spec {:?} must build: {e}", f[5]));
        let r = replay(&w.llc, &mut Cache::with_policy(llc, policy));
        let got = CoreModel::default().simulate(&w.records, &r.hits).cycles.to_string();
        if got != f[6] {
            failures.push(format!(
                "cycles {} {}x{} {}: expected {}, got {got}",
                f[1], f[3], f[4], f[5], f[6]
            ));
        }
    }
    assert!(failures.is_empty(), "timing/MIN drift:\n{}", failures.join("\n"));
}
