//! `replay-refactor-bench` — before/after throughput record for the
//! measurement-plane refactor.
//!
//! Replays one fixed-seed synthetic LLC stream (10M accesses by default)
//! against registry-built policies twice per policy:
//!
//! * **before** — the pre-refactor collection, reconstructed as a probe
//!   on the one replay loop ([`Cache::run`]): one `Vec<bool>` element
//!   pushed per access;
//! * **after** — [`sdbp_cache::replay::replay`], which packs outcomes
//!   into the [`sdbp_cache::HitMap`] bitset (64 outcomes per word).
//!
//! Both paths drive the identical `Cache`, and the run asserts their miss
//! counts and per-access outcomes agree bit for bit before reporting
//! accesses/second, so the numbers compare the collection paths and
//! nothing else. Results go to `BENCH_replay_refactor.json`.
//!
//! ```text
//! replay-refactor-bench
//! replay-refactor-bench --output target/BENCH_replay_refactor.json
//! SDBP_REPLAY_BENCH_ACCESSES=1000000 replay-refactor-bench   # CI sizing
//! ```

use sdbp::registry::standard;
use sdbp_cache::recorder::LlcAccess;
use sdbp_cache::replay::{replay, ReplayProbe};
use sdbp_cache::{Cache, CacheConfig, CacheStats};
use sdbp_trace::rng::Rng64;
use sdbp_trace::{AccessKind, BlockAddr, Pc};
use std::fmt::Write as _;
use std::time::Instant;

/// Stream length; `SDBP_REPLAY_BENCH_ACCESSES` overrides.
const ACCESSES: u64 = 10_000_000;

/// Policies compared, by registry spec.
const SPECS: &[&str] = &["lru", "rrip", "sampler"];

/// A fixed-seed LLC stream: a hot set with a streaming background, so
/// every policy sees a realistic hit/miss mix.
fn synthetic_stream(accesses: u64) -> Vec<LlcAccess> {
    let mut rng = Rng64::seed_from_u64(0xbe9c);
    let mut stream = Vec::with_capacity(accesses as usize);
    for i in 0..accesses {
        let block = if rng.gen_range(0u64..10) < 6 {
            rng.gen_range(0u64..4096) // hot set, ~16 MB at 64 B lines
        } else {
            0x10_0000 + rng.gen_range(0u64..(1 << 22)) // streaming background
        };
        let pc = 0x400_000 + rng.gen_range(0u64..512) * 4;
        let kind =
            if rng.gen_range(0u64..4) == 0 { AccessKind::Write } else { AccessKind::Read };
        stream.push(LlcAccess {
            pc: Pc::new(pc),
            block: BlockAddr::new(block),
            kind,
            core: 0,
            instr: i as u32,
        });
    }
    stream
}

/// Collects outcomes the way the pre-refactor loop did: unpacked booleans.
struct Unpacked(Vec<bool>);

impl ReplayProbe for Unpacked {
    fn on_access(&mut self, _index: usize, hit: bool) {
        self.0.push(hit);
    }
}

/// The pre-refactor collection, driven through the one replay loop.
fn replay_legacy(stream: &[LlcAccess], cache: &mut Cache) -> (CacheStats, Vec<bool>) {
    let mut hits = Unpacked(Vec::with_capacity(stream.len()));
    cache.run(stream, None, Some(&mut hits));
    cache.finish();
    (cache.stats(), hits.0)
}

struct PolicyReport {
    spec: &'static str,
    misses: u64,
    before_s: f64,
    after_s: f64,
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut output = String::from("BENCH_replay_refactor.json");
    let i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--output" => {
                output = args.get(i + 1).cloned().unwrap_or_else(|| {
                    eprintln!("--output needs a file path");
                    std::process::exit(2);
                });
                args.drain(i..=i + 1);
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }

    let accesses = std::env::var("SDBP_REPLAY_BENCH_ACCESSES")
        .ok()
        .and_then(|s| s.replace('_', "").parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(ACCESSES);
    let stream = synthetic_stream(accesses);
    let llc = CacheConfig::llc_2mb();
    let registry = standard();

    let mut reports = Vec::new();
    for spec in SPECS {
        let build = || {
            Cache::with_policy(llc, registry.build_str(spec, llc, 1).expect("bench spec"))
        };

        let started = Instant::now();
        let (legacy_stats, legacy_hits) = replay_legacy(&stream, &mut build());
        let before_s = started.elapsed().as_secs_f64();

        let started = Instant::now();
        let result = replay(&stream, &mut build());
        let after_s = started.elapsed().as_secs_f64();

        assert_eq!(legacy_stats.misses, result.stats.misses, "{spec}: paths diverge");
        assert!(
            legacy_hits.iter().copied().eq(result.hits.iter()),
            "{spec}: per-access outcomes diverge"
        );
        reports.push(PolicyReport {
            spec,
            misses: result.stats.misses,
            before_s,
            after_s,
        });
    }

    let per = |s: f64| if s > 0.0 { accesses as f64 / s } else { 0.0 };
    let mut policies_json = String::new();
    for (i, r) in reports.iter().enumerate() {
        // sdbp-allow(result-discipline): fmt::Write into a String is infallible
        let _ = write!(
            policies_json,
            "    {{\n      \"spec\": \"{}\",\n      \"misses\": {},\n      \
             \"before\": {{\n        \"elapsed_s\": {:.6},\n        \
             \"accesses_per_sec\": {:.1}\n      }},\n      \
             \"after\": {{\n        \"elapsed_s\": {:.6},\n        \
             \"accesses_per_sec\": {:.1}\n      }},\n      \
             \"identical_outcomes\": true\n    }}{}\n",
            r.spec,
            r.misses,
            r.before_s,
            per(r.before_s),
            r.after_s,
            per(r.after_s),
            if i + 1 < reports.len() { "," } else { "" },
        );
    }
    let json = format!(
        "{{\n  \"schema\": \"sdbp-bench/v1\",\n  \"name\": \"replay_refactor\",\n  \
         \"accesses\": {accesses},\n  \"llc\": \"2MB 2048x16\",\n  \
         \"policies\": [\n{policies_json}  ]\n}}\n",
    );
    if let Some(parent) = std::path::Path::new(&output).parent() {
        if !parent.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(parent) {
                eprintln!("cannot create {}: {e}", parent.display());
                std::process::exit(1);
            }
        }
    }
    if let Err(e) = std::fs::write(&output, &json) {
        eprintln!("cannot write {output}: {e}");
        std::process::exit(1);
    }
    for r in &reports {
        println!(
            "{}: before {:.2}s ({:.0} acc/s), after {:.2}s ({:.0} acc/s), misses={}",
            r.spec,
            r.before_s,
            per(r.before_s),
            r.after_s,
            per(r.after_s),
            r.misses
        );
    }
    println!("wrote {output}");
}
