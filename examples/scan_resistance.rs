//! Scenario: an in-memory database whose point-query index (hot, reusable)
//! shares the LLC with full-table analytic scans (one-shot, huge) — the
//! motivating workload for bypass. Compares LRU, DIP, RRIP and SDBP, with
//! a default-random variant demonstrating the paper's §V-A claim that the
//! sampler rescues even a randomly-replaced cache.
//!
//! Run with: `cargo run --release --example scan_resistance`

use sdbp_suite::cache::recorder::record;
use sdbp_suite::cache::replay::replay;
use sdbp_suite::cache::{Cache, CacheConfig, Policy};
use sdbp_suite::cpu::CoreModel;
use sdbp_suite::replacement::{Dip, Drrip};
use sdbp_suite::sdbp::policies;
use sdbp_suite::trace::kernel::KernelSpec;
use sdbp_suite::trace::TraceBuilder;

fn main() {
    // The "database": 1 MB of index pages queried continuously, 32 MB of
    // table pages scanned sequentially by analytics.
    let trace = TraceBuilder::new(7)
        .memory_fraction(0.4)
        .kernel(KernelSpec::hot_set(1 << 20).weight(1.5))
        .kernel(KernelSpec::streaming(32 << 20).weight(2.5))
        .build();
    let workload = record("db-scan", trace, 2_000_000);
    let llc = CacheConfig::llc_2mb();
    let n = workload.instructions();

    println!("policy            misses      MPKI     IPC   bypassed");
    println!("------------------------------------------------------");
    let mut baseline_misses = 0;
    let policies: Vec<(&str, Policy)> = vec![
        ("LRU", Policy::new(sdbp_suite::cache::policy::Lru::new(llc.sets, llc.ways))),
        ("DIP", Policy::new(Dip::new(llc, 1))),
        ("RRIP", Policy::new(Drrip::new(llc, 1, 1))),
        ("Sampler (LRU)", policies::sampler_lru(llc)),
        ("Sampler (random)", policies::sampler_random(llc)),
    ];
    for (name, policy) in policies {
        let mut cache = Cache::with_policy(llc, policy);
        let result = replay(&workload.llc, &mut cache);
        let ipc = CoreModel::default().simulate(&workload.records, &result.hits).ipc();
        if name == "LRU" {
            baseline_misses = result.misses();
        }
        println!(
            "{name:<16} {:8}  {:8.3}  {:6.3}  {:8}{}",
            result.misses(),
            result.mpki(n),
            ipc,
            result.stats.bypasses,
            if name != "LRU" && baseline_misses > 0 {
                format!(
                    "   ({:+.1}% misses vs LRU)",
                    (result.misses() as f64 / baseline_misses as f64 - 1.0) * 100.0
                )
            } else {
                String::new()
            }
        );
    }
    println!(
        "\nThe sampler learns the scan's fill PC is dead-on-arrival and \
         bypasses the table pages,\nkeeping the index resident — even when \
         the underlying replacement is random."
    );
}
