//! A guided tour of the sampling predictor's internals: drive the sampler
//! and skewed tables directly and watch a kill-PC get learned, then compare
//! the decoupled sampler against the reference-trace predictor on an
//! ambiguous access pattern.
//!
//! Run with: `cargo run --release --example predictor_anatomy`

use sdbp_suite::cache::CacheConfig;
use sdbp_suite::predictors::predictor::DeadBlockPredictor;
use sdbp_suite::predictors::RefTrace;
use sdbp_suite::sdbp::config::{SamplerConfig, TableConfig};
use sdbp_suite::sdbp::{Sampler, SkewedTables};
use sdbp_suite::trace::{AccessKind, BlockAddr, Pc};

fn main() {
    // --- Part 1: the sampler learns a kill PC from a handful of sets. ---
    let mut tables = SkewedTables::new(TableConfig::skewed());
    // Plain-LRU sampler victims here so each round's kill-block eviction is
    // visible in order (the paper's default prefers predicted-dead victims).
    let mut sampler = Sampler::new(
        SamplerConfig { dead_block_victims: false, ..SamplerConfig::default() },
        2048,
    );
    let kill = Pc::new(0x4000);
    let filler_a = Pc::new(0x5000);
    let filler_b = Pc::new(0x5004);
    let sig = (kill.raw() >> 2) & 0x7fff;

    println!("confidence of the kill PC as the sampler observes deaths:");
    for round in 0..6u64 {
        // A block is touched once by `kill`, then two fresh tags push it
        // out of the (12-way) sampler set: a death is observed.
        let base = round * 300;
        sampler.access(0, BlockAddr::new((base + 1) << 11), kill, &mut tables);
        for i in 0..12 {
            sampler.access(
                0,
                BlockAddr::new((base + 2 + i) << 11),
                if i % 2 == 0 { filler_a } else { filler_b },
                &mut tables,
            );
        }
        println!(
            "  after {} deaths: confidence {}/9, predicted dead: {}",
            round + 1,
            tables.confidence(sig),
            tables.predict(sig)
        );
    }

    // --- Part 2: ambiguity — sampler abstains where reftrace guesses. ---
    // The same last-touch PC kills 55% of blocks and precedes more reuse
    // for the other 45%.
    let llc = CacheConfig::llc_2mb();
    let mut reftrace = RefTrace::new(llc);
    let mut tables2 = SkewedTables::new(TableConfig::skewed());
    let mut sampler2 = Sampler::new(SamplerConfig::default(), llc.sets);
    let ambiguous = Pc::new(0x8000);
    let next = Pc::new(0x8004);
    let amb_sig = (ambiguous.raw() >> 2) & 0x7fff;

    let mut dead_guesses_reftrace = 0;
    let mut dead_guesses_sampler = 0;
    let trials = 1000;
    for i in 0..trials as u64 {
        let block = BlockAddr::new((10_000 + i * 16) << 11);
        let dies = i % 20 < 11; // 55% die after `ambiguous` touches them
        // Reftrace sees the block's life directly (line 0 reused for brevity).
        let a = sdbp_suite::cache::LlcAccess::demand(ambiguous, block, AccessKind::Read, 0);
        reftrace.on_fill(0, 0, &a);
        if dies {
            reftrace.on_evict(0, 0, block, &a);
        } else {
            let b = sdbp_suite::cache::LlcAccess::demand(next, block, AccessKind::Read, 0);
            reftrace.on_hit(0, 0, &b);
            reftrace.on_evict(0, 0, block, &b);
        }
        dead_guesses_reftrace += usize::from(reftrace.on_miss(0, &a));

        // The sampler sees the same behaviour through its tag array.
        sampler2.access(0, block, ambiguous, &mut tables2);
        if !dies {
            sampler2.access(0, block, next, &mut tables2);
        }
        for j in 0..12u64 {
            sampler2.access(
                0,
                BlockAddr::new((900_000 + i * 64 + j) << 11),
                filler_a,
                &mut tables2,
            );
        }
        dead_guesses_sampler += usize::from(tables2.predict(amb_sig));
    }
    println!("\nambiguous PC (55% of its blocks die):");
    println!(
        "  reftrace guessed dead on {:.0}% of fills (threshold: any observed death)",
        100.0 * dead_guesses_reftrace as f64 / trials as f64
    );
    println!(
        "  sampler  guessed dead on {:.0}% of fills (threshold: 8 of 9 confidence)",
        100.0 * dead_guesses_sampler as f64 / trials as f64
    );
    println!("\nThe high threshold plus decoupled training is why the paper's");
    println!("predictor keeps false positives at 3% where reftrace pays 20%.");
}
