//! Property-style tests for the replacement policies, driven by the
//! in-repo deterministic RNG (fixed seeds, exact reproduction, offline
//! build).

use sdbp_cache::recorder::LlcAccess;
use sdbp_cache::{Cache, CacheConfig};
use sdbp_replacement::{Dip, Drrip, DuelingMap, Psel, PseudoLru, Random, Role, Srrip, Tadip};
use sdbp_trace::rng::Rng64;
use sdbp_trace::{AccessKind, BlockAddr, Pc};

const CASES: u64 = 48;

fn policies(cfg: CacheConfig, cores: usize) -> Vec<Cache> {
    vec![
        Cache::with_policy(cfg, Box::new(Random::new(cfg, 1))),
        Cache::with_policy(cfg, Box::new(Dip::new(cfg, 1))),
        Cache::with_policy(cfg, Box::new(Tadip::new(cfg, cores, 1))),
        Cache::with_policy(cfg, Box::new(Srrip::new(cfg))),
        Cache::with_policy(cfg, Box::new(Drrip::new(cfg, cores, 1))),
        Cache::with_policy(cfg, Box::new(PseudoLru::new(cfg))),
    ]
}

/// Every policy fills invalid ways before evicting valid blocks: the
/// eviction count never exceeds accesses minus capacity.
#[test]
fn no_policy_evicts_while_holes_remain() {
    let mut rng = Rng64::seed_from_u64(0x9e9_0001);
    for _ in 0..CASES {
        let blocks: Vec<u64> =
            (0..rng.gen_range(1usize..400)).map(|_| rng.gen_range(0u64..10_000)).collect();
        let cores = rng.gen_range(1usize..5);
        let cfg = CacheConfig::new(8, 4);
        for mut cache in policies(cfg, cores) {
            for (i, &b) in blocks.iter().enumerate() {
                cache.access(&LlcAccess::demand(
                    Pc::new(0x400),
                    BlockAddr::new(b),
                    AccessKind::Read,
                    (i % cores) as u8,
                ));
            }
            let s = cache.stats();
            assert_eq!(s.fills, s.misses); // none of these bypass
            assert!(s.evictions <= s.fills);
            assert!(
                s.evictions + (cfg.lines() as u64) >= s.fills,
                "more evictions than fills beyond capacity"
            );
        }
    }
}

/// PSEL stays within its bit-width range under arbitrary updates.
#[test]
fn psel_stays_in_range() {
    let mut rng = Rng64::seed_from_u64(0x9e9_0002);
    for _ in 0..CASES {
        let bits = rng.gen_range(1u32..12);
        let mut p = Psel::new(bits);
        let max = (1u32 << bits) - 1;
        for _ in 0..rng.gen_range(0usize..300) {
            if rng.gen_bool(0.5) {
                p.baseline_missed();
            } else {
                p.challenger_missed();
            }
            assert!(p.value() <= max);
        }
    }
}

/// Leader roles partition the sets: for each core, exactly
/// `leaders_per_policy` sets lead each policy and no set leads twice.
#[test]
fn dueling_map_partitions_sets() {
    let mut rng = Rng64::seed_from_u64(0x9e9_0003);
    let mut checked = 0;
    while checked < CASES {
        let sets = 1usize << rng.gen_range(6u32..12);
        let cores = rng.gen_range(1usize..5);
        let leaders = 1usize << rng.gen_range(0u32..5);
        if sets / leaders < 2 * cores {
            continue; // mirror the old prop_assume! filter
        }
        checked += 1;
        let m = DuelingMap::new(sets, cores, leaders);
        for core in 0..cores {
            let base = (0..sets).filter(|&s| m.role(s, core) == Role::LeaderBaseline).count();
            let chal = (0..sets).filter(|&s| m.role(s, core) == Role::LeaderChallenger).count();
            assert_eq!(base, leaders);
            assert_eq!(chal, leaders);
        }
    }
}

/// PLRU victims are always valid ways and never the way just touched.
#[test]
fn plru_victim_is_sane() {
    use sdbp_cache::policy::{ReplacementPolicy, Victim};
    let mut rng = Rng64::seed_from_u64(0x9e9_0004);
    for _ in 0..CASES {
        let touches: Vec<usize> =
            (0..rng.gen_range(1usize..200)).map(|_| rng.gen_range(0usize..8)).collect();
        let cfg = CacheConfig::new(1, 8);
        let mut p = PseudoLru::new(cfg);
        let a = LlcAccess::demand(Pc::new(0), BlockAddr::new(0), AccessKind::Read, 0);
        for w in 0..8 {
            p.on_fill(0, w, &a);
        }
        for &t in &touches {
            p.on_hit(0, t, &a);
            match p.choose_victim(0, None, &a) {
                Victim::Way(w) => {
                    assert!(w < 8);
                    assert_ne!(w, t, "PLRU chose the way just touched");
                }
                Victim::Bypass => panic!("PLRU never bypasses"),
            }
        }
    }
}

/// All policies are deterministic across identical runs.
#[test]
fn policies_are_deterministic() {
    let mut rng = Rng64::seed_from_u64(0x9e9_0005);
    for _ in 0..CASES {
        let blocks: Vec<u64> =
            (0..rng.gen_range(1usize..300)).map(|_| rng.gen_range(0u64..2000)).collect();
        let cores = rng.gen_range(1usize..3);
        let cfg = CacheConfig::new(8, 4);
        let run = |mut cache: Cache| {
            blocks
                .iter()
                .enumerate()
                .map(|(i, &b)| {
                    cache
                        .access(&LlcAccess::demand(
                            Pc::new(0x400),
                            BlockAddr::new(b),
                            AccessKind::Read,
                            (i % cores) as u8,
                        ))
                        .is_hit()
                })
                .collect::<Vec<_>>()
        };
        let first: Vec<Vec<bool>> = policies(cfg, cores).into_iter().map(run).collect();
        let second: Vec<Vec<bool>> = policies(cfg, cores).into_iter().map(run).collect();
        assert_eq!(first, second);
    }
}
