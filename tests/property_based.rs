//! Property-style tests over the core invariants, driven by the in-repo
//! deterministic RNG (fixed seeds, exact reproduction, offline build).

use sdbp_suite::cache::recorder::LlcAccess;
use sdbp_suite::cache::{Cache, CacheConfig, HitMap};
use sdbp_suite::harness::runner::PolicyKind;
use sdbp_suite::optimal;
use sdbp_suite::trace::rng::Rng64;
use sdbp_suite::trace::{AccessKind, BlockAddr, Pc};

const CASES: u64 = 48;

/// A compact random access stream: (pc index, block, is_write).
fn random_stream(rng: &mut Rng64, max_len: usize) -> Vec<(u8, u16, bool)> {
    (0..rng.gen_range(1usize..max_len))
        .map(|_| (rng.next_u64() as u8, rng.gen_range(0u64..2048) as u16, rng.gen_bool(0.5)))
        .collect()
}

fn to_accesses(raw: &[(u8, u16, bool)]) -> Vec<LlcAccess> {
    raw.iter()
        .map(|&(pc, block, w)| {
            LlcAccess::demand(
                Pc::new(0x400 + u64::from(pc) * 4),
                BlockAddr::new(u64::from(block)),
                if w { AccessKind::Write } else { AccessKind::Read },
                0,
            )
        })
        .collect()
}

fn to_llc_stream(raw: &[(u8, u16, bool)]) -> Vec<LlcAccess> {
    raw.iter()
        .enumerate()
        .map(|(i, &(pc, block, w))| LlcAccess {
            pc: Pc::new(0x400 + u64::from(pc) * 4),
            block: BlockAddr::new(u64::from(block)),
            kind: if w { AccessKind::Write } else { AccessKind::Read },
            core: 0,
            instr: i as u32,
        })
        .collect()
}

fn policy_set() -> Vec<PolicyKind> {
    let mut kinds = vec![PolicyKind::Lru];
    kinds.extend(PolicyKind::lru_comparison());
    kinds.extend(PolicyKind::random_comparison());
    kinds
}

/// Counter bookkeeping holds for every policy on any stream.
#[test]
fn stats_are_consistent_for_all_policies() {
    let mut rng = Rng64::seed_from_u64(0x5017_0001);
    for _ in 0..CASES {
        let raw = random_stream(&mut rng, 600);
        let cfg = CacheConfig::new(16, 4);
        let accesses = to_accesses(&raw);
        for policy in policy_set() {
            let mut cache = Cache::with_policy(cfg, policy.build(cfg, 1));
            for a in &accesses {
                cache.access(a);
            }
            let s = cache.stats();
            assert_eq!(s.accesses, accesses.len() as u64);
            assert_eq!(s.hits + s.misses, s.accesses);
            assert_eq!(s.fills + s.bypasses, s.misses);
            assert!(s.evictions <= s.fills);
            assert!(s.writebacks <= s.evictions);
        }
    }
}

/// A cache never reports a hit for a block it has not filled since the
/// block's last eviction (checked via a reference model).
#[test]
fn hits_match_reference_residency_model() {
    let mut rng = Rng64::seed_from_u64(0x5017_0002);
    for _ in 0..CASES {
        let raw = random_stream(&mut rng, 600);
        let cfg = CacheConfig::new(8, 4);
        let accesses = to_accesses(&raw);
        for policy in policy_set() {
            let mut cache = Cache::with_policy(cfg, policy.build(cfg, 1));
            let mut resident: std::collections::HashSet<u64> = Default::default();
            for a in &accesses {
                let outcome = cache.access(a);
                match outcome {
                    sdbp_suite::cache::AccessOutcome::Hit => {
                        assert!(
                            resident.contains(&a.block.raw()),
                            "{}: phantom hit",
                            policy.label()
                        );
                    }
                    sdbp_suite::cache::AccessOutcome::Filled { evicted } => {
                        if let Some(v) = evicted {
                            resident.remove(&v.raw());
                        }
                        resident.insert(a.block.raw());
                    }
                    sdbp_suite::cache::AccessOutcome::Bypassed => {
                        assert!(
                            !resident.contains(&a.block.raw()),
                            "{}: bypassed a resident block",
                            policy.label()
                        );
                    }
                }
            }
        }
    }
}

/// Belady MIN with bypass never misses more than LRU, and its next-use
/// links are sound.
#[test]
fn min_is_optimal_and_next_use_links_sound() {
    let mut rng = Rng64::seed_from_u64(0x5017_0003);
    for _ in 0..CASES {
        let raw = random_stream(&mut rng, 800);
        let cfg = CacheConfig::new(8, 2);
        let stream = to_llc_stream(&raw);
        let next = optimal::next_use_distances(&stream);
        for (i, &n) in next.iter().enumerate() {
            if n != optimal::NEVER {
                let n = n as usize;
                assert!(n > i);
                assert_eq!(stream[n].block, stream[i].block);
                // No intermediate access to the same block.
                for a in &stream[i + 1..n] {
                    assert_ne!(a.block, stream[i].block);
                }
            }
        }
        let min = optimal::simulate(&stream, cfg);
        let mut lru = Cache::new(cfg);
        let lru_result = sdbp_suite::cache::replay(&stream, &mut lru);
        assert!(min.misses <= lru_result.stats.misses);
        assert_eq!(min.hits + min.misses, stream.len() as u64);
    }
}

/// The LRU stack property: with the same set count, a higher-
/// associativity LRU cache hits on a superset of accesses.
#[test]
fn lru_inclusion_across_associativities() {
    let mut rng = Rng64::seed_from_u64(0x5017_0004);
    for _ in 0..CASES {
        let raw = random_stream(&mut rng, 800);
        let stream = to_llc_stream(&raw);
        let mut small = Cache::new(CacheConfig::new(8, 2));
        let mut large = Cache::new(CacheConfig::new(8, 8));
        let rs = sdbp_suite::cache::replay(&stream, &mut small);
        let rl = sdbp_suite::cache::replay(&stream, &mut large);
        for (s, l) in rs.hits.iter().zip(rl.hits.iter()) {
            assert!(!s | l, "small-cache hit missing from large cache");
        }
    }
}

/// The timing model is monotone: turning misses into hits never increases
/// cycles.
#[test]
fn timing_is_monotone_in_hits() {
    use sdbp_suite::cache::recorder::{InstrKind, InstrRecord};
    use sdbp_suite::cpu::CoreModel;
    let mut rng = Rng64::seed_from_u64(0x5017_0005);
    for _ in 0..CASES {
        let kinds: Vec<u8> =
            (0..rng.gen_range(1usize..400)).map(|_| rng.gen_range(0u64..4) as u8).collect();
        let flip = rng.next_u64() as u16;
        let records: Vec<InstrRecord> = kinds
            .iter()
            .map(|&k| {
                let kind = match k {
                    0 => InstrKind::NonMem,
                    1 => InstrKind::L1Hit,
                    2 => InstrKind::L2Hit,
                    _ => InstrKind::Llc,
                };
                InstrRecord::new(kind, false)
            })
            .collect();
        let llc_count = records.iter().filter(|r| r.kind() == InstrKind::Llc).count();
        let mut hit_bools = vec![false; llc_count];
        let all_miss: HitMap = hit_bools.iter().copied().collect();
        if llc_count > 0 {
            let idx = flip as usize % llc_count;
            hit_bools[idx] = true;
        }
        let one_hit: HitMap = hit_bools.into_iter().collect();
        let model = CoreModel::default();
        let miss_cycles = model.simulate(&records, &all_miss).cycles;
        let hit_cycles = model.simulate(&records, &one_hit).cycles;
        assert!(hit_cycles <= miss_cycles);
    }
}

/// Replay determinism for every policy (seeded RNGs, no hidden state).
#[test]
fn replay_is_deterministic_for_all_policies() {
    let mut rng = Rng64::seed_from_u64(0x5017_0006);
    for _ in 0..CASES {
        let raw = random_stream(&mut rng, 400);
        let cfg = CacheConfig::new(16, 4);
        let stream = to_llc_stream(&raw);
        for policy in policy_set() {
            let mut a = Cache::with_policy(cfg, policy.build(cfg, 1));
            let mut b = Cache::with_policy(cfg, policy.build(cfg, 1));
            let ra = sdbp_suite::cache::replay(&stream, &mut a);
            let rb = sdbp_suite::cache::replay(&stream, &mut b);
            assert_eq!(&ra, &rb, "{} not deterministic", policy.label());
        }
    }
}

/// A plain reference model written straight from DESIGN.md §2: true LRU
/// as per-set recency lists, and the paper's SDBP — a 32-set, 12-way
/// LRU sampler of 15-bit partial tags and PCs training three skewed
/// tables of 2-bit counters (dead when the sum reaches 8), driving
/// dead-block replacement and bypass over LRU. No `MetaPlane`, no
/// registry, no way numbers: every set is a list ordered most- to
/// least-recently used. The optimized kernel must agree with it access by
/// access.
mod reference {
    use sdbp_suite::predictors::hash::skewed_hash;
    use std::collections::HashMap;

    const PARTIAL_BITS: u32 = 15;
    const TABLES: u32 = 3;
    const TABLE_BITS: u32 = 12;
    const COUNTER_MAX: u8 = 3;
    const THRESHOLD: u32 = 8;
    const SAMPLER_SETS: usize = 32;
    const SAMPLER_WAYS: usize = 12;

    fn partial(x: u64) -> u64 {
        x & ((1 << PARTIAL_BITS) - 1)
    }

    /// True LRU: each set is a list of blocks, most recent first.
    pub struct TrueLru {
        ways: usize,
        sets: Vec<Vec<u64>>,
    }

    impl TrueLru {
        pub fn new(sets: usize, ways: usize) -> Self {
            TrueLru { ways, sets: vec![Vec::new(); sets] }
        }

        /// Presents one access; returns whether it hit.
        pub fn access(&mut self, block: u64) -> bool {
            let sets = self.sets.len() as u64;
            let row = &mut self.sets[(block % sets) as usize];
            let hit = match row.iter().position(|&b| b == block) {
                Some(i) => {
                    row.remove(i);
                    true
                }
                None => {
                    if row.len() == self.ways {
                        row.pop();
                    }
                    false
                }
            };
            row.insert(0, block);
            hit
        }
    }

    /// One resident LLC block and its predicted-dead bit.
    struct Line {
        block: u64,
        dead: bool,
    }

    /// One sampler entry.
    struct Entry {
        tag: u64,
        pc: u64,
        dead: bool,
    }

    /// The paper's SDBP over LRU, with the coverage and false-positive
    /// accounting of §VII-C (a false positive is a hit on a block
    /// predicted dead, or a re-access within one cache's worth of
    /// accesses of a block that was bypassed or evicted as dead).
    pub struct PaperSdbp {
        ways: usize,
        sets: Vec<Vec<Line>>,
        sampler: Vec<Vec<Entry>>,
        stride: usize,
        tables: Vec<Vec<u8>>,
        clock: u64,
        left: HashMap<u64, u64>,
        pub predictions: u64,
        pub positives: u64,
        pub false_positives: u64,
    }

    impl PaperSdbp {
        pub fn new(sets: usize, ways: usize) -> Self {
            let sampler_sets = SAMPLER_SETS.min(sets);
            PaperSdbp {
                ways,
                sets: (0..sets).map(|_| Vec::new()).collect(),
                sampler: (0..sampler_sets).map(|_| Vec::new()).collect(),
                stride: sets / sampler_sets,
                tables: vec![vec![0; 1 << TABLE_BITS]; TABLES as usize],
                clock: 0,
                left: HashMap::new(),
                predictions: 0,
                positives: 0,
                false_positives: 0,
            }
        }

        fn predict(&self, pc: u64) -> bool {
            let sum: u32 = (0..TABLES)
                .map(|t| u32::from(self.tables[t as usize][skewed_hash(pc, t, TABLE_BITS)]))
                .sum();
            sum >= THRESHOLD
        }

        fn train(&mut self, pc: u64, dead: bool) {
            for t in 0..TABLES {
                let c = &mut self.tables[t as usize][skewed_hash(pc, t, TABLE_BITS)];
                *c = if dead { (*c + 1).min(COUNTER_MAX) } else { c.saturating_sub(1) };
            }
        }

        /// The sampler sees every access to a sampled set: a hit trains
        /// the entry's previous PC live, a miss evicts the LRU entry (or
        /// the predicted-dead entry closest to LRU) and trains its PC dead.
        fn sample(&mut self, set: usize, block: u64, pc: u64) {
            if !set.is_multiple_of(self.stride) || set / self.stride >= self.sampler.len() {
                return;
            }
            let s = set / self.stride;
            let tag = partial(block >> self.sets.len().trailing_zeros());
            let pc = partial(pc >> 2);
            if let Some(i) = self.sampler[s].iter().position(|e| e.tag == tag) {
                let prev = self.sampler[s].remove(i).pc;
                self.train(prev, false);
            } else if self.sampler[s].len() == SAMPLER_WAYS {
                let row = &self.sampler[s];
                let victim = row.iter().rposition(|e| e.dead).unwrap_or(row.len() - 1);
                let prev = self.sampler[s].remove(victim).pc;
                self.train(prev, true);
            }
            let dead = self.predict(pc);
            self.sampler[s].insert(0, Entry { tag, pc, dead });
        }

        /// Presents one access; returns whether it hit.
        pub fn access(&mut self, block: u64, pc: u64) -> bool {
            self.clock += 1;
            let set = (block % self.sets.len() as u64) as usize;
            let hit = self.sets[set].iter().position(|l| l.block == block);
            if hit.is_none() {
                if let Some(when) = self.left.remove(&block) {
                    let window = (self.sets.len() * self.ways) as u64;
                    self.false_positives += u64::from(self.clock - when <= window);
                }
            }
            self.sample(set, block, pc);
            let dead = self.predict(partial(pc >> 2));
            self.predictions += 1;
            self.positives += u64::from(dead);
            let row = &mut self.sets[set];
            match hit {
                Some(i) => {
                    let line = row.remove(i);
                    self.false_positives += u64::from(line.dead);
                    row.insert(0, Line { block, dead });
                }
                None if dead => {
                    self.left.insert(block, self.clock);
                }
                None => {
                    if row.len() == self.ways {
                        let victim = row.iter().rposition(|l| l.dead).unwrap_or(row.len() - 1);
                        let line = row.remove(victim);
                        if line.dead {
                            self.left.insert(line.block, self.clock);
                        }
                    }
                    row.insert(0, Line { block, dead: false });
                }
            }
            hit.is_some()
        }
    }
}

/// A stream with learnable structure: hot blocks reused by a few PCs,
/// one-touch streaming blocks from their own PCs, and random noise.
fn structured_stream(rng: &mut Rng64, len: usize) -> Vec<LlcAccess> {
    let mut next_stream = 1u64 << 20;
    (0..len)
        .map(|_| {
            let (pc, block) = match rng.gen_range(0u64..10) {
                0..=4 => (0x400 + 4 * rng.gen_range(0u64..4), rng.gen_range(0u64..192)),
                5..=7 => {
                    next_stream += 1;
                    (0x800 + 4 * rng.gen_range(0u64..2), next_stream)
                }
                _ => (0xc00 + 4 * rng.gen_range(0u64..64), rng.gen_range(0u64..4096)),
            };
            let kind = if rng.gen_bool(0.2) { AccessKind::Write } else { AccessKind::Read };
            LlcAccess::demand(Pc::new(pc), BlockAddr::new(block), kind, 0)
        })
        .collect()
}

/// Differential oracle for the replay kernel: `lru` and the paper's
/// `sampler`, built through the registry and replayed through the one
/// replay loop, must reproduce the reference model's hit map bit for bit
/// — and for SDBP also its coverage and false-positive counts — on
/// fixed-seed streams over varied geometries.
#[test]
fn kernel_matches_the_plain_reference_model() {
    use sdbp_suite::cache::replay::replay;
    let registry = sdbp_suite::sdbp::registry::standard();
    let mut rng = Rng64::seed_from_u64(0x5017_0007);
    for case in 0..CASES / 2 {
        let sets = 1usize << rng.gen_range(0u32..8);
        let ways = rng.gen_range(1usize..17);
        let cfg = CacheConfig::new(sets, ways);
        let stream = structured_stream(&mut rng, 3_000);

        let mut lru = reference::TrueLru::new(sets, ways);
        let want: HitMap = stream.iter().map(|a| lru.access(a.block.raw())).collect();
        let got = replay(&stream, &mut Cache::with_policy(cfg, registry.build_str("lru", cfg, 1).unwrap()));
        assert_eq!(got.hits, want, "case {case}: lru {sets}x{ways} diverged from true LRU");

        let mut sdbp = reference::PaperSdbp::new(sets, ways);
        let want: HitMap =
            stream.iter().map(|a| sdbp.access(a.block.raw(), a.pc.raw())).collect();
        let policy = registry.build_str("sampler", cfg, 1).unwrap();
        let got = replay(&stream, &mut Cache::with_policy(cfg, policy));
        assert_eq!(got.hits, want, "case {case}: sampler {sets}x{ways} hit map diverged");
        let s = &got.stats;
        assert_eq!(
            (s.predictions, s.predictions_dead, s.false_positives),
            (sdbp.predictions, sdbp.positives, sdbp.false_positives),
            "case {case}: sampler {sets}x{ways} predictor accounting diverged"
        );
        assert!(s.bypasses > 0 || sets * ways < 8, "case {case}: SDBP never bypassed");
    }
}
