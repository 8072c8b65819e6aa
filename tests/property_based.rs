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

    /// The upper-level LRU tag array as first written: parallel tag,
    /// valid, dirty and stamp vectors, an early-exit lookup, and a fill
    /// that takes the first invalid way or else the smallest stamp.
    pub struct UpperLru {
        sets: usize,
        ways: usize,
        tags: Vec<u64>,
        valid: Vec<bool>,
        dirty: Vec<bool>,
        stamps: Vec<u64>,
        clock: u64,
        pub hits: u64,
        pub misses: u64,
    }

    impl UpperLru {
        pub fn new(sets: usize, ways: usize) -> Self {
            let n = sets * ways;
            UpperLru {
                sets,
                ways,
                tags: vec![0; n],
                valid: vec![false; n],
                dirty: vec![false; n],
                stamps: vec![0; n],
                clock: 0,
                hits: 0,
                misses: 0,
            }
        }

        fn base(&self, block: u64) -> usize {
            (block as usize & (self.sets - 1)) * self.ways
        }

        pub fn contains(&self, block: u64) -> bool {
            let base = self.base(block);
            (0..self.ways).any(|w| self.valid[base + w] && self.tags[base + w] == block)
        }

        pub fn invalidate(&mut self, block: u64) -> Option<bool> {
            let base = self.base(block);
            for i in base..base + self.ways {
                if self.valid[i] && self.tags[i] == block {
                    self.valid[i] = false;
                    return Some(self.dirty[i]);
                }
            }
            None
        }

        /// Returns (hit, dirty victim).
        pub fn access(&mut self, block: u64, is_write: bool) -> (bool, Option<u64>) {
            self.clock += 1;
            let base = self.base(block);
            for i in base..base + self.ways {
                if self.valid[i] && self.tags[i] == block {
                    self.hits += 1;
                    self.stamps[i] = self.clock;
                    self.dirty[i] |= is_write;
                    return (true, None);
                }
            }
            self.misses += 1;
            let mut victim = 0;
            let mut best = u64::MAX;
            for w in 0..self.ways {
                let i = base + w;
                if !self.valid[i] {
                    victim = w;
                    break;
                }
                if self.stamps[i] < best {
                    best = self.stamps[i];
                    victim = w;
                }
            }
            let i = base + victim;
            let writeback = (self.valid[i] && self.dirty[i]).then_some(self.tags[i]);
            self.valid[i] = true;
            self.tags[i] = block;
            self.dirty[i] = is_write;
            self.stamps[i] = self.clock;
            (false, writeback)
        }
    }

    /// One access through an L1 and an L2 of reference arrays, paired as
    /// the recorder pairs them: an L1 dirty victim updates the L2 only
    /// when resident there. Returns where the access was serviced.
    pub fn upper_access(
        l1: &mut UpperLru,
        l2: &mut UpperLru,
        block: u64,
        write: bool,
    ) -> sdbp_suite::cache::hierarchy::ServiceLevel {
        use sdbp_suite::cache::hierarchy::ServiceLevel;
        let (hit, writeback) = l1.access(block, write);
        if hit {
            return ServiceLevel::L1;
        }
        if let Some(wb) = writeback.filter(|&wb| l2.contains(wb)) {
            l2.access(wb, true);
        }
        if l2.access(block, write).0 { ServiceLevel::L2 } else { ServiceLevel::Llc }
    }

    /// The core timing model as first written: a division for the fetch
    /// cycle, a modulo for the window and MSHR slots, and a `match` with
    /// branches for latency, hit/miss and dependence.
    pub fn core_cycles(
        model: &sdbp_suite::cpu::CoreModel,
        records: &[sdbp_suite::cache::InstrRecord],
        llc_hits: &sdbp_suite::cache::HitMap,
    ) -> u64 {
        use sdbp_suite::cache::InstrKind;
        let lat = model.latencies;
        let mut retire = vec![0u64; model.window];
        let mut mshr = vec![0u64; model.mshrs];
        let (mut miss_index, mut llc_cursor) = (0usize, 0usize);
        let (mut prev_load_done, mut prev_was_dependent, mut max_complete) = (0u64, false, 0u64);
        for (i, r) in records.iter().enumerate() {
            let fetch = (i as u64) / u64::from(model.width);
            let slot = i % model.window;
            let mut start = fetch.max(retire[slot]);
            if prev_was_dependent {
                start = start.max(prev_load_done);
            }
            let (latency, is_mem, is_miss) = match r.kind() {
                InstrKind::NonMem => (1, false, false),
                InstrKind::L1Hit => (u64::from(lat.l1), true, false),
                InstrKind::L2Hit => (u64::from(lat.l2), true, false),
                InstrKind::Llc => {
                    let hit = llc_hits.get(llc_cursor).unwrap_or(false);
                    llc_cursor += 1;
                    (u64::from(if hit { lat.llc } else { lat.memory }), true, !hit)
                }
            };
            if is_miss {
                let slot = miss_index % model.mshrs;
                start = start.max(mshr[slot]);
                mshr[slot] = start + latency;
                miss_index += 1;
            }
            let complete = start + latency;
            retire[slot] = complete;
            if is_mem {
                prev_load_done = complete;
            }
            prev_was_dependent = is_mem && r.dependent();
            max_complete = max_complete.max(complete);
        }
        max_complete
    }

    /// Belady MIN as first written: a `HashMap` backward pass for next
    /// uses, and per-set `Vec`s of `(block, next use)` frames searched
    /// linearly, evicting `max_by_key`'s pick (the last farthest frame).
    /// Returns `(next uses, hits, misses, bypasses)`.
    pub fn min(blocks: &[u64], sets: usize, ways: usize, bypass: bool) -> (Vec<u64>, [u64; 3]) {
        let mut next = vec![u64::MAX; blocks.len()];
        let mut last_seen: HashMap<u64, u64> = HashMap::new();
        for (i, &b) in blocks.iter().enumerate().rev() {
            if let Some(&j) = last_seen.get(&b) {
                next[i] = j;
            }
            last_seen.insert(b, i as u64);
        }
        let mut frames: Vec<Vec<(u64, u64)>> = vec![Vec::new(); sets];
        let mut counts = [0u64; 3];
        for (i, &b) in blocks.iter().enumerate() {
            let set = &mut frames[b as usize & (sets - 1)];
            if let Some(f) = set.iter_mut().find(|f| f.0 == b) {
                counts[0] += 1;
                f.1 = next[i];
                continue;
            }
            counts[1] += 1;
            if set.len() < ways {
                set.push((b, next[i]));
                continue;
            }
            let (victim, &(_, victim_next)) =
                set.iter().enumerate().max_by_key(|(_, f)| f.1).expect("full set");
            if bypass && next[i] >= victim_next {
                counts[2] += 1;
            } else {
                set[victim] = (b, next[i]);
            }
        }
        (next, counts)
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

/// Fixed-seed associativities and set counts for the reference-model
/// comparisons: every width the 8-lane rows pad (1, 3, 12) plus the
/// paper's 8 and 16, over 1 to 64 sets.
fn reference_geometries(rng: &mut Rng64) -> Vec<(usize, usize)> {
    let mut geometries = vec![(1, 1), (4, 3), (2, 12), (8, 8), (16, 16), (1, 12)];
    geometries.extend((0..6).map(|_| (1 << rng.gen_range(0u32..7), rng.gen_range(1usize..20))));
    geometries
}

/// The data-first `LruArray` must answer every access, dirty victim,
/// residency probe and back-invalidation exactly like the parallel-vector
/// original, including the rule that an invalidated frame is refilled
/// before any resident block is evicted.
#[test]
fn lru_array_matches_the_reference_model() {
    use sdbp_suite::cache::lru::LruArray;
    let mut rng = Rng64::seed_from_u64(0x5017_0008);
    for (sets, ways) in reference_geometries(&mut rng) {
        let mut fast = LruArray::new(CacheConfig::new(sets, ways));
        let mut slow = reference::UpperLru::new(sets, ways);
        let span = (sets * ways * 3) as u64;
        for step in 0..4_000 {
            let block = rng.gen_range(0..span);
            let what = format!("{sets}x{ways} step {step} block {block}");
            if rng.gen_bool(0.1) {
                let got = fast.invalidate(BlockAddr::new(block));
                assert_eq!(got, slow.invalidate(block), "invalidate: {what}");
            } else {
                let write = rng.gen_bool(0.3);
                let got = fast.access(BlockAddr::new(block), write);
                let (hit, writeback) = slow.access(block, write);
                assert_eq!(got.hit, hit, "hit: {what}");
                assert_eq!(got.writeback.map(|b| b.raw()), writeback, "writeback: {what}");
            }
            let probe = rng.gen_range(0..span);
            let resident = fast.contains(BlockAddr::new(probe));
            assert_eq!(resident, slow.contains(probe), "contains: {what}");
        }
        let counters = (fast.hits(), fast.misses());
        assert_eq!(counters, (slow.hits, slow.misses), "{sets}x{ways} counters");
    }
}

/// The recorder's L1/L2 pair (whose L1 dirty victims update the L2 only
/// when resident) must service every access at the level a hierarchy of
/// reference arrays does.
#[test]
fn upper_levels_match_the_reference_model() {
    use sdbp_suite::cache::hierarchy::UpperLevels;
    let mut rng = Rng64::seed_from_u64(0x5017_0009);
    for (l1, l2) in [((2, 3), (4, 12)), ((4, 1), (8, 3)), ((8, 8), (32, 8)), ((1, 12), (2, 16))] {
        let (l1_cfg, l2_cfg) = (CacheConfig::new(l1.0, l1.1), CacheConfig::new(l2.0, l2.1));
        let mut fast = UpperLevels::with_configs(l1_cfg, l2_cfg);
        let mut slow = (reference::UpperLru::new(l1.0, l1.1), reference::UpperLru::new(l2.0, l2.1));
        let span = (l2.0 * l2.1 * 2) as u64;
        for step in 0..6_000 {
            let (block, write) = (rng.gen_range(0..span), rng.gen_bool(0.4));
            let want = reference::upper_access(&mut slow.0, &mut slow.1, block, write);
            let got = fast.access(BlockAddr::new(block), write);
            assert_eq!(got, want, "{l1:?}/{l2:?} step {step}");
        }
        assert_eq!(fast.l1_hits(), slow.0.hits);
        assert_eq!(fast.llc_accesses(), slow.1.misses);
    }
}

/// In an inclusive three-level hierarchy an LLC eviction back-invalidates
/// L1 and L2, and the next fill of that set must take the invalidated
/// frame. The jointly simulated hierarchy must service every instruction
/// at the level a hierarchy built from reference arrays does.
#[test]
fn inclusive_hierarchy_matches_the_reference_model() {
    use sdbp_suite::cache::full::{FullHierarchy, FullHierarchyConfig, Inclusion};
    use sdbp_suite::cache::hierarchy::ServiceLevel;
    use sdbp_suite::cache::AccessOutcome;
    use sdbp_suite::trace::{Addr, Instr, MemRef};
    let mut rng = Rng64::seed_from_u64(0x5017_000a);
    let (l1, l2, llc) = ((2, 3), (4, 4), CacheConfig::new(4, 3));
    let cfg = FullHierarchyConfig {
        l1: CacheConfig::new(l1.0, l1.1),
        l2: CacheConfig::new(l2.0, l2.1),
        inclusion: Inclusion::Inclusive,
        writebacks_to_llc: false,
    };
    let mut fast = FullHierarchy::new(cfg, Cache::new(llc));
    let mut slow = (reference::UpperLru::new(l1.0, l1.1), reference::UpperLru::new(l2.0, l2.1));
    let mut slow_llc = Cache::new(llc);
    let mut invalidations = 0u64;
    for step in 0..20_000 {
        let (block, write) = (rng.gen_range(0u64..64), rng.gen_bool(0.3));
        let addr = Addr::new(block * 64);
        let mem = if write { MemRef::write(addr) } else { MemRef::read(addr) };
        let got = fast.execute(&Instr::mem(Pc::new(0x400), mem));
        let want = reference::upper_access(&mut slow.0, &mut slow.1, block, write);
        if want == ServiceLevel::Llc {
            let kind = if write { AccessKind::Write } else { AccessKind::Read };
            let a = LlcAccess::demand(Pc::new(0x400), BlockAddr::new(block), kind, 0);
            if let AccessOutcome::Filled { evicted: Some(victim) } = slow_llc.access(&a) {
                slow.0.invalidate(victim.raw());
                slow.1.invalidate(victim.raw());
                invalidations += 1;
            }
        }
        assert_eq!(got, Some(want), "step {step} block {block}");
    }
    assert!(invalidations > 1_000, "stream must exercise back-invalidation");
    assert_eq!(fast.back_invalidations(), invalidations);
    assert_eq!(fast.llc().stats(), slow_llc.stats());
}

/// The ring-cursor, table-and-select timing loop must give exactly the
/// cycles of the division-and-branch original for every core shape —
/// window 1, width 1 and 3, a single MSHR, odd latencies — and for hit
/// maps shorter than the number of LLC records (the rest count as misses).
#[test]
fn core_model_matches_the_reference_loop() {
    use sdbp_suite::cache::config::Latencies;
    use sdbp_suite::cache::recorder::{InstrKind, InstrRecord};
    use sdbp_suite::cpu::CoreModel;
    let base = CoreModel::default();
    let mut models = vec![
        base,
        CoreModel { window: 1, ..base },
        CoreModel { width: 1, ..base },
        CoreModel { width: 3, ..base },
        CoreModel { mshrs: 1, ..base },
        CoreModel { width: 3, window: 5, mshrs: 1, ..base },
    ];
    let mut rng = Rng64::seed_from_u64(0x5017_000b);
    for _ in 0..6 {
        let pick = |rng: &mut Rng64, hi: u64| rng.gen_range(1..hi) as u32;
        let latencies = Latencies {
            l1: pick(&mut rng, 4),
            l2: pick(&mut rng, 20),
            llc: pick(&mut rng, 60),
            memory: pick(&mut rng, 400),
        };
        models.push(CoreModel {
            width: pick(&mut rng, 9),
            window: rng.gen_range(1usize..200),
            mshrs: rng.gen_range(1usize..20),
            latencies,
        });
    }
    for case in 0..CASES {
        let kinds = [InstrKind::NonMem, InstrKind::L1Hit, InstrKind::L2Hit, InstrKind::Llc];
        let records: Vec<InstrRecord> = (0..rng.gen_range(1usize..3_000))
            .map(|_| InstrRecord::new(kinds[rng.gen_range(0u64..4) as usize], rng.gen_bool(0.3)))
            .collect();
        let llc = records.iter().filter(|r| r.kind() == InstrKind::Llc).count();
        // Every third case gets a hit map shorter than the LLC records.
        let len = if case % 3 == 0 { rng.gen_range(0..llc as u64 + 1) as usize } else { llc };
        let hits: HitMap = (0..len).map(|_| rng.gen_bool(0.5)).collect();
        for model in &models {
            let got = model.simulate(&records, &hits);
            let want = reference::core_cycles(model, &records, &hits);
            assert_eq!(got.cycles, want, "case {case}: {model:?}, {len} of {llc} hits");
            assert_eq!(got.instructions, records.len() as u64);
        }
    }
}

/// The per-set, flat-row MIN oracle must count exactly the hits, misses
/// and bypasses of the nested-`Vec` original, with and without bypass,
/// and link the same next uses, on fixed-seed streams over ways 1, 3, 12
/// and more.
#[test]
fn min_matches_the_reference_oracle() {
    let mut rng = Rng64::seed_from_u64(0x5017_000c);
    for (sets, ways) in reference_geometries(&mut rng) {
        for case in 0..4 {
            let span = (sets * ways) as u64 * rng.gen_range(1u64..5);
            let raw: Vec<(u8, u16, bool)> = (0..rng.gen_range(1usize..3_000))
                .map(|_| (0, rng.gen_range(0..span) as u16, false))
                .collect();
            let stream = to_llc_stream(&raw);
            let blocks: Vec<u64> = stream.iter().map(|a| a.block.raw()).collect();
            let cfg = CacheConfig::new(sets, ways);
            for bypass in [true, false] {
                let (next, [hits, misses, bypasses]) = reference::min(&blocks, sets, ways, bypass);
                let got = optimal::simulate_with_options(&stream, cfg, bypass);
                let what = format!("{sets}x{ways} case {case} bypass {bypass}");
                let counts = (got.hits, got.misses, got.bypasses);
                assert_eq!(counts, (hits, misses, bypasses), "{what}");
                assert_eq!(optimal::next_use_distances(&stream), next, "{what}");
            }
        }
    }
}
