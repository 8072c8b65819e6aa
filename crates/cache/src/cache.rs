//! The policy-driven set-associative cache used to model the LLC, and the
//! one replay loop every replay entry point drives.
//!
//! Set storage is data-first: each set is a row of `u64` block keys with
//! [`INVALID`] marking an empty frame, plus one dirty bit per frame in a
//! packed bitset. Tag match and first-invalid search are compare masks
//! over the row (no early exit on the data), and the policy is reached
//! through a loop monomorphized for its concrete type — see DESIGN.md §10.

use crate::config::CacheConfig;
use crate::efficiency::EfficiencyTracker;
use crate::meta::HitMap;
use crate::policy::{Lru, Policy, ReplacementPolicy, Victim};
use crate::recorder::LlcAccess;
use crate::replay::ReplayProbe;
use crate::stats::CacheStats;
use sdbp_trace::BlockAddr;
use std::fmt;

/// Key of an empty frame. Block numbers are byte addresses shifted right
/// by the block offset (plus a core tag far below bit 63), so no block
/// ever has this key.
pub const INVALID: u64 = u64::MAX;

/// Result of presenting one access to a [`Cache`].
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum AccessOutcome {
    /// The block was resident.
    Hit,
    /// The block missed and was placed, possibly displacing `evicted`.
    Filled {
        /// The block displaced to make room, if the chosen frame was valid.
        evicted: Option<BlockAddr>,
    },
    /// The block missed and the policy declined to place it.
    Bypassed,
}

impl AccessOutcome {
    /// True for [`AccessOutcome::Hit`].
    pub const fn is_hit(self) -> bool {
        matches!(self, AccessOutcome::Hit)
    }

    /// True for any miss outcome.
    pub const fn is_miss(self) -> bool {
        !self.is_hit()
    }
}

/// Bit `i` of the result is set when `lanes[i] == key` (`lanes` holds at
/// most 64 keys). Every lane is compared; nothing branches on the data.
#[inline(always)]
fn lane_mask(lanes: &[u64], key: u64) -> u64 {
    lanes
        .iter()
        .enumerate()
        .fold(0, |mask, (i, &lane)| mask | (u64::from(lane == key) << i))
}

/// The lowest way of `row` holding `key`.
#[inline(always)]
fn find_way(row: &[u64], key: u64) -> Option<usize> {
    // The paper's 16-way LLC gets a fixed-width compare the optimizer
    // unrolls; other associativities scan 64 lanes at a time.
    if let Ok(row16) = <&[u64; 16]>::try_from(row) {
        let mask = lane_mask(row16, key);
        return (mask != 0).then(|| mask.trailing_zeros() as usize);
    }
    row.chunks(64).enumerate().find_map(|(chunk, lanes)| {
        let mask = lane_mask(lanes, key);
        (mask != 0).then(|| chunk * 64 + mask.trailing_zeros() as usize)
    })
}

/// Everything a cache holds apart from its policy: the tag rows, the
/// dirty bitset, the counters, and optional efficiency accounting.
#[derive(Clone, Debug)]
pub(crate) struct Frames {
    config: CacheConfig,
    /// `sets × ways` block keys, [`INVALID`] for an empty frame.
    tags: Vec<u64>,
    /// One dirty bit per frame, frame `line` at bit `line % 64` of word
    /// `line / 64`.
    dirty: Vec<u64>,
    stats: CacheStats,
    efficiency: Option<EfficiencyTracker>,
    now: u64,
}

impl Frames {
    fn new(config: CacheConfig) -> Self {
        Frames {
            config,
            tags: vec![INVALID; config.lines()],
            dirty: vec![0; config.lines().div_ceil(64)],
            stats: CacheStats::default(),
            efficiency: None,
            now: 0,
        }
    }

    #[inline(always)]
    fn row(&self, set: usize) -> &[u64] {
        let ways = self.config.ways;
        &self.tags[set * ways..(set + 1) * ways]
    }

    /// Sets frame `line`'s dirty bit to `dirty` and returns its old value.
    #[inline(always)]
    fn swap_dirty(&mut self, line: usize, dirty: bool) -> bool {
        let word = &mut self.dirty[line / 64];
        let bit = 1u64 << (line % 64);
        let was = *word & bit != 0;
        *word = (*word & !bit) | (u64::from(dirty) << (line % 64));
        was
    }

    /// Presents one access: lookup, policy callbacks, fill or bypass, and
    /// every counter update.
    #[inline(always)]
    fn access<P: ReplacementPolicy + ?Sized>(
        &mut self,
        policy: &mut P,
        a: &LlcAccess,
    ) -> AccessOutcome {
        let key = a.block.raw();
        debug_assert_ne!(key, INVALID, "block {:#x} collides with the empty-frame key", key);
        self.now += 1;
        self.stats.accesses += 1;
        let ways = self.config.ways;
        let set = a.block.set_index(self.config.sets);
        let base = set * ways;
        let write = a.kind.is_write();

        if let Some(way) = find_way(self.row(set), key) {
            self.stats.hits += 1;
            let line = base + way;
            self.dirty[line / 64] |= u64::from(write) << (line % 64);
            policy.on_hit(set, way, a);
            if let Some(eff) = &mut self.efficiency {
                eff.on_hit(set, way, self.now);
            }
            return AccessOutcome::Hit;
        }

        self.stats.misses += 1;
        policy.on_miss(set, a);
        let invalid = find_way(self.row(set), INVALID);
        match policy.choose_victim(set, invalid, a) {
            Victim::Bypass => {
                self.stats.bypasses += 1;
                policy.on_bypass(set, a);
                AccessOutcome::Bypassed
            }
            Victim::Way(way) => {
                assert!(
                    way < ways,
                    "policy {} chose way {way} in a {ways}-way cache",
                    policy.name()
                );
                let line = base + way;
                let old = std::mem::replace(&mut self.tags[line], key);
                let was_dirty = self.swap_dirty(line, write);
                let evicted = if old != INVALID {
                    let victim = BlockAddr::new(old);
                    self.stats.evictions += 1;
                    self.stats.writebacks += u64::from(was_dirty);
                    policy.on_evict(set, way, victim, a);
                    if let Some(eff) = &mut self.efficiency {
                        eff.on_evict(set, way, self.now);
                    }
                    Some(victim)
                } else {
                    None
                };
                self.stats.fills += 1;
                policy.on_fill(set, way, a);
                if let Some(eff) = &mut self.efficiency {
                    eff.on_fill(set, way, self.now);
                }
                AccessOutcome::Filled { evicted }
            }
        }
    }

    /// Presents every access of `stream` in order, handing each outcome to
    /// `each` with its index in `stream`.
    #[inline(always)]
    fn drive<P: ReplacementPolicy + ?Sized>(
        &mut self,
        policy: &mut P,
        stream: &[LlcAccess],
        mut each: impl FnMut(usize, &LlcAccess, bool),
    ) {
        for (i, a) in stream.iter().enumerate() {
            let hit = self.access(policy, a).is_hit();
            each(i, a, hit);
        }
    }
}

/// A policy's monomorphized view of the cache: one implementation per
/// concrete policy type, so [`Cache::run`] pays one virtual call per
/// stream and none per access.
pub(crate) trait PolicyLoop {
    fn access(&mut self, frames: &mut Frames, a: &LlcAccess) -> AccessOutcome;

    fn run(
        &mut self,
        frames: &mut Frames,
        stream: &[LlcAccess],
        hits: Option<&mut HitMap>,
        probe: Option<&mut dyn ReplayProbe>,
    );

    fn policy(&self) -> &dyn ReplacementPolicy;
}

impl<P: ReplacementPolicy> PolicyLoop for P {
    fn access(&mut self, frames: &mut Frames, a: &LlcAccess) -> AccessOutcome {
        frames.access(self, a)
    }

    fn run(
        &mut self,
        frames: &mut Frames,
        stream: &[LlcAccess],
        hits: Option<&mut HitMap>,
        probe: Option<&mut dyn ReplayProbe>,
    ) {
        match (hits, probe) {
            (Some(hits), None) => frames.drive(self, stream, |_, _, hit| hits.push(hit)),
            (Some(hits), Some(probe)) => frames.drive(self, stream, |i, a, hit| {
                probe.on_access_detail(i, a, hit);
                hits.push(hit);
            }),
            (None, Some(probe)) => {
                frames.drive(self, stream, |i, a, hit| probe.on_access_detail(i, a, hit));
            }
            (None, None) => frames.drive(self, stream, |_, _, _| {}),
        }
    }

    fn policy(&self) -> &dyn ReplacementPolicy {
        self
    }
}

/// A set-associative, write-back cache whose replacement and bypass
/// behaviour is delegated to a [`ReplacementPolicy`].
///
/// This models the last-level cache in experiments; the fixed upper levels
/// use the leaner [`crate::lru::LruArray`]. See the
/// [crate docs](crate) for a usage example.
pub struct Cache {
    frames: Frames,
    policy: Policy,
}

impl fmt::Debug for Cache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cache")
            .field("config", &self.frames.config)
            .field("policy", &self.policy.name())
            .field("stats", &self.frames.stats)
            .finish_non_exhaustive()
    }
}

impl Cache {
    /// Creates a cache with the built-in true-LRU policy.
    pub fn new(config: CacheConfig) -> Self {
        Self::with_policy(config, Policy::new(Lru::new(config.sets, config.ways)))
    }

    /// Creates a cache driven by `policy` — a [`Policy`] (statically
    /// dispatched inside the replay loop) or any boxed policy.
    pub fn with_policy(config: CacheConfig, policy: impl Into<Policy>) -> Self {
        Cache { frames: Frames::new(config), policy: policy.into() }
    }

    /// Enables live/dead-time accounting (costs one pass of bookkeeping per
    /// access; used for the paper's Figure 1).
    pub fn track_efficiency(&mut self) {
        self.frames.efficiency = Some(EfficiencyTracker::new(self.frames.config));
    }

    /// The cache's geometry.
    pub const fn config(&self) -> CacheConfig {
        self.frames.config
    }

    /// Accumulated counters (predictor counters are exported on read).
    pub fn stats(&self) -> CacheStats {
        let mut stats = self.frames.stats.clone();
        self.policy().export_stats(&mut stats);
        stats
    }

    /// The efficiency tracker, if [`Cache::track_efficiency`] was called.
    pub fn efficiency(&self) -> Option<&EfficiencyTracker> {
        self.frames.efficiency.as_ref()
    }

    /// The driving policy (downcast via
    /// [`ReplacementPolicy::as_any`] for policy-specific state).
    pub fn policy(&self) -> &dyn ReplacementPolicy {
        self.policy.get()
    }

    /// Set index for a block in this cache.
    pub fn set_of(&self, block: BlockAddr) -> usize {
        block.set_index(self.frames.config.sets)
    }

    /// Whether `block` is currently resident.
    pub fn contains(&self, block: BlockAddr) -> bool {
        block.raw() != INVALID && find_way(self.frames.row(self.set_of(block)), block.raw()).is_some()
    }

    /// Presents one access; performs lookup, policy callbacks, fill or
    /// bypass, and all statistics updates.
    pub fn access(&mut self, access: &LlcAccess) -> AccessOutcome {
        self.policy.0.access(&mut self.frames, access)
    }

    /// The replay loop: presents every access of `stream` in order,
    /// appending each outcome to `hits` and reporting it to `probe` (with
    /// its index in `stream`). Every replay entry point —
    /// [`replay`](crate::replay::replay), sampled segments, shard queues —
    /// is this call.
    pub fn run(
        &mut self,
        stream: &[LlcAccess],
        hits: Option<&mut HitMap>,
        probe: Option<&mut dyn ReplayProbe>,
    ) {
        self.policy.0.run(&mut self.frames, stream, hits, probe);
    }

    /// Flushes residency bookkeeping at the end of a run so that
    /// still-resident blocks contribute their in-cache time to the
    /// efficiency accounting.
    pub fn finish(&mut self) {
        let Frames { tags, efficiency, now, config, .. } = &mut self.frames;
        if let Some(eff) = efficiency {
            for (line, &tag) in tags.iter().enumerate() {
                if tag != INVALID {
                    eff.on_evict(line / config.ways, line % config.ways, *now);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdbp_trace::{AccessKind, Pc};

    fn acc(block: u64) -> LlcAccess {
        LlcAccess::demand(Pc::new(0x400), BlockAddr::new(block), AccessKind::Read, 0)
    }

    fn wacc(block: u64) -> LlcAccess {
        LlcAccess::demand(Pc::new(0x400), BlockAddr::new(block), AccessKind::Write, 0)
    }

    fn tiny() -> Cache {
        // 2 sets, 2 ways.
        Cache::new(CacheConfig::new(2, 2))
    }

    #[test]
    fn lane_masks_find_the_lowest_matching_way() {
        let row = [7, INVALID, 7, 3];
        assert_eq!(find_way(&row, 7), Some(0));
        assert_eq!(find_way(&row, INVALID), Some(1));
        assert_eq!(find_way(&row, 3), Some(3));
        assert_eq!(find_way(&row, 9), None);
        let mut row16 = [INVALID; 16];
        row16[11] = 5;
        assert_eq!(find_way(&row16, 5), Some(11));
        assert_eq!(find_way(&row16, INVALID), Some(0));
        // Rows wider than one 64-lane mask scan chunk by chunk.
        let mut wide = vec![1u64; 130];
        wide[129] = 2;
        assert_eq!(find_way(&wide, 2), Some(129));
        assert_eq!(find_way(&wide, 1), Some(0));
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert_eq!(c.access(&acc(0)), AccessOutcome::Filled { evicted: None });
        assert!(c.access(&acc(0)).is_hit());
        let s = c.stats();
        assert_eq!((s.accesses, s.hits, s.misses, s.fills), (2, 1, 1, 1));
    }

    #[test]
    fn eviction_reports_displaced_block() {
        let mut c = tiny();
        // Blocks 0, 2, 4 all map to set 0 (even block numbers).
        c.access(&acc(0));
        c.access(&acc(2));
        c.access(&acc(0)); // promote 0; LRU is 2
        match c.access(&acc(4)) {
            AccessOutcome::Filled { evicted: Some(b) } => assert_eq!(b.raw(), 2),
            other => panic!("expected eviction of block 2, got {other:?}"),
        }
        assert!(c.contains(BlockAddr::new(0)));
        assert!(!c.contains(BlockAddr::new(2)));
        assert!(!c.contains(BlockAddr::new(INVALID)));
    }

    #[test]
    fn writeback_counted_for_dirty_victims() {
        let mut c = tiny();
        c.access(&wacc(0));
        c.access(&acc(2));
        c.access(&acc(4)); // evicts dirty block 0
        assert_eq!(c.stats().writebacks, 1);
        assert_eq!(c.stats().evictions, 1);
        c.access(&acc(6)); // evicts clean block 2
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn write_hit_marks_line_dirty() {
        let mut c = tiny();
        c.access(&acc(0));
        c.access(&wacc(0)); // dirty via hit
        c.access(&acc(2));
        c.access(&acc(4)); // evicts LRU (block 0, dirty)
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn refilled_frame_starts_clean() {
        let mut c = Cache::new(CacheConfig::new(1, 1));
        c.access(&wacc(0));
        c.access(&acc(1)); // evicts dirty 0; frame now holds clean 1
        c.access(&acc(2)); // evicts clean 1
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn sets_do_not_interfere() {
        let mut c = tiny();
        c.access(&acc(0)); // set 0
        c.access(&acc(1)); // set 1
        c.access(&acc(3)); // set 1
        c.access(&acc(5)); // set 1, evicts within set 1 only
        assert!(c.contains(BlockAddr::new(0)));
    }

    #[test]
    fn bypassing_policy_never_fills() {
        struct AlwaysBypass;
        impl ReplacementPolicy for AlwaysBypass {
            fn name(&self) -> std::borrow::Cow<'static, str> {
                "bypass".into()
            }
            fn on_hit(&mut self, _: usize, _: usize, _: &LlcAccess) {}
            fn choose_victim(&mut self, _: usize, _: Option<usize>, _: &LlcAccess) -> Victim {
                Victim::Bypass
            }
            fn on_fill(&mut self, _: usize, _: usize, _: &LlcAccess) {}
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
        }
        let mut c = Cache::with_policy(CacheConfig::new(2, 2), Box::new(AlwaysBypass));
        for b in 0..10 {
            assert_eq!(c.access(&acc(b)), AccessOutcome::Bypassed);
        }
        let s = c.stats();
        assert_eq!(s.bypasses, 10);
        assert_eq!(s.fills, 0);
        assert_eq!(s.misses, 10);
    }

    #[test]
    fn run_matches_access_by_access() {
        let stream: Vec<LlcAccess> =
            (0..500u64).map(|i| if i % 3 == 0 { wacc(i % 37) } else { acc(i * 7 % 53) }).collect();
        let mut stepped = Cache::new(CacheConfig::new(4, 3));
        let expected: HitMap = stream.iter().map(|a| stepped.access(a).is_hit()).collect();
        let mut run = Cache::new(CacheConfig::new(4, 3));
        let mut hits = HitMap::new();
        run.run(&stream, Some(&mut hits), None);
        assert_eq!(hits, expected);
        assert_eq!(run.stats(), stepped.stats());
    }

    #[test]
    fn dyn_policy_replays_like_the_static_one() {
        let stream: Vec<LlcAccess> = (0..2_000u64).map(|i| acc(i * 13 % 97)).collect();
        let cfg = CacheConfig::new(8, 4);
        let dynamic: Box<dyn ReplacementPolicy> = Box::new(Lru::new(cfg.sets, cfg.ways));
        let mut boxed = Cache::with_policy(cfg, dynamic);
        let mut static_lru = Cache::new(cfg);
        let (mut a, mut b) = (HitMap::new(), HitMap::new());
        boxed.run(&stream, Some(&mut a), None);
        static_lru.run(&stream, Some(&mut b), None);
        assert_eq!(a, b);
        assert_eq!(boxed.stats(), static_lru.stats());
        assert_eq!(boxed.policy().name(), "LRU");
    }

    #[test]
    fn lru_cache_hit_rate_on_small_loop_is_perfect_after_warmup() {
        let mut c = Cache::new(CacheConfig::new(16, 4)); // 64 blocks
        for round in 0..10 {
            for b in 0..32u64 {
                let outcome = c.access(&acc(b));
                if round > 0 {
                    assert!(outcome.is_hit(), "round {round} block {b} missed");
                }
            }
        }
    }

    #[test]
    fn lru_cache_thrashes_on_oversized_loop() {
        // 64-block cache, 128-block cyclic loop: LRU yields zero hits.
        let mut c = Cache::new(CacheConfig::new(16, 4));
        let mut hits = 0;
        for _ in 0..5 {
            for b in 0..128u64 {
                if c.access(&acc(b)).is_hit() {
                    hits += 1;
                }
            }
        }
        assert_eq!(hits, 0);
    }

    #[test]
    fn outcome_predicates() {
        assert!(AccessOutcome::Hit.is_hit());
        assert!(!AccessOutcome::Hit.is_miss());
        assert!(AccessOutcome::Bypassed.is_miss());
        assert!(AccessOutcome::Filled { evicted: None }.is_miss());
    }
}
