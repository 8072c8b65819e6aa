//! Dead block replacement and bypass (paper §V).
//!
//! [`DeadBlockReplacement`] wraps any default [`ReplacementPolicy`] (LRU,
//! random, ...) and any [`DeadBlockPredictor`], both as type parameters,
//! so a DBRB policy is one concrete type whose base and predictor
//! callbacks are static calls. On a miss it prefers to
//! evict a predicted-dead block (the one touched longest ago, i.e. closest
//! to LRU); if the incoming block is predicted dead on arrival it bypasses
//! the cache entirely; otherwise it defers to the default policy.
//!
//! The policy also maintains the coverage/false-positive accounting of
//! paper §VII-C: a hit on a line whose dead bit is set disproves that
//! prediction, and re-accesses shortly after a bypass or dead-block
//! eviction disprove those (the latter two use a recency-bounded shadow
//! table because the counterfactual cache state is unknowable — see
//! DESIGN.md §3).

use crate::predictor::{DeadBlockPredictor, PredictorStats};
use sdbp_cache::policy::{argmin_by, ReplacementPolicy, Victim};
use sdbp_cache::cache::INVALID;
use sdbp_cache::recorder::LlcAccess;
use sdbp_cache::{CacheConfig, CacheStats, MetaPlane};
use sdbp_trace::BlockAddr;
use std::any::Any;
use std::borrow::Cow;
use std::fmt;

/// Configuration of the DBRB wrapper.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct DbrbConfig {
    /// Whether blocks predicted dead on arrival bypass the cache.
    pub bypass: bool,
}

impl Default for DbrbConfig {
    fn default() -> Self {
        DbrbConfig { bypass: true }
    }
}

/// The fixed multiplicative hash of a block key: one 64×64→128-bit
/// multiply folded to 64 bits. Deterministic (no per-process seed) and far
/// cheaper than SipHash; the keys are block numbers the simulator
/// generates, not adversarial input.
#[inline]
fn mix(key: u64) -> u64 {
    let product = u128::from(key) * 0x9e37_79b9_7f4a_7c15;
    (product as u64) ^ ((product >> 64) as u64)
}

/// One generation of the shadow: an open-addressed table (linear
/// probing, backward-shift deletion) of `(block, clock)` entries, plus a
/// bit filter over the same keys. Free slots hold [`INVALID`], the key
/// no block has. Every key in the table has its filter bit set, so a
/// clear bit proves absence without touching the table.
#[derive(Clone, Debug)]
struct Generation {
    slots: Vec<(u64, u64)>,
    filter: Vec<u64>,
}

impl Generation {
    /// A generation for up to `keys` entries: the table stays at most
    /// half full and the filter at most one bit in sixteen.
    fn new(keys: u64) -> Self {
        let slots = (2 * keys).next_power_of_two().max(64) as usize;
        let bits = (16 * keys).next_power_of_two().max(64);
        Generation { slots: vec![(INVALID, 0); slots], filter: vec![0; (bits / 64) as usize] }
    }

    /// The filter word and bit of a key's hash.
    #[inline]
    fn filter_slot(&self, hash: u64) -> (usize, u64) {
        let bit = hash as usize & (self.filter.len() * 64 - 1);
        (bit / 64, 1 << (bit % 64))
    }

    /// The table slot where a key's probe run starts.
    #[inline]
    fn home(&self, hash: u64) -> usize {
        (hash >> 32) as usize & (self.slots.len() - 1)
    }

    /// Records `key` (whose [`mix`] is `hash`) as having left at `when`.
    #[inline]
    fn insert(&mut self, key: u64, hash: u64, when: u64) {
        let (word, bit) = self.filter_slot(hash);
        self.filter[word] |= bit;
        let mask = self.slots.len() - 1;
        let mut i = self.home(hash);
        loop {
            let slot = &mut self.slots[i];
            if slot.0 == key || slot.0 == INVALID {
                *slot = (key, when);
                return;
            }
            i = (i + 1) & mask;
        }
    }

    /// The slot holding `key` (whose [`mix`] is `hash`), if any.
    #[inline]
    fn find(&self, key: u64, hash: u64) -> Option<usize> {
        let (word, bit) = self.filter_slot(hash);
        if self.filter[word] & bit == 0 {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = self.home(hash);
        loop {
            match self.slots[i].0 {
                INVALID => return None,
                k if k == key => return Some(i),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Removes `key`'s entry, returning when it left.
    #[inline]
    fn take(&mut self, key: u64, hash: u64) -> Option<u64> {
        let i = self.find(key, hash)?;
        let when = self.slots[i].1;
        self.remove_at(i);
        Some(when)
    }

    /// Frees slot `hole`, pulling later entries of its probe run back so
    /// every remaining key stays reachable from its home slot.
    fn remove_at(&mut self, mut hole: usize) {
        let mask = self.slots.len() - 1;
        let mut i = hole;
        loop {
            i = (i + 1) & mask;
            let key = self.slots[i].0;
            if key == INVALID {
                break;
            }
            // The entry stays put when its home lies cyclically in
            // (hole, i]; otherwise it may move back into the hole.
            let home = self.home(mix(key));
            let stays = if hole <= i { hole < home && home <= i } else { hole < home || home <= i };
            if !stays {
                self.slots[hole] = self.slots[i];
                hole = i;
            }
        }
        self.slots[hole].0 = INVALID;
    }

    fn clear(&mut self) {
        self.slots.fill((INVALID, 0));
        self.filter.fill(0);
    }
}

/// Generations the shadow keeps; each spans a quarter window, so the
/// generation dropped at a rotation is always more than a window old.
const GENERATIONS: usize = 5;

/// Blocks recently bypassed or evicted as dead, each with the clock at
/// which it left the cache, kept in generations of a quarter window each.
///
/// Blocks leave at most one per clock tick, so a generation never holds
/// more than its span of keys. When the youngest generation has spanned
/// its quarter window, the oldest is cleared and becomes the youngest:
/// every entry dropped that way left over four quarter-windows ago, so it
/// could never count again, and no per-entry pruning is needed. Short
/// generations keep the table that takes every insert small enough to
/// stay cache-resident.
#[derive(Clone, Debug)]
struct Shadow {
    generations: [Generation; GENERATIONS],
    /// Index of the youngest generation.
    young: usize,
    /// Clock at which the youngest generation started.
    since: u64,
    /// Clock ticks each generation spans.
    span: u64,
    /// Re-accesses within this many clock ticks count.
    window: u64,
}

impl Shadow {
    fn new(window: u64) -> Self {
        let span = window.div_ceil(GENERATIONS as u64 - 1).max(1);
        Shadow {
            generations: std::array::from_fn(|_| Generation::new(span)),
            young: 0,
            since: 0,
            span,
            window,
        }
    }

    /// Records that `block` left at `when`. The block must have no entry:
    /// DBRB records a block only as it leaves the cache, and takes its
    /// entry at its next miss, before it can leave again.
    #[inline]
    fn insert(&mut self, block: BlockAddr, when: u64) {
        let (key, hash) = (block.raw(), mix(block.raw()));
        debug_assert!(
            self.generations.iter().all(|g| g.find(key, hash).is_none()),
            "block {block} recorded twice"
        );
        self.generations[self.young].insert(key, hash, when);
    }

    /// Removes `block`'s entry, returning when it left.
    #[inline]
    fn take(&mut self, block: BlockAddr) -> Option<u64> {
        let (key, hash) = (block.raw(), mix(block.raw()));
        self.generations.iter_mut().find_map(|g| g.take(key, hash))
    }

    /// Starts a new generation, in place of the oldest, once the youngest
    /// has spanned its share of the window.
    #[inline]
    fn age(&mut self, now: u64) {
        if now - self.since >= self.span {
            self.young = (self.young + 1) % GENERATIONS;
            self.generations[self.young].clear();
            self.since = now;
        }
    }
}

/// The dead-block replacement and bypass policy over base policy `B` and
/// predictor `P`. See the [module docs](self).
pub struct DeadBlockReplacement<B, P> {
    base: B,
    predictor: P,
    config: DbrbConfig,
    ways: usize,
    dead: MetaPlane<bool>,
    /// Lines of each set whose dead bit is set, so a miss in a set with
    /// none skips the dead-victim search.
    dead_in_set: Vec<u32>,
    last_touch: MetaPlane<u64>,
    clock: u64,
    /// Dead-on-arrival prediction for the in-flight miss.
    incoming_dead: bool,
    stats: PredictorStats,
    /// Blocks recently bypassed or evicted-as-dead; re-access within the
    /// window counts a false positive.
    shadow: Shadow,
}

impl<B: ReplacementPolicy, P: DeadBlockPredictor> fmt::Debug for DeadBlockReplacement<B, P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DeadBlockReplacement")
            .field("base", &self.base.name())
            .field("predictor", &self.predictor.name())
            .field("config", &self.config)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl<B: ReplacementPolicy, P: DeadBlockPredictor> DeadBlockReplacement<B, P> {
    /// Wraps `base` with dead-block replacement and bypass driven by
    /// `predictor`, for a cache of geometry `cache`.
    pub fn new(cache: CacheConfig, base: B, predictor: P, config: DbrbConfig) -> Self {
        DeadBlockReplacement {
            base,
            predictor,
            config,
            ways: cache.ways,
            dead: MetaPlane::new(cache.sets, cache.ways, false),
            dead_in_set: vec![0; cache.sets],
            last_touch: MetaPlane::new(cache.sets, cache.ways, 0),
            clock: 0,
            incoming_dead: false,
            stats: PredictorStats::default(),
            // "Soon" = one cache's worth of LLC accesses, a standard
            // proxy for "would still have been resident".
            shadow: Shadow::new(cache.lines() as u64),
        }
    }

    /// The wrapped predictor.
    pub fn predictor(&self) -> &P {
        &self.predictor
    }

    /// Coverage / false positive counters (paper Figure 9).
    pub fn predictor_stats(&self) -> PredictorStats {
        self.stats
    }

    #[inline]
    fn line(&self, set: usize, way: usize) -> usize {
        set * self.ways + way
    }

    /// Sets `line`'s dead bit, keeping its set's count in step.
    #[inline]
    fn set_dead(&mut self, set: usize, line: usize, dead: bool) {
        let count = &mut self.dead_in_set[set];
        *count = *count + u32::from(dead) - u32::from(self.dead[line]);
        self.dead[line] = dead;
    }

    #[inline]
    fn note_prediction(&mut self, dead: bool) {
        self.stats.predictions += 1;
        self.stats.positives += u64::from(dead);
    }

    /// The oldest-touched predicted-dead way of a full `set`, if any: a
    /// branch-free argmin over last-touch times with live lines keyed out
    /// at `u64::MAX` (no line is touched at that clock value).
    #[inline]
    fn dead_victim(&self, set: usize) -> Option<usize> {
        // A predictor that re-evaluates lines lazily can find a dead line
        // in any set; otherwise only the dead bits count.
        if self.dead_in_set[set] == 0 && self.predictor.reassess(set, self.line(set, 0)).is_none() {
            return None;
        }
        let key = |way: usize| {
            let line = self.line(set, way);
            let dead = self.predictor.reassess(set, line).unwrap_or(self.dead[line]);
            self.last_touch[line] | u64::from(!dead).wrapping_neg()
        };
        let way = argmin_by(self.ways, key);
        (key(way) != u64::MAX).then_some(way)
    }

    fn check_shadow(&mut self, block: BlockAddr) {
        if let Some(when) = self.shadow.take(block) {
            if self.clock - when <= self.shadow.window {
                self.stats.false_positives += 1;
            }
        }
        self.shadow.age(self.clock);
    }
}

impl<B: ReplacementPolicy + 'static, P: DeadBlockPredictor + 'static> ReplacementPolicy
    for DeadBlockReplacement<B, P>
{
    fn name(&self) -> Cow<'static, str> {
        Cow::Owned(format!("{}+{}-dbrb", self.base.name(), self.predictor.name()))
    }

    #[inline]
    fn on_hit(&mut self, set: usize, way: usize, access: &LlcAccess) {
        self.clock += 1;
        let line = self.line(set, way);
        // A block touched again while predicted dead disproves the
        // standing positive prediction.
        self.stats.false_positives += u64::from(self.dead[line]);
        let dead = self.predictor.on_hit(set, line, access);
        self.note_prediction(dead);
        self.set_dead(set, line, dead);
        self.last_touch[line] = self.clock;
        self.base.on_hit(set, way, access);
    }

    #[inline]
    fn on_miss(&mut self, set: usize, access: &LlcAccess) {
        self.clock += 1;
        self.check_shadow(access.block);
        self.incoming_dead = self.predictor.on_miss(set, access);
        self.note_prediction(self.incoming_dead);
        self.base.on_miss(set, access);
    }

    #[inline]
    fn choose_victim(&mut self, set: usize, invalid: Option<usize>, access: &LlcAccess) -> Victim {
        if self.config.bypass && self.incoming_dead {
            return Victim::Bypass;
        }
        // Prefer an invalid way (free), then a predicted-dead block
        // (oldest-touched first), then the default policy's choice.
        if invalid.is_none() {
            if let Some(way) = self.dead_victim(set) {
                return Victim::Way(way);
            }
        }
        self.base.choose_victim(set, invalid, access)
    }

    #[inline]
    fn on_fill(&mut self, set: usize, way: usize, access: &LlcAccess) {
        let line = self.line(set, way);
        self.predictor.on_fill(set, line, access);
        // With bypass enabled a dead-on-arrival block never reaches here;
        // without it, the arrival prediction becomes the line's dead bit.
        self.set_dead(set, line, self.incoming_dead && !self.config.bypass);
        self.last_touch[line] = self.clock;
        self.base.on_fill(set, way, access);
    }

    #[inline]
    fn on_evict(&mut self, set: usize, way: usize, victim: BlockAddr, access: &LlcAccess) {
        let line = self.line(set, way);
        if self.dead[line] {
            // Track dead-chosen victims so an imminent re-access counts
            // against the predictor.
            self.shadow.insert(victim, self.clock);
        }
        self.predictor.on_evict(set, line, victim, access);
        self.base.on_evict(set, way, victim, access);
    }

    fn on_bypass(&mut self, set: usize, access: &LlcAccess) {
        self.shadow.insert(access.block, self.clock);
        self.base.on_bypass(set, access);
    }

    fn export_stats(&self, stats: &mut CacheStats) {
        stats.predictions = self.stats.predictions;
        stats.predictions_dead = self.stats.positives;
        stats.false_positives = self.stats.false_positives;
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reftrace::RefTrace;
    use sdbp_cache::policy::{Lru, Policy};
    use sdbp_cache::{Cache, CacheConfig};
    use sdbp_trace::{AccessKind, Pc};

    fn dbrb_cache(cfg: CacheConfig, bypass: bool) -> Cache {
        let base = Lru::new(cfg.sets, cfg.ways);
        let policy = DeadBlockReplacement::new(
            cfg,
            base,
            RefTrace::new(cfg),
            DbrbConfig { bypass },
        );
        Cache::with_policy(cfg, Policy::new(policy))
    }

    fn acc(pc: u64, block: u64) -> LlcAccess {
        LlcAccess::demand(Pc::new(pc), BlockAddr::new(block), AccessKind::Read, 0)
    }

    #[test]
    fn shadow_answers_like_a_plain_map() {
        // Reference: a map that is never pruned; a take counts when the
        // entry is at most one window old. The shadow table must give the
        // same answer at every tick, through probe-run deletions, filter
        // rebuilds and prunes.
        use std::collections::BTreeMap;
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for window in [1u64, 5, 16, 100] {
            let mut shadow = Shadow::new(window);
            let mut plain: BTreeMap<u64, u64> = BTreeMap::new();
            for now in 1..40_000u64 {
                let block = next() % (4 * window + 7);
                let counted = shadow.take(BlockAddr::new(block)).is_some_and(|w| now - w <= window);
                let expected = plain.remove(&block).is_some_and(|w| now - w <= window);
                assert_eq!(counted, expected, "window {window}, tick {now}, block {block}");
                shadow.age(now);
                // As in DBRB, a block that has an entry cannot leave again
                // before its entry is taken.
                let left = next() % (4 * window + 7);
                if next() % 3 != 0 && !plain.contains_key(&left) {
                    shadow.insert(BlockAddr::new(left), now);
                    plain.insert(left, now);
                }
            }
        }
    }

    #[test]
    fn name_mentions_base_and_predictor() {
        let c = dbrb_cache(CacheConfig::new(4, 2), true);
        assert_eq!(c.policy().name(), "LRU+reftrace-dbrb");
    }

    #[test]
    fn streaming_blocks_get_bypassed_after_training() {
        // One-touch blocks from a single PC: after a few generations the
        // predictor learns the PC is dead-on-arrival and bypasses.
        let mut c = dbrb_cache(CacheConfig::new(4, 2), true);
        for b in 0..2000u64 {
            c.access(&acc(0x400, b));
        }
        let s = c.stats();
        assert!(
            s.bypasses > 1000,
            "expected heavy bypassing of the streaming PC, got {}",
            s.bypasses
        );
    }

    #[test]
    fn bypass_disabled_fills_everything() {
        let mut c = dbrb_cache(CacheConfig::new(4, 2), false);
        for b in 0..2000u64 {
            c.access(&acc(0x400, b));
        }
        assert_eq!(c.stats().bypasses, 0);
        assert_eq!(c.stats().fills, 2000);
    }

    #[test]
    #[allow(clippy::explicit_counter_loop)] // `transient` is an address cursor, not a counter
    fn dead_blocks_are_victimized_before_live_ones() {
        // Two block classes in one set: "loop" blocks reused forever and
        // "transient" blocks dead after a second touch by a kill PC.
        // After training, misses should evict transients, not loop blocks.
        let cfg = CacheConfig::new(1, 4);
        let mut c = dbrb_cache(cfg, false);
        let loop_blocks = [0u64, 1];
        let mut transient = 100u64;
        // Train + steady state.
        let mut loop_misses_late = 0;
        for round in 0..400 {
            for &b in &loop_blocks {
                let hit = c.access(&acc(0x500, b)).is_hit();
                if round > 100 && !hit {
                    loop_misses_late += 1;
                }
            }
            // A transient block: touched twice (fill by 0x600, killed by
            // 0x604), never again.
            c.access(&acc(0x600, transient));
            c.access(&acc(0x604, transient));
            transient += 1;
        }
        assert!(
            loop_misses_late <= 4,
            "loop blocks should stay resident once transients are predicted dead, \
             saw {loop_misses_late} late misses"
        );
    }

    #[test]
    fn false_positives_are_counted_on_resident_rehits() {
        let cfg = CacheConfig::new(1, 2);
        let base = Lru::new(cfg.sets, cfg.ways);
        // Train reftrace that PC pair (fill 0x600, hit 0x604) is terminal...
        let policy =
            DeadBlockReplacement::new(cfg, base, RefTrace::new(cfg), DbrbConfig::default());
        let mut c = Cache::with_policy(cfg, Policy::new(policy));
        for i in 0..50u64 {
            let b = 10 + 2 * i;
            c.access(&acc(0x600, b));
            c.access(&acc(0x604, b));
            // Displace it so it gets evicted while predicted dead.
            c.access(&acc(0x700, 11 + 2 * i));
            c.access(&acc(0x700, 13 + 2 * i));
        }
        // Now a block follows the "terminal" trace but IS reused: the extra
        // hit must register a false positive.
        let before = c.stats().false_positives;
        c.access(&acc(0x600, 9_000));
        c.access(&acc(0x604, 9_000)); // marks dead
        c.access(&acc(0x608, 9_000)); // disproves it
        let after = c.stats().false_positives;
        assert!(after > before, "resident re-hit must count a false positive");
    }

    #[test]
    fn coverage_accounting_counts_every_access() {
        let mut c = dbrb_cache(CacheConfig::new(4, 2), true);
        for b in 0..500u64 {
            c.access(&acc(0x400, b % 50));
        }
        let s = c.stats();
        assert_eq!(s.predictions, 500);
        assert!(s.coverage() <= 1.0);
    }

    #[test]
    fn works_with_random_base_policy() {
        use sdbp_replacement::Random;
        let cfg = CacheConfig::new(8, 4);
        let base = Random::new(cfg, 7);
        let policy = DeadBlockReplacement::new(
            cfg,
            base,
            RefTrace::new(cfg),
            DbrbConfig::default(),
        );
        let mut c = Cache::with_policy(cfg, Policy::new(policy));
        assert_eq!(c.policy().name(), "Random+reftrace-dbrb");
        for b in 0..5_000u64 {
            c.access(&acc(0x400 + (b % 7) * 4, b % 300));
        }
        let s = c.stats();
        assert_eq!(s.accesses, 5_000);
        assert_eq!(s.hits + s.misses, 5_000);
    }

    #[test]
    fn downcast_reaches_policy_state() {
        let cfg = CacheConfig::new(4, 2);
        let c = dbrb_cache(cfg, true);
        let policy = c
            .policy()
            .as_any()
            .downcast_ref::<DeadBlockReplacement<Lru, RefTrace>>()
            .expect("downcast failed");
        assert_eq!(policy.predictor().name(), "reftrace");
        assert_eq!(policy.predictor_stats(), PredictorStats::default());
    }
}
