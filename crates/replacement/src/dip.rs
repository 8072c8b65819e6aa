//! Dynamic Insertion Policy (DIP) and its thread-aware variant (TADIP).
//!
//! DIP [Qureshi et al. ISCA'07] duels LRU insertion (insert at MRU) against
//! the Bimodal Insertion Policy (BIP: insert at LRU, promoting to MRU with
//! probability 1/32), which protects the cache against thrashing working
//! sets. TADIP [Jaleel et al. PACT'08] repeats the duel per thread so
//! thrashing and cache-friendly co-runners can choose independently.

use crate::dueling::{DuelingMap, Psel, Role};
use sdbp_trace::rng::Rng64;
use sdbp_cache::policy::{Lru, ReplacementPolicy, Victim};
use sdbp_cache::recorder::LlcAccess;
use sdbp_cache::CacheConfig;
use std::any::Any;
use std::borrow::Cow;

/// BIP promotes an insertion to MRU once every `BIP_EPSILON` fills.
const BIP_EPSILON: f64 = 1.0 / 32.0;
/// Leader sets per policy (per core for TADIP), as in the DIP paper.
const LEADER_SETS: usize = 32;
/// PSEL width in bits.
const PSEL_BITS: u32 = 10;

/// Which insertion a fill should use.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum Insertion {
    Mru,
    Bip,
}

/// Shared machinery for DIP/TADIP.
#[derive(Clone, Debug)]
struct InsertionDueler {
    lru: Lru,
    map: DuelingMap,
    psels: Vec<Psel>,
    rng: Rng64,
}

/// Largest leader count (≤ the requested one) the geometry can host: each
/// group of `sets / leaders` sets must fit two leader slots per core.
pub(crate) fn fit_leaders(sets: usize, cores: usize, requested: usize) -> usize {
    let mut leaders = requested.min(sets / (2 * cores)).max(1);
    // Keep sets / leaders integral by rounding down to a power of two
    // (set counts are powers of two).
    while !leaders.is_power_of_two() {
        leaders -= 1;
    }
    leaders
}

impl InsertionDueler {
    fn new(config: CacheConfig, cores: usize, seed: u64) -> Self {
        let leaders = fit_leaders(config.sets, cores, LEADER_SETS);
        InsertionDueler {
            lru: Lru::new(config.sets, config.ways),
            map: DuelingMap::new(config.sets, cores, leaders),
            psels: vec![Psel::new(PSEL_BITS); cores],
            rng: Rng64::seed_from_u64(seed),
        }
    }

    fn core_index(&self, access: &LlcAccess) -> usize {
        (access.core as usize).min(self.map.cores() - 1)
    }

    fn on_miss(&mut self, set: usize, _access: &LlcAccess) {
        // Every miss in a leader set trains the owning core's PSEL (all
        // cores' misses count, so cross-core benefits of the owner's
        // insertion choice register — the TADIP-F feedback).
        if let Some((core, role)) = self.map.leader_of(set) {
            match role {
                Role::LeaderBaseline => self.psels[core].baseline_missed(),
                Role::LeaderChallenger => self.psels[core].challenger_missed(),
                Role::Follower => unreachable!("leader_of returned Follower"),
            }
        }
    }

    fn insertion_for(&mut self, set: usize, access: &LlcAccess) -> Insertion {
        let core = self.core_index(access);
        match self.map.role(set, core) {
            Role::LeaderBaseline => Insertion::Mru,
            Role::LeaderChallenger => Insertion::Bip,
            Role::Follower => {
                if self.psels[core].challenger_wins() {
                    Insertion::Bip
                } else {
                    Insertion::Mru
                }
            }
        }
    }

    fn fill(&mut self, set: usize, way: usize, access: &LlcAccess) {
        match self.insertion_for(set, access) {
            Insertion::Mru => self.lru.promote(set, way),
            Insertion::Bip => {
                if self.rng.gen_bool(BIP_EPSILON) {
                    self.lru.promote(set, way);
                } else {
                    self.lru.demote_to_lru(set, way);
                }
            }
        }
    }
}

/// Single-core DIP with 32 leader sets per policy and a 10-bit PSEL.
///
/// ```
/// use sdbp_cache::{Cache, CacheConfig};
/// use sdbp_replacement::Dip;
/// let cfg = CacheConfig::llc_2mb();
/// let cache = Cache::with_policy(cfg, Box::new(Dip::new(cfg, 1)));
/// assert_eq!(cache.policy().name(), "DIP");
/// ```
#[derive(Clone, Debug)]
pub struct Dip {
    inner: InsertionDueler,
}

impl Dip {
    /// Creates DIP for the given geometry.
    pub fn new(config: CacheConfig, seed: u64) -> Self {
        Dip { inner: InsertionDueler::new(config, 1, seed) }
    }
}

impl ReplacementPolicy for Dip {
    fn name(&self) -> Cow<'static, str> {
        Cow::Borrowed("DIP")
    }

    fn on_hit(&mut self, set: usize, way: usize, _access: &LlcAccess) {
        self.inner.lru.promote(set, way);
    }

    fn on_miss(&mut self, set: usize, access: &LlcAccess) {
        self.inner.on_miss(set, access);
    }

    #[inline]
    fn choose_victim(&mut self, set: usize, invalid: Option<usize>, _access: &LlcAccess) -> Victim {
        Victim::Way(invalid.unwrap_or_else(|| self.inner.lru.lru_way(set)))
    }

    fn on_fill(&mut self, set: usize, way: usize, access: &LlcAccess) {
        self.inner.fill(set, way, access);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Thread-aware DIP: per-core leader sets and PSELs (TADIP-F).
#[derive(Clone, Debug)]
pub struct Tadip {
    inner: InsertionDueler,
}

impl Tadip {
    /// Creates TADIP for `cores` cores sharing the cache.
    pub fn new(config: CacheConfig, cores: usize, seed: u64) -> Self {
        Tadip { inner: InsertionDueler::new(config, cores, seed) }
    }
}

impl ReplacementPolicy for Tadip {
    fn name(&self) -> Cow<'static, str> {
        Cow::Borrowed("TADIP")
    }

    fn on_hit(&mut self, set: usize, way: usize, _access: &LlcAccess) {
        self.inner.lru.promote(set, way);
    }

    fn on_miss(&mut self, set: usize, access: &LlcAccess) {
        self.inner.on_miss(set, access);
    }

    #[inline]
    fn choose_victim(&mut self, set: usize, invalid: Option<usize>, _access: &LlcAccess) -> Victim {
        Victim::Way(invalid.unwrap_or_else(|| self.inner.lru.lru_way(set)))
    }

    fn on_fill(&mut self, set: usize, way: usize, access: &LlcAccess) {
        self.inner.fill(set, way, access);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdbp_cache::Cache;
    use sdbp_trace::{AccessKind, BlockAddr, Pc};

    fn acc(block: u64) -> LlcAccess {
        LlcAccess::demand(Pc::new(0), BlockAddr::new(block), AccessKind::Read, 0)
    }

    fn dip_cache(sets: usize, ways: usize) -> Cache {
        let cfg = CacheConfig::new(sets, ways);
        Cache::with_policy(cfg, Box::new(Dip::new(cfg, 3)))
    }

    #[test]
    fn behaves_like_lru_on_friendly_stream() {
        // A loop that fits: DIP should converge to (or keep) MRU insertion
        // and match LRU's perfect hit rate after warmup.
        let mut dip = dip_cache(64, 4);
        let mut lru = Cache::new(CacheConfig::new(64, 4));
        let blocks = 64 * 4;
        for _ in 0..20 {
            for b in 0..blocks as u64 {
                dip.access(&acc(b));
                lru.access(&acc(b));
            }
        }
        let dh = dip.stats().hits as f64;
        let lh = lru.stats().hits as f64;
        assert!(dh >= 0.95 * lh, "DIP hits {dh} far below LRU {lh}");
    }

    #[test]
    fn beats_lru_on_thrashing_stream() {
        // Cyclic loop slightly larger than the cache: LRU gets zero hits,
        // BIP retains a resident fraction.
        let mut dip = dip_cache(64, 4);
        let mut lru = Cache::new(CacheConfig::new(64, 4));
        let blocks = (64 * 4 * 2) as u64;
        for _ in 0..30 {
            for b in 0..blocks {
                dip.access(&acc(b));
                lru.access(&acc(b));
            }
        }
        assert!(
            dip.stats().hits > lru.stats().hits + 1000,
            "DIP ({}) should beat LRU ({}) on a thrashing loop",
            dip.stats().hits,
            lru.stats().hits
        );
    }

    #[test]
    fn tadip_isolates_thrashing_core() {
        // Core 0 thrashes, core 1 runs a friendly loop. TADIP should let
        // core 1 keep near-perfect hits.
        let cfg = CacheConfig::new(64, 4);
        let mut cache = Cache::with_policy(cfg, Box::new(Tadip::new(cfg, 2, 3)));
        let friendly_blocks = 32u64;
        let thrash_blocks = 4096u64;
        let mut friendly_hits = 0u64;
        let mut friendly_refs = 0u64;
        for round in 0..60 {
            for i in 0..thrash_blocks {
                cache.access(&LlcAccess::demand(
                    Pc::new(1),
                    BlockAddr::new(1_000_000 + (i % thrash_blocks)),
                    AccessKind::Read,
                    0,
                ));
                if i % 16 == 0 {
                    let b = (i / 16) % friendly_blocks;
                    let hit = cache
                        .access(&LlcAccess::demand(Pc::new(2), BlockAddr::new(b), AccessKind::Read, 1))
                        .is_hit();
                    if round >= 30 {
                        friendly_refs += 1;
                        friendly_hits += u64::from(hit);
                    }
                }
            }
        }
        let rate = friendly_hits as f64 / friendly_refs as f64;
        assert!(rate > 0.5, "friendly core hit rate {rate} too low under TADIP");
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let cfg = CacheConfig::new(64, 4);
            let mut c = Cache::with_policy(cfg, Box::new(Dip::new(cfg, seed)));
            (0..20_000u64).map(|b| c.access(&acc(b % 511)).is_hit()).collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
    }
}
