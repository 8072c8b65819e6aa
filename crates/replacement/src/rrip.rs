//! Re-Reference Interval Prediction [Jaleel et al. ISCA'10].
//!
//! Each line carries a 2-bit re-reference prediction value (RRPV). SRRIP
//! inserts with a *long* interval (RRPV = 2), promotes to *near* (RRPV = 0)
//! on a hit, and evicts a *distant* line (RRPV = 3), aging the set when no
//! distant line exists. BRRIP inserts distant most of the time. DRRIP
//! duels the two; with several cores the duel is per-thread (TA-DRRIP),
//! which is what the paper benchmarks as multi-core RRIP.

use crate::dueling::{DuelingMap, Psel, Role};
use sdbp_trace::rng::Rng64;
use sdbp_cache::meta::MetaPlane;
use sdbp_cache::policy::{ReplacementPolicy, Victim};
use sdbp_cache::recorder::LlcAccess;
use sdbp_cache::CacheConfig;
use std::any::Any;
use std::borrow::Cow;

/// Maximum RRPV for 2-bit counters ("distant re-reference").
const RRPV_MAX: u8 = 3;
/// Insertion RRPV for SRRIP ("long re-reference").
const RRPV_LONG: u8 = 2;
/// BRRIP inserts with RRPV_LONG once every 1/epsilon fills.
const BRRIP_EPSILON: f64 = 1.0 / 32.0;
/// Leader sets per policy per core.
const LEADER_SETS: usize = 32;
/// PSEL width.
const PSEL_BITS: u32 = 10;

/// RRPV array plus the victim-selection algorithm shared by all variants.
#[derive(Clone, Debug)]
struct RrpvArray {
    rrpv: MetaPlane<u8>,
}

impl RrpvArray {
    fn new(config: CacheConfig) -> Self {
        RrpvArray { rrpv: MetaPlane::new(config.sets, config.ways, RRPV_MAX) }
    }

    fn promote(&mut self, set: usize, way: usize) {
        self.rrpv[(set, way)] = 0;
    }

    fn insert(&mut self, set: usize, way: usize, rrpv: u8) {
        self.rrpv[(set, way)] = rrpv;
    }

    /// SRRIP victim search: the first distant line, after aging the set
    /// until one exists. Aging one step at a time until some RRPV reaches
    /// [`RRPV_MAX`] is the same as adding `RRPV_MAX - max` to every line
    /// at once, and the first distant line is then the first line that
    /// held the set's largest RRPV — so the search is one max, one add
    /// pass and one select-based scan, with no data-dependent loop.
    #[inline]
    fn victim(&mut self, set: usize, invalid: Option<usize>) -> usize {
        if let Some(w) = invalid {
            return w;
        }
        let row = self.rrpv.row_mut(set);
        let max = row.iter().copied().fold(0, u8::max);
        let age = RRPV_MAX - max;
        let mut victim = row.len();
        for (w, r) in row.iter_mut().enumerate().rev() {
            *r += age;
            victim = if *r == RRPV_MAX { w } else { victim };
        }
        victim
    }
}

/// Static RRIP: always insert with a long re-reference interval.
///
/// ```
/// use sdbp_cache::{Cache, CacheConfig};
/// use sdbp_replacement::Srrip;
/// let cfg = CacheConfig::llc_2mb();
/// let cache = Cache::with_policy(cfg, Box::new(Srrip::new(cfg)));
/// assert_eq!(cache.policy().name(), "SRRIP");
/// ```
#[derive(Clone, Debug)]
pub struct Srrip {
    rrpv: RrpvArray,
}

impl Srrip {
    /// Creates SRRIP for the given geometry.
    pub fn new(config: CacheConfig) -> Self {
        Srrip { rrpv: RrpvArray::new(config) }
    }
}

impl ReplacementPolicy for Srrip {
    fn name(&self) -> Cow<'static, str> {
        Cow::Borrowed("SRRIP")
    }

    fn on_hit(&mut self, set: usize, way: usize, _access: &LlcAccess) {
        self.rrpv.promote(set, way);
    }

    fn choose_victim(&mut self, set: usize, invalid: Option<usize>, _access: &LlcAccess) -> Victim {
        Victim::Way(self.rrpv.victim(set, invalid))
    }

    fn on_fill(&mut self, set: usize, way: usize, _access: &LlcAccess) {
        self.rrpv.insert(set, way, RRPV_LONG);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Dynamic RRIP: per-core set dueling between SRRIP and BRRIP insertion.
/// With `cores == 1` this is the single-thread DRRIP of the RRIP paper
/// (the paper's Figure 4/5 "RRIP" bars); with more cores it is TA-DRRIP
/// (the paper's multi-core RRIP).
#[derive(Clone, Debug)]
pub struct Drrip {
    rrpv: RrpvArray,
    map: DuelingMap,
    psels: Vec<Psel>,
    rng: Rng64,
}

impl Drrip {
    /// Creates DRRIP for `cores` cores sharing the cache.
    pub fn new(config: CacheConfig, cores: usize, seed: u64) -> Self {
        let leaders = crate::dip::fit_leaders(config.sets, cores, LEADER_SETS);
        Drrip {
            rrpv: RrpvArray::new(config),
            map: DuelingMap::new(config.sets, cores, leaders),
            psels: vec![Psel::new(PSEL_BITS); cores],
            rng: Rng64::seed_from_u64(seed),
        }
    }

    fn core_index(&self, access: &LlcAccess) -> usize {
        (access.core as usize).min(self.map.cores() - 1)
    }

    fn brrip_rrpv(&mut self) -> u8 {
        if self.rng.gen_bool(BRRIP_EPSILON) {
            RRPV_LONG
        } else {
            RRPV_MAX
        }
    }
}

impl ReplacementPolicy for Drrip {
    fn name(&self) -> Cow<'static, str> {
        if self.map.cores() > 1 {
            Cow::Borrowed("TA-DRRIP")
        } else {
            Cow::Borrowed("RRIP")
        }
    }

    fn on_hit(&mut self, set: usize, way: usize, _access: &LlcAccess) {
        self.rrpv.promote(set, way);
    }

    fn on_miss(&mut self, set: usize, _access: &LlcAccess) {
        // All cores' misses in a leader set train the owner's PSEL (see
        // InsertionDueler::on_miss for rationale).
        if let Some((core, role)) = self.map.leader_of(set) {
            match role {
                Role::LeaderBaseline => self.psels[core].baseline_missed(),
                Role::LeaderChallenger => self.psels[core].challenger_missed(),
                Role::Follower => unreachable!("leader_of returned Follower"),
            }
        }
    }

    fn choose_victim(&mut self, set: usize, invalid: Option<usize>, _access: &LlcAccess) -> Victim {
        Victim::Way(self.rrpv.victim(set, invalid))
    }

    fn on_fill(&mut self, set: usize, way: usize, access: &LlcAccess) {
        let core = self.core_index(access);
        let use_brrip = match self.map.role(set, core) {
            Role::LeaderBaseline => false,
            Role::LeaderChallenger => true,
            Role::Follower => self.psels[core].challenger_wins(),
        };
        let rrpv = if use_brrip { self.brrip_rrpv() } else { RRPV_LONG };
        self.rrpv.insert(set, way, rrpv);
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

    #[test]
    fn srrip_victim_prefers_distant_lines() {
        let cfg = CacheConfig::new(1, 4);
        let mut s = Srrip::new(cfg);
        let a = acc(0);
        for w in 0..4 {
            s.on_fill(0, w, &a); // all RRPV = 2
        }
        s.on_hit(0, 2, &a); // way 2 RRPV = 0
        // No distant line: aging bumps everyone; ways 0,1,3 reach 3 first.
        let v = s.choose_victim(0, None, &a);
        assert_eq!(v, Victim::Way(0), "the first line that reaches distant");
    }

    #[test]
    fn one_shot_aging_matches_step_by_step_aging() {
        use sdbp_trace::rng::Rng64;
        // The reference is the textbook loop: look for a distant line,
        // age the whole set by one, repeat.
        fn stepwise(row: &mut [u8]) -> usize {
            loop {
                if let Some(w) = row.iter().position(|&r| r == RRPV_MAX) {
                    return w;
                }
                for r in row.iter_mut() {
                    *r += 1;
                }
            }
        }
        let mut rng = Rng64::seed_from_u64(0x5eed);
        for _ in 0..2_000 {
            let ways = rng.gen_range(1usize..20);
            let mut rrpv = RrpvArray::new(CacheConfig::new(1, ways));
            let mut expected: Vec<u8> =
                (0..ways).map(|_| rng.gen_range(0u64..u64::from(RRPV_MAX) + 1) as u8).collect();
            rrpv.rrpv.row_mut(0).copy_from_slice(&expected);
            let want = stepwise(&mut expected);
            assert_eq!(rrpv.victim(0, None), want);
            assert_eq!(rrpv.rrpv.row(0), &expected[..], "aged RRPVs must match too");
        }
    }

    #[test]
    fn srrip_scan_resists_thrash_better_than_lru() {
        // Mixed stream: a hot loop whose blocks are touched twice per round
        // (so RRIP learns they are near-re-reference) plus one-shot scan
        // blocks. SRRIP evicts the never-re-referenced scans; LRU lets the
        // scans push the hot blocks out.
        let cfg = CacheConfig::new(16, 4);
        let mut srrip = Cache::with_policy(cfg, Box::new(Srrip::new(cfg)));
        let mut lru = Cache::new(cfg);
        let mut scan_next = 10_000u64;
        let mut srrip_hot_hits = 0u64;
        let mut lru_hot_hits = 0u64;
        for round in 0..200 {
            for b in 0..32u64 {
                let hot = acc(b);
                let s_hit = srrip.access(&hot).is_hit();
                let l_hit = lru.access(&hot).is_hit();
                // Second touch establishes the near-re-reference interval.
                srrip.access(&hot);
                lru.access(&hot);
                if round >= 2 {
                    srrip_hot_hits += u64::from(s_hit);
                    lru_hot_hits += u64::from(l_hit);
                }
                // Two one-shot scan blocks per hot block.
                for _ in 0..2 {
                    let scan = acc(scan_next);
                    scan_next += 1;
                    srrip.access(&scan);
                    lru.access(&scan);
                }
            }
        }
        assert!(
            srrip_hot_hits > 2 * lru_hot_hits.max(1),
            "SRRIP hot hits {srrip_hot_hits} not better than LRU {lru_hot_hits}"
        );
    }

    #[test]
    fn drrip_beats_srrip_on_pure_thrash() {
        // Cyclic loop 4x the cache: BRRIP retains a fraction, SRRIP
        // (inserting everyone at long) behaves close to LRU.
        let cfg = CacheConfig::new(64, 4);
        let mut drrip = Cache::with_policy(cfg, Box::new(Drrip::new(cfg, 1, 3)));
        let mut srrip = Cache::with_policy(cfg, Box::new(Srrip::new(cfg)));
        let blocks = (64 * 4 * 4) as u64;
        for _ in 0..20 {
            for b in 0..blocks {
                drrip.access(&acc(b));
                srrip.access(&acc(b));
            }
        }
        assert!(
            drrip.stats().hits > srrip.stats().hits,
            "DRRIP {} should beat SRRIP {} on thrash",
            drrip.stats().hits,
            srrip.stats().hits
        );
    }

    #[test]
    fn names_reflect_core_count() {
        let cfg = CacheConfig::new(512, 16);
        assert_eq!(Drrip::new(cfg, 1, 0).name(), "RRIP");
        assert_eq!(Drrip::new(cfg, 4, 0).name(), "TA-DRRIP");
    }

    #[test]
    fn drrip_is_deterministic() {
        let run = || {
            let cfg = CacheConfig::new(64, 4);
            let mut c = Cache::with_policy(cfg, Box::new(Drrip::new(cfg, 1, 7)));
            (0..30_000u64).map(|b| c.access(&acc(b % 777)).is_hit()).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn aging_terminates_and_chooses_valid_way() {
        let cfg = CacheConfig::new(1, 8);
        let mut s = Srrip::new(cfg);
        let a = acc(0);
        for w in 0..8 {
            s.on_fill(0, w, &a);
            s.on_hit(0, w, &a); // all RRPV = 0
        }
        match s.choose_victim(0, None, &a) {
            Victim::Way(w) => assert!(w < 8),
            Victim::Bypass => panic!("SRRIP never bypasses"),
        }
    }
}
