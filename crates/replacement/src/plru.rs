//! Tree-based PseudoLRU.
//!
//! True LRU needs `log2(ways!)` bits per set and is, as the paper notes,
//! "prohibitively expensive to implement in a highly associative LLC".
//! Tree-PLRU approximates it with `ways − 1` bits per set arranged as a
//! binary tree: each internal node points away from the most recently used
//! half. It is the replacement policy real high-associativity caches ship
//! with, and a useful third baseline between true LRU and random.

use sdbp_cache::meta::MetaPlane;
use sdbp_cache::policy::{ReplacementPolicy, Victim};
use sdbp_cache::recorder::LlcAccess;
use sdbp_cache::CacheConfig;
use std::any::Any;
use std::borrow::Cow;

/// Tree-based PseudoLRU replacement. Associativity must be a power of two.
///
/// ```
/// use sdbp_cache::{Cache, CacheConfig};
/// use sdbp_replacement::PseudoLru;
/// let cfg = CacheConfig::llc_2mb();
/// let cache = Cache::with_policy(cfg, Box::new(PseudoLru::new(cfg)));
/// assert_eq!(cache.policy().name(), "PLRU");
/// ```
#[derive(Clone, Debug)]
pub struct PseudoLru {
    ways: usize,
    /// `ways - 1` tree bits per set; bit = 1 means "the MRU side is the
    /// right child", so victims follow 0 = left / 1 = right inverted.
    bits: MetaPlane<bool>,
}

impl PseudoLru {
    /// Creates PLRU state for the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the associativity is not a power of two.
    pub fn new(config: CacheConfig) -> Self {
        assert!(
            config.ways.is_power_of_two(),
            "tree-PLRU needs a power-of-two associativity, got {}",
            config.ways
        );
        PseudoLru { ways: config.ways, bits: MetaPlane::new(config.sets, config.ways - 1, false) }
    }

    /// Walks from the root toward `way`, pointing every node at it.
    fn touch(&mut self, set: usize, way: usize) {
        let mut node = 0usize; // tree-local index, root = 0
        let mut lo = 0usize;
        let mut hi = self.ways;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            let right = way >= mid;
            self.bits[(set, node)] = right;
            node = 2 * node + if right { 2 } else { 1 };
            if right {
                lo = mid;
            } else {
                hi = mid;
            }
        }
    }

    /// Follows the cold pointers from the root to the pseudo-LRU way.
    fn victim_way(&self, set: usize) -> usize {
        let mut node = 0usize;
        let mut lo = 0usize;
        let mut hi = self.ways;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            // Go away from the MRU side.
            let right = !self.bits[(set, node)];
            node = 2 * node + if right { 2 } else { 1 };
            if right {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

impl ReplacementPolicy for PseudoLru {
    fn name(&self) -> Cow<'static, str> {
        Cow::Borrowed("PLRU")
    }

    fn on_hit(&mut self, set: usize, way: usize, _access: &LlcAccess) {
        self.touch(set, way);
    }

    fn choose_victim(&mut self, set: usize, invalid: Option<usize>, _access: &LlcAccess) -> Victim {
        Victim::Way(invalid.unwrap_or_else(|| self.victim_way(set)))
    }

    fn on_fill(&mut self, set: usize, way: usize, _access: &LlcAccess) {
        self.touch(set, way);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdbp_cache::{Cache, CacheConfig};
    use sdbp_trace::{AccessKind, BlockAddr, Pc};

    fn acc(block: u64) -> LlcAccess {
        LlcAccess::demand(Pc::new(0), BlockAddr::new(block), AccessKind::Read, 0)
    }

    #[test]
    fn victim_is_never_the_most_recent() {
        let cfg = CacheConfig::new(1, 8);
        let mut p = PseudoLru::new(cfg);
        let a = acc(0);
        for w in 0..8 {
            p.on_fill(0, w, &a);
        }
        for recent in 0..8 {
            p.on_hit(0, recent, &a);
            assert_ne!(p.victim_way(0), recent, "victim equals the MRU way");
        }
    }

    #[test]
    fn perfect_on_fitting_loop_like_lru() {
        let cfg = CacheConfig::new(4, 8);
        let mut plru = Cache::with_policy(cfg, Box::new(PseudoLru::new(cfg)));
        for round in 0..10 {
            for b in 0..32u64 {
                let hit = plru.access(&acc(b)).is_hit();
                if round > 0 {
                    assert!(hit, "round {round} block {b}");
                }
            }
        }
    }

    #[test]
    fn approximates_lru_within_a_few_percent_on_random_streams() {
        use sdbp_trace::rng::Rng64;
        let cfg = CacheConfig::new(16, 8);
        let mut plru = Cache::with_policy(cfg, Box::new(PseudoLru::new(cfg)));
        let mut lru = Cache::new(cfg);
        let mut rng = Rng64::seed_from_u64(11);
        for _ in 0..60_000 {
            // Zipf-ish mix of hot and cold blocks.
            let b = if rng.gen_bool(0.7) { rng.gen_range(0u64..96) } else { rng.gen_range(0u64..4000) };
            plru.access(&acc(b));
            lru.access(&acc(b));
        }
        let ph = plru.stats().hits as f64;
        let lh = lru.stats().hits as f64;
        assert!(
            (ph - lh).abs() / lh < 0.05,
            "PLRU hits {ph} too far from LRU hits {lh}"
        );
    }

    #[test]
    #[should_panic(expected = "power-of-two associativity")]
    fn rejects_non_power_of_two_ways() {
        let _ = PseudoLru::new(CacheConfig::new(4, 12));
    }

    #[test]
    fn tree_bits_are_per_set() {
        let cfg = CacheConfig::new(2, 4);
        let mut p = PseudoLru::new(cfg);
        let a = acc(0);
        for w in 0..4 {
            p.on_fill(0, w, &a);
            p.on_fill(1, w, &a);
        }
        p.on_hit(0, 3, &a);
        // Set 1's victim unaffected by set 0's touch.
        let v1_before = p.victim_way(1);
        p.on_hit(0, 1, &a);
        assert_eq!(p.victim_way(1), v1_before);
    }
}
