//! The replacement-policy interface and the built-in true-LRU policy.
//!
//! A [`ReplacementPolicy`] owns all of its own state (recency stamps, RRPVs,
//! dead bits, predictor tables, ...) indexed by `(set, way)`; the
//! [`Cache`](crate::Cache) owns only the tag array. On a miss the policy is
//! always consulted via [`ReplacementPolicy::choose_victim`] and may answer
//! [`Victim::Bypass`], which is how dead-block bypass and optimal bypass are
//! expressed.
//!
//! Call order on a hit: `on_hit`. On a miss: `on_miss`, then
//! `choose_victim`, then either (`on_evict` if the chosen way was valid,
//! then `on_fill`) or `on_bypass`.
//!
//! A policy reaches a cache as a [`Policy`]: the policy value together
//! with its own monomorphized replay loop. The concrete policy type is
//! erased once, at the loop boundary, so every policy callback inside the
//! loop is a static call (see DESIGN.md §10).

use crate::meta::MetaPlane;
use crate::recorder::LlcAccess;
use crate::stats::CacheStats;
use sdbp_trace::BlockAddr;
use std::any::Any;
use std::borrow::Cow;
use std::fmt;

/// A policy's answer to "which way should the incoming block replace?".
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Victim {
    /// Replace the block in this way (or fill it if invalid).
    Way(usize),
    /// Do not place the incoming block at all.
    Bypass,
}

/// An LLC replacement (and optionally bypass) policy.
///
/// Implementations must be deterministic given their construction inputs
/// (seeded RNGs for randomized policies) so experiments are reproducible.
pub trait ReplacementPolicy {
    /// Short human-readable name used in result tables (e.g. `"LRU"`).
    ///
    /// Static for every registered policy; composite policies (DBRB over a
    /// base) return an owned composition.
    fn name(&self) -> Cow<'static, str>;

    /// The accessed block was found in `(set, way)`.
    fn on_hit(&mut self, set: usize, way: usize, access: &LlcAccess);

    /// The accessed block missed in `set`; called before victim selection.
    fn on_miss(&mut self, set: usize, access: &LlcAccess) {
        let _ = (set, access);
    }

    /// Chooses a victim frame for the incoming block, or declines placement.
    ///
    /// `invalid` is the set's lowest invalid way, if it has one. Policies
    /// should normally fill it rather than evict.
    fn choose_victim(&mut self, set: usize, invalid: Option<usize>, access: &LlcAccess) -> Victim;

    /// The incoming block was placed in `(set, way)`.
    fn on_fill(&mut self, set: usize, way: usize, access: &LlcAccess);

    /// The valid block `victim` in `(set, way)` is being evicted to make
    /// room for `access`'s block.
    fn on_evict(&mut self, set: usize, way: usize, victim: BlockAddr, access: &LlcAccess) {
        let _ = (set, way, victim, access);
    }

    /// The incoming block bypassed the cache.
    fn on_bypass(&mut self, set: usize, access: &LlcAccess) {
        let _ = (set, access);
    }

    /// Gives the policy a chance to export extra statistics at the end of a
    /// run (predictor coverage, PSEL outcomes, ...).
    fn export_stats(&self, stats: &mut CacheStats) {
        let _ = stats;
    }

    /// Downcasting support, so experiment code can reach policy-specific
    /// state (e.g. predictor accuracy counters) through
    /// [`Cache::policy`](crate::Cache::policy).
    fn as_any(&self) -> &dyn Any;
}

/// Boxed policies forward every callback, so a `Box<dyn
/// ReplacementPolicy>` (a custom policy chosen at run time) is itself a
/// policy. Registry policies are never boxed this way: their callbacks are
/// static calls.
impl<T: ReplacementPolicy + ?Sized> ReplacementPolicy for Box<T> {
    fn name(&self) -> Cow<'static, str> {
        (**self).name()
    }

    #[inline]
    fn on_hit(&mut self, set: usize, way: usize, access: &LlcAccess) {
        (**self).on_hit(set, way, access);
    }

    #[inline]
    fn on_miss(&mut self, set: usize, access: &LlcAccess) {
        (**self).on_miss(set, access);
    }

    #[inline]
    fn choose_victim(&mut self, set: usize, invalid: Option<usize>, access: &LlcAccess) -> Victim {
        (**self).choose_victim(set, invalid, access)
    }

    #[inline]
    fn on_fill(&mut self, set: usize, way: usize, access: &LlcAccess) {
        (**self).on_fill(set, way, access);
    }

    #[inline]
    fn on_evict(&mut self, set: usize, way: usize, victim: BlockAddr, access: &LlcAccess) {
        (**self).on_evict(set, way, victim, access);
    }

    #[inline]
    fn on_bypass(&mut self, set: usize, access: &LlcAccess) {
        (**self).on_bypass(set, access);
    }

    fn export_stats(&self, stats: &mut CacheStats) {
        (**self).export_stats(stats);
    }

    fn as_any(&self) -> &dyn Any {
        (**self).as_any()
    }
}

/// A policy ready to drive a [`Cache`](crate::Cache): the policy value
/// plus the replay loop monomorphized for its concrete type.
///
/// Build one with [`Policy::new`] (static dispatch inside the loop), or
/// convert a boxed policy with `From` — a `Box<dyn ReplacementPolicy>`
/// keeps one virtual call per callback, the escape hatch for policies
/// chosen at run time.
///
/// ```
/// use sdbp_cache::policy::{Lru, Policy};
/// use sdbp_cache::{Cache, CacheConfig};
///
/// let cfg = CacheConfig::new(64, 8);
/// let policy = Policy::new(Lru::new(cfg.sets, cfg.ways));
/// assert_eq!(policy.name(), "LRU");
/// let cache = Cache::with_policy(cfg, policy);
/// assert_eq!(cache.policy().name(), "LRU");
/// ```
pub struct Policy(pub(crate) Box<dyn crate::cache::PolicyLoop>);

impl Policy {
    /// Packages `policy` with its monomorphized replay loop.
    pub fn new<P: ReplacementPolicy + 'static>(policy: P) -> Self {
        Policy(Box::new(policy))
    }

    /// The policy's display name.
    pub fn name(&self) -> Cow<'static, str> {
        self.0.policy().name()
    }

    /// The policy itself (downcast via [`ReplacementPolicy::as_any`]).
    pub fn get(&self) -> &dyn ReplacementPolicy {
        self.0.policy()
    }
}

impl fmt::Debug for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Policy").field(&self.name()).finish()
    }
}

impl<P: ReplacementPolicy + ?Sized + 'static> From<Box<P>> for Policy {
    fn from(policy: Box<P>) -> Self {
        Policy::new(policy)
    }
}

/// Index of the smallest value, the lowest index among equals — the
/// argmin every victim rule uses. See [`argmin_by`].
///
/// ```
/// use sdbp_cache::policy::argmin;
/// assert_eq!(argmin(&[5, 3, 9, 3]), 1);
/// assert_eq!(argmin(&[u64::MAX, u64::MAX]), 0);
/// ```
#[inline]
pub fn argmin(values: &[u64]) -> usize {
    argmin_by(values.len(), |i| values[i])
}

/// Index in `0..len` of the smallest `key`, the lowest index among equals
/// (0 when `len` is 0).
///
/// Nothing branches on the keys: each step turns its comparison into an
/// all-ones/all-zeros mask and blends with it. (A plain `if`-select here
/// is lowered to a mispredicting branch once the compiler sees the
/// loop-carried chain.)
#[inline]
pub fn argmin_by(len: usize, key: impl Fn(usize) -> u64) -> usize {
    /// Keeps `(v, i)` unless `(w, j)` is strictly smaller; `(v, i)` must
    /// come from lower indices, so ties keep the lowest index.
    #[inline(always)]
    fn merge((v, i): (u64, usize), (w, j): (u64, usize)) -> (u64, usize) {
        let take = u64::from(w < v).wrapping_neg();
        (v ^ ((v ^ w) & take), i ^ ((i ^ j) & take as usize))
    }
    reduce(len, |i| (key(i), i), merge, (u64::MAX, 0)).1
}

/// The smallest `key` over `0..len` (`u64::MAX` when `len` is 0), with
/// the same mask blend as [`argmin_by`].
#[inline]
fn min_by(len: usize, key: impl Fn(usize) -> u64) -> u64 {
    reduce(len, key, |a, b| b ^ ((a ^ b) & u64::from(a < b).wrapping_neg()), u64::MAX)
}

/// Folds `leaf(0..len)` with `merge`, left operand always covering the
/// lower indices. The paper's 16-way rows reduce as a balanced tree, so
/// the dependency chain is four merges deep instead of sixteen.
#[inline(always)]
fn reduce<T: Copy>(
    len: usize,
    leaf: impl Fn(usize) -> T,
    merge: impl Fn(T, T) -> T,
    empty: T,
) -> T {
    if len == 16 {
        let mut level: [T; 16] = std::array::from_fn(leaf);
        let mut width = 16;
        while width > 1 {
            width /= 2;
            for i in 0..width {
                level[i] = merge(level[2 * i], level[2 * i + 1]);
            }
        }
        return level[0];
    }
    (0..len).fold(empty, |acc, i| merge(acc, leaf(i)))
}

/// True least-recently-used replacement.
///
/// The paper's baseline for every single-thread experiment. Implemented
/// with per-line 64-bit recency stamps (a global counter), which is exact
/// and O(ways) per victim choice.
///
/// ```
/// use sdbp_cache::policy::{Lru, ReplacementPolicy, Victim};
/// use sdbp_cache::recorder::LlcAccess;
/// use sdbp_trace::{AccessKind, BlockAddr, Pc};
///
/// let mut lru = Lru::new(1, 2);
/// let a = LlcAccess::demand(Pc::new(0), BlockAddr::new(0), AccessKind::Read, 0);
/// lru.on_fill(0, 0, &a);
/// lru.on_fill(0, 1, &a);
/// lru.on_hit(0, 0, &a); // way 1 is now least recent
/// assert_eq!(lru.choose_victim(0, None, &a), Victim::Way(1));
/// ```
#[derive(Clone, Debug)]
pub struct Lru {
    stamps: MetaPlane<u64>,
    clock: u64,
}

impl Lru {
    /// Creates LRU state for a `sets` × `ways` cache.
    pub fn new(sets: usize, ways: usize) -> Self {
        Lru { stamps: MetaPlane::new(sets, ways, 0), clock: 0 }
    }

    #[inline]
    fn touch(&mut self, set: usize, way: usize) {
        self.clock += 1;
        self.stamps[(set, way)] = self.clock;
    }

    /// The least recently used way of a full `set`: the smallest stamp,
    /// the lowest way among equal stamps.
    #[inline]
    pub fn lru_way(&self, set: usize) -> usize {
        argmin(self.stamps.row(set))
    }

    /// Moves `(set, way)` to the MRU position.
    #[inline]
    pub fn promote(&mut self, set: usize, way: usize) {
        self.touch(set, way);
    }

    /// Inserts `(set, way)` at the LRU position (for BIP/LIP-style
    /// insertion): gives it a stamp older than every other line in the set.
    #[inline]
    pub fn demote_to_lru(&mut self, set: usize, way: usize) {
        let row = self.stamps.row(set);
        // The smallest other stamp (0 in a one-way set), with `way` itself
        // keyed out rather than skipped so the reduction has no branch.
        let key = |w: usize| row[w] | u64::from(w == way).wrapping_neg();
        let min = if row.len() > 1 { min_by(row.len(), key) } else { 0 };
        self.stamps[(set, way)] = min.saturating_sub(1);
    }
}

impl ReplacementPolicy for Lru {
    fn name(&self) -> Cow<'static, str> {
        Cow::Borrowed("LRU")
    }

    #[inline]
    fn on_hit(&mut self, set: usize, way: usize, _access: &LlcAccess) {
        self.touch(set, way);
    }

    #[inline]
    fn choose_victim(&mut self, set: usize, invalid: Option<usize>, _access: &LlcAccess) -> Victim {
        Victim::Way(invalid.unwrap_or_else(|| self.lru_way(set)))
    }

    #[inline]
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
    use sdbp_trace::{AccessKind, Pc};

    fn acc(block: u64) -> LlcAccess {
        LlcAccess::demand(Pc::new(0x400), BlockAddr::new(block), AccessKind::Read, 0)
    }

    #[test]
    fn argmin_takes_the_lowest_index_among_ties() {
        assert_eq!(argmin(&[4, 2, 2, 7]), 1);
        assert_eq!(argmin(&[9]), 0);
        assert_eq!(argmin(&[3, 3, 3]), 0);
        assert_eq!(argmin(&[8, 7, 6, 5]), 3);
        assert_eq!(argmin(&[]), 0);
    }

    #[test]
    fn argmin_matches_min_by_key_at_every_width() {
        // `Iterator::min_by_key` returns the first minimum: the reference
        // for both the tree (16 lanes) and the linear path.
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for len in 1..40 {
            for _ in 0..200 {
                let values: Vec<u64> = (0..len)
                    .map(|_| {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        // Few distinct values, so ties are common.
                        x % 5
                    })
                    .collect();
                let want = (0..len).min_by_key(|&i| values[i]).unwrap();
                assert_eq!(argmin(&values), want, "{values:?}");
            }
        }
    }

    #[test]
    fn lru_prefers_invalid_ways() {
        let mut lru = Lru::new(1, 4);
        assert_eq!(lru.choose_victim(0, Some(3), &acc(9)), Victim::Way(3));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut lru = Lru::new(1, 4);
        let a = acc(0);
        for w in 0..4 {
            lru.on_fill(0, w, &a);
        }
        lru.on_hit(0, 0, &a);
        lru.on_hit(0, 1, &a);
        // Way 2 is now the least recently touched.
        assert_eq!(lru.choose_victim(0, None, &a), Victim::Way(2));
    }

    #[test]
    fn demote_to_lru_makes_way_next_victim() {
        let mut lru = Lru::new(1, 4);
        let a = acc(0);
        for w in 0..4 {
            lru.on_fill(0, w, &a);
        }
        lru.demote_to_lru(0, 3);
        assert_eq!(lru.choose_victim(0, None, &a), Victim::Way(3));
    }

    #[test]
    fn demoted_ties_resolve_to_the_lowest_way() {
        // Two demotions against a fresh set both land on stamp 0: the
        // victim is the lower of the tied ways.
        let mut lru = Lru::new(1, 3);
        let a = acc(0);
        lru.on_fill(0, 0, &a);
        lru.demote_to_lru(0, 2);
        lru.demote_to_lru(0, 1);
        assert_eq!(lru.choose_victim(0, None, &a), Victim::Way(1));
    }

    #[test]
    fn sets_are_independent() {
        let mut lru = Lru::new(2, 2);
        let a = acc(0);
        lru.on_fill(0, 0, &a);
        lru.on_fill(0, 1, &a);
        lru.on_fill(1, 1, &a);
        lru.on_fill(1, 0, &a);
        assert_eq!(lru.choose_victim(0, None, &a), Victim::Way(0));
        assert_eq!(lru.choose_victim(1, None, &a), Victim::Way(1));
    }

    #[test]
    fn boxed_policies_forward_and_downcast() {
        let boxed: Box<dyn ReplacementPolicy> = Box::new(Lru::new(1, 2));
        let policy = Policy::from(boxed);
        assert_eq!(policy.name(), "LRU");
        assert!(policy.get().as_any().downcast_ref::<Lru>().is_some());
    }
}
