//! A lean, always-LRU tag array for the fixed upper levels (L1, L2).
//!
//! The LLC needs the full policy machinery of [`crate::Cache`]; the L1 and
//! L2 never change policy, are on the recording hot path, and only need
//! hit/miss plus dirty-victim information, so they get this specialised
//! implementation.
//!
//! Storage is data-first, like the LLC's tag rows (DESIGN.md §10): one row
//! per set holds the set's block keys, recency stamps and dirty bits side
//! by side, padded to a multiple of 8 ways. An empty frame holds
//! [`INVALID`] with stamp 0; a padding lane holds [`INVALID`] with stamp
//! `u64::MAX`. Lookup is an 8-lane compare mask over the keys, and
//! the victim is the lowest-numbered frame with the smallest stamp — the
//! first empty frame when there is one, since every access stamps its
//! frame with a clock that starts at 1.

use crate::cache::{lane_mask, INVALID};
use crate::config::CacheConfig;
use sdbp_trace::BlockAddr;

/// Ways compared at once; rows are padded to a multiple of this. The
/// MIN oracle's rows use the same groups.
pub const LANES: usize = 8;

/// Stamp of a padding lane: larger than any clock, so never a victim.
const PADDING: u64 = u64::MAX;

/// The lowest lane of `lanes` equal to `value`, comparing [`LANES`] at a
/// time (`lanes.len()` must be a multiple of [`LANES`]; a partial last
/// group is not searched).
#[inline(always)]
pub fn first_equal(lanes: &[u64], value: u64) -> Option<usize> {
    let (groups, _) = lanes.as_chunks::<LANES>();
    groups.iter().enumerate().find_map(|(g, group)| {
        let mask = lane_mask(group, value);
        (mask != 0).then(|| g * LANES + mask.trailing_zeros() as usize)
    })
}

/// The smaller of two `(stamp, lane)` pairs; on a tie, `a`.
#[inline(always)]
fn older(a: (u64, usize), b: (u64, usize)) -> (u64, usize) {
    if b.0 < a.0 {
        b
    } else {
        a
    }
}

/// The smallest stamp of a group and the lowest lane holding it: a
/// pairwise tournament in which the lower lane wins every tie.
#[inline(always)]
fn group_oldest(g: &[u64; LANES]) -> (u64, usize) {
    let pairs = [0, 2, 4, 6].map(|i| older((g[i], i), (g[i + 1], i + 1)));
    older(older(pairs[0], pairs[1]), older(pairs[2], pairs[3]))
}

/// The lowest lane holding the smallest stamp.
#[inline(always)]
fn oldest(stamps: &[u64]) -> usize {
    let (groups, _) = stamps.as_chunks::<LANES>();
    let first = (PADDING, 0);
    let (_, lane) = groups.iter().enumerate().fold(first, |best, (g, group)| {
        let (stamp, lane) = group_oldest(group);
        older(best, (stamp, g * LANES + lane))
    });
    lane
}

/// A set-associative LRU cache holding only tags.
#[derive(Clone, Debug)]
pub struct LruArray {
    config: CacheConfig,
    /// Ways rounded up to a multiple of [`LANES`].
    lanes: usize,
    /// Words per row: `lanes` keys, `lanes` stamps, then one dirty bit per
    /// lane (lane `w` at bit `w % 64` of dirty word `w / 64`).
    stride: usize,
    rows: Vec<u64>,
    clock: u64,
    hits: u64,
    misses: u64,
}

/// Result of an [`LruArray::access`].
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct LruOutcome {
    /// Whether the block was resident.
    pub hit: bool,
    /// A dirty block displaced by the fill, if any.
    pub writeback: Option<BlockAddr>,
}

/// One set's row split into its three parts.
struct Row<'a> {
    keys: &'a mut [u64],
    stamps: &'a mut [u64],
    dirty: &'a mut [u64],
}

impl Row<'_> {
    /// Sets lane `way`'s dirty bit to `dirty` and returns its old value.
    #[inline(always)]
    fn swap_dirty(&mut self, way: usize, dirty: bool) -> bool {
        let (word, bit) = (&mut self.dirty[way / 64], way % 64);
        let was = (*word >> bit) & 1 == 1;
        *word = (*word & !(1 << bit)) | (u64::from(dirty) << bit);
        was
    }
}

impl LruArray {
    /// Creates an empty cache with the given geometry.
    pub fn new(config: CacheConfig) -> Self {
        let lanes = config.ways.next_multiple_of(LANES);
        let stride = 2 * lanes + lanes.div_ceil(64);
        let mut row = vec![INVALID; lanes];
        row.extend((0..lanes).map(|w| if w < config.ways { 0 } else { PADDING }));
        row.resize(stride, 0);
        let rows = row.repeat(config.sets);
        LruArray { config, lanes, stride, rows, clock: 0, hits: 0, misses: 0 }
    }

    /// The cache's geometry.
    pub const fn config(&self) -> CacheConfig {
        self.config
    }

    /// Hits observed so far.
    pub const fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses observed so far.
    pub const fn misses(&self) -> u64 {
        self.misses
    }

    /// `block`'s row.
    #[inline(always)]
    fn row(&mut self, block: BlockAddr) -> Row<'_> {
        debug_assert_ne!(block.raw(), INVALID, "block collides with the empty-frame key");
        let start = block.set_index(self.config.sets) * self.stride;
        let (keys, rest) = self.rows[start..start + self.stride].split_at_mut(self.lanes);
        let (stamps, dirty) = rest.split_at_mut(self.lanes);
        Row { keys, stamps, dirty }
    }

    /// Whether `block` is resident (does not update recency).
    pub fn contains(&self, block: BlockAddr) -> bool {
        let start = block.set_index(self.config.sets) * self.stride;
        let keys = &self.rows[start..start + self.lanes];
        block.raw() != INVALID && first_equal(keys, block.raw()).is_some()
    }

    /// Invalidates `block` if resident (back-invalidation from an inclusive
    /// outer level), returning whether it was present and dirty. The frame
    /// becomes empty (stamp 0), so the set refills it, or a lower empty
    /// frame, before it evicts any resident block.
    pub fn invalidate(&mut self, block: BlockAddr) -> Option<bool> {
        let mut row = self.row(block);
        let way = first_equal(row.keys, block.raw())?;
        row.keys[way] = INVALID;
        row.stamps[way] = 0;
        Some(row.swap_dirty(way, false))
    }

    /// Accesses `block` as a write if resident, without allocating on a
    /// miss (a dirty victim written back from the level above); returns
    /// whether it was resident. A resident write counts as a hit, as
    /// [`LruArray::access`] would count it.
    #[inline]
    pub fn write_back(&mut self, block: BlockAddr) -> bool {
        let clock = self.clock + 1;
        let row = self.row(block);
        let Some(way) = first_equal(row.keys, block.raw()) else { return false };
        row.stamps[way] = clock;
        row.dirty[way / 64] |= 1 << (way % 64);
        self.clock = clock;
        self.hits += 1;
        true
    }

    /// Accesses `block`, filling on miss with LRU replacement and write-back
    /// write-allocate semantics.
    #[inline(always)]
    pub fn access(&mut self, block: BlockAddr, is_write: bool) -> LruOutcome {
        self.clock += 1;
        let clock = self.clock;
        let key = block.raw();
        let mut row = self.row(block);
        if let Some(way) = first_equal(row.keys, key) {
            row.stamps[way] = clock;
            row.dirty[way / 64] |= u64::from(is_write) << (way % 64);
            self.hits += 1;
            return LruOutcome { hit: true, writeback: None };
        }
        let way = oldest(row.stamps);
        let old = std::mem::replace(&mut row.keys[way], key);
        row.stamps[way] = clock;
        let was_dirty = row.swap_dirty(way, is_write);
        self.misses += 1;
        let writeback = (old != INVALID && was_dirty).then(|| BlockAddr::new(old));
        LruOutcome { hit: false, writeback }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> LruArray {
        LruArray::new(CacheConfig::new(2, 2))
    }

    #[test]
    fn hit_after_fill() {
        let mut c = tiny();
        assert!(!c.access(BlockAddr::new(0), false).hit);
        assert!(c.access(BlockAddr::new(0), false).hit);
        assert_eq!((c.hits(), c.misses()), (1, 1));
    }

    #[test]
    fn lru_order_respected() {
        let mut c = tiny();
        c.access(BlockAddr::new(0), false);
        c.access(BlockAddr::new(2), false);
        c.access(BlockAddr::new(0), false); // 2 is LRU
        c.access(BlockAddr::new(4), false); // evicts 2
        assert!(c.contains(BlockAddr::new(0)));
        assert!(!c.contains(BlockAddr::new(2)));
    }

    #[test]
    fn dirty_victim_produces_writeback() {
        let mut c = tiny();
        c.access(BlockAddr::new(0), true);
        c.access(BlockAddr::new(2), false);
        let out = c.access(BlockAddr::new(4), false); // evicts dirty 0
        assert_eq!(out.writeback, Some(BlockAddr::new(0)));
    }

    #[test]
    fn clean_victim_produces_no_writeback() {
        let mut c = tiny();
        c.access(BlockAddr::new(0), false);
        c.access(BlockAddr::new(2), false);
        let out = c.access(BlockAddr::new(4), false);
        assert_eq!(out.writeback, None);
    }

    #[test]
    fn write_hit_dirties_line() {
        let mut c = tiny();
        c.access(BlockAddr::new(0), false);
        c.access(BlockAddr::new(0), true); // dirty via hit
        c.access(BlockAddr::new(2), false);
        let out = c.access(BlockAddr::new(4), false);
        assert_eq!(out.writeback, Some(BlockAddr::new(0)));
    }

    #[test]
    fn padding_lanes_are_never_filled() {
        // 3 ways pad to 8 lanes: the fourth block must evict the LRU of
        // the three real frames, not land in a padding lane.
        let mut c = LruArray::new(CacheConfig::new(1, 3));
        for b in [1, 2, 3] {
            c.access(BlockAddr::new(b), false);
        }
        c.access(BlockAddr::new(1), false); // 2 is LRU
        assert!(!c.access(BlockAddr::new(4), false).hit);
        assert!(!c.contains(BlockAddr::new(2)));
        assert!([1, 3, 4].iter().all(|&b| c.contains(BlockAddr::new(b))));
    }

    #[test]
    fn invalidated_frame_is_refilled_first() {
        let mut c = LruArray::new(CacheConfig::new(1, 4));
        for b in [1, 2, 3, 4] {
            c.access(BlockAddr::new(b), b == 3);
        }
        assert_eq!(c.invalidate(BlockAddr::new(3)), Some(true));
        assert_eq!(c.invalidate(BlockAddr::new(3)), None);
        // Block 1 is LRU, but the empty frame is taken first.
        assert_eq!(c.access(BlockAddr::new(5), false).writeback, None);
        assert!([1, 2, 4, 5].iter().all(|&b| c.contains(BlockAddr::new(b))));
    }

    #[test]
    fn the_first_empty_frame_is_filled_first() {
        // Frame placement is invisible to LRU outcomes, so pin it on the
        // row itself: fills take the lowest empty way, in any order of
        // invalidation.
        let mut c = LruArray::new(CacheConfig::new(1, 4));
        for b in [1, 2, 3, 4] {
            c.access(BlockAddr::new(b), false);
        }
        c.invalidate(BlockAddr::new(4));
        c.invalidate(BlockAddr::new(2));
        c.access(BlockAddr::new(5), false);
        assert_eq!(c.rows[..4], [1, 5, 3, INVALID]);
        c.access(BlockAddr::new(6), false);
        assert_eq!(c.rows[..4], [1, 5, 3, 6]);
    }

    #[test]
    fn write_back_updates_only_resident_blocks() {
        let mut c = tiny();
        assert!(!c.write_back(BlockAddr::new(0)));
        assert_eq!((c.hits(), c.misses()), (0, 0));
        c.access(BlockAddr::new(0), false);
        c.access(BlockAddr::new(2), false);
        assert!(c.write_back(BlockAddr::new(0))); // 0 now dirty and MRU
        assert_eq!(c.hits(), 1);
        c.access(BlockAddr::new(4), false); // evicts clean 2
        let out = c.access(BlockAddr::new(6), false); // evicts dirty 0
        assert_eq!(out.writeback, Some(BlockAddr::new(0)));
    }

    #[test]
    fn agrees_with_policy_cache_on_random_stream() {
        use crate::cache::Cache;
        use crate::recorder::LlcAccess;
        use sdbp_trace::rng::Rng64;
        use sdbp_trace::{AccessKind, Pc};

        let cfg = CacheConfig::new(8, 4);
        let mut fast = LruArray::new(cfg);
        let mut slow = Cache::new(cfg);
        let mut rng = Rng64::seed_from_u64(99);
        for _ in 0..20_000 {
            let block = BlockAddr::new(rng.gen_range(0..200));
            let write = rng.gen_bool(0.3);
            let kind = if write { AccessKind::Write } else { AccessKind::Read };
            let fast_hit = fast.access(block, write).hit;
            let slow_hit =
                slow.access(&LlcAccess::demand(Pc::new(0), block, kind, 0)).is_hit();
            assert_eq!(fast_hit, slow_hit, "divergence at block {block}");
        }
    }
}
