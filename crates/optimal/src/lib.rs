//! Belady's MIN replacement extended with optimal bypass (paper §VI-B).
//!
//! Given the complete (recorded) LLC reference stream, MIN evicts the block
//! whose next use is farthest in the future. The paper enhances it with a
//! bypass rule: if the incoming block's next access lies beyond the next
//! accesses of *every* block in the set, the block is not placed at all.
//! The paper reports miss counts (not speedups) for this policy, as do we.
//!
//! Implementation: one backward pass over the stream links each access to
//! the same block's next access ([`next_use_distances`]); a forward pass
//! then simulates each set exactly ([`simulate`]). Both passes are
//! data-first (DESIGN.md §10): the backward pass keeps each block's latest
//! access in an open-addressed table under a fixed multiplicative hash,
//! and the forward pass, one set at a time, keeps the set as one flat row
//! of block keys and next-use positions, found by compare mask and
//! evicted by masked argmax.
//!
//! # Example
//!
//! ```
//! use sdbp_cache::{CacheConfig, recorder::LlcAccess};
//! use sdbp_trace::{AccessKind, BlockAddr, Pc};
//! let a = |b: u64| LlcAccess {
//!     pc: Pc::new(0), block: BlockAddr::new(b),
//!     kind: AccessKind::Read, core: 0, instr: 0,
//! };
//! // Single set, 1 way: [0, 1, 0] — MIN bypasses block 1.
//! let stream = vec![a(0), a(1), a(0)];
//! let r = sdbp_optimal::simulate(&stream, CacheConfig::new(1, 1));
//! assert_eq!(r.misses, 2);
//! assert_eq!(r.bypasses, 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use sdbp_cache::cache::{key_hash, INVALID};
use sdbp_cache::lru::{first_equal, LANES};
use sdbp_cache::recorder::LlcAccess;
use sdbp_cache::CacheConfig;

/// Sentinel meaning "never referenced again".
pub const NEVER: u64 = u64::MAX;

/// Result of an optimal-policy simulation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct OptimalResult {
    /// Accesses presented.
    pub accesses: u64,
    /// Hits.
    pub hits: u64,
    /// Misses (compulsory + capacity/conflict under MIN).
    pub misses: u64,
    /// Misses whose block was not placed (optimal bypass).
    pub bypasses: u64,
}

impl OptimalResult {
    /// Misses per kilo-instruction for a run of `instructions` instructions.
    pub fn mpki(&self, instructions: u64) -> f64 {
        assert!(instructions > 0, "instruction count must be positive");
        self.misses as f64 * 1000.0 / instructions as f64
    }
}

/// Links every key of `keys` to the position of the same key's next
/// occurrence within its segment ([`NEVER`] if none). Segment `s` is
/// `keys[bounds[s]..bounds[s + 1]]`; `bounds` runs from 0 to `keys.len()`.
///
/// One backward pass through an open-addressed table (linear probing) of
/// `(key, position)` slots, sized for the longest segment at most half
/// full. A slot is free for the current segment when its position lies at
/// or past the segment's end, so moving on to the previous segment frees
/// every slot without touching the table.
fn link_next_uses(keys: &[u64], bounds: &[usize]) -> Vec<u64> {
    let longest = bounds.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0);
    let slots = (2 * longest).next_power_of_two();
    let mut table = vec![(0u64, NEVER); slots];
    let mask = slots - 1;
    let mut next = vec![NEVER; keys.len()];
    for segment in bounds.windows(2).rev() {
        let end = segment[1] as u64;
        for k in (segment[0]..segment[1]).rev() {
            let key = keys[k];
            let mut i = key_hash(key) as usize & mask;
            loop {
                let (slot_key, position) = table[i];
                if position >= end {
                    table[i] = (key, k as u64);
                    break;
                }
                if slot_key == key {
                    next[k] = position;
                    table[i].1 = k as u64;
                    break;
                }
                i = (i + 1) & mask;
            }
        }
    }
    next
}

/// For each access, the index of the next access to the same block
/// ([`NEVER`] if none). One backward pass, O(n) expected.
pub fn next_use_distances(stream: &[LlcAccess]) -> Vec<u64> {
    let keys: Vec<u64> = stream.iter().map(|a| a.block.raw()).collect();
    link_next_uses(&keys, &[0, keys.len()])
}

/// Simulates MIN-with-bypass exactly over `stream` for an LLC of geometry
/// `config` (the paper's optimal policy).
pub fn simulate(stream: &[LlcAccess], config: CacheConfig) -> OptimalResult {
    simulate_with_options(stream, config, true)
}

/// Classic Belady MIN without the bypass enhancement: every miss is
/// placed, evicting the resident block reused farthest in the future.
/// Comparing against [`simulate`] isolates the benefit of optimal bypass.
pub fn simulate_no_bypass(stream: &[LlcAccess], config: CacheConfig) -> OptimalResult {
    simulate_with_options(stream, config, false)
}

/// The larger of two `(next use, lane)` pairs; on a tie, `b`.
#[inline(always)]
fn later(a: (u64, usize), b: (u64, usize)) -> (u64, usize) {
    if b.0 >= a.0 {
        b
    } else {
        a
    }
}

/// The farthest next use in `next` and the *highest* lane holding it (the
/// last maximum, as `Iterator::max_by_key` picks). Padding lanes hold 0,
/// below any real next use, so the argmax is masked to real ways.
#[inline(always)]
fn farthest(next: &[u64]) -> (u64, usize) {
    let (groups, _) = next.as_chunks::<LANES>();
    groups.iter().enumerate().fold((0, 0), |best, (g, n)| {
        let pairs = [0, 2, 4, 6].map(|i| later((n[i], i), (n[i + 1], i + 1)));
        let (far, lane) = later(later(pairs[0], pairs[1]), later(pairs[2], pairs[3]));
        later(best, (far, g * LANES + lane))
    })
}

/// Shared implementation for the two optimal variants.
///
/// MIN never moves a block between sets, so each set is simulated alone
/// over its own accesses: a stable counting sort gathers the stream's
/// block keys set by set, `link_next_uses` links them within each set
/// (positions in the gathered order compare exactly like stream indices
/// do), and one row of `lanes` block keys ([`INVALID`] when empty or
/// padding) and `lanes` next-use positions (0 for padding; a real frame's
/// next use lies after some access, so it is at least 1) replays each set.
/// Sets fill their ways in order and never free one, so a set is full
/// exactly when its first [`INVALID`] key is a padding lane or absent.
pub fn simulate_with_options(
    stream: &[LlcAccess],
    config: CacheConfig,
    bypass: bool,
) -> OptimalResult {
    // Set `s` gathers into `keys[bounds[s]..bounds[s + 1]]`.
    let mut bounds = vec![0usize; config.sets + 1];
    for a in stream {
        bounds[a.block.set_index(config.sets) + 1] += 1;
    }
    let mut total = 0;
    for bound in &mut bounds {
        total += *bound;
        *bound = total;
    }
    let mut cursor = bounds.clone();
    let mut keys = vec![INVALID; stream.len()];
    for a in stream {
        let at = &mut cursor[a.block.set_index(config.sets)];
        keys[*at] = a.block.raw();
        *at += 1;
    }
    let next = link_next_uses(&keys, &bounds);

    let lanes = config.ways.next_multiple_of(LANES);
    let mut row = vec![INVALID; 2 * lanes];
    let mut result =
        OptimalResult { accesses: stream.len() as u64, hits: 0, misses: 0, bypasses: 0 };
    for set in bounds.windows(2) {
        let (keys_row, nexts) = row.split_at_mut(lanes);
        keys_row.fill(INVALID);
        nexts.fill(0);
        let accesses = set[0]..set[1];
        for (&block, &incoming_next) in keys[accesses.clone()].iter().zip(&next[accesses]) {
            if let Some(way) = first_equal(keys_row, block) {
                result.hits += 1;
                nexts[way] = incoming_next;
                continue;
            }
            result.misses += 1;
            let way = match first_equal(keys_row, INVALID) {
                Some(empty) if empty < config.ways => empty,
                _ => {
                    // Full set: the frame with the farthest next use.
                    let (victim_next, victim) = farthest(nexts);
                    if bypass && incoming_next >= victim_next {
                        // Incoming is re-used no sooner than every resident
                        // block: placing it cannot help. (Ties favour
                        // bypass: equal distances mean equal misses, and
                        // bypassing avoids a fill.)
                        result.bypasses += 1;
                        continue;
                    }
                    victim
                }
            };
            keys_row[way] = block;
            nexts[way] = incoming_next;
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdbp_trace::{AccessKind, BlockAddr, Pc};

    fn acc(block: u64) -> LlcAccess {
        LlcAccess {
            pc: Pc::new(0),
            block: BlockAddr::new(block),
            kind: AccessKind::Read,
            core: 0,
            instr: 0,
        }
    }

    fn stream(blocks: &[u64]) -> Vec<LlcAccess> {
        blocks.iter().copied().map(acc).collect()
    }

    #[test]
    fn next_use_links_are_correct() {
        let s = stream(&[1, 2, 1, 3, 2, 1]);
        assert_eq!(next_use_distances(&s), vec![2, 4, 5, NEVER, NEVER, NEVER]);
    }

    #[test]
    fn all_hits_after_compulsory_when_everything_fits() {
        let s = stream(&[0, 1, 2, 3, 0, 1, 2, 3]);
        let r = simulate(&s, CacheConfig::new(2, 2));
        assert_eq!(r.misses, 4);
        assert_eq!(r.hits, 4);
        assert_eq!(r.bypasses, 0);
    }

    #[test]
    fn belady_beats_lru_on_cyclic_thrash() {
        // Cyclic loop of 2N distinct blocks through an N-block cache:
        // LRU gets 0 hits; MIN keeps N-1 blocks hitting every round.
        let n = 8u64; // 1 set × 8 ways
        let loop_blocks: Vec<u64> = (0..2 * n).collect();
        let mut refs = Vec::new();
        for _ in 0..50 {
            refs.extend_from_slice(&loop_blocks);
        }
        let s = stream(&refs);
        let r = simulate(&s, CacheConfig::new(1, n as usize));
        // LRU baseline for comparison.
        let mut lru = sdbp_cache::Cache::new(CacheConfig::new(1, n as usize));
        let lru_res = sdbp_cache::replay(&s, &mut lru);
        assert_eq!(lru_res.stats.hits, 0, "LRU must thrash");
        // MIN retains n-1 of the 2n blocks: hit rate ≈ (n-1)/2n.
        let expect = (50 * 2 * n) as f64 * ((n - 1) as f64 / (2 * n) as f64);
        assert!(
            (r.hits as f64) > 0.9 * expect,
            "MIN hits {} far below expectation {expect}",
            r.hits
        );
    }

    #[test]
    fn never_worse_than_lru_on_random_streams() {
        use sdbp_trace::rng::Rng64;
        let mut rng = Rng64::seed_from_u64(31);
        for trial in 0..10 {
            let refs: Vec<u64> = (0..5_000).map(|_| rng.gen_range(0..300)).collect();
            let s = stream(&refs);
            let cfg = CacheConfig::new(8, 4);
            let opt = simulate(&s, cfg);
            let mut lru = sdbp_cache::Cache::new(cfg);
            let lru_res = sdbp_cache::replay(&s, &mut lru);
            assert!(
                opt.misses <= lru_res.stats.misses,
                "trial {trial}: MIN ({}) worse than LRU ({})",
                opt.misses,
                lru_res.stats.misses
            );
        }
    }

    #[test]
    fn bypass_skips_never_reused_blocks() {
        // Resident pair is reused forever; interleaved singles are not.
        let mut refs = Vec::new();
        for i in 0..100u64 {
            refs.push(0);
            refs.push(2);
            refs.push(1000 + 2 * i); // same set (even), never again
        }
        let s = stream(&refs);
        let r = simulate(&s, CacheConfig::new(2, 2));
        // 0 and 2 miss once; every one-shot block misses and bypasses.
        assert_eq!(r.misses, 2 + 100);
        assert_eq!(r.bypasses, 100);
        assert_eq!(r.hits, 198);
    }

    #[test]
    fn counts_are_consistent() {
        use sdbp_trace::rng::Rng64;
        let mut rng = Rng64::seed_from_u64(5);
        let refs: Vec<u64> = (0..2_000).map(|_| rng.gen_range(0..500)).collect();
        let s = stream(&refs);
        let r = simulate(&s, CacheConfig::new(4, 4));
        assert_eq!(r.hits + r.misses, r.accesses);
        assert!(r.bypasses <= r.misses);
        assert!(r.mpki(1_000_000) > 0.0);
    }

    #[test]
    fn no_bypass_variant_never_bypasses_and_is_at_most_as_good() {
        use sdbp_trace::rng::Rng64;
        let mut rng = Rng64::seed_from_u64(77);
        let refs: Vec<u64> = (0..5_000).map(|_| rng.gen_range(0..400)).collect();
        let s = stream(&refs);
        let cfg = CacheConfig::new(8, 4);
        let with = simulate(&s, cfg);
        let without = simulate_no_bypass(&s, cfg);
        assert_eq!(without.bypasses, 0);
        assert!(with.misses <= without.misses, "bypass must never hurt MIN");
        assert_eq!(without.hits + without.misses, s.len() as u64);
    }

    #[test]
    fn bypass_benefit_appears_on_one_shot_pollution() {
        // Resident pair + one-shot blocks: plain MIN still keeps the pair
        // (it evicts the one-shots), so misses tie — but with a *window* of
        // reuse distance exactly at capacity the bypass wins. Construct:
        // three blocks cycling in a 2-way set plus never-reused pollution.
        let mut refs = Vec::new();
        for i in 0..200u64 {
            refs.push(0);
            refs.push(2);
            refs.push(4); // 3 live blocks in a 2-way set: someone must go
            refs.push(1000 + 2 * i); // one-shot
        }
        let s = stream(&refs);
        let cfg = CacheConfig::new(1, 2);
        let with = simulate(&s, cfg);
        let without = simulate_no_bypass(&s, cfg);
        assert!(with.misses <= without.misses);
        assert!(with.bypasses > 0);
    }

    #[test]
    fn empty_stream_is_empty_result() {
        let r = simulate(&[], CacheConfig::new(4, 4));
        assert_eq!(r, OptimalResult { accesses: 0, hits: 0, misses: 0, bypasses: 0 });
    }
}
