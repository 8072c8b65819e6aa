//! The set-sharded replay kernel: the shared engine behind every
//! replay caller that wants one trace to scale across cores.
//!
//! Replay of a set-associative cache decomposes by **set**: for a
//! set-local policy (one whose state is partitioned by set row, like the
//! [`MetaPlane`](crate::meta::MetaPlane) lanes of LRU stamps, PLRU tree
//! bits, or SRRIP RRPVs), the outcome of an access depends only on the
//! earlier accesses that mapped to the *same* set. A [`ShardPlan`] splits
//! the set index space into contiguous, disjoint ranges; each shard
//! replays only the accesses falling in its range and produces a
//! [`ShardResult`]; [`merge_shards`] folds the shard results back into
//! the exact serial [`ReplayResult`] — counters summed **by shard
//! index**, hit bits re-interleaved by walking the original stream, and
//! any [`ReplayProbe`] driven in original access order, so window probes
//! observe precisely the serial sequence.
//!
//! Within one shard, [`replay_shard`] drives the shard's queue through
//! the same replay loop as a serial replay ([`Cache::run`]).
//!
//! **What may be sharded.** Policies with global state — a shared RNG
//! draw sequence (`random`), set-dueling PSEL counters over leader sets
//! (`rrip`/`dip`/`tadip`), or predictor tables trained by every set
//! (`tdbp`, `cdbp`, `sampler`, ...) — observe cross-set interleaving, so
//! exact sharding is impossible for them; the policy registry marks each
//! entry with a `shardable` capability flag and callers fall back to the
//! serial loop when it is false. See DESIGN.md §13 for the full
//! shardability analysis.
//!
//! Execution is pluggable via [`ShardRunner`]: [`SerialRunner`] runs the
//! shards in index order on the calling thread (the reference path), and
//! [`ThreadRunner`] runs one scoped thread per shard. Callers higher in
//! the stack (the experiment runner) instead fan shards out as engine
//! subtasks and call [`merge_shards`] themselves.

use crate::cache::Cache;
use crate::meta::HitMap;
use crate::recorder::LlcAccess;
use crate::replay::{ReplayProbe, ReplayResult};
use crate::stats::CacheStats;

/// A partition of the set index space into contiguous, disjoint ranges,
/// one per shard.
///
/// Ranges are near-equal: with `sets = q * shards + r`, the first `r`
/// shards own `q + 1` sets each and the rest own `q`. The shard count is
/// clamped to `1..=sets`, so every shard owns at least one set.
///
/// ```
/// use sdbp_cache::kernel::ShardPlan;
///
/// let plan = ShardPlan::new(64, 4);
/// assert_eq!(plan.shards(), 4);
/// assert_eq!(plan.set_ranges()[0], 0..16);
/// assert_eq!(plan.shard_of(17), 1);
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ShardPlan {
    sets: usize,
    /// Sets owned by each of the first `rem` shards (`base + 1`).
    base: usize,
    rem: usize,
    shards: usize,
}

impl ShardPlan {
    /// Partitions `sets` cache sets over `shards` shards (clamped to
    /// `1..=sets`).
    ///
    /// # Panics
    ///
    /// Panics if `sets` is zero — a cache with no sets is a geometry bug
    /// upstream of any replay.
    pub fn new(sets: usize, shards: usize) -> ShardPlan {
        assert!(sets > 0, "a shard plan needs at least one set");
        let shards = shards.clamp(1, sets);
        ShardPlan { sets, base: sets / shards, rem: sets % shards, shards }
    }

    /// Number of shards.
    pub const fn shards(&self) -> usize {
        self.shards
    }

    /// Number of cache sets the plan partitions.
    pub const fn sets(&self) -> usize {
        self.sets
    }

    /// The contiguous set range owned by each shard, in shard order.
    pub fn set_ranges(&self) -> Vec<std::ops::Range<usize>> {
        let mut ranges = Vec::with_capacity(self.shards);
        let mut start = 0;
        for s in 0..self.shards {
            let len = self.base + usize::from(s < self.rem);
            ranges.push(start..start + len);
            start += len;
        }
        ranges
    }

    /// The shard owning `set`. Sets at or beyond [`sets`](Self::sets)
    /// land in the last shard (they cannot occur for a stream recorded
    /// against the plan's geometry).
    pub fn shard_of(&self, set: usize) -> usize {
        let wide = self.rem * (self.base + 1);
        let shard = if set < wide {
            set / (self.base + 1)
        } else {
            // base == 0 means shards == sets and rem == 0 cannot happen;
            // unreachable for a valid plan, but stay total.
            match (set - wide).checked_div(self.base) {
                Some(narrow) => self.rem + narrow,
                None => self.shards - 1,
            }
        };
        shard.min(self.shards - 1)
    }
}

/// What one shard produced: its cache's counters and the hit/miss of
/// each of its accesses, in shard-local (per-set-preserving stream)
/// order.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ShardResult {
    /// The shard cache's counters at the end of its run.
    pub stats: CacheStats,
    /// Per-access outcomes, in the order of the shard's queue.
    pub hits: HitMap,
}

/// Why a sharded replay could not be assembled.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ShardError {
    /// The number of shard results does not match the plan.
    ShardCount {
        /// Shards in the plan.
        expected: usize,
        /// Results supplied.
        got: usize,
    },
    /// A shard produced fewer outcomes than the stream routes to it.
    HitsExhausted {
        /// The underfull shard.
        shard: usize,
    },
    /// A shard produced more outcomes than the stream routes to it.
    HitsLeftOver {
        /// The overfull shard.
        shard: usize,
        /// Outcomes never consumed by the merge.
        unused: usize,
    },
    /// The shard caches were built for a different set count than the
    /// plan partitions.
    Geometry {
        /// Sets the plan partitions.
        plan_sets: usize,
        /// Sets of the factory-built cache.
        cache_sets: usize,
    },
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::ShardCount { expected, got } => {
                write!(f, "plan has {expected} shards but {got} results were supplied")
            }
            ShardError::HitsExhausted { shard } => {
                write!(f, "shard {shard} produced fewer outcomes than the stream routes to it")
            }
            ShardError::HitsLeftOver { shard, unused } => {
                write!(f, "shard {shard} produced {unused} outcomes the stream never consumed")
            }
            ShardError::Geometry { plan_sets, cache_sets } => {
                write!(
                    f,
                    "plan partitions {plan_sets} sets but the cache factory builds {cache_sets}"
                )
            }
        }
    }
}

impl std::error::Error for ShardError {}

/// The subsequence of `stream` owned by `shard` under `plan`, in stream
/// order. Each shard filters the full stream itself, so shard subtasks
/// need only `(stream, plan, shard)` — no shared partition buffers.
pub fn shard_queue(stream: &[LlcAccess], plan: &ShardPlan, shard: usize) -> Vec<LlcAccess> {
    stream
        .iter()
        .filter(|a| plan.shard_of(a.block.set_index(plan.sets())) == shard)
        .copied()
        .collect()
}

/// Replays one shard's queue against its own cache through the one
/// replay loop ([`Cache::run`]), returning the shard's counters and
/// outcomes. The queue preserves per-set stream order, so for a set-local
/// policy the outcomes are exactly the serial replay's outcomes for those
/// accesses.
pub fn replay_shard(queue: &[LlcAccess], cache: &mut Cache) -> ShardResult {
    let mut hits = HitMap::with_capacity(queue.len());
    cache.run(queue, Some(&mut hits), None);
    cache.finish();
    ShardResult { stats: cache.stats(), hits }
}

/// Merges per-shard results back into the serial [`ReplayResult`].
///
/// Counters are summed **in ascending shard index order** (never
/// completion order); hit bits are re-interleaved by walking `stream`
/// and popping the next outcome from each access's owning shard; `probe`
/// (when given) is driven in original access order with the merged
/// outcomes — exactly the sequence
/// [`replay_with_probe`](crate::replay::replay_with_probe) would have
/// produced.
///
/// # Errors
///
/// [`ShardError`] when the result count disagrees with the plan or the
/// shard outcome counts do not tile the stream.
pub fn merge_shards(
    stream: &[LlcAccess],
    plan: &ShardPlan,
    results: &[ShardResult],
    mut probe: Option<&mut dyn ReplayProbe>,
) -> Result<ReplayResult, ShardError> {
    if results.len() != plan.shards() {
        return Err(ShardError::ShardCount { expected: plan.shards(), got: results.len() });
    }
    let mut stats = CacheStats::default();
    for result in results {
        stats += &result.stats;
    }
    let mut cursors = vec![0usize; results.len()];
    let mut hits = HitMap::with_capacity(stream.len());
    for (index, a) in stream.iter().enumerate() {
        let shard = plan.shard_of(a.block.set_index(plan.sets()));
        let Some((result, cursor)) = results.get(shard).zip(cursors.get_mut(shard)) else {
            return Err(ShardError::HitsExhausted { shard });
        };
        let Some(hit) = result.hits.get(*cursor) else {
            return Err(ShardError::HitsExhausted { shard });
        };
        *cursor += 1;
        if let Some(p) = probe.as_deref_mut() {
            p.on_access_detail(index, a, hit);
        }
        hits.push(hit);
    }
    for (shard, (result, cursor)) in results.iter().zip(&cursors).enumerate() {
        if *cursor != result.hits.len() {
            return Err(ShardError::HitsLeftOver { shard, unused: result.hits.len() - cursor });
        }
    }
    Ok(ReplayResult { stats, hits })
}

/// Executes a sharded replay's per-shard tasks, returning their results
/// **indexed by task order** (never completion order — the
/// `shard-determinism` analyze rule pins this discipline).
///
/// The kernel stays thread-agnostic through this trait: the CLI and the
/// service plane use [`ThreadRunner`], tests and serial fallbacks use
/// [`SerialRunner`], and the experiment runner substitutes engine
/// subtask fan-out by calling [`shard_queue`]/[`replay_shard`]/
/// [`merge_shards`] directly.
pub trait ShardRunner {
    /// Runs every task, returning the results in task order.
    fn run<T: Send>(&self, tasks: Vec<Box<dyn FnOnce() -> T + Send + '_>>) -> Vec<T>;
}

/// Runs shard tasks serially on the calling thread, in task order — the
/// reference execution the threaded runners must match bit for bit.
#[derive(Clone, Copy, Default, Debug)]
pub struct SerialRunner;

impl ShardRunner for SerialRunner {
    fn run<T: Send>(&self, tasks: Vec<Box<dyn FnOnce() -> T + Send + '_>>) -> Vec<T> {
        tasks.into_iter().map(|task| task()).collect()
    }
}

/// Runs one scoped thread per shard task, joining **in task order** so
/// the merge sees results indexed by shard, never by completion.
///
/// A panicking task propagates its panic to the caller at join — the
/// same observable behaviour as the serial path. (Engine-managed shard
/// subtasks get per-shard panic *isolation* instead; that path lives in
/// `sdbp-engine`.)
#[derive(Clone, Copy, Default, Debug)]
pub struct ThreadRunner;

impl ShardRunner for ThreadRunner {
    fn run<T: Send>(&self, tasks: Vec<Box<dyn FnOnce() -> T + Send + '_>>) -> Vec<T> {
        std::thread::scope(|scope| {
            let handles: Vec<_> = tasks.into_iter().map(|task| scope.spawn(task)).collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(v) => v,
                    Err(payload) => std::panic::resume_unwind(payload),
                })
                .collect()
        })
    }
}

/// Replays `stream` sharded by `plan`: each shard filters its queue,
/// replays it on its own factory-built cache via [`replay_shard`], and
/// the results are merged deterministically by [`merge_shards`], driving
/// `probe` in original access order.
///
/// **Exactness requires a set-local policy** — callers gate on the
/// registry's `shardable` capability flag and use the serial
/// [`replay`](crate::replay::replay) otherwise. The factory must build
/// caches matching the plan's geometry; efficiency tracking is not
/// carried across shards (replay paths never enable it).
///
/// # Errors
///
/// [`ShardError::Geometry`] when the factory's set count disagrees with
/// the plan, or a merge error (which would indicate a kernel bug, since
/// the queues are derived from the same plan).
pub fn replay_sharded<R: ShardRunner>(
    stream: &[LlcAccess],
    plan: &ShardPlan,
    factory: &(dyn Fn() -> Cache + Sync),
    runner: &R,
    probe: Option<&mut dyn ReplayProbe>,
) -> Result<ReplayResult, ShardError> {
    let cache_sets = factory().config().sets;
    if cache_sets != plan.sets() {
        return Err(ShardError::Geometry { plan_sets: plan.sets(), cache_sets });
    }
    let tasks: Vec<Box<dyn FnOnce() -> ShardResult + Send + '_>> = (0..plan.shards())
        .map(|shard| {
            Box::new(move || {
                let queue = shard_queue(stream, plan, shard);
                let mut cache = factory();
                replay_shard(&queue, &mut cache)
            }) as Box<dyn FnOnce() -> ShardResult + Send + '_>
        })
        .collect();
    let results = runner.run(tasks);
    merge_shards(stream, plan, &results, probe)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheConfig;
    use crate::recorder::record;
    use crate::replay::{replay, replay_with_probe, WindowMisses};
    use sdbp_trace::kernel::KernelSpec;
    use sdbp_trace::TraceBuilder;

    fn workload() -> crate::recorder::RecordedWorkload {
        let t = TraceBuilder::new(8)
            .kernel(KernelSpec::streaming(1 << 22))
            .kernel(KernelSpec::hot_set(1 << 14))
            .build();
        record("w", t, 100_000)
    }

    #[test]
    fn plan_ranges_partition_the_sets() {
        for (sets, shards) in [(64, 1), (64, 4), (64, 7), (2048, 8), (5, 9), (1, 3)] {
            let plan = ShardPlan::new(sets, shards);
            assert!(plan.shards() >= 1 && plan.shards() <= sets);
            let ranges = plan.set_ranges();
            assert_eq!(ranges.len(), plan.shards());
            let mut next = 0;
            for (shard, range) in ranges.iter().enumerate() {
                assert_eq!(range.start, next, "ranges must be contiguous");
                assert!(!range.is_empty(), "every shard owns at least one set");
                for set in range.clone() {
                    assert_eq!(plan.shard_of(set), shard, "sets={sets} shards={shards} set={set}");
                }
                next = range.end;
            }
            assert_eq!(next, sets, "ranges must cover every set");
            // Near-equal: sizes differ by at most one.
            let sizes: Vec<usize> = ranges.iter().map(std::ops::Range::len).collect();
            let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(max - min <= 1, "{sizes:?}");
        }
    }

    #[test]
    fn single_shard_matches_serial_replay() {
        let w = workload();
        let config = CacheConfig::new(64, 8);
        let naive = replay(&w.llc, &mut Cache::new(config));
        let shard = replay_shard(&w.llc, &mut Cache::new(config));
        assert_eq!(shard.stats, naive.stats);
        assert_eq!(shard.hits, naive.hits);
    }

    #[test]
    fn sharded_lru_is_bit_identical_at_every_shard_count() {
        let w = workload();
        let config = CacheConfig::new(64, 8);
        let serial = replay(&w.llc, &mut Cache::new(config));
        for shards in [1, 2, 3, 4, 7, 8, 64] {
            let plan = ShardPlan::new(config.sets, shards);
            let sharded = replay_sharded(
                &w.llc,
                &plan,
                &move || Cache::new(config),
                &SerialRunner,
                None,
            )
            .expect("plan and factory agree");
            assert_eq!(sharded, serial, "shards={shards}");
        }
    }

    #[test]
    fn thread_runner_matches_serial_runner() {
        let w = workload();
        let config = CacheConfig::new(64, 8);
        let plan = ShardPlan::new(config.sets, 4);
        let factory = move || Cache::new(config);
        let a = replay_sharded(&w.llc, &plan, &factory, &SerialRunner, None).expect("serial");
        let b = replay_sharded(&w.llc, &plan, &factory, &ThreadRunner, None).expect("threaded");
        assert_eq!(a, b);
    }

    #[test]
    fn probes_interleave_in_original_access_order() {
        let w = workload();
        let config = CacheConfig::new(64, 8);
        let mut serial_probe = WindowMisses::new(777);
        let serial = replay_with_probe(&w.llc, &mut Cache::new(config), &mut serial_probe);
        let plan = ShardPlan::new(config.sets, 4);
        let mut sharded_probe = WindowMisses::new(777);
        let sharded = replay_sharded(
            &w.llc,
            &plan,
            &move || Cache::new(config),
            &SerialRunner,
            Some(&mut sharded_probe),
        )
        .expect("sharded replay");
        assert_eq!(sharded, serial);
        assert_eq!(sharded_probe.counts(), serial_probe.counts());
    }

    #[test]
    fn merge_rejects_wrong_result_counts_and_short_shards() {
        let w = workload();
        let config = CacheConfig::new(64, 8);
        let plan = ShardPlan::new(config.sets, 2);
        let queues: Vec<Vec<crate::recorder::LlcAccess>> =
            (0..2).map(|s| shard_queue(&w.llc, &plan, s)).collect();
        let results: Vec<ShardResult> =
            queues.iter().map(|q| replay_shard(q, &mut Cache::new(config))).collect();
        let err = merge_shards(&w.llc, &plan, &results[..1], None)
            .expect_err("one result for a two-shard plan");
        assert_eq!(err, ShardError::ShardCount { expected: 2, got: 1 });
        assert!(err.to_string().contains("2 shards"));
        // Truncate shard 1's outcomes: the merge must notice.
        let mut short = results.clone();
        short[1].hits = short[1].hits.iter().take(1).collect();
        let err = merge_shards(&w.llc, &plan, &short, None).expect_err("short shard");
        assert!(matches!(err, ShardError::HitsExhausted { shard: 1 }), "{err:?}");
        // And a full merge round-trips.
        let merged = merge_shards(&w.llc, &plan, &results, None).expect("full merge");
        assert_eq!(merged, replay(&w.llc, &mut Cache::new(config)));
    }

    #[test]
    fn geometry_mismatch_is_a_typed_error() {
        let w = workload();
        let plan = ShardPlan::new(128, 4);
        let err = replay_sharded(
            &w.llc,
            &plan,
            &|| Cache::new(CacheConfig::new(64, 8)),
            &SerialRunner,
            None,
        )
        .expect_err("plan partitions 128 sets, cache has 64");
        assert_eq!(err, ShardError::Geometry { plan_sets: 128, cache_sets: 64 });
        assert!(err.to_string().contains("128"));
    }

    #[test]
    fn shard_queues_tile_the_stream() {
        let w = workload();
        let plan = ShardPlan::new(64, 5);
        let queues: Vec<Vec<crate::recorder::LlcAccess>> =
            (0..plan.shards()).map(|s| shard_queue(&w.llc, &plan, s)).collect();
        assert_eq!(queues.iter().map(Vec::len).sum::<usize>(), w.llc.len());
        // Each queue preserves stream order within its sets.
        let mut cursors = vec![0usize; plan.shards()];
        for a in &w.llc {
            let s = plan.shard_of(a.block.set_index(plan.sets()));
            assert_eq!(queues[s][cursors[s]].block, a.block);
            cursors[s] += 1;
        }
    }
}
