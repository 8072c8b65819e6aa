//! Prefetching into dead blocks — the original application of dead block
//! prediction (Lai et al., the paper's reference \[13\], discussed in
//! §II-A1).
//!
//! A prefetch is only profitable if the frame it lands in was not going to
//! be used again: prefetching into *live* frames trades a future hit for a
//! speculative one (pollution). Lai et al.'s insight — reused here with
//! the MICRO-43 sampling predictor — is to let dead block prediction pick
//! the landing frames: a prefetched block may only displace a
//! predicted-dead (or invalid) frame, and is dropped otherwise.
//!
//! [`PrefetchSim`] runs a simple next-line prefetcher over a recorded LLC
//! stream in either placement mode so the pollution difference is
//! directly measurable.

use crate::config::SdbpConfig;
use crate::predictor::SamplingPredictor;
use sdbp_cache::recorder::LlcAccess;
use sdbp_cache::CacheConfig;
use sdbp_predictors::DeadBlockPredictor;
use sdbp_trace::BlockAddr;

/// Where prefetched blocks are allowed to land.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Placement {
    /// Prefetches fill like demand misses (LRU victim) — may pollute.
    Anywhere,
    /// Prefetches may only displace invalid or predicted-dead frames
    /// (Lai et al.'s dead-block-directed placement).
    DeadFramesOnly,
}

/// Counters of a prefetch simulation.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct PrefetchStats {
    /// Demand hits.
    pub hits: u64,
    /// Demand hits on prefetched-but-not-yet-demanded blocks (useful
    /// prefetches).
    pub prefetch_hits: u64,
    /// Demand misses.
    pub misses: u64,
    /// Prefetches issued and placed.
    pub prefetches_placed: u64,
    /// Prefetches dropped for lack of a dead frame.
    pub prefetches_dropped: u64,
    /// Prefetched blocks evicted without ever being demanded (pollution
    /// that also wasted bandwidth).
    pub useless_prefetches: u64,
}

impl PrefetchStats {
    /// Demand accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.prefetch_hits + self.misses
    }

    /// Useful fraction of placed prefetches.
    pub fn accuracy(&self) -> f64 {
        if self.prefetches_placed == 0 {
            0.0
        } else {
            self.prefetch_hits as f64 / self.prefetches_placed as f64
        }
    }
}

#[derive(Copy, Clone, Default)]
struct Frame {
    valid: bool,
    block: u64,
    /// Placed by the prefetcher and not yet demanded.
    prefetched: bool,
    dead: bool,
    stamp: u64,
}

/// An LRU LLC fronted by a next-line prefetcher with configurable
/// placement. See the [module docs](self).
pub struct PrefetchSim {
    config: CacheConfig,
    placement: Placement,
    /// Lines prefetched ahead on each demand miss.
    degree: u64,
    frames: Vec<Frame>,
    predictor: SamplingPredictor,
    clock: u64,
    stats: PrefetchStats,
}

impl std::fmt::Debug for PrefetchSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PrefetchSim")
            .field("config", &self.config)
            .field("placement", &self.placement)
            .field("degree", &self.degree)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl PrefetchSim {
    /// Creates the simulator (next-line degree 1, paper-configured
    /// sampling predictor).
    pub fn new(config: CacheConfig, placement: Placement) -> Self {
        Self::with_degree(config, placement, 1)
    }

    /// Creates the simulator with an explicit prefetch degree.
    ///
    /// # Panics
    ///
    /// Panics if `degree` is zero.
    pub fn with_degree(config: CacheConfig, placement: Placement, degree: u64) -> Self {
        assert!(degree >= 1, "prefetch degree must be at least 1");
        PrefetchSim {
            config,
            placement,
            degree,
            frames: vec![Frame::default(); config.lines()],
            predictor: SamplingPredictor::new(SdbpConfig::paper(), config),
            clock: 0,
            stats: PrefetchStats::default(),
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> &PrefetchStats {
        &self.stats
    }

    fn find(&self, set: usize, block: u64) -> Option<usize> {
        let base = set * self.config.ways;
        (0..self.config.ways)
            .map(|w| base + w)
            .find(|&i| self.frames[i].valid && self.frames[i].block == block)
    }

    fn lru_frame(&self, set: usize) -> usize {
        let base = set * self.config.ways;
        (base..base + self.config.ways)
            .min_by_key(|&i| if self.frames[i].valid { self.frames[i].stamp } else { 0 })
            .expect("ways >= 1")
    }

    fn dead_or_invalid_frame(&self, set: usize) -> Option<usize> {
        let base = set * self.config.ways;
        (base..base + self.config.ways)
            .filter(|&i| !self.frames[i].valid || self.frames[i].dead)
            .min_by_key(|&i| if self.frames[i].valid { self.frames[i].stamp } else { 0 })
    }

    fn evict_bookkeeping(&mut self, idx: usize) {
        if self.frames[idx].valid && self.frames[idx].prefetched {
            self.stats.useless_prefetches += 1;
        }
    }

    fn prefetch(&mut self, block: BlockAddr) {
        let set = block.set_index(self.config.sets);
        if self.find(set, block.raw()).is_some() {
            return; // already resident
        }
        let idx = match self.placement {
            Placement::Anywhere => self.lru_frame(set),
            Placement::DeadFramesOnly => match self.dead_or_invalid_frame(set) {
                Some(i) => i,
                None => {
                    self.stats.prefetches_dropped += 1;
                    return;
                }
            },
        };
        self.evict_bookkeeping(idx);
        self.frames[idx] = Frame {
            valid: true,
            block: block.raw(),
            prefetched: true,
            dead: false,
            stamp: self.clock,
        };
        self.stats.prefetches_placed += 1;
    }

    /// Presents one demand access (training the predictor and issuing
    /// next-line prefetches on misses). Returns whether it hit.
    pub fn access(&mut self, a: &LlcAccess) -> bool {
        self.clock += 1;
        let set = a.block.set_index(self.config.sets);
        if let Some(i) = self.find(set, a.block.raw()) {
            let was_prefetched = self.frames[i].prefetched;
            if was_prefetched {
                self.stats.prefetch_hits += 1;
                self.frames[i].prefetched = false;
            } else {
                self.stats.hits += 1;
            }
            let dead = self.predictor.on_hit(set, i, a);
            self.frames[i].dead = dead;
            self.frames[i].stamp = self.clock;
            if was_prefetched {
                // Keep the stream rolling: first demand of a prefetched
                // block chains the next prefetches.
                for d in 1..=self.degree {
                    self.prefetch(BlockAddr::new(a.block.raw().wrapping_add(d)));
                }
            }
            return true;
        }
        self.stats.misses += 1;
        // Dead-on-arrival fills are eligible prefetch landing frames
        // immediately (one-shot streams never get a second touch to be
        // marked dead later).
        let dead_on_arrival = self.predictor.on_miss(set, a);
        let idx = self.lru_frame(set);
        self.evict_bookkeeping(idx);
        if self.frames[idx].valid {
            self.predictor.on_evict(set, idx, BlockAddr::new(self.frames[idx].block), a);
        }
        self.predictor.on_fill(set, idx, a);
        self.frames[idx] = Frame {
            valid: true,
            block: a.block.raw(),
            prefetched: false,
            dead: dead_on_arrival,
            stamp: self.clock,
        };
        // Next-line prefetching from the demand miss.
        for d in 1..=self.degree {
            self.prefetch(BlockAddr::new(a.block.raw().wrapping_add(d)));
        }
        false
    }

    /// Runs a whole stream.
    pub fn run(stream: &[LlcAccess], config: CacheConfig, placement: Placement) -> PrefetchStats {
        let mut sim = Self::new(config, placement);
        for a in stream {
            sim.access(a);
        }
        sim.stats.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdbp_cache::recorder::record;
    use sdbp_trace::kernel::KernelSpec;
    use sdbp_trace::TraceBuilder;

    fn acc(b: u64) -> LlcAccess {
        LlcAccess {
            pc: sdbp_trace::Pc::new(0x400),
            block: BlockAddr::new(b),
            kind: sdbp_trace::AccessKind::Read,
            core: 0,
            instr: 0,
        }
    }

    #[test]
    fn next_line_prefetch_covers_sequential_streams() {
        // Sequential blocks: after the first miss, each next access was
        // prefetched.
        let refs: Vec<LlcAccess> = (0..1000u64).map(acc).collect();
        let stats = PrefetchSim::run(&refs, CacheConfig::new(64, 8), Placement::Anywhere);
        assert!(
            stats.prefetch_hits > 900,
            "sequential stream should be nearly fully prefetched: {stats:?}"
        );
        assert!(stats.accuracy() > 0.9);
    }

    #[test]
    fn counters_are_consistent() {
        let t = TraceBuilder::new(5)
            .kernel(KernelSpec::streaming(1 << 21))
            .kernel(KernelSpec::hot_set(1 << 15).weight(2.0))
            .build();
        let s = record("p", t, 200_000).llc;
        for placement in [Placement::Anywhere, Placement::DeadFramesOnly] {
            let stats = PrefetchSim::run(&s, CacheConfig::new(128, 8), placement);
            assert_eq!(stats.accesses(), s.len() as u64, "{placement:?}");
        }
    }

    #[test]
    fn dead_frame_placement_pollutes_less() {
        // Hot loop + a strided scan: anywhere-placement lets scan
        // prefetches displace hot blocks; dead-frame placement protects
        // them. Compare hot hit counts.
        let t = TraceBuilder::new(11)
            .kernel(KernelSpec::hot_set(1 << 18).weight(2.0))
            .kernel(KernelSpec::streaming(1 << 23).weight(2.0))
            .build();
        let s = record("p", t, 400_000).llc;
        // 512 KB: the 256 KB hot set fits comfortably until prefetch
        // pollution displaces it.
        let cfg = CacheConfig::llc_with_capacity(512 << 10);
        let anywhere = PrefetchSim::run(&s, cfg, Placement::Anywhere);
        let dead_only = PrefetchSim::run(&s, cfg, Placement::DeadFramesOnly);
        // Gating either drops prefetches outright or redirects them into
        // dead frames; the observable is less pollution.
        assert!(
            dead_only.useless_prefetches <= anywhere.useless_prefetches,
            "dead-frame placement must not increase pollution: {} vs {}",
            dead_only.useless_prefetches,
            anywhere.useless_prefetches
        );
        assert!(
            dead_only.misses < anywhere.misses,
            "protecting live frames must cut demand misses: {} vs {}",
            dead_only.misses,
            anywhere.misses
        );
        assert!(
            dead_only.hits > anywhere.hits,
            "the hot set must survive gated prefetching: {} vs {}",
            dead_only.hits,
            anywhere.hits
        );
    }

    #[test]
    fn run_is_deterministic() {
        let refs: Vec<LlcAccess> = (0..500u64).map(|i| acc(i * 7 % 300)).collect();
        let cfg = CacheConfig::new(16, 4);
        assert_eq!(
            PrefetchSim::run(&refs, cfg, Placement::DeadFramesOnly),
            PrefetchSim::run(&refs, cfg, Placement::DeadFramesOnly)
        );
    }

    #[test]
    #[should_panic(expected = "degree must be at least 1")]
    fn zero_degree_rejected() {
        let _ = PrefetchSim::with_degree(CacheConfig::new(16, 4), Placement::Anywhere, 0);
    }
}
