//! Set-sampled miss-rate estimation.
//!
//! Both the paper's predictor and its competitors rest on the same
//! empirical fact (paper §III-A): *memory access patterns are consistent
//! across sets*, so observing a small fraction of sets suffices to learn
//! whole-cache behaviour. This module makes the claim directly testable: a
//! [`SetSampledEstimator`] replays only every *k*-th set of a stream and
//! scales up, and its estimate can be compared against the exact miss
//! count. The harness uses it to validate the sampler's premise; it is
//! also a practical tool (set sampling is how DIP-style "dynamic set
//! sampling" estimators work).

use crate::cache::Cache;
use crate::recorder::LlcAccess;
use crate::CacheConfig;

/// Estimates a cache's hit/miss behaviour from a sampled subset of sets.
#[derive(Debug)]
pub struct SetSampledEstimator {
    config: CacheConfig,
    stride: usize,
    cache: Cache,
    sampled_accesses: u64,
    total_accesses: u64,
}

impl SetSampledEstimator {
    /// Creates an estimator simulating one in every `stride` sets of a
    /// cache with geometry `config`.
    ///
    /// # Panics
    ///
    /// Panics if `stride` is zero, not a power of two, or larger than the
    /// set count.
    pub fn new(config: CacheConfig, stride: usize) -> Self {
        assert!(stride >= 1, "stride must be at least 1");
        assert!(stride.is_power_of_two(), "stride must be a power of two");
        assert!(stride <= config.sets, "stride exceeds the set count");
        // The shadow cache has sets/stride sets; block set-index bits are
        // remapped so sampled sets stay distinct.
        let shadow = CacheConfig::new(config.sets / stride, config.ways);
        SetSampledEstimator {
            config,
            stride,
            cache: Cache::new(shadow),
            sampled_accesses: 0,
            total_accesses: 0,
        }
    }

    /// Offers one access; only accesses to sampled sets are simulated.
    pub fn offer(&mut self, access: &LlcAccess) {
        self.total_accesses += 1;
        let set = access.block.set_index(self.config.sets);
        if !set.is_multiple_of(self.stride) {
            return;
        }
        self.sampled_accesses += 1;
        // Compress the set index: sampled set s -> shadow set s / stride.
        // Rebuild a block address whose low bits are the shadow set and
        // whose tag bits are untouched.
        let shadow_sets = self.config.sets / self.stride;
        let tag = access.block.raw() >> self.config.sets.trailing_zeros();
        let shadow_block = (tag << shadow_sets.trailing_zeros()) | (set / self.stride) as u64;
        let a = LlcAccess::demand(
            access.pc,
            sdbp_trace::BlockAddr::new(shadow_block),
            access.kind,
            access.core,
        );
        self.cache.access(&a);
    }

    /// Fraction of offered accesses that landed in sampled sets.
    pub fn sampling_ratio(&self) -> f64 {
        if self.total_accesses == 0 {
            0.0
        } else {
            self.sampled_accesses as f64 / self.total_accesses as f64
        }
    }

    /// Estimated total misses: sampled misses scaled by the inverse
    /// sampling ratio of *accesses* (self-normalizing, so non-uniform
    /// set pressure does not bias the estimate).
    pub fn estimated_misses(&self) -> f64 {
        if self.sampled_accesses == 0 {
            return 0.0;
        }
        let miss_rate = self.cache.stats().misses as f64 / self.sampled_accesses as f64;
        miss_rate * self.total_accesses as f64
    }

    /// Estimated miss rate over the sampled sets.
    pub fn estimated_miss_rate(&self) -> f64 {
        if self.sampled_accesses == 0 {
            0.0
        } else {
            self.cache.stats().misses as f64 / self.sampled_accesses as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::record;
    use crate::replay::replay;
    use sdbp_trace::kernel::KernelSpec;
    use sdbp_trace::TraceBuilder;

    fn stream() -> Vec<LlcAccess> {
        let t = TraceBuilder::new(3)
            .kernel(KernelSpec::streaming(1 << 22))
            .kernel(KernelSpec::hot_set(1 << 16).weight(2.0))
            .kernel(KernelSpec::classed(1 << 20, 4096, vec![(2.0, 1), (1.0, 4)]))
            .build();
        record("s", t, 400_000).llc
    }

    #[test]
    fn sampled_estimate_tracks_exact_misses() {
        // The paper's premise: sampling 1/16 of sets estimates the whole
        // cache's misses within a few percent.
        let s = stream();
        let cfg = CacheConfig::new(512, 8);
        let mut exact = Cache::new(cfg);
        let exact_misses = replay(&s, &mut exact).stats.misses as f64;
        let mut est = SetSampledEstimator::new(cfg, 16);
        for a in &s {
            est.offer(a);
        }
        let err = (est.estimated_misses() - exact_misses).abs() / exact_misses;
        assert!(
            err < 0.05,
            "set-sampled estimate off by {:.1}% ({} vs {exact_misses})",
            err * 100.0,
            est.estimated_misses()
        );
    }

    #[test]
    fn sampling_ratio_is_near_the_inverse_stride() {
        let s = stream();
        let mut est = SetSampledEstimator::new(CacheConfig::new(512, 8), 16);
        for a in &s {
            est.offer(a);
        }
        let r = est.sampling_ratio();
        assert!((r - 1.0 / 16.0).abs() < 0.02, "sampling ratio {r}");
    }

    #[test]
    fn stride_one_is_exact() {
        let s = stream();
        let cfg = CacheConfig::new(256, 8);
        let mut exact = Cache::new(cfg);
        let exact_misses = replay(&s, &mut exact).stats.misses as f64;
        let mut est = SetSampledEstimator::new(cfg, 1);
        for a in &s {
            est.offer(a);
        }
        assert_eq!(est.estimated_misses(), exact_misses);
        assert_eq!(est.sampling_ratio(), 1.0);
    }

    #[test]
    fn empty_estimator_reports_zero() {
        let est = SetSampledEstimator::new(CacheConfig::new(64, 4), 8);
        assert_eq!(est.estimated_misses(), 0.0);
        assert_eq!(est.estimated_miss_rate(), 0.0);
        assert_eq!(est.sampling_ratio(), 0.0);
    }

    #[test]
    #[should_panic(expected = "stride exceeds")]
    fn oversized_stride_rejected() {
        let _ = SetSampledEstimator::new(CacheConfig::new(64, 4), 128);
    }
}
