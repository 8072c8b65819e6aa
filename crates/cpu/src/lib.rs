//! Approximate out-of-order core timing model (the CMP$im substitute).
//!
//! The paper collects IPC with CMP$im, itself an approximate (Pin-based)
//! model of a 4-wide, 8-stage, 128-entry-window out-of-order core. This
//! module reproduces the aspects of that model that matter for LLC
//! replacement studies:
//!
//! * a 4-wide front end (instructions cannot issue faster than 4/cycle);
//! * a 128-entry instruction window: instruction *i* cannot issue until
//!   instruction *i − 128* has completed, so long-latency misses stall the
//!   core once the window fills — but independent misses inside the window
//!   overlap (memory-level parallelism);
//! * explicit serialization of *dependent* loads (pointer chasing), which
//!   is what makes mcf-like workloads latency-bound rather than
//!   bandwidth-bound;
//! * a bounded set of miss-status holding registers (MSHRs): at most
//!   `mshrs` LLC misses are outstanding at once, bounding memory-level
//!   parallelism the way real cores do.
//!
//! Inputs are the compact per-instruction records captured by
//! [`sdbp_cache::recorder`] plus the per-access LLC hit map produced by
//! replaying a policy, so the same recorded workload yields an IPC for
//! every policy under study.
//!
//! # Example
//!
//! ```
//! use sdbp_cache::recorder::{InstrKind, InstrRecord};
//! use sdbp_cpu::{CoreModel, Timing};
//! use sdbp_cache::meta::HitMap;
//! let records = vec![InstrRecord::new(InstrKind::NonMem, false); 1000];
//! let t = CoreModel::default().simulate(&records, &HitMap::new());
//! assert!((t.ipc() - 4.0).abs() < 0.1); // pure ALU code runs at width
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use sdbp_cache::config::Latencies;
use sdbp_cache::meta::HitMap;
use sdbp_cache::recorder::{InstrKind, InstrRecord};
use std::hint::select_unpredictable;

/// Core parameters (defaults follow the paper's §VI-A).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct CoreModel {
    /// Issue width (instructions per cycle).
    pub width: u32,
    /// Instruction window (ROB) size.
    pub window: usize,
    /// Maximum outstanding LLC misses (MSHRs).
    pub mshrs: usize,
    /// Hierarchy latencies.
    pub latencies: Latencies,
}

impl Default for CoreModel {
    fn default() -> Self {
        CoreModel { width: 4, window: 128, mshrs: 16, latencies: Latencies::default() }
    }
}

/// Result of a timing simulation.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Timing {
    /// Instructions executed.
    pub instructions: u64,
    /// Total cycles.
    pub cycles: u64,
}

impl Timing {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }
}

impl CoreModel {
    /// Runs the timing model.
    ///
    /// `llc_hits[k]` is the hit/miss outcome of the *k*-th
    /// [`InstrKind::Llc`] record, as produced by
    /// [`sdbp_cache::replay()`]. Accesses beyond the end of `llc_hits` are
    /// treated as misses (useful for quick what-if runs).
    ///
    /// The loop is data-first: the instruction window, the MSHRs and the
    /// fetch group are ring cursors (no division per instruction), the
    /// latency comes from a table indexed by record kind, and hit/miss
    /// and load dependence pick values by select rather than by branch.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `window` is zero.
    pub fn simulate(&self, records: &[InstrRecord], llc_hits: &HitMap) -> Timing {
        assert!(self.width >= 1, "width must be at least 1");
        assert!(self.window >= 1, "window must be at least 1");
        assert!(self.mshrs >= 1, "mshrs must be at least 1");
        let lat = self.latencies;
        // Latency by record kind in `InstrKind` order; an LLC miss reads
        // one entry further, the memory latency.
        let latency = [1, lat.l1, lat.l2, lat.llc, lat.memory].map(u64::from);
        let width = u64::from(self.width);
        // Completion cycle of the instruction `window` slots ago.
        let mut retire = vec![0u64; self.window];
        // Completion cycle of the miss `mshrs` misses ago.
        let mut mshr = vec![0u64; self.mshrs];
        let (mut slot, mut miss_slot, mut llc_cursor) = (0usize, 0usize, 0usize);
        // Front end: at most `width` instructions begin per cycle, so
        // instruction `i` is fetched at cycle `i / width`.
        let (mut fetch, mut fetched) = (0u64, 0u64);
        let mut prev_load_done = 0u64;
        let mut prev_was_dependent = false;
        let mut max_complete = 0u64;

        for r in records {
            let kind = r.kind() as usize;
            let is_mem = kind != InstrKind::NonMem as usize;
            let is_llc = kind == InstrKind::Llc as usize;
            let is_miss = is_llc & !llc_hits.hit(llc_cursor);
            llc_cursor += usize::from(is_llc);
            let latency = latency[kind + usize::from(is_miss)];
            // Window: wait for the instruction `window` ago to complete;
            // dependent-load serialization.
            let dependence = select_unpredictable(prev_was_dependent, prev_load_done, 0);
            let mut start = fetch.max(retire[slot]).max(dependence);
            // A miss needs a free MSHR: wait for the miss `mshrs` ago.
            let free = mshr[miss_slot];
            start = select_unpredictable(is_miss, start.max(free), start);
            let complete = start + latency;
            mshr[miss_slot] = select_unpredictable(is_miss, complete, free);
            miss_slot += usize::from(is_miss);
            miss_slot = select_unpredictable(miss_slot == self.mshrs, 0, miss_slot);
            retire[slot] = complete;
            slot = select_unpredictable(slot + 1 == self.window, 0, slot + 1);
            prev_load_done = select_unpredictable(is_mem, complete, prev_load_done);
            prev_was_dependent = is_mem & r.dependent();
            max_complete = max_complete.max(complete);
            fetched += 1;
            fetch += u64::from(fetched == width);
            fetched = select_unpredictable(fetched == width, 0, fetched);
        }
        Timing { instructions: records.len() as u64, cycles: max_complete }
    }
}

/// Weighted speedup of a multi-programmed run, the paper's multi-core
/// metric (§VI-A2): `Σ IPC_i / SingleIPC_i`, normalised by the caller
/// against the same sum under the baseline policy.
pub fn weighted_ipc(shared_ipcs: &[f64], single_ipcs: &[f64]) -> f64 {
    assert_eq!(shared_ipcs.len(), single_ipcs.len(), "per-core IPC lists must align");
    shared_ipcs
        .iter()
        .zip(single_ipcs)
        .map(|(&s, &alone)| {
            assert!(alone > 0.0, "isolated IPC must be positive");
            s / alone
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn non_mem(n: usize) -> Vec<InstrRecord> {
        vec![InstrRecord::new(InstrKind::NonMem, false); n]
    }

    #[test]
    fn alu_code_runs_at_width() {
        let t = CoreModel::default().simulate(&non_mem(10_000), &HitMap::new());
        assert!((t.ipc() - 4.0).abs() < 0.05, "ipc = {}", t.ipc());
    }

    #[test]
    fn l1_hits_are_nearly_free() {
        let records = vec![InstrRecord::new(InstrKind::L1Hit, false); 10_000];
        let t = CoreModel::default().simulate(&records, &HitMap::new());
        assert!(t.ipc() > 3.5, "ipc = {}", t.ipc());
    }

    #[test]
    fn independent_misses_overlap_up_to_the_mshr_limit() {
        // All instructions are independent LLC misses: 16 MSHRs sustain
        // 16 misses per 200 cycles = 0.08 IPC, an order of magnitude above
        // the fully serialized 1/200, but far below issue width.
        let records = vec![InstrRecord::new(InstrKind::Llc, false); 20_000];
        let hits = HitMap::repeat(false, 20_000);
        let t = CoreModel::default().simulate(&records, &hits);
        assert!(t.ipc() > 0.07, "mlp not exploited: ipc = {}", t.ipc());
        assert!(t.ipc() < 0.1, "mshr limit not applied: ipc = {}", t.ipc());
    }

    #[test]
    fn dependent_misses_serialize() {
        let records = vec![InstrRecord::new(InstrKind::Llc, true); 5_000];
        let hits = HitMap::repeat(false, 5_000);
        let t = CoreModel::default().simulate(&records, &hits);
        // Each load waits for the previous: ~200 cycles per instruction.
        assert!(t.ipc() < 0.01, "dependent loads must serialize: ipc = {}", t.ipc());
    }

    #[test]
    fn llc_hits_give_higher_ipc_than_misses() {
        let records = vec![InstrRecord::new(InstrKind::Llc, true); 5_000];
        let all_hit = HitMap::repeat(true, 5_000);
        let all_miss = HitMap::repeat(false, 5_000);
        let m = CoreModel::default();
        let hit_ipc = m.simulate(&records, &all_hit).ipc();
        let miss_ipc = m.simulate(&records, &all_miss).ipc();
        assert!(hit_ipc > 5.0 * miss_ipc, "hit {hit_ipc} vs miss {miss_ipc}");
    }

    #[test]
    fn missing_hit_map_entries_default_to_miss() {
        let records = vec![InstrRecord::new(InstrKind::Llc, false); 100];
        let m = CoreModel::default();
        let t_empty = m.simulate(&records, &HitMap::new());
        let t_miss = m.simulate(&records, &HitMap::repeat(false, 100));
        assert_eq!(t_empty, t_miss);
    }

    #[test]
    fn mixed_stream_interleaves_correctly() {
        // 1 miss followed by many ALU ops: the ALU ops issue during the
        // miss shadow, so total cycles ≈ miss latency once, not per-op.
        let mut records = vec![InstrRecord::new(InstrKind::Llc, false)];
        records.extend(non_mem(400));
        let t = CoreModel::default().simulate(&records, &HitMap::repeat(false, 1));
        assert!(t.cycles < 320, "ALU ops must hide under the miss: {} cycles", t.cycles);
    }

    #[test]
    fn weighted_ipc_sums_relative_progress() {
        let w = weighted_ipc(&[1.0, 2.0], &[2.0, 2.0]);
        assert!((w - 1.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "must align")]
    fn weighted_ipc_rejects_mismatched_lists() {
        let _ = weighted_ipc(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn window_limits_mlp() {
        // With abundant MSHRs, shrinking the window reduces overlap and
        // IPC under misses.
        let records = vec![InstrRecord::new(InstrKind::Llc, false); 10_000];
        let hits = HitMap::repeat(false, 10_000);
        let wide = CoreModel { window: 128, mshrs: 128, ..CoreModel::default() };
        let narrow = CoreModel { window: 16, mshrs: 128, ..CoreModel::default() };
        let wide_ipc = wide.simulate(&records, &hits).ipc();
        let narrow_ipc = narrow.simulate(&records, &hits).ipc();
        assert!(
            wide_ipc > 5.0 * narrow_ipc,
            "window effect missing: wide {wide_ipc} narrow {narrow_ipc}"
        );
    }

    #[test]
    fn mshrs_limit_mlp() {
        let records = vec![InstrRecord::new(InstrKind::Llc, false); 10_000];
        let hits = HitMap::repeat(false, 10_000);
        let many = CoreModel { mshrs: 16, ..CoreModel::default() };
        let few = CoreModel { mshrs: 2, ..CoreModel::default() };
        let many_ipc = many.simulate(&records, &hits).ipc();
        let few_ipc = few.simulate(&records, &hits).ipc();
        assert!(
            many_ipc > 5.0 * few_ipc,
            "mshr effect missing: many {many_ipc} few {few_ipc}"
        );
    }
}
