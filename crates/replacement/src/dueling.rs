//! Set dueling infrastructure shared by DIP, TADIP, and DRRIP.
//!
//! Set dueling [Qureshi et al. ISCA'07] dedicates a few *leader sets* to
//! each of two competing policies and lets a saturating counter (PSEL)
//! track which leader group misses less; *follower sets* adopt the winner.
//! Thread-aware variants give each core its own leader sets and PSEL.

use std::fmt;

/// Role of a cache set for a particular core.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Role {
    /// The set always uses the baseline policy (e.g. LRU / SRRIP).
    LeaderBaseline,
    /// The set always uses the challenger policy (e.g. BIP / BRRIP).
    LeaderChallenger,
    /// The set follows the PSEL winner.
    Follower,
}

/// A saturating policy-selection counter.
///
/// Misses in baseline leader sets increment it; misses in challenger leader
/// sets decrement it. When the counter is in its upper half the baseline is
/// the *loser* (it missed more), so followers use the challenger.
#[derive(Copy, Clone, PartialEq, Eq, Hash)]
pub struct Psel {
    value: u32,
    max: u32,
}

impl Psel {
    /// Creates a counter with `bits` bits, initialised to the midpoint.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero or greater than 31.
    pub fn new(bits: u32) -> Self {
        assert!((1..=31).contains(&bits), "PSEL bits must be in 1..=31");
        let max = (1u32 << bits) - 1;
        // Start just below the threshold: undecided duels keep the baseline.
        Psel { value: max / 2, max }
    }

    /// A miss occurred in a baseline leader set.
    pub fn baseline_missed(&mut self) {
        self.value = (self.value + 1).min(self.max);
    }

    /// A miss occurred in a challenger leader set.
    pub fn challenger_missed(&mut self) {
        self.value = self.value.saturating_sub(1);
    }

    /// True if followers should use the challenger policy.
    pub fn challenger_wins(&self) -> bool {
        self.value > self.max / 2
    }

    /// Current raw value (for diagnostics).
    pub const fn value(&self) -> u32 {
        self.value
    }
}

impl fmt::Debug for Psel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Psel({}/{}, challenger_wins={})", self.value, self.max, self.challenger_wins())
    }
}

/// Static assignment of leader sets to cores and policies.
///
/// Following the constituency scheme of the DIP paper: within each group of
/// `sets / leaders_per_policy` sets, one set leads the baseline and one the
/// challenger, per core. With 2048 sets, 32 leader sets per policy per core
/// and up to 4 cores, 256 sets are leaders and the rest follow.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct DuelingMap {
    sets: usize,
    cores: usize,
    group: usize,
}

impl DuelingMap {
    /// Creates a map for `sets` sets, `cores` cores, and
    /// `leaders_per_policy` leader sets for each (policy, core) pair.
    ///
    /// # Panics
    ///
    /// Panics if the geometry cannot host the requested leaders (each group
    /// of `sets / leaders_per_policy` sets must fit `2 * cores` distinct
    /// leader slots).
    pub fn new(sets: usize, cores: usize, leaders_per_policy: usize) -> Self {
        assert!(sets.is_power_of_two(), "sets must be a power of two");
        assert!(cores >= 1, "cores must be at least 1");
        assert!(leaders_per_policy >= 1, "need at least one leader set");
        let group = sets / leaders_per_policy;
        assert!(
            group >= 2 * cores,
            "cannot fit {} leader slots in set groups of {}",
            2 * cores,
            group
        );
        DuelingMap { sets, cores, group }
    }

    /// Number of cores the map was built for.
    pub const fn cores(&self) -> usize {
        self.cores
    }

    /// `set`'s position within its group. Groups are a power of two for
    /// every policy the registry builds, which makes this a mask rather
    /// than a division on every miss and fill.
    #[inline]
    fn slot(&self, set: usize) -> usize {
        if self.group.is_power_of_two() {
            set & (self.group - 1)
        } else {
            set % self.group
        }
    }

    /// The role of `set` from the perspective of `core`.
    ///
    /// Leader sets belonging to *other* cores are followers from this
    /// core's perspective (the TADIP-F scheme).
    #[inline]
    pub fn role(&self, set: usize, core: usize) -> Role {
        debug_assert!(set < self.sets);
        debug_assert!(core < self.cores);
        let slot = self.slot(set);
        if slot == 2 * core {
            Role::LeaderBaseline
        } else if slot == 2 * core + 1 {
            Role::LeaderChallenger
        } else {
            Role::Follower
        }
    }

    /// If `set` is a leader set for any core, returns `(core, role)`.
    #[inline]
    pub fn leader_of(&self, set: usize) -> Option<(usize, Role)> {
        let slot = self.slot(set);
        if slot < 2 * self.cores {
            let core = slot / 2;
            let role =
                if slot.is_multiple_of(2) { Role::LeaderBaseline } else { Role::LeaderChallenger };
            Some((core, role))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn psel_starts_undecided_toward_baseline() {
        let p = Psel::new(10);
        assert!(!p.challenger_wins());
    }

    #[test]
    fn psel_moves_with_misses() {
        let mut p = Psel::new(4); // starts at 7, max 15
        p.baseline_missed();
        assert!(p.challenger_wins(), "baseline missing more should elect challenger");
        p.challenger_missed();
        p.challenger_missed();
        assert!(!p.challenger_wins());
    }

    #[test]
    fn psel_saturates() {
        let mut p = Psel::new(2); // max 3
        for _ in 0..10 {
            p.baseline_missed();
        }
        assert_eq!(p.value(), 3);
        for _ in 0..10 {
            p.challenger_missed();
        }
        assert_eq!(p.value(), 0);
    }

    #[test]
    #[should_panic(expected = "PSEL bits")]
    fn psel_rejects_zero_bits() {
        let _ = Psel::new(0);
    }

    #[test]
    fn leader_counts_match_request() {
        let m = DuelingMap::new(2048, 1, 32);
        let baseline = (0..2048).filter(|&s| m.role(s, 0) == Role::LeaderBaseline).count();
        let challenger =
            (0..2048).filter(|&s| m.role(s, 0) == Role::LeaderChallenger).count();
        assert_eq!(baseline, 32);
        assert_eq!(challenger, 32);
    }

    #[test]
    fn per_core_leaders_are_disjoint() {
        let m = DuelingMap::new(2048, 4, 32);
        for set in 0..2048 {
            let leaders = (0..4)
                .filter(|&c| m.role(set, c) != Role::Follower)
                .count();
            assert!(leaders <= 1, "set {set} leads for multiple cores");
        }
    }

    #[test]
    fn leader_of_agrees_with_role() {
        let m = DuelingMap::new(1024, 2, 16);
        for set in 0..1024 {
            match m.leader_of(set) {
                Some((core, role)) => assert_eq!(m.role(set, core), role),
                None => {
                    for core in 0..2 {
                        assert_eq!(m.role(set, core), Role::Follower);
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "cannot fit")]
    fn too_many_leaders_rejected() {
        // 64 sets / 64 leaders => groups of 1 set: cannot host 2 slots.
        let _ = DuelingMap::new(64, 1, 64);
    }
}
