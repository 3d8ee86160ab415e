//! Speculative direction overrides: the SBHT and SPHT.
//!
//! "Because there is a large gap in time between when branches are
//! predicted and when they are updated, care must be taken to update the
//! 2-bit counter predictor states in the BHT and PHT appropriately. …
//! These direction predictors have a small number of entries that track
//! weak occurrences of predictions that, when assumed they are correct,
//! will update the corresponding predictor state to strong. Upon a weak
//! prediction, a new entry is written into the SBHT or SPHT.
//! Mis-predicted branches also update or install new entries. …
//! Subsequently, if that BHT or PHT entry is hit on again, the SBHT or
//! SPHT will override the prediction. The SBHT / SPHT entries are
//! removed upon instruction completion or flush of the branches that
//! installed them." (paper §IV)
//!
//! One [`SpecOverride`] instance serves as the SBHT (keyed by branch
//! address) and another as the SPHT (keyed by the PHT slot).

use std::collections::VecDeque;
use zbp_zarch::Direction;

/// A small FIFO of speculative direction overrides.
#[derive(Debug, Clone)]
pub struct SpecOverride {
    entries: VecDeque<SpecEntry>,
    capacity: usize,
    /// Statistics.
    pub stats: SpecStats,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SpecEntry {
    key: u64,
    dir: Direction,
    installer: u64,
}

/// Statistics for a speculative override structure.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpecStats {
    /// Entries installed.
    pub installs: u64,
    /// Lookups that found an override.
    pub overrides: u64,
    /// Entries dropped because the structure was full.
    pub capacity_drops: u64,
}

impl SpecOverride {
    /// Creates an override structure with `capacity` entries (0 yields a
    /// permanently-empty, disabled structure).
    pub fn new(capacity: usize) -> Self {
        let mut s =
            SpecOverride { entries: VecDeque::new(), capacity, stats: SpecStats::default() };
        s.power_on();
        s
    }

    /// Returns the structure to its power-on state in place: no
    /// overrides, zeroed statistics.
    pub fn power_on(&mut self) {
        self.entries.clear();
        self.stats = SpecStats::default();
    }

    /// Whether the structure can hold entries.
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no overrides are live.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Installs an override: key (branch address or PHT slot), the
    /// assumed-correct (strengthened) direction, and the sequence number
    /// of the installing prediction. A later entry for the same key
    /// supersedes the earlier one. When full, the oldest entry drops.
    pub fn install(&mut self, key: u64, dir: Direction, installer: u64) {
        if self.capacity == 0 {
            return;
        }
        self.stats.installs += 1;
        if let Some(e) = self.entries.iter_mut().find(|e| e.key == key) {
            e.dir = dir;
            e.installer = installer;
            return;
        }
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
            self.stats.capacity_drops += 1;
        }
        self.entries.push_back(SpecEntry { key, dir, installer });
    }

    /// Returns the overriding direction for `key`, if an entry is live.
    pub fn lookup(&mut self, key: u64) -> Option<Direction> {
        let dir = self.entries.iter().find(|e| e.key == key).map(|e| e.dir);
        if dir.is_some() {
            self.stats.overrides += 1;
        }
        dir
    }

    /// Removes entries installed by the completing (or flushed)
    /// prediction `installer`.
    pub fn retire(&mut self, installer: u64) {
        if self.entries.is_empty() {
            return;
        }
        self.entries.retain(|e| e.installer != installer);
    }

    /// Removes every entry (pipeline flush).
    pub fn flush(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_lookup_retire_cycle() {
        let mut s = SpecOverride::new(8);
        assert!(s.is_enabled());
        assert!(s.is_empty());
        s.install(0x1000, Direction::Taken, 7);
        assert_eq!(s.lookup(0x1000), Some(Direction::Taken));
        assert_eq!(s.lookup(0x2000), None);
        s.retire(7);
        assert_eq!(s.lookup(0x1000), None, "completion removes the installer's entries");
        assert_eq!(s.stats.installs, 1);
        assert_eq!(s.stats.overrides, 1);
    }

    #[test]
    fn same_key_superseded_by_newer_install() {
        let mut s = SpecOverride::new(8);
        s.install(0x1000, Direction::Taken, 1);
        s.install(0x1000, Direction::NotTaken, 2);
        assert_eq!(s.len(), 1, "same key reuses the entry");
        assert_eq!(s.lookup(0x1000), Some(Direction::NotTaken));
        // Retiring the *first* installer no longer removes it: the entry
        // now belongs to installer 2.
        s.retire(1);
        assert_eq!(s.lookup(0x1000), Some(Direction::NotTaken));
        s.retire(2);
        assert_eq!(s.lookup(0x1000), None);
    }

    #[test]
    fn capacity_evicts_oldest() {
        let mut s = SpecOverride::new(2);
        s.install(1, Direction::Taken, 1);
        s.install(2, Direction::Taken, 2);
        s.install(3, Direction::Taken, 3);
        assert_eq!(s.len(), 2);
        assert_eq!(s.lookup(1), None, "oldest dropped");
        assert_eq!(s.stats.capacity_drops, 1);
    }

    #[test]
    fn flush_clears_everything() {
        let mut s = SpecOverride::new(4);
        s.install(1, Direction::Taken, 1);
        s.install(2, Direction::NotTaken, 2);
        s.flush();
        assert!(s.is_empty());
        assert_eq!(s.lookup(1), None);
    }

    #[test]
    fn zero_capacity_is_disabled() {
        let mut s = SpecOverride::new(0);
        assert!(!s.is_enabled());
        s.install(1, Direction::Taken, 1);
        assert!(s.is_empty());
        assert_eq!(s.lookup(1), None);
        assert_eq!(s.stats.installs, 0);
    }

    #[test]
    fn weak_loop_scenario() {
        // The paper's motivating case: a weak-taken loop branch with
        // many in-flight instances. The SBHT pins the strengthened
        // direction until completion.
        let mut s = SpecOverride::new(8);
        let loop_branch = 0x4000u64;
        // Instance 10 predicts from a weak-taken counter: install the
        // assumed-strong direction.
        s.install(loop_branch, Direction::Taken, 10);
        // Instances 11..14 predict before 10 completes — all overridden
        // to taken regardless of transient BHT state.
        for _ in 11..15 {
            assert_eq!(s.lookup(loop_branch), Some(Direction::Taken));
        }
        // Completion of instance 10 releases the override.
        s.retire(10);
        assert_eq!(s.lookup(loop_branch), None);
    }
}
