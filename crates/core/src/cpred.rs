//! The stream-based column predictor (CPRED) with power prediction.
//!
//! "The CPRED is indexed upon entering a new stream. It predicts how
//! many sequential searches to perform before finding the taken branch
//! that leaves the stream, along with the BTB1 way and the redirect
//! address. With SKOOT, that redirect address is the target address plus
//! the SKOOT offset along that target stream. … the z15 CPRED continues
//! to predict which branch prediction structures need to be powered up
//! in the target stream." (paper §IV, patent \[12\])
//!
//! A *stream* is the run of sequential code entered at a taken-branch
//! target and left by the next taken branch.
//!
//! # Example
//!
//! ```
//! use zbp_core::config::z15_config;
//! use zbp_core::cpred::Cpred;
//! use zbp_zarch::InstrAddr;
//!
//! let cfg = z15_config();
//! let mut cp = Cpred::new(cfg.cpred.as_ref().unwrap());
//! // The stream's slot is derived once, when the stream is entered.
//! let stream = cp.slot(InstrAddr::new(0x4000));
//! assert!(cp.lookup(stream).is_none(), "untrained stream has no column hint");
//! // The stream's exit behaviour is learned when it ends: 3 searches to
//! // the taken branch, which lived in BTB1 way 5.
//! cp.train_exit(stream, 3, 5, InstrAddr::new(0x8000));
//! let hint = cp.lookup(stream).expect("trained");
//! assert_eq!((hint.searches_to_taken, hint.way), (3, 5));
//! assert_eq!(hint.redirect, InstrAddr::new(0x8000));
//! ```

#![expect(
    clippy::indexing_slicing,
    reason = "table geometries are fixed at construction and every index is masked or \
              bounds-derived from them; a panic here is a model bug worth failing loudly"
)]

use crate::config::CpredConfig;
use crate::util::{index_of, tag_of};
use zbp_zarch::InstrAddr;

/// Which auxiliary structures a stream needs powered up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PowerMask {
    /// PHT (TAGE) arrays needed (some branch in the stream is
    /// bidirectional).
    pub pht: bool,
    /// Perceptron needed.
    pub perceptron: bool,
    /// CTB needed (some branch in the stream is multi-target).
    pub ctb: bool,
}

impl PowerMask {
    /// Everything powered up — the safe default when the CPRED has no
    /// prediction for a stream.
    pub const ALL_ON: PowerMask = PowerMask { pht: true, perceptron: true, ctb: true };

    /// Everything powered down — a fresh stream-learning starting point.
    pub const ALL_OFF: PowerMask = PowerMask { pht: false, perceptron: false, ctb: false };

    /// Accumulates the needs of one branch in the stream.
    pub fn note_branch(&mut self, bidirectional: bool, multi_target: bool) {
        self.pht |= bidirectional;
        self.perceptron |= bidirectional;
        self.ctb |= multi_target;
    }

    /// Number of structures gated off.
    pub fn gated_count(&self) -> u32 {
        u32::from(!self.pht) + u32::from(!self.perceptron) + u32::from(!self.ctb)
    }
}

impl Default for PowerMask {
    fn default() -> Self {
        PowerMask::ALL_ON
    }
}

/// A CPRED prediction for one stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpredPrediction {
    /// Sequential searches before the stream-leaving taken branch.
    pub searches_to_taken: u8,
    /// BTB1 way holding that taken branch.
    pub way: u8,
    /// The accelerated re-index address: the taken branch's target,
    /// plus the SKOOT skip when enabled.
    pub redirect: InstrAddr,
    /// Power-up prediction for the *target* stream.
    pub power: PowerMask,
}

/// A stream's entry position: the direct-mapped index and the tag its
/// start address hashes to. A pure function of the address and the
/// table geometry, so it is derived once when the stream is entered and
/// reused by the lookup and both trainings.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpredSlot {
    index: usize,
    tag: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    tag: u32,
    pred: CpredPrediction,
}

/// Statistics for the CPRED.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpredStats {
    /// Lookups on stream entry.
    pub lookups: u64,
    /// Tag hits.
    pub hits: u64,
    /// Hits whose redirect address proved correct (enabling the 2-cycle
    /// taken path).
    pub redirect_correct: u64,
    /// Hits whose redirect proved wrong.
    pub redirect_wrong: u64,
    /// Trainings.
    pub trains: u64,
    /// Structure power-downs avoided (structure-streams gated off).
    pub gated_structures: u64,
}

/// The column predictor: direct-mapped on stream start address.
#[derive(Debug, Clone)]
pub struct Cpred {
    entries: Vec<Option<Entry>>,
    /// Entry count (`entries` is refilled to it at power-on).
    slots: usize,
    tag_bits: u32,
    with_skoot: bool,
    /// Statistics.
    pub stats: CpredStats,
}

impl Cpred {
    /// Builds an empty CPRED.
    pub fn new(cfg: &CpredConfig) -> Self {
        let mut c = Cpred {
            entries: Vec::with_capacity(cfg.entries),
            slots: cfg.entries,
            tag_bits: cfg.tag_bits,
            with_skoot: cfg.with_skoot,
            stats: CpredStats::default(),
        };
        c.power_on();
        c
    }

    /// Returns the CPRED to its power-on state in the storage it owns:
    /// every entry invalid, zeroed statistics.
    pub fn power_on(&mut self) {
        self.entries.clear();
        self.entries.resize(self.slots, None);
        self.stats = CpredStats::default();
    }

    /// Whether the SKOOT offset participates in the redirect address.
    pub fn with_skoot(&self) -> bool {
        self.with_skoot
    }

    /// The slot of the stream starting at `stream_start`.
    pub fn slot(&self, stream_start: InstrAddr) -> CpredSlot {
        let key = stream_start.raw() >> 1;
        CpredSlot { index: index_of(key, self.entries.len()), tag: tag_of(key, self.tag_bits) }
    }

    /// Looks up the prediction for a stream being entered.
    pub fn lookup(&mut self, slot: CpredSlot) -> Option<CpredPrediction> {
        self.stats.lookups += 1;
        let hit = self.entries[slot.index].filter(|e| e.tag == slot.tag).map(|e| e.pred);
        if hit.is_some() {
            self.stats.hits += 1;
            if let Some(p) = &hit {
                self.stats.gated_structures += u64::from(p.power.gated_count());
            }
        }
        hit
    }

    /// Trains the entry for a completed stream: how many searches it
    /// took, which way held the leaving branch, where the next stream
    /// begins (already SKOOT-adjusted by the caller when enabled) and
    /// what the *target* stream needs powered.
    pub fn train(&mut self, slot: CpredSlot, pred: CpredPrediction) {
        self.entries[slot.index] = Some(Entry { tag: slot.tag, pred });
        self.stats.trains += 1;
    }

    /// Trains the exit behaviour (searches/way/redirect) of a stream,
    /// preserving the entry's existing power prediction when present —
    /// the power bits describe the *target* stream and are learned
    /// separately via [`Self::train_power`].
    pub fn train_exit(
        &mut self,
        slot: CpredSlot,
        searches_to_taken: u8,
        way: u8,
        redirect: InstrAddr,
    ) {
        let CpredSlot { index, tag } = slot;
        let power = self.entries[index]
            .filter(|e| e.tag == tag)
            .map(|e| e.pred.power)
            .unwrap_or(PowerMask::ALL_ON);
        self.entries[index] =
            Some(Entry { tag, pred: CpredPrediction { searches_to_taken, way, redirect, power } });
        self.stats.trains += 1;
    }

    /// Updates only the power prediction of an existing entry: once a
    /// target stream's actual needs are known, the predecessor stream's
    /// entry learns them.
    pub fn train_power(&mut self, slot: CpredSlot, power: PowerMask) {
        if let Some(e) = self.entries[slot.index].as_mut() {
            if e.tag == slot.tag {
                e.pred.power = power;
            }
        }
    }

    /// Scores a previous prediction against the actual redirect address
    /// (bookkeeping for the figure-5/6/7 experiments).
    pub fn assess_redirect(&mut self, predicted: InstrAddr, actual: InstrAddr) {
        if predicted == actual {
            self.stats.redirect_correct += 1;
        } else {
            self.stats.redirect_wrong += 1;
        }
    }

    /// Number of valid entries (verification use).
    pub fn occupancy(&self) -> usize {
        self.entries.iter().flatten().count()
    }

    /// Iterates over the trained predictions (verification/audit use;
    /// does not touch stats).
    pub fn predictions(&self) -> impl Iterator<Item = &CpredPrediction> {
        self.entries.iter().flatten().map(|e| &e.pred)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::z15_config;

    fn cpred() -> Cpred {
        Cpred::new(z15_config().cpred.as_ref().unwrap())
    }

    fn pred(redirect: u64) -> CpredPrediction {
        CpredPrediction {
            searches_to_taken: 2,
            way: 5,
            redirect: InstrAddr::new(redirect),
            power: PowerMask::ALL_ON,
        }
    }

    #[test]
    fn miss_then_train_then_hit() {
        let mut c = cpred();
        let stream = c.slot(InstrAddr::new(0x4000));
        assert_eq!(c.lookup(stream), None);
        c.train(stream, pred(0x8000));
        let hit = c.lookup(stream).expect("hit");
        assert_eq!(hit.redirect, InstrAddr::new(0x8000));
        assert_eq!(hit.searches_to_taken, 2);
        assert_eq!(hit.way, 5);
        assert_eq!(c.stats.hits, 1);
        assert_eq!(c.stats.trains, 1);
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn retrain_updates_in_place() {
        let mut c = cpred();
        let stream = c.slot(InstrAddr::new(0x4000));
        c.train(stream, pred(0x8000));
        c.train(stream, pred(0x9000));
        assert_eq!(c.lookup(stream).unwrap().redirect, InstrAddr::new(0x9000));
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn different_streams_coexist() {
        let mut c = cpred();
        let (a, b) = (c.slot(InstrAddr::new(0x4000)), c.slot(InstrAddr::new(0x5000)));
        c.train(a, pred(0x8000));
        c.train(b, pred(0x9000));
        assert_eq!(c.lookup(a).unwrap().redirect, InstrAddr::new(0x8000));
        assert_eq!(c.lookup(b).unwrap().redirect, InstrAddr::new(0x9000));
    }

    #[test]
    fn power_mask_accumulates_stream_needs() {
        let mut m = PowerMask::ALL_OFF;
        assert_eq!(m.gated_count(), 3);
        m.note_branch(false, false);
        assert_eq!(m.gated_count(), 3, "plain branches need nothing");
        m.note_branch(true, false);
        assert!(m.pht && m.perceptron && !m.ctb);
        m.note_branch(false, true);
        assert!(m.ctb);
        assert_eq!(m.gated_count(), 0);
    }

    #[test]
    fn gating_statistics_accrue_on_hits() {
        let mut c = cpred();
        let stream = c.slot(InstrAddr::new(0x4000));
        let mut p = pred(0x8000);
        p.power = PowerMask::ALL_OFF;
        c.train(stream, p);
        c.lookup(stream);
        assert_eq!(c.stats.gated_structures, 3, "all three structures gated");
    }

    #[test]
    fn redirect_assessment() {
        let mut c = cpred();
        c.assess_redirect(InstrAddr::new(0x8000), InstrAddr::new(0x8000));
        c.assess_redirect(InstrAddr::new(0x8000), InstrAddr::new(0x9000));
        assert_eq!(c.stats.redirect_correct, 1);
        assert_eq!(c.stats.redirect_wrong, 1);
    }

    #[test]
    fn skoot_flag_follows_config() {
        assert!(cpred().with_skoot());
        let c14 = Cpred::new(crate::config::z14_config().cpred.as_ref().unwrap());
        assert!(!c14.with_skoot());
    }
}
