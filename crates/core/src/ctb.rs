//! The changing-target buffer (CTB).
//!
//! "Each of the logically 2K entries of the CTB contains … a target
//! address. There are virtual instruction address tag bits contained
//! with each entry as well … The CTB is indexed solely as a function of
//! the prior code path history as represented in the GPV." (paper §VI)

#![expect(
    clippy::indexing_slicing,
    reason = "table geometries are fixed at construction and every index is masked or \
              bounds-derived from them; a panic here is a model bug worth failing loudly"
)]

use crate::config::CtbConfig;
use crate::gpv::Gpv;
use zbp_zarch::InstrAddr;

/// Statistics for the CTB.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CtbStats {
    /// Lookups performed.
    pub lookups: u64,
    /// Tag-matched hits.
    pub hits: u64,
    /// Entries installed (first wrong-target event for a branch).
    pub installs: u64,
    /// Entries re-trained in place (CTB-predicted target was wrong).
    pub retargets: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    tag: u32,
    target: InstrAddr,
}

/// The changing-target buffer: direct-mapped on path history, tagged by
/// branch address.
#[derive(Debug, Clone)]
pub struct Ctb {
    entries: Vec<Option<Entry>>,
    /// Entry count (`entries` is refilled to it at power-on).
    slots: usize,
    history: usize,
    tag_bits: u32,
    /// Statistics.
    pub stats: CtbStats,
}

impl Ctb {
    /// Builds an empty CTB.
    pub fn new(cfg: &CtbConfig) -> Self {
        let mut c = Ctb {
            entries: Vec::with_capacity(cfg.entries),
            slots: cfg.entries,
            history: cfg.history,
            tag_bits: cfg.tag_bits,
            stats: CtbStats::default(),
        };
        c.power_on();
        c
    }

    /// Returns the CTB to its power-on state in the storage it owns:
    /// every entry invalid, zeroed statistics.
    pub fn power_on(&mut self) {
        self.entries.clear();
        self.entries.resize(self.slots, None);
        self.stats = CtbStats::default();
    }

    /// The history depth folded into the index (9 pre-z15, 17 on z15).
    pub fn history(&self) -> usize {
        self.history
    }

    fn index(&self, gpv: &Gpv) -> usize {
        // Indexed *solely* by path history.
        crate::util::index_of(gpv.recent(self.history), self.entries.len())
    }

    fn tag(&self, addr: InstrAddr) -> u32 {
        crate::util::tag_of(addr.raw() >> 1, self.tag_bits)
    }

    /// Predicts the target for the branch at `addr` under path `gpv`,
    /// if the history-indexed entry tag-matches the branch.
    pub fn lookup(&mut self, addr: InstrAddr, gpv: &Gpv) -> Option<InstrAddr> {
        self.stats.lookups += 1;
        let e = self.entries[self.index(gpv)]?;
        if e.tag == self.tag(addr) {
            self.stats.hits += 1;
            Some(e.target)
        } else {
            None
        }
    }

    /// Installs an entry after a BTB1-provided target resolved wrong
    /// ("Whenever a BTB1 predicted branch target resolves with a wrong
    /// target … a CTB entry is installed", §VI). Uses the GPV as of the
    /// branch's prediction time.
    pub fn install(&mut self, addr: InstrAddr, gpv: &Gpv, resolved_target: InstrAddr) {
        let idx = self.index(gpv);
        self.entries[idx] = Some(Entry { tag: self.tag(addr), target: resolved_target });
        self.stats.installs += 1;
    }

    /// Corrects an entry after a CTB-provided target resolved wrong
    /// ("the CTB alone is updated with the correct target address").
    pub fn retarget(&mut self, addr: InstrAddr, gpv: &Gpv, resolved_target: InstrAddr) {
        let idx = self.index(gpv);
        let tag = self.tag(addr);
        if let Some(e) = self.entries[idx].as_mut() {
            if e.tag == tag {
                e.target = resolved_target;
                self.stats.retargets += 1;
                return;
            }
        }
        // The slot was since claimed by another path; treat as install.
        self.install(addr, gpv, resolved_target);
    }

    /// Number of valid entries (verification use).
    pub fn occupancy(&self) -> usize {
        self.entries.iter().flatten().count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::z15_config;

    fn ctb() -> Ctb {
        Ctb::new(z15_config().ctb.as_ref().unwrap())
    }

    fn gpv_path(seed: u64) -> Gpv {
        let mut g = Gpv::new(17);
        for k in 0..17u64 {
            g.push_taken(InstrAddr::new(seed + 2 * k * (1 + seed % 5)));
        }
        g
    }

    const BR: InstrAddr = InstrAddr::new(0x3_0010);

    #[test]
    fn miss_then_install_then_hit() {
        let mut c = ctb();
        let g = gpv_path(0x100);
        assert_eq!(c.lookup(BR, &g), None);
        c.install(BR, &g, InstrAddr::new(0x8000));
        assert_eq!(c.lookup(BR, &g), Some(InstrAddr::new(0x8000)));
        assert_eq!(c.stats.installs, 1);
        assert_eq!(c.stats.hits, 1);
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn per_path_targets() {
        // The defining behaviour: one branch, two code paths, two
        // targets — e.g. a shared function returning to two call sites.
        let mut c = ctb();
        let path_a = gpv_path(0x1000);
        let path_b = gpv_path(0x2000);
        assert_ne!(path_a.recent(17), path_b.recent(17), "paths must differ");
        c.install(BR, &path_a, InstrAddr::new(0xa000));
        c.install(BR, &path_b, InstrAddr::new(0xb000));
        assert_eq!(c.lookup(BR, &path_a), Some(InstrAddr::new(0xa000)));
        assert_eq!(c.lookup(BR, &path_b), Some(InstrAddr::new(0xb000)));
    }

    #[test]
    fn tag_mismatch_is_a_miss() {
        let mut c = ctb();
        let g = gpv_path(0x300);
        c.install(BR, &g, InstrAddr::new(0x8000));
        // A different branch under the same path maps to the same slot
        // but fails the tag compare.
        assert_eq!(c.lookup(InstrAddr::new(0x9_0010), &g), None);
    }

    #[test]
    fn retarget_corrects_in_place() {
        let mut c = ctb();
        let g = gpv_path(0x400);
        c.install(BR, &g, InstrAddr::new(0x8000));
        c.retarget(BR, &g, InstrAddr::new(0x9000));
        assert_eq!(c.lookup(BR, &g), Some(InstrAddr::new(0x9000)));
        assert_eq!(c.stats.retargets, 1);
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn retarget_after_displacement_reinstalls() {
        let mut c = ctb();
        let g = gpv_path(0x500);
        c.install(BR, &g, InstrAddr::new(0x8000));
        // Another branch claims the slot.
        let other = InstrAddr::new(0x7_7770);
        c.install(other, &g, InstrAddr::new(0xeeee));
        assert_eq!(c.lookup(BR, &g), None, "displaced");
        c.retarget(BR, &g, InstrAddr::new(0x9000));
        assert_eq!(c.lookup(BR, &g), Some(InstrAddr::new(0x9000)), "reclaimed");
    }

    #[test]
    fn z15_uses_17_deep_history_z14_uses_9() {
        assert_eq!(ctb().history(), 17);
        let c14 = Ctb::new(crate::config::z14_config().ctb.as_ref().unwrap());
        assert_eq!(c14.history(), 9);
    }

    #[test]
    fn shallow_history_confuses_paths_deep_history_separates() {
        // Two paths identical in the last 9 taken branches, different
        // before: a 9-deep CTB cannot tell them apart (same slot), a
        // 17-deep CTB can.
        let mut deep = ctb();
        let c14cfg = crate::config::z14_config();
        let mut shallow = Ctb::new(c14cfg.ctb.as_ref().unwrap());

        let mut g1 = Gpv::new(17);
        let mut g2 = Gpv::new(17);
        g1.push_taken(InstrAddr::new(0x9990));
        g2.push_taken(InstrAddr::new(0x6666));
        for k in 0..9u64 {
            let a = InstrAddr::new(0x2000 + k * 4);
            g1.push_taken(a);
            g2.push_taken(a);
        }
        // Shallow: second install overwrites the first (same index+tag).
        shallow.install(BR, &g1, InstrAddr::new(0xa000));
        shallow.install(BR, &g2, InstrAddr::new(0xb000));
        assert_eq!(shallow.lookup(BR, &g1), Some(InstrAddr::new(0xb000)), "paths collide at 9");
        // Deep: both coexist if the long histories differ.
        if g1.recent(17) != g2.recent(17) {
            deep.install(BR, &g1, InstrAddr::new(0xa000));
            deep.install(BR, &g2, InstrAddr::new(0xb000));
            assert_eq!(deep.lookup(BR, &g1), Some(InstrAddr::new(0xa000)));
            assert_eq!(deep.lookup(BR, &g2), Some(InstrAddr::new(0xb000)));
        }
    }
}
