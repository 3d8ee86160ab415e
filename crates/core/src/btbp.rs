//! The pre-z15 BTB preload buffer (BTBP).
//!
//! "Prior to the z15 design, there was a BTB preload (BTBP) structure
//! that all BTB2 branches were written to. This structure acted as a
//! staging ground and filter that prevented redundant or non-useful
//! entries from overwriting more useful content in the BTB1.
//! Predictions were made out of both the BTB1 and BTBP on prior designs
//! and content was only moved into the BTB1 after a qualified hit in the
//! BTBP occurred. The BTBP also acted as a victim buffer for BTB1
//! entries that were cast out." (paper §III)
//!
//! The BTBP is modeled as a small fully-associative FIFO. It exists so
//! the zEC12/z13/z14 generation configs and the BTBP-removal ablation
//! (experiment E9) can be run against the same simulator.

use crate::btb::BtbEntry;
use crate::config::BtbpConfig;
use std::collections::VecDeque;
use zbp_zarch::InstrAddr;

/// Statistics the BTBP keeps about itself.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BtbpStats {
    /// Entries written in (from BTB2 hits or BTB1 victims).
    pub fills: u64,
    /// Prediction-side hits (which promote to BTB1).
    pub hits: u64,
    /// Entries that aged out without ever being hit ("non-useful entries
    /// filtered").
    pub filtered_out: u64,
}

/// The BTB preload buffer.
#[derive(Debug, Clone)]
pub struct Btbp {
    entries: VecDeque<BtbEntry>,
    capacity: usize,
    line_bytes: u64,
    tag_bits: u32,
    /// Statistics.
    pub stats: BtbpStats,
}

impl Btbp {
    /// Builds an empty BTBP. `line_bytes` and `tag_bits` match the BTB1
    /// geometry so slot matching uses the same tag/offset scheme.
    pub fn new(cfg: &BtbpConfig, line_bytes: u64, tag_bits: u32) -> Self {
        let mut b = Btbp {
            entries: VecDeque::with_capacity(cfg.entries),
            capacity: cfg.entries,
            line_bytes,
            tag_bits,
            stats: BtbpStats::default(),
        };
        b.power_on();
        b
    }

    /// Returns the buffer to its power-on state in place: empty, with
    /// its storage kept, and zeroed statistics.
    pub fn power_on(&mut self) {
        self.entries.clear();
        self.stats = BtbpStats::default();
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Writes an entry (BTB2 hit or BTB1 victim). If a matching slot is
    /// already present it is replaced in place; otherwise the oldest
    /// entry ages out. Returns the filtered-out victim, if any.
    pub fn fill(&mut self, entry: BtbEntry) -> Option<BtbEntry> {
        self.stats.fills += 1;
        if let Some(existing) =
            self.entries.iter_mut().find(|e| e.matches(entry.tag, entry.offset_hw))
        {
            *existing = entry;
            return None;
        }
        self.entries.push_back(entry);
        if self.entries.len() > self.capacity {
            self.stats.filtered_out += 1;
            self.entries.pop_front()
        } else {
            None
        }
    }

    /// Prediction-side lookup by exact address. A hit *removes* the
    /// entry and returns it — the caller promotes it into the BTB1
    /// ("content was only moved into the BTB1 after a qualified hit").
    pub fn take_hit(&mut self, addr: InstrAddr) -> Option<BtbEntry> {
        let line = addr.raw() & !(self.line_bytes - 1);
        let tag = crate::util::tag_of(line, self.tag_bits);
        let off = ((addr.raw() - line) / 2) as u8;
        let pos = self.entries.iter().position(|e| e.matches(tag, off))?;
        self.stats.hits += 1;
        self.entries.remove(pos)
    }

    /// Iterates over buffered entries (verification use).
    pub fn iter(&self) -> impl Iterator<Item = &BtbEntry> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zbp_zarch::Mnemonic;

    fn btbp(cap: usize) -> Btbp {
        Btbp::new(&BtbpConfig { entries: cap }, 64, 14)
    }

    fn entry(addr: u64) -> BtbEntry {
        BtbEntry::install(
            InstrAddr::new(addr),
            Mnemonic::Brc,
            InstrAddr::new(addr + 0x40),
            true,
            64,
            14,
        )
    }

    #[test]
    fn fill_and_hit_promotes_out() {
        let mut p = btbp(8);
        p.fill(entry(0x1004));
        assert_eq!(p.len(), 1);
        let e = p.take_hit(InstrAddr::new(0x1004)).expect("hit");
        assert_eq!(e.branch_addr, InstrAddr::new(0x1004));
        assert!(p.is_empty(), "a qualified hit moves the entry out");
        assert_eq!(p.stats.hits, 1);
        assert!(p.take_hit(InstrAddr::new(0x1004)).is_none());
    }

    #[test]
    fn capacity_ages_out_oldest() {
        let mut p = btbp(2);
        p.fill(entry(0x1004));
        p.fill(entry(0x2004));
        let victim = p.fill(entry(0x3004));
        assert_eq!(victim.unwrap().branch_addr, InstrAddr::new(0x1004));
        assert_eq!(p.len(), 2);
        assert_eq!(p.stats.filtered_out, 1);
        assert!(p.take_hit(InstrAddr::new(0x1004)).is_none(), "aged out");
        assert!(p.take_hit(InstrAddr::new(0x2004)).is_some());
    }

    #[test]
    fn refill_same_slot_replaces() {
        let mut p = btbp(4);
        p.fill(entry(0x1004));
        let mut e = entry(0x1004);
        e.target = InstrAddr::new(0xbeef);
        assert!(p.fill(e).is_none());
        assert_eq!(p.len(), 1);
        assert_eq!(p.take_hit(InstrAddr::new(0x1004)).unwrap().target, InstrAddr::new(0xbeef));
    }

    #[test]
    fn iter_counts() {
        let mut p = btbp(4);
        p.fill(entry(0x1004));
        p.fill(entry(0x2004));
        assert_eq!(p.iter().count(), 2);
    }
}
