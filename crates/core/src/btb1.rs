//! The first-level branch target buffer (BTB1).
//!
//! z15: 2K logical rows × 8 ways, one row per 64-byte line, searched by
//! a single port covering 64 bytes per search (paper §III, §IV). The
//! BTB1 also houses the BHT and all per-branch metadata; the second
//! physical port performs the read-analyze-write duplicate filtering for
//! installs.
//!
//! # Layout
//!
//! Storage is struct-of-arrays: one flat `keys` array carries the packed
//! (valid, halfword-offset, tag) match word for every slot, so a row
//! scan compares `ways` consecutive `u64`s in one cache line instead of
//! chasing a per-row heap allocation of fat entries. The full
//! [`BtbEntry`] payload lives in a parallel flat array and is only
//! touched after a key matches; LRU ranks are a third flat byte array.
//! Row index and tag are derived once per line and memoized across
//! consecutive same-line searches (the prediction port walks a 64-byte
//! block branch by branch, so one hash pass services every slot in the
//! block). See `PERFORMANCE.md` for the layout diagrams.
//!
//! # Example
//!
//! Install a branch, then watch the read-before-write filter suppress a
//! duplicate of it:
//!
//! ```
//! use zbp_core::btb::BtbEntry;
//! use zbp_core::btb1::{Btb1, InstallOutcome};
//! use zbp_core::config::z15_config;
//! use zbp_zarch::{InstrAddr, Mnemonic};
//!
//! let cfg = z15_config().btb1;
//! let mut btb = Btb1::new(&cfg);
//! let entry = BtbEntry::install(
//!     InstrAddr::new(0x1004), Mnemonic::Brc, InstrAddr::new(0x2000),
//!     true, cfg.search_bytes, cfg.tag_bits);
//! assert!(matches!(btb.install(entry), InstallOutcome::Installed { victim: None }));
//! // "is only written into the BTB1 if the read shows that it does not
//! // already exist" (§III):
//! assert_eq!(btb.install(entry), InstallOutcome::Duplicate);
//! let (_way, hit) = btb.lookup(InstrAddr::new(0x1004)).expect("prediction-port hit");
//! assert_eq!(hit.target, InstrAddr::new(0x2000));
//! ```

#![expect(
    clippy::indexing_slicing,
    reason = "table geometries are fixed at construction and every index is masked or \
              bounds-derived from them; a panic here is a model bug worth failing loudly"
)]

use crate::btb::BtbEntry;
use crate::config::Btb1Config;
use crate::util::{index_of, lru_fresh_ranks, lru_touch, lru_victim, tag_of};
use zbp_zarch::InstrAddr;

/// Outcome of an install attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InstallOutcome {
    /// A new entry was written into an invalid or victim way. Carries
    /// the evicted victim, if a valid entry was overwritten.
    Installed {
        /// The entry that was cast out to make room, if any.
        victim: Option<BtbEntry>,
    },
    /// The read-before-write filter found the branch already present;
    /// the existing entry was refreshed/updated instead of duplicated
    /// (paper §III/§IV).
    Duplicate,
}

/// Packs a slot's match word: valid bit, halfword offset, tag. A zero
/// key is an invalid slot (the valid bit guarantees no live entry packs
/// to zero).
const VALID: u64 = 1 << 63;

fn pack_key(tag: u32, offset_hw: u8) -> u64 {
    VALID | (u64::from(offset_hw) << 32) | u64::from(tag)
}

/// The BTB1 structure (struct-of-arrays, see the module docs).
#[derive(Debug, Clone)]
pub struct Btb1 {
    /// Packed (valid, offset, tag) per slot; slot = row × ways + way.
    keys: Vec<u64>,
    /// Full entry payload, parallel to `keys`; `Some` iff the key is
    /// valid.
    entries: Vec<Option<BtbEntry>>,
    /// LRU age per slot (0 = MRU within its row).
    lru: Vec<u8>,
    line_bytes: u64,
    /// `log2(line_bytes)` — line numbers derive by shift, not division.
    line_shift: u32,
    tag_bits: u32,
    ways: usize,
    rows: usize,
    /// One-line memo of the last (line → row index, tag) derivation:
    /// both are pure functions of the line and the geometry, so
    /// consecutive same-line searches skip the hash entirely.
    memo_line: u64,
    memo_row: usize,
    memo_tag: u32,
}

impl Btb1 {
    /// Builds an empty BTB1 from its configuration.
    pub fn new(cfg: &Btb1Config) -> Self {
        assert!(cfg.search_bytes.is_power_of_two(), "search width must be a power of two");
        let slots = cfg.rows * cfg.ways;
        Btb1 {
            keys: vec![0; slots],
            entries: vec![None; slots],
            lru: lru_fresh_ranks(cfg.ways).collect::<Vec<u8>>().repeat(cfg.rows),
            line_bytes: cfg.search_bytes,
            line_shift: cfg.search_bytes.trailing_zeros(),
            tag_bits: cfg.tag_bits,
            ways: cfg.ways,
            rows: cfg.rows,
            // No line is all-ones (lines are `line_bytes`-aligned), so
            // the memo starts provably cold.
            memo_line: u64::MAX,
            memo_row: 0,
            memo_tag: 0,
        }
    }

    /// The line size (bytes) one row covers.
    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    /// Number of ways.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of valid entries currently held.
    pub fn occupancy(&self) -> usize {
        self.keys.iter().filter(|&&k| k != 0).count()
    }

    fn line_of(&self, addr: InstrAddr) -> u64 {
        addr.raw() & !(self.line_bytes - 1)
    }

    /// Row index and tag for `line`, hashed once and memoized: the
    /// prediction port's batched block search services every slot of a
    /// 64-byte line from a single derivation.
    fn row_and_tag(&mut self, line: u64) -> (usize, u32) {
        if line == self.memo_line {
            return (self.memo_row, self.memo_tag);
        }
        let row = index_of(line >> self.line_shift, self.rows);
        let tag = tag_of(line, self.tag_bits);
        self.memo_line = line;
        self.memo_row = row;
        self.memo_tag = tag;
        (row, tag)
    }

    /// Shared-reference variant for the probe/audit ports (no memo).
    fn row_and_tag_cold(&self, line: u64) -> (usize, u32) {
        (index_of(line >> self.line_shift, self.rows), tag_of(line, self.tag_bits))
    }

    fn row_index(&self, line: u64) -> usize {
        self.row_and_tag_cold(line).0
    }

    /// Searches the line containing `addr`, returning every matching
    /// branch at or after `addr`'s offset, ordered by offset (the b3
    /// ordering step). Touches LRU for hits.
    ///
    /// This is the prediction-search port: up to [`Self::ways`]
    /// predictions per search. The row's keys are scanned in one
    /// contiguous pass; the hash is computed once per line.
    pub fn search_line_from(&mut self, addr: InstrAddr) -> Vec<(usize, BtbEntry)> {
        let mut hits = Vec::new();
        self.search_line_into(addr, &mut hits);
        hits
    }

    /// Allocation-free form of [`search_line_from`](Self::search_line_from):
    /// clears `out` and fills it with the ordered hits, so a driver
    /// polling line after line reuses one buffer.
    pub fn search_line_into(&mut self, addr: InstrAddr, out: &mut Vec<(usize, BtbEntry)>) {
        out.clear();
        let line = self.line_of(addr);
        let min_off = ((addr.raw() - line) / 2) as u8;
        let (row, tag) = self.row_and_tag(line);
        let base = row * self.ways;
        for w in 0..self.ways {
            let key = self.keys[base + w];
            if key != 0 && (key & 0xffff_ffff) as u32 == tag && (key >> 32) as u8 >= min_off {
                let e = self.entries[base + w].expect("valid key has payload");
                out.push((w, e));
            }
        }
        out.sort_by_key(|(_, e)| e.offset_hw);
        for &(w, _) in out.iter() {
            lru_touch(&mut self.lru[base..base + self.ways], w);
        }
    }

    /// Looks up a single branch by exact address (tag + offset match).
    /// Touches LRU on hit. Returns the way and a copy of the entry.
    pub fn lookup(&mut self, addr: InstrAddr) -> Option<(usize, BtbEntry)> {
        let line = self.line_of(addr);
        let off = ((addr.raw() - line) / 2) as u8;
        let (row, tag) = self.row_and_tag(line);
        let want = pack_key(tag, off);
        let base = row * self.ways;
        for w in 0..self.ways {
            if self.keys[base + w] == want {
                let hit = self.entries[base + w].expect("valid key has payload");
                lru_touch(&mut self.lru[base..base + self.ways], w);
                return Some((w, hit));
            }
        }
        None
    }

    /// Looks up without touching LRU (the read-analyze-write filter
    /// port).
    pub fn probe(&self, addr: InstrAddr) -> Option<(usize, &BtbEntry)> {
        let line = self.line_of(addr);
        let off = ((addr.raw() - line) / 2) as u8;
        let (row, tag) = self.row_and_tag_cold(line);
        let want = pack_key(tag, off);
        let base = row * self.ways;
        (0..self.ways)
            .find(|&w| self.keys[base + w] == want)
            .map(|w| (w, self.entries[base + w].as_ref().expect("valid key has payload")))
    }

    /// Installs an entry, performing the read-before-write duplicate
    /// check first. A matching existing entry suppresses the write
    /// entirely ("is only written into the BTB1 if the read shows that
    /// it does not already exist", §III) — the existing entry's learned
    /// state is never clobbered by a stale copy.
    pub fn install(&mut self, entry: BtbEntry) -> InstallOutcome {
        let line = self.line_of(entry.branch_addr);
        let (row, _) = self.row_and_tag(line);
        let base = row * self.ways;
        let want = pack_key(entry.tag, entry.offset_hw);
        // Read-before-write filter.
        for w in 0..self.ways {
            if self.keys[base + w] == want {
                lru_touch(&mut self.lru[base..base + self.ways], w);
                return InstallOutcome::Duplicate;
            }
        }
        // Prefer an invalid way; otherwise victimize LRU.
        let way = (0..self.ways)
            .find(|&w| self.keys[base + w] == 0)
            .unwrap_or_else(|| lru_victim(&self.lru[base..base + self.ways]));
        let victim = self.entries[base + way].take();
        self.entries[base + way] = Some(entry);
        self.keys[base + way] = want;
        lru_touch(&mut self.lru[base..base + self.ways], way);
        InstallOutcome::Installed { victim }
    }

    /// Applies a mutation to the entry for `addr`, if present. Returns
    /// whether an entry was found. Does not touch LRU (updates flow
    /// through the write port).
    pub fn update<F: FnOnce(&mut BtbEntry)>(&mut self, addr: InstrAddr, f: F) -> bool {
        let line = self.line_of(addr);
        let off = ((addr.raw() - line) / 2) as u8;
        let (row, tag) = self.row_and_tag(line);
        let want = pack_key(tag, off);
        let base = row * self.ways;
        for w in 0..self.ways {
            if self.keys[base + w] == want {
                let e = self.entries[base + w].as_mut().expect("valid key has payload");
                f(e);
                return true;
            }
        }
        false
    }

    /// Removes the entry for `addr` (bad-branch-prediction removal,
    /// paper §IV). Returns the removed entry.
    pub fn remove(&mut self, addr: InstrAddr) -> Option<BtbEntry> {
        let line = self.line_of(addr);
        let off = ((addr.raw() - line) / 2) as u8;
        let (row, tag) = self.row_and_tag(line);
        let want = pack_key(tag, off);
        let base = row * self.ways;
        for w in 0..self.ways {
            if self.keys[base + w] == want {
                self.keys[base + w] = 0;
                return self.entries[base + w].take();
            }
        }
        None
    }

    /// Returns a copy of the LRU-most (next to be evicted) entry of the
    /// row covering `addr`, for the periodic BTB2 refresh (paper §III:
    /// "the available full content of a no-hit search is analyzed and
    /// its next to be evicted (LRU) entry is refreshed back out into the
    /// BTB2").
    pub fn lru_entry_of_line(&self, addr: InstrAddr) -> Option<BtbEntry> {
        let line = self.line_of(addr);
        let base = self.row_index(line) * self.ways;
        // Oldest valid entry by LRU rank.
        (0..self.ways)
            .filter(|&w| self.keys[base + w] != 0)
            .max_by_key(|&w| self.lru[base + w])
            .and_then(|w| self.entries[base + w])
    }

    /// Iterates over all valid entries (verification/reference use).
    pub fn iter(&self) -> impl Iterator<Item = &BtbEntry> {
        self.entries.iter().flatten()
    }

    /// Counts the valid slots in `addr`'s row that match its
    /// (tag, offset) pair — the read-before-write duplicate audit. A
    /// healthy table reports at most 1 for any address (verification
    /// use; does not touch LRU).
    pub fn matches_in_row(&self, addr: InstrAddr) -> usize {
        let line = self.line_of(addr);
        let off = ((addr.raw() - line) / 2) as u8;
        let (row, tag) = self.row_and_tag_cold(line);
        let want = pack_key(tag, off);
        let base = row * self.ways;
        (0..self.ways).filter(|&w| self.keys[base + w] == want).count()
    }

    /// Scans every row for duplicate (tag, offset) pairs, returning the
    /// branch address of each surplus entry (verification audit; empty
    /// on a healthy table).
    pub fn duplicate_slots(&self) -> Vec<InstrAddr> {
        let mut dups = Vec::new();
        for row in 0..self.rows {
            let base = row * self.ways;
            let keys = &self.keys[base..base + self.ways];
            for (i, &k) in keys.iter().enumerate() {
                if k != 0 && keys[..i].contains(&k) {
                    if let Some(e) = &self.entries[base + i] {
                        dups.push(e.branch_addr);
                    }
                }
            }
        }
        dups
    }

    /// Fault-injection backdoor: copies the entry for `addr` into
    /// another way of the same row *without* running the
    /// read-before-write filter, modelling a broken duplicate check.
    /// Returns whether a duplicate was planted. Exists so the
    /// verification harness can prove the duplicate-filter monitor
    /// fires; unreachable from normal operation.
    #[cfg(feature = "verify")]
    pub fn force_duplicate(&mut self, addr: InstrAddr) -> bool {
        let line = self.line_of(addr);
        let off = ((addr.raw() - line) / 2) as u8;
        let (row, tag) = self.row_and_tag(line);
        let want = pack_key(tag, off);
        let base = row * self.ways;
        let Some(src_way) = (0..self.ways).find(|&w| self.keys[base + w] == want) else {
            return false;
        };
        let src = self.entries[base + src_way].expect("valid key has payload");
        let way = match (0..self.ways).find(|&w| self.keys[base + w] == 0) {
            Some(w) => w,
            None => {
                let w = lru_victim(&self.lru[base..base + self.ways]);
                // Don't clobber the source copy itself.
                if self.keys[base + w] == want {
                    return false;
                }
                w
            }
        };
        self.keys[base + way] = want;
        self.entries[base + way] = Some(src);
        true
    }

    /// Clears all entries (context scrub in some experiments).
    pub fn clear(&mut self) {
        self.keys.fill(0);
        self.entries.fill(None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::z15_config;
    use zbp_zarch::Mnemonic;

    fn btb() -> Btb1 {
        Btb1::new(&z15_config().btb1)
    }

    fn entry(addr: u64, target: u64) -> BtbEntry {
        BtbEntry::install(InstrAddr::new(addr), Mnemonic::Brc, InstrAddr::new(target), true, 64, 14)
    }

    #[test]
    fn install_then_lookup() {
        let mut b = btb();
        assert_eq!(b.occupancy(), 0);
        let out = b.install(entry(0x1004, 0x2000));
        assert!(matches!(out, InstallOutcome::Installed { victim: None }));
        let (_, e) = b.lookup(InstrAddr::new(0x1004)).expect("hit");
        assert_eq!(e.target, InstrAddr::new(0x2000));
        assert!(b.lookup(InstrAddr::new(0x1008)).is_none());
        assert_eq!(b.occupancy(), 1);
    }

    #[test]
    fn duplicate_install_is_filtered() {
        let mut b = btb();
        b.install(entry(0x1004, 0x2000));
        let out = b.install(entry(0x1004, 0x3000));
        assert_eq!(out, InstallOutcome::Duplicate, "read-before-write must catch duplicates");
        assert_eq!(b.occupancy(), 1, "no duplicate entry created");
        let (_, e) = b.lookup(InstrAddr::new(0x1004)).unwrap();
        assert_eq!(
            e.target,
            InstrAddr::new(0x2000),
            "the filtered write never clobbers the existing entry's learned state"
        );
    }

    #[test]
    fn search_line_returns_sorted_from_offset() {
        let mut b = btb();
        // Three branches in the same 64B line, installed out of order.
        b.install(entry(0x1030, 0xa000));
        b.install(entry(0x1008, 0xb000));
        b.install(entry(0x1020, 0xc000));
        let hits = b.search_line_from(InstrAddr::new(0x1000));
        let offs: Vec<u8> = hits.iter().map(|(_, e)| e.offset_hw).collect();
        assert_eq!(offs, vec![4, 16, 24], "ordered by low-order instruction address (b3)");
        // Searching from mid-line drops earlier branches.
        let hits = b.search_line_from(InstrAddr::new(0x1010));
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].1.target, InstrAddr::new(0xc000));
    }

    #[test]
    fn search_line_into_reuses_buffer() {
        let mut b = btb();
        b.install(entry(0x1008, 0xb000));
        b.install(entry(0x2030, 0xa000));
        let mut buf = Vec::new();
        b.search_line_into(InstrAddr::new(0x1000), &mut buf);
        assert_eq!(buf.len(), 1);
        // Second search clears the stale contents first.
        b.search_line_into(InstrAddr::new(0x2000), &mut buf);
        assert_eq!(buf.len(), 1);
        assert_eq!(buf[0].1.target, InstrAddr::new(0xa000));
        b.search_line_into(InstrAddr::new(0x3000), &mut buf);
        assert!(buf.is_empty());
    }

    #[test]
    fn eight_way_row_tracks_eight_branches_per_line() {
        let mut b = btb();
        // 8 branches in one 64B line: all must coexist (the motivation
        // for 8-way associativity, §IV).
        for k in 0..8u64 {
            b.install(entry(0x1000 + k * 8, 0x2000 + k));
        }
        assert_eq!(b.occupancy(), 8);
        let hits = b.search_line_from(InstrAddr::new(0x1000));
        assert_eq!(hits.len(), 8, "up to 8 predictions per search");
        // A ninth branch in the same line evicts the LRU one.
        let out = b.install(entry(0x1000 + 8 * 8 - 2, 0x9999));
        assert!(matches!(out, InstallOutcome::Installed { victim: Some(_) }));
        assert_eq!(b.occupancy(), 8);
    }

    #[test]
    fn update_and_remove() {
        let mut b = btb();
        b.install(entry(0x1004, 0x2000));
        assert!(b.update(InstrAddr::new(0x1004), |e| e.bidirectional = true));
        assert!(b.lookup(InstrAddr::new(0x1004)).unwrap().1.bidirectional);
        assert!(!b.update(InstrAddr::new(0x5000), |_| {}), "missing entries report false");
        let removed = b.remove(InstrAddr::new(0x1004)).expect("was present");
        assert_eq!(removed.target, InstrAddr::new(0x2000));
        assert!(b.lookup(InstrAddr::new(0x1004)).is_none());
        assert!(b.remove(InstrAddr::new(0x1004)).is_none());
    }

    #[test]
    fn probe_does_not_disturb_lru() {
        let mut b = btb();
        // Fill a row; way order gives LRU = first installed.
        for k in 0..8u64 {
            b.install(entry(0x1000 + k * 8, k));
        }
        let lru_before = b.lru_entry_of_line(InstrAddr::new(0x1000)).unwrap();
        // Probing the LRU entry must not promote it.
        let _ = b.probe(lru_before.branch_addr);
        let lru_after = b.lru_entry_of_line(InstrAddr::new(0x1000)).unwrap();
        assert_eq!(lru_before.branch_addr, lru_after.branch_addr);
        // But a prediction-port lookup does promote it.
        let _ = b.lookup(lru_before.branch_addr);
        let lru_now = b.lru_entry_of_line(InstrAddr::new(0x1000)).unwrap();
        assert_ne!(lru_now.branch_addr, lru_before.branch_addr);
    }

    #[test]
    fn different_lines_do_not_interfere() {
        let mut b = btb();
        b.install(entry(0x1004, 0x2000));
        b.install(entry(0x2004, 0x3000));
        assert_eq!(b.lookup(InstrAddr::new(0x1004)).unwrap().1.target, InstrAddr::new(0x2000));
        assert_eq!(b.lookup(InstrAddr::new(0x2004)).unwrap().1.target, InstrAddr::new(0x3000));
    }

    #[test]
    fn clear_empties_everything() {
        let mut b = btb();
        b.install(entry(0x1004, 0x2000));
        b.clear();
        assert_eq!(b.occupancy(), 0);
        assert!(b.lookup(InstrAddr::new(0x1004)).is_none());
    }

    #[test]
    fn iter_visits_all_entries() {
        let mut b = btb();
        b.install(entry(0x1004, 1));
        b.install(entry(0x2004, 2));
        b.install(entry(0x3004, 3));
        assert_eq!(b.iter().count(), 3);
    }

    #[test]
    fn keys_and_payload_stay_in_lockstep() {
        // The SoA invariant: a slot's key is non-zero exactly when its
        // payload is present, through installs, evictions, and removes.
        let mut b = btb();
        for k in 0..64u64 {
            b.install(entry(0x1000 + k * 6, k));
        }
        b.remove(InstrAddr::new(0x1006));
        let live = b.iter().count();
        assert_eq!(b.occupancy(), live, "key count must equal payload count");
        for e in b.iter() {
            let got = b.probe(e.branch_addr).expect("every payload is reachable by key");
            assert_eq!(got.1.branch_addr, e.branch_addr);
        }
    }

    #[test]
    fn thirty_two_byte_line_config() {
        let cfg = crate::config::z13_config().btb1;
        let mut b = Btb1::new(&cfg);
        assert_eq!(b.line_bytes(), 32);
        let e = BtbEntry::install(
            InstrAddr::new(0x1024),
            Mnemonic::Brc,
            InstrAddr::new(0x2000),
            true,
            32,
            cfg.tag_bits,
        );
        b.install(e);
        assert!(b.lookup(InstrAddr::new(0x1024)).is_some());
        // 0x1004 is in a different 32B line than 0x1024.
        let hits = b.search_line_from(InstrAddr::new(0x1000));
        assert!(hits.is_empty());
        let hits = b.search_line_from(InstrAddr::new(0x1020));
        assert_eq!(hits.len(), 1);
    }
}
