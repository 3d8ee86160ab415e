//! The second-level branch target buffer (BTB2) with its staging queue
//! and search-trigger logic.
//!
//! "The BTB2 is used to backfill the main structure and is only accessed
//! when content is thought to be missing from the BTB1. … The prior and
//! current designs assume content is missing when three qualified
//! successive BTB1 search attempts result in no predictions being made.
//! The z15 design will additionally proactively fire up and search the
//! BTB2 when an unusual number of non-predicted disruptive branches are
//! found in the main pipeline within a given time period. Additionally,
//! certain context changing events will trigger proactive BTB2 searches."
//! (paper §III)
//!
//! # Example
//!
//! A search stages *copies* of its hits toward the BTB1's write port;
//! under the z15 semi-inclusive policy the BTB2 keeps its own copy:
//!
//! ```
//! use zbp_core::btb::BtbEntry;
//! use zbp_core::btb2::{Btb2, SearchReason};
//! use zbp_core::config::z15_config;
//! use zbp_zarch::{InstrAddr, Mnemonic};
//!
//! let cfg = z15_config();
//! let mut b2 = Btb2::new(cfg.btb2.as_ref().unwrap(), cfg.btb1.search_bytes);
//! let entry = BtbEntry::install(
//!     InstrAddr::new(0x1004), Mnemonic::Brc, InstrAddr::new(0x2000),
//!     true, cfg.btb1.search_bytes, cfg.btb1.tag_bits);
//! b2.fill(entry);
//! let staged = b2.search(InstrAddr::new(0x1000), SearchReason::SuccessiveMisses);
//! assert_eq!(staged, 1);
//! assert_eq!(b2.pop_staged().unwrap().branch_addr, InstrAddr::new(0x1004));
//! assert!(b2.contains(&entry), "staging copies; the BTB2 copy remains");
//! ```

#![expect(
    clippy::indexing_slicing,
    reason = "table geometries are fixed at construction and every index is masked or \
              bounds-derived from them; a panic here is a model bug worth failing loudly"
)]

use crate::btb::BtbEntry;
use crate::config::{Btb2Config, InclusionPolicy};
use crate::util::{index_of, lru_fresh_ranks, lru_touch, lru_victim};
use std::collections::VecDeque;
use zbp_zarch::InstrAddr;

/// Why a BTB2 search fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SearchReason {
    /// Three qualified successive BTB1 no-prediction searches.
    SuccessiveMisses,
    /// A burst of non-predicted disruptive (surprise) branches.
    DisruptiveBurst,
    /// A context-changing event proactively priming the new context.
    ContextChange,
}

/// Statistics the BTB2 keeps about itself.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Btb2Stats {
    /// Searches fired, by any reason.
    pub searches: u64,
    /// Searches fired by the successive-miss trigger.
    pub searches_successive: u64,
    /// Searches fired by the disruptive-burst trigger.
    pub searches_burst: u64,
    /// Searches fired by context-change priming.
    pub searches_context: u64,
    /// Entries found by searches and pushed toward the staging queue.
    pub hits_staged: u64,
    /// Entries dropped because the staging queue was full.
    pub staging_overflow: u64,
    /// Entries written back by the periodic refresh mechanism.
    pub refresh_writebacks: u64,
    /// Entries invalidated on promotion (semi-exclusive mode).
    pub exclusive_invalidates: u64,
}

/// Rows per page of BTB2 storage. A power of two, so splitting a row
/// into (page, row-in-page) compiles to a shift and a mask.
const PAGE_ROWS: usize = 64;

/// One page of [`PAGE_ROWS`] consecutive BTB2 rows, laid out
/// struct-of-arrays like the BTB1 (slot = row-in-page × ways + way).
#[derive(Debug, Clone)]
struct Page {
    /// Entry payload per slot.
    entries: Vec<Option<BtbEntry>>,
    /// LRU age per slot (0 = MRU within its row).
    lru: Vec<u8>,
}

impl Page {
    /// A page of empty rows with fresh LRU ranks.
    fn new(ways: usize) -> Box<Page> {
        Box::new(Page {
            entries: vec![None; PAGE_ROWS * ways],
            lru: lru_fresh_ranks(ways).collect::<Vec<u8>>().repeat(PAGE_ROWS),
        })
    }
}

/// The BTB2 structure plus its staging queue toward the BTB1.
///
/// Rows are stored in fixed pages of 64 rows, each a
/// struct-of-arrays block (entries plus LRU ranks), so a backing-store
/// sweep over [`Btb2Config::search_lines`] consecutive lines walks
/// contiguous memory within a page. A page is allocated the first time
/// [`fill`](Btb2::fill) writes into one of its rows; until then every
/// read port sees its rows as empty. A short stream touches a few
/// hundred of the 32K z15 rows, so building (and thus recycling) a
/// predictor writes no empty slots, and cloning the table copies only
/// the pages in use.
#[derive(Debug, Clone)]
pub struct Btb2 {
    /// Row pages in row order; `None` until first filled. When the row
    /// count is not a multiple of [`PAGE_ROWS`], the last page's
    /// trailing rows are never indexed and stay empty.
    pages: Vec<Option<Box<Page>>>,
    nrows: usize,
    cfg: Btb2Config,
    line_bytes: u64,
    /// `log2(line_bytes)` — line numbers derive by shift, not division.
    line_shift: u32,
    staging: VecDeque<BtbEntry>,
    /// Successive qualified BTB1 no-prediction searches.
    miss_streak: u32,
    /// Sliding completion-window burst detector.
    burst_events: VecDeque<u64>,
    completion_tick: u64,
    /// No-hit search counter for the periodic refresh.
    refresh_counter: u32,
    /// Statistics.
    pub stats: Btb2Stats,
}

impl Btb2 {
    /// Builds an empty BTB2. `line_bytes` is the BTB1 line granularity
    /// (entries keep their BTB1-format tags/offsets on transfer). No
    /// row storage is allocated until the first fill; the page table
    /// and counters get their power-on state from
    /// [`power_on`](Self::power_on).
    pub fn new(cfg: &Btb2Config, line_bytes: u64) -> Self {
        assert!(line_bytes.is_power_of_two(), "line granularity must be a power of two");
        let mut b = Btb2 {
            pages: Vec::with_capacity(cfg.rows.div_ceil(PAGE_ROWS)),
            nrows: cfg.rows,
            cfg: cfg.clone(),
            line_bytes,
            line_shift: line_bytes.trailing_zeros(),
            staging: VecDeque::new(),
            miss_streak: 0,
            burst_events: VecDeque::new(),
            completion_tick: 0,
            refresh_counter: 0,
            stats: Btb2Stats::default(),
        };
        b.power_on();
        b
    }

    /// Returns the BTB2 to its power-on state in place: every filled
    /// page is released (so each row reads empty again), the staging
    /// queue and trigger history empty, and the counters and
    /// statistics restart from zero.
    pub fn power_on(&mut self) {
        self.pages.clear();
        self.pages.resize_with(self.nrows.div_ceil(PAGE_ROWS), || None);
        self.staging.clear();
        self.miss_streak = 0;
        self.burst_events.clear();
        self.completion_tick = 0;
        self.refresh_counter = 0;
        self.stats = Btb2Stats::default();
    }

    /// The inclusion policy in force.
    pub fn inclusion(&self) -> InclusionPolicy {
        self.cfg.inclusion
    }

    /// Number of valid entries.
    pub fn occupancy(&self) -> usize {
        self.iter().count()
    }

    /// The page holding `addr`'s row and the row's first slot within
    /// that page.
    fn locate(&self, addr: InstrAddr) -> (usize, usize) {
        let line = addr.raw() & !(self.line_bytes - 1);
        let row = index_of(line >> self.line_shift, self.nrows);
        (row / PAGE_ROWS, (row % PAGE_ROWS) * self.cfg.ways)
    }

    /// Writes an entry into the BTB2 (fill from a BTB1 victim, a
    /// periodic refresh, or an initial preload). Duplicates (same
    /// tag/offset in the row) are overwritten in place. This is the
    /// only write port, so it is where a row's page is allocated.
    pub fn fill(&mut self, entry: BtbEntry) {
        let ways = self.cfg.ways;
        let (p, base) = self.locate(entry.branch_addr);
        let page = self.pages[p].get_or_insert_with(|| Page::new(ways));
        let lru = &mut page.lru[base..base + ways];
        let row = &mut page.entries[base..base + ways];
        for (w, e) in row.iter_mut().enumerate() {
            if let Some(existing) = e {
                if existing.matches(entry.tag, entry.offset_hw) {
                    *existing = entry;
                    lru_touch(lru, w);
                    return;
                }
            }
        }
        let way = row.iter().position(|e| e.is_none()).unwrap_or_else(|| lru_victim(lru));
        row[way] = Some(entry);
        lru_touch(lru, way);
    }

    /// Records a periodic-refresh writeback (semi-inclusive mode).
    pub fn refresh(&mut self, entry: BtbEntry) {
        self.stats.refresh_writebacks += 1;
        self.fill(entry);
    }

    /// Removes the entry matching `entry`'s slot (semi-exclusive
    /// promotion to BTB1). Returns whether anything was removed.
    pub fn invalidate(&mut self, entry: &BtbEntry) -> bool {
        let ways = self.cfg.ways;
        let (p, base) = self.locate(entry.branch_addr);
        let Some(page) = self.pages[p].as_deref_mut() else { return false };
        for e in page.entries[base..base + ways].iter_mut() {
            if let Some(v) = e {
                if v.matches(entry.tag, entry.offset_hw) {
                    *e = None;
                    self.stats.exclusive_invalidates += 1;
                    return true;
                }
            }
        }
        false
    }

    /// Reports one qualified BTB1 search result to the trigger logic.
    /// Returns `Some(reason)` if a BTB2 search should fire at the search
    /// address.
    pub fn note_btb1_search(&mut self, predicted_anything: bool) -> Option<SearchReason> {
        if predicted_anything {
            self.miss_streak = 0;
            return None;
        }
        self.miss_streak += 1;
        // Periodic-refresh accounting also rides on no-hit searches.
        if self.cfg.inclusion == InclusionPolicy::SemiInclusive && self.cfg.refresh_threshold > 0 {
            self.refresh_counter += 1;
        }
        if self.miss_streak >= self.cfg.miss_trigger {
            self.miss_streak = 0;
            return Some(SearchReason::SuccessiveMisses);
        }
        None
    }

    /// Whether the periodic-refresh threshold has been reached; if so,
    /// resets the counter and returns true (the caller writes back the
    /// LRU entry of the no-hit row).
    pub fn take_refresh_due(&mut self) -> bool {
        if self.cfg.refresh_threshold > 0 && self.refresh_counter >= self.cfg.refresh_threshold {
            self.refresh_counter = 0;
            true
        } else {
            false
        }
    }

    /// Reports a completed non-predicted disruptive branch (a surprise
    /// branch that redirected the pipeline). Returns `Some` if the burst
    /// trigger fires.
    pub fn note_disruptive_branch(&mut self) -> Option<SearchReason> {
        self.completion_tick += 1;
        self.burst_events.push_back(self.completion_tick);
        let horizon = self.completion_tick.saturating_sub(u64::from(self.cfg.burst_window));
        while self.burst_events.front().is_some_and(|&t| t <= horizon) {
            self.burst_events.pop_front();
        }
        if self.burst_events.len() as u32 >= self.cfg.burst_trigger {
            self.burst_events.clear();
            return Some(SearchReason::DisruptiveBurst);
        }
        None
    }

    /// Reports a completed *predicted* branch, advancing the burst
    /// window clock.
    pub fn note_quiet_completion(&mut self) {
        self.completion_tick += 1;
    }

    /// Performs a BTB2 search: reads [`Btb2Config::search_lines`]
    /// consecutive lines starting at `addr`'s line and pushes every hit
    /// into the staging queue (up to its capacity). Returns how many
    /// entries were staged.
    pub fn search(&mut self, addr: InstrAddr, reason: SearchReason) -> usize {
        self.stats.searches += 1;
        match reason {
            SearchReason::SuccessiveMisses => self.stats.searches_successive += 1,
            SearchReason::DisruptiveBurst => self.stats.searches_burst += 1,
            SearchReason::ContextChange => self.stats.searches_context += 1,
        }
        let mut staged = 0;
        let ways = self.cfg.ways;
        let start_line = addr.raw() & !(self.line_bytes - 1);
        let mut hit_ways = Vec::new();
        for l in 0..self.cfg.search_lines as u64 {
            let line_addr = InstrAddr::new(start_line + l * self.line_bytes);
            let (p, base) = self.locate(line_addr);
            // A row in a never-filled page is empty.
            let Some(page) = self.pages[p].as_deref_mut() else { continue };
            // Collect hits first, then touch LRU.
            hit_ways.clear();
            for (w, e) in page.entries[base..base + ways].iter().enumerate() {
                if let Some(e) = e {
                    // A row holds entries from many lines (aliasing);
                    // qualify by true line in the model.
                    let eline = e.branch_addr.raw() & !(self.line_bytes - 1);
                    if eline == line_addr.raw() {
                        hit_ways.push((w, *e));
                    }
                }
            }
            for &(w, e) in &hit_ways {
                lru_touch(&mut page.lru[base..base + ways], w);
                if self.staging.len() < self.cfg.staging_capacity {
                    self.staging.push_back(e);
                    staged += 1;
                    self.stats.hits_staged += 1;
                } else {
                    self.stats.staging_overflow += 1;
                }
            }
        }
        staged
    }

    /// Pops the next staged entry headed for the BTB1 write port.
    pub fn pop_staged(&mut self) -> Option<BtbEntry> {
        self.staging.pop_front()
    }

    /// Number of entries waiting in the staging queue.
    pub fn staged_len(&self) -> usize {
        self.staging.len()
    }

    /// Iterates over all valid entries in slot order, row by row
    /// (verification use).
    pub fn iter(&self) -> impl Iterator<Item = &BtbEntry> {
        self.pages.iter().flatten().flat_map(|page| page.entries.iter().flatten())
    }

    /// Whether an entry for this exact slot exists (verification use).
    pub fn contains(&self, entry: &BtbEntry) -> bool {
        let ways = self.cfg.ways;
        let (p, base) = self.locate(entry.branch_addr);
        self.pages[p].as_deref().is_some_and(|page| {
            page.entries[base..base + ways]
                .iter()
                .flatten()
                .any(|e| e.matches(entry.tag, entry.offset_hw))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::z15_config;
    use zbp_zarch::Mnemonic;

    fn btb2() -> Btb2 {
        let c = z15_config();
        Btb2::new(c.btb2.as_ref().unwrap(), c.btb1.search_bytes)
    }

    fn entry(addr: u64) -> BtbEntry {
        BtbEntry::install(
            InstrAddr::new(addr),
            Mnemonic::Brc,
            InstrAddr::new(addr + 0x100),
            true,
            64,
            14,
        )
    }

    /// The row the index hash assigns `addr`'s 64-byte line to,
    /// derived without going through the page split under test.
    fn row_of(b: &Btb2, addr: u64) -> usize {
        index_of(addr >> 6, b.nrows)
    }

    /// The first branch address (at offset 4 of its line) that maps to
    /// `row`.
    fn addr_in_row(b: &Btb2, row: usize) -> u64 {
        (0..1u64 << 24).map(|l| 0x10004 + l * 64).find(|&a| row_of(b, a) == row).unwrap()
    }

    fn pages_in_use(b: &Btb2) -> usize {
        b.pages.iter().flatten().count()
    }

    #[test]
    fn never_filled_pages_read_empty_without_allocating() {
        let mut b = btb2();
        let e = entry(0x10004);
        assert_eq!(b.search(InstrAddr::new(0x10000), SearchReason::SuccessiveMisses), 0);
        assert!(!b.invalidate(&e));
        assert!(!b.contains(&e));
        assert_eq!(b.occupancy(), 0);
        assert_eq!(pages_in_use(&b), 0, "reads must not materialize pages");
        // One fill materializes exactly one page; reads elsewhere still
        // allocate nothing.
        b.fill(entry(addr_in_row(&b, 0)));
        let far = entry(addr_in_row(&b, 5 * PAGE_ROWS));
        assert_eq!(b.search(far.branch_addr, SearchReason::ContextChange), 0);
        assert!(!b.invalidate(&far));
        assert!(!b.contains(&far));
        assert_eq!(pages_in_use(&b), 1);
        assert_eq!(b.stats.exclusive_invalidates, 0);
    }

    #[test]
    fn fills_straddling_a_page_boundary_land_in_their_rows() {
        let mut b = btb2();
        let last = entry(addr_in_row(&b, PAGE_ROWS - 1));
        let first = entry(addr_in_row(&b, PAGE_ROWS));
        b.fill(last);
        b.fill(first);
        assert_eq!(pages_in_use(&b), 2);
        let ways = b.cfg.ways;
        let p0 = b.pages[0].as_deref().unwrap();
        let p1 = b.pages[1].as_deref().unwrap();
        assert_eq!(p0.entries[(PAGE_ROWS - 1) * ways], Some(last), "last row of page 0, way 0");
        assert_eq!(p1.entries[0], Some(first), "first row of page 1, way 0");
        assert_eq!(p0.entries.iter().flatten().count(), 1);
        assert_eq!(p1.entries.iter().flatten().count(), 1);
        assert!(b.contains(&last) && b.contains(&first));
        assert_eq!(b.search(last.branch_addr, SearchReason::SuccessiveMisses), 1);
        assert_eq!(b.pop_staged(), Some(last));
        assert!(b.invalidate(&first));
        assert!(b.contains(&last) && !b.contains(&first));
    }

    #[test]
    fn iter_walks_slots_in_row_major_order_across_pages() {
        let mut b = btb2();
        // Rows spread over several pages, filled out of order, two ways
        // deep in one row.
        let rows = [9 * PAGE_ROWS + 3, 2, PAGE_ROWS, 300 * PAGE_ROWS - 1, 2 * PAGE_ROWS + 17, 1];
        let mut filled = Vec::new();
        for &r in &rows {
            let e = entry(addr_in_row(&b, r));
            b.fill(e);
            filled.push((r, 0, e));
        }
        // A second entry in row 2 (a different line aliasing into it)
        // takes way 1.
        let a = addr_in_row(&b, 2);
        let second = (1..1u64 << 24)
            .map(|k| a + k * 64 * 32 * 1024)
            .find(|&x| row_of(&b, x) == 2)
            .map(entry)
            .unwrap();
        b.fill(second);
        filled.push((2, 1, second));
        filled.sort_by_key(|&(r, w, _)| (r, w));
        let expected: Vec<BtbEntry> = filled.iter().map(|&(_, _, e)| e).collect();
        let got: Vec<BtbEntry> = b.iter().copied().collect();
        assert_eq!(got, expected);
        assert_eq!(b.occupancy(), expected.len());
    }

    #[test]
    fn successive_miss_trigger_fires_on_third() {
        let mut b = btb2();
        assert_eq!(b.note_btb1_search(false), None);
        assert_eq!(b.note_btb1_search(false), None);
        assert_eq!(b.note_btb1_search(false), Some(SearchReason::SuccessiveMisses));
        // Streak resets after firing.
        assert_eq!(b.note_btb1_search(false), None);
    }

    #[test]
    fn hit_resets_miss_streak() {
        let mut b = btb2();
        assert_eq!(b.note_btb1_search(false), None);
        assert_eq!(b.note_btb1_search(false), None);
        assert_eq!(b.note_btb1_search(true), None);
        assert_eq!(b.note_btb1_search(false), None);
        assert_eq!(b.note_btb1_search(false), None);
        assert_eq!(b.note_btb1_search(false), Some(SearchReason::SuccessiveMisses));
    }

    #[test]
    fn burst_trigger_needs_density() {
        let mut b = btb2();
        // 4 disruptive branches inside a 64-completion window fire.
        assert_eq!(b.note_disruptive_branch(), None);
        assert_eq!(b.note_disruptive_branch(), None);
        assert_eq!(b.note_disruptive_branch(), None);
        assert_eq!(b.note_disruptive_branch(), Some(SearchReason::DisruptiveBurst));
        // Spread over > window completions, they do not.
        for _ in 0..3 {
            assert_eq!(b.note_disruptive_branch(), None);
            for _ in 0..70 {
                b.note_quiet_completion();
            }
        }
    }

    #[test]
    fn search_stages_hits_in_covered_lines() {
        let mut b = btb2();
        // Entries across several consecutive lines from 0x10000.
        for l in 0..10u64 {
            b.fill(entry(0x10004 + l * 64));
        }
        // And one far away that must not be staged.
        b.fill(entry(0x9_0000));
        let staged = b.search(InstrAddr::new(0x10000), SearchReason::SuccessiveMisses);
        assert_eq!(staged, 10);
        assert_eq!(b.staged_len(), 10);
        assert_eq!(b.stats.searches, 1);
        assert_eq!(b.stats.hits_staged, 10);
        let mut n = 0;
        while b.pop_staged().is_some() {
            n += 1;
        }
        assert_eq!(n, 10);
    }

    #[test]
    fn staging_queue_bounds_transfers() {
        let c = z15_config();
        let mut cfg = c.btb2.clone().unwrap();
        cfg.staging_capacity = 4;
        let mut b = Btb2::new(&cfg, 64);
        for l in 0..8u64 {
            b.fill(entry(0x10004 + l * 64));
        }
        let staged = b.search(InstrAddr::new(0x10000), SearchReason::ContextChange);
        assert_eq!(staged, 4, "staging queue caps transfers");
        assert_eq!(b.stats.staging_overflow, 4);
    }

    #[test]
    fn fill_overwrites_same_slot() {
        let mut b = btb2();
        b.fill(entry(0x10004));
        let mut e2 = entry(0x10004);
        e2.target = InstrAddr::new(0xdead);
        b.fill(e2);
        assert_eq!(b.occupancy(), 1);
        assert!(b.contains(&e2));
    }

    #[test]
    fn invalidate_removes_promoted_entry() {
        let mut b = btb2();
        let e = entry(0x10004);
        b.fill(e);
        assert!(b.invalidate(&e));
        assert!(!b.contains(&e));
        assert!(!b.invalidate(&e), "second invalidate is a no-op");
        assert_eq!(b.stats.exclusive_invalidates, 1);
    }

    #[test]
    fn refresh_counts_and_fills() {
        let mut b = btb2();
        b.refresh(entry(0x10004));
        assert_eq!(b.stats.refresh_writebacks, 1);
        assert_eq!(b.occupancy(), 1);
    }

    #[test]
    fn refresh_due_after_threshold_no_hit_searches() {
        let mut b = btb2(); // threshold 4, semi-inclusive
        for _ in 0..3 {
            b.note_btb1_search(false);
            assert!(!b.take_refresh_due());
        }
        b.note_btb1_search(false);
        assert!(b.take_refresh_due());
        assert!(!b.take_refresh_due(), "counter resets");
    }

    #[test]
    fn search_reason_stats_attribution() {
        let mut b = btb2();
        b.search(InstrAddr::new(0x1000), SearchReason::SuccessiveMisses);
        b.search(InstrAddr::new(0x1000), SearchReason::DisruptiveBurst);
        b.search(InstrAddr::new(0x1000), SearchReason::ContextChange);
        assert_eq!(b.stats.searches, 3);
        assert_eq!(b.stats.searches_successive, 1);
        assert_eq!(b.stats.searches_burst, 1);
        assert_eq!(b.stats.searches_context, 1);
    }
}
