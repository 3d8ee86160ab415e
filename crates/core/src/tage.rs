//! Pattern history tables: the z15 two-table TAGE variation and the
//! single tagged PHT used from z196 through z14.
//!
//! "Two TAGE PHT tables are employed in z15 — a short and a long table —
//! each 512 rows deep per BTB1 way for a total branch capacity of 8K.
//! … the short TAGE PHT table's index function includes the most recent
//! 9 branches in the GPV history, whereas the long TAGE PHT table's
//! index function includes the most recent 17 branches." (paper §V)
//!
//! # Example
//!
//! A mispredict allocates a tagged entry for the (address, path) pair;
//! the same path then finds it again:
//!
//! ```
//! use zbp_core::config::z15_config;
//! use zbp_core::gpv::Gpv;
//! use zbp_core::tage::Pht;
//! use zbp_zarch::{Direction, InstrAddr};
//!
//! let cfg = z15_config();
//! let mut pht = Pht::new(&cfg.direction, cfg.btb1.ways);
//! let mut gpv = Gpv::new(cfg.gpv_depth);
//! gpv.push_taken(InstrAddr::new(0x2000));
//! let addr = InstrAddr::new(0x1000);
//! assert!(pht.lookup(addr, 0, &gpv).short.is_none(), "nothing allocated yet");
//! pht.allocate(addr, 0, &gpv, Direction::Taken, None);
//! let hit = pht.lookup(addr, 0, &gpv).short.expect("allocated on the short table");
//! assert_eq!(hit.dir, Direction::Taken);
//! assert!(hit.weak, "fresh allocations start at the weak counter state");
//! ```

#![expect(
    clippy::indexing_slicing,
    reason = "table geometries are fixed at construction and every index is masked or \
              bounds-derived from them; a panic here is a model bug worth failing loudly"
)]

use crate::config::{DirectionConfig, PhtKind};
use crate::gpv::Gpv;
use crate::util::{SatCounter, TwoBit};
use zbp_zarch::{Direction, InstrAddr};

/// Which TAGE table an entry/hit belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TageTable {
    /// The 9-branch-history table.
    Short,
    /// The 17-branch-history table.
    Long,
}

/// One tagged PHT entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhtEntry {
    tag: u32,
    ctr: TwoBit,
    usefulness: SatCounter,
}

/// A hit in one PHT table. It rides in the GPQ entry, so its indices
/// are stored narrow: [`PredictorConfig::validate`] bounds
/// `rows_per_way` to the `u32` row, and BTB1 has at most 16 ways.
///
/// [`PredictorConfig::validate`]: crate::config::PredictorConfig::validate
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhtHit {
    /// Which table (always [`TageTable::Short`] for the single-table
    /// design).
    pub table: TageTable,
    /// Row index of the hit (for the completion-time update).
    pub row: u32,
    /// BTB1 way column of the hit.
    pub way: u8,
    /// Predicted direction.
    pub dir: Direction,
    /// Whether the counter was in a weak state.
    pub weak: bool,
}

// Two of these ride in every GPQ entry's `PhtLookup` and a third as its
// provider; see PERFORMANCE.md, "Where a served Feed's time goes".
const _: () = assert!(std::mem::size_of::<PhtHit>() <= 8);

/// The result of looking up both TAGE tables (or the one single table).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhtLookup {
    /// Short-table (or single-table) hit.
    pub short: Option<PhtHit>,
    /// Long-table hit (always `None` for the single-table design).
    pub long: Option<PhtHit>,
}

/// The provider choice the weak-filtering rules arrive at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhtChoice {
    /// The hit that provides the prediction.
    pub provider: PhtHit,
}

/// The pattern-history structure for one predictor configuration:
/// either the z15 two-table TAGE or the older single tagged table.
#[derive(Debug, Clone)]
pub struct Pht {
    kind: Kind,
    tag_bits: u32,
    usefulness_max: u32,
    /// Global weak-confidence counter ("weak prediction counter", §V):
    /// tracks whether weak TAGE predictions have been turning out
    /// correct; gates weak providers.
    weak_ok: SatCounter,
    weak_threshold: u32,
    /// Round-robin tick implementing the 2:1 short-table allocation
    /// preference.
    alloc_tick: u32,
    /// Statistics.
    pub stats: PhtStats,
}

#[derive(Debug, Clone)]
enum Kind {
    None,
    Single { table: Table, history: usize },
    Tage { short: Table, long: Table, short_history: usize, long_history: usize },
}

/// One tagged table, stored flat: slot = `way * rows + row`, so a
/// way's rows are contiguous and the whole table is one allocation
/// instead of a `Vec` per way (see `PERFORMANCE.md`).
#[derive(Debug, Clone)]
struct Table {
    entries: Vec<Option<PhtEntry>>,
    rows: usize,
}

/// PHT statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhtStats {
    /// Lookups performed.
    pub lookups: u64,
    /// Lookups with at least one table hit.
    pub hits: u64,
    /// Weak hits suppressed by the weak filter.
    pub weak_filtered: u64,
    /// Allocation attempts.
    pub alloc_attempts: u64,
    /// Successful allocations.
    pub allocs: u64,
    /// Allocations into the long table.
    pub allocs_long: u64,
}

impl Table {
    fn new(rows: usize, ways: usize) -> Self {
        Table { entries: vec![None; rows * ways], rows }
    }

    fn get(&self, way: usize, row: usize) -> Option<&PhtEntry> {
        self.entries[way * self.rows + row].as_ref()
    }

    fn get_mut(&mut self, way: usize, row: usize) -> &mut Option<PhtEntry> {
        &mut self.entries[way * self.rows + row]
    }

    fn occupancy(&self) -> usize {
        self.entries.iter().flatten().count()
    }
}

impl Pht {
    /// Builds the PHT structure for a direction configuration and BTB1
    /// way count.
    pub fn new(cfg: &DirectionConfig, btb1_ways: usize) -> Self {
        let kind = match &cfg.pht {
            PhtKind::None => Kind::None,
            PhtKind::SingleTable { rows_per_way, history } => {
                Kind::Single { table: Table::new(*rows_per_way, btb1_ways), history: *history }
            }
            PhtKind::Tage { rows_per_way, short_history, long_history } => Kind::Tage {
                short: Table::new(*rows_per_way, btb1_ways),
                long: Table::new(*rows_per_way, btb1_ways),
                short_history: *short_history,
                long_history: *long_history,
            },
        };
        Pht {
            kind,
            tag_bits: cfg.pht_tag_bits,
            usefulness_max: cfg.usefulness_max,
            weak_ok: SatCounter::at(cfg.weak_filter_threshold, cfg.weak_counter_max),
            weak_threshold: cfg.weak_filter_threshold,
            alloc_tick: 0,
            stats: PhtStats::default(),
        }
    }

    /// Whether any PHT exists.
    pub fn is_enabled(&self) -> bool {
        !matches!(self.kind, Kind::None)
    }

    /// Looks up the branch at `addr` (which hit BTB1 way `way`) under
    /// path history `gpv`.
    pub fn lookup(&mut self, addr: InstrAddr, way: usize, gpv: &Gpv) -> PhtLookup {
        self.stats.lookups += 1;
        let lk = self.lookup_quiet(addr, way, gpv);
        if lk.short.is_some() || lk.long.is_some() {
            self.stats.hits += 1;
        }
        lk
    }

    /// Lookup without statistics (used at completion to recompute).
    pub fn lookup_quiet(&self, addr: InstrAddr, way: usize, gpv: &Gpv) -> PhtLookup {
        match &self.kind {
            Kind::None => PhtLookup::default(),
            Kind::Single { table, history } => PhtLookup {
                short: self.probe(table, TageTable::Short, addr, way, gpv, *history),
                long: None,
            },
            Kind::Tage { short, long, short_history, long_history } => PhtLookup {
                short: self.probe(short, TageTable::Short, addr, way, gpv, *short_history),
                long: self.probe(long, TageTable::Long, addr, way, gpv, *long_history),
            },
        }
    }

    fn probe(
        &self,
        table: &Table,
        which: TageTable,
        addr: InstrAddr,
        way: usize,
        gpv: &Gpv,
        history: usize,
    ) -> Option<PhtHit> {
        let row = gpv.fold_index(history, addr, table.rows);
        let tag = gpv.fold_tag(history, addr, self.tag_bits);
        table.get(way, row).filter(|e| e.tag == tag).map(|e| PhtHit {
            table: which,
            row: row as u32,
            way: way as u8,
            dir: e.ctr.direction(),
            weak: e.ctr.is_weak(),
        })
    }

    /// Applies the provider-selection and weak-filtering rules (§V) to a
    /// lookup. Returns the providing hit, or `None` when the direction
    /// falls to the BHT.
    ///
    /// Rules: the long table is consulted first; strong hits provide
    /// unconditionally. A weak hit may provide only when the global weak
    /// counter is at or above the threshold; a weak long hit defers to a
    /// strong short hit.
    pub fn choose(&mut self, lookup: &PhtLookup) -> Option<PhtChoice> {
        let weak_allowed = self.weak_ok.get() >= self.weak_threshold;
        if let Some(long) = lookup.long {
            if !long.weak {
                return Some(PhtChoice { provider: long });
            }
            // Weak long: prefer a strong short.
            if let Some(short) = lookup.short {
                if !short.weak {
                    return Some(PhtChoice { provider: short });
                }
            }
            if weak_allowed {
                return Some(PhtChoice { provider: long });
            }
            self.stats.weak_filtered += 1;
            return None;
        }
        if let Some(short) = lookup.short {
            if !short.weak {
                return Some(PhtChoice { provider: short });
            }
            if weak_allowed {
                return Some(PhtChoice { provider: short });
            }
            self.stats.weak_filtered += 1;
            return None;
        }
        None
    }

    /// Trains the providing entry's counter toward the resolved
    /// direction and updates its usefulness against the alternate
    /// prediction (§V):
    ///
    /// * provider correct, alternate wrong → usefulness increments;
    /// * provider wrong, alternate correct → usefulness decrements;
    /// * both agree with/against the resolution → unchanged.
    ///
    /// Also maintains the global weak counter: any *weak* hit (provider
    /// or not) that matched the resolution bumps confidence in weak
    /// predictions, a mismatch lowers it.
    pub fn train(
        &mut self,
        lookup: &PhtLookup,
        provider: Option<PhtHit>,
        alt_dir: Direction,
        resolved: Direction,
    ) {
        // Weak-confidence bookkeeping over every weak hit.
        for hit in [lookup.short, lookup.long].into_iter().flatten() {
            if hit.weak {
                if hit.dir == resolved {
                    self.weak_ok.inc();
                } else {
                    self.weak_ok.dec();
                }
            }
        }
        let Some(p) = provider else { return };
        let usefulness_delta: i32 = if p.dir == resolved && alt_dir != resolved {
            1
        } else if p.dir != resolved && alt_dir == resolved {
            -1
        } else {
            0
        };
        // The completion write trains the predict-time counter snapshot
        // (carried in the hit record) rather than read-modify-writing
        // the array — the hardware update pipeline's behaviour (§IV).
        let mut trained = TwoBit::from_parts(p.dir, p.weak);
        trained.train(resolved);
        if let Some(table) = self.table_mut(p.table) {
            if let Some(e) = table.get_mut(usize::from(p.way), p.row as usize).as_mut() {
                e.ctr = trained;
                match usefulness_delta {
                    1 => e.usefulness.inc(),
                    -1 => e.usefulness.dec(),
                    _ => {}
                }
            }
        }
    }

    /// Speculatively strengthens the entry behind a weak providing hit
    /// (the SPHT's assume-correct update, §IV).
    pub fn strengthen(&mut self, hit: &PhtHit, dir: Direction) {
        let table = hit.table;
        if let Some(t) = self.table_mut(table) {
            if let Some(e) = t.get_mut(usize::from(hit.way), hit.row as usize).as_mut() {
                e.ctr.strengthen(dir);
            }
        }
    }

    /// Attempts to allocate an entry after a wrong-direction resolution
    /// of a dynamically predicted branch (§V).
    ///
    /// * Only entries whose usefulness is 0 may be overwritten.
    /// * When both tables have a replaceable slot, the short table is
    ///   favoured 2:1.
    /// * If the (wrong) provider was the short table, the long table is
    ///   attempted.
    pub fn allocate(
        &mut self,
        addr: InstrAddr,
        way: usize,
        gpv: &Gpv,
        resolved: Direction,
        wrong_provider: Option<TageTable>,
    ) {
        if !self.is_enabled() {
            return;
        }
        self.stats.alloc_attempts += 1;
        let tick = self.alloc_tick;
        self.alloc_tick = self.alloc_tick.wrapping_add(1);
        let umax = self.usefulness_max;

        // Single-table design: one slot, usefulness-guarded.
        if let Kind::Single { table, history } = &mut self.kind {
            let row = gpv.fold_index(*history, addr, table.rows);
            let tag = gpv.fold_tag(*history, addr, self.tag_bits);
            let slot = table.get_mut(way, row);
            if slot.as_ref().is_none_or(|e| e.usefulness.is_zero()) {
                *slot = Some(PhtEntry {
                    tag,
                    ctr: TwoBit::weak(resolved),
                    usefulness: SatCounter::new(umax),
                });
                self.stats.allocs += 1;
            } else if let Some(e) = slot.as_mut() {
                e.usefulness.dec();
            }
            return;
        }

        let (short_hist, long_hist, rows) = match &self.kind {
            Kind::Tage { short, short_history, long_history, .. } => {
                (*short_history, *long_history, short.rows)
            }
            _ => return,
        };
        let srow = gpv.fold_index(short_hist, addr, rows);
        let stag = gpv.fold_tag(short_hist, addr, self.tag_bits);
        let lrow = gpv.fold_index(long_hist, addr, rows);
        let ltag = gpv.fold_tag(long_hist, addr, self.tag_bits);

        let Kind::Tage { short, long, .. } = &mut self.kind else { unreachable!() };
        let short_free = short.get(way, srow).is_none_or(|e| e.usefulness.is_zero());
        let long_free = long.get(way, lrow).is_none_or(|e| e.usefulness.is_zero());

        // If the short table itself mispredicted, escalate to the long
        // table.
        let prefer_long = wrong_provider == Some(TageTable::Short);
        let pick_long = if prefer_long {
            long_free
        } else if short_free && long_free {
            // 2:1 short preference: long on every third tick.
            tick % 3 == 2
        } else if short_free {
            false
        } else if long_free {
            true
        } else {
            // Nothing replaceable: decay usefulness so entries cannot
            // pin their slots forever.
            if let Some(e) = short.get_mut(way, srow).as_mut() {
                e.usefulness.dec();
            }
            if let Some(e) = long.get_mut(way, lrow).as_mut() {
                e.usefulness.dec();
            }
            return;
        };

        let fresh =
            PhtEntry { tag: 0, ctr: TwoBit::weak(resolved), usefulness: SatCounter::new(umax) };
        if pick_long {
            *long.get_mut(way, lrow) = Some(PhtEntry { tag: ltag, ..fresh });
            self.stats.allocs += 1;
            self.stats.allocs_long += 1;
        } else if short_free {
            *short.get_mut(way, srow) = Some(PhtEntry { tag: stag, ..fresh });
            self.stats.allocs += 1;
        }
    }

    /// Number of valid entries across all tables (verification use).
    pub fn occupancy(&self) -> usize {
        match &self.kind {
            Kind::None => 0,
            Kind::Single { table, .. } => table.occupancy(),
            Kind::Tage { short, long, .. } => short.occupancy() + long.occupancy(),
        }
    }

    fn table_mut(&mut self, which: TageTable) -> Option<&mut Table> {
        match (&mut self.kind, which) {
            (Kind::Single { table, .. }, TageTable::Short) => Some(table),
            (Kind::Single { .. }, TageTable::Long) => None,
            (Kind::Tage { short, .. }, TageTable::Short) => Some(short),
            (Kind::Tage { long, .. }, TageTable::Long) => Some(long),
            (Kind::None, _) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{z13_config, z15_config};

    fn tage() -> Pht {
        let c = z15_config();
        Pht::new(&c.direction, c.btb1.ways)
    }

    fn gpv_with(seed: u64, n: usize) -> Gpv {
        let mut g = Gpv::new(17);
        for k in 0..n as u64 {
            g.push_taken(InstrAddr::new(seed + k * 6));
        }
        g
    }

    const ADDR: InstrAddr = InstrAddr::new(0x1_0004);

    #[test]
    fn empty_pht_misses() {
        let mut p = tage();
        let lk = p.lookup(ADDR, 0, &gpv_with(0x100, 5));
        assert_eq!(lk.short, None);
        assert_eq!(lk.long, None);
        assert_eq!(p.choose(&lk), None);
        assert_eq!(p.stats.lookups, 1);
        assert_eq!(p.stats.hits, 0);
    }

    #[test]
    fn allocate_then_hit_both_tables_over_time() {
        let mut p = tage();
        let g = gpv_with(0x100, 17);
        // Repeated allocation attempts (tick rotation) eventually place
        // entries in both tables.
        for _ in 0..6 {
            p.allocate(ADDR, 2, &g, Direction::Taken, None);
        }
        let lk = p.lookup(ADDR, 2, &g);
        assert!(lk.short.is_some(), "short allocated");
        assert!(lk.long.is_some(), "long allocated on the 2:1 rotation");
        assert!(p.stats.allocs >= 2);
        assert!(p.stats.allocs_long >= 1);
        // Different way does not hit.
        let other = p.lookup(ADDR, 3, &g);
        assert_eq!(other.short, None, "PHT columns are per BTB1 way");
    }

    #[test]
    fn short_mispredict_escalates_to_long() {
        let mut p = tage();
        let g = gpv_with(0x500, 17);
        p.allocate(ADDR, 0, &g, Direction::Taken, Some(TageTable::Short));
        let lk = p.lookup(ADDR, 0, &g);
        assert!(lk.long.is_some(), "escalation targets the long table");
        assert!(lk.short.is_none());
    }

    #[test]
    fn strong_long_provides_over_everything() {
        let mut p = tage();
        let g = gpv_with(0x900, 17);
        for _ in 0..6 {
            p.allocate(ADDR, 1, &g, Direction::Taken, None);
        }
        // Strengthen the long entry.
        for _ in 0..2 {
            let lk = p.lookup_quiet(ADDR, 1, &g);
            p.train(&lk, lk.long, Direction::NotTaken, Direction::Taken);
        }
        let lk = p.lookup(ADDR, 1, &g);
        let choice = p.choose(&lk).expect("provider");
        assert_eq!(choice.provider.table, TageTable::Long);
        assert!(!choice.provider.weak);
    }

    #[test]
    fn weak_filter_suppresses_until_confidence() {
        let mut cfg = z15_config();
        cfg.direction.weak_filter_threshold = 4;
        cfg.direction.weak_counter_max = 7;
        let mut p = Pht::new(&cfg.direction, cfg.btb1.ways);
        let g = gpv_with(0x900, 17);
        // Allocate only a long entry (escalation path) — fresh = weak.
        p.allocate(ADDR, 0, &g, Direction::Taken, Some(TageTable::Short));
        // Drive the weak counter to zero with wrong weak hits.
        for _ in 0..6 {
            let lk = p.lookup_quiet(ADDR, 0, &g);
            p.train(&lk, None, Direction::NotTaken, Direction::NotTaken);
            // Re-weaken the entry so it stays weak for the test.
            let row = lk.long.unwrap().row as usize;
            if let Some(t) = p.table_mut(TageTable::Long) {
                if let Some(e) = t.get_mut(0, row).as_mut() {
                    e.ctr = TwoBit::WEAK_TAKEN;
                }
            }
        }
        let lk = p.lookup(ADDR, 0, &g);
        assert!(lk.long.unwrap().weak);
        assert_eq!(p.choose(&lk), None, "weak hit filtered while confidence is low");
        assert!(p.stats.weak_filtered >= 1);
        // Restore confidence with correct weak hits.
        for _ in 0..8 {
            let lk = p.lookup_quiet(ADDR, 0, &g);
            p.train(&lk, None, Direction::NotTaken, Direction::Taken);
            let row = lk.long.unwrap().row as usize;
            if let Some(t) = p.table_mut(TageTable::Long) {
                if let Some(e) = t.get_mut(0, row).as_mut() {
                    e.ctr = TwoBit::WEAK_TAKEN;
                }
            }
        }
        let lk = p.lookup(ADDR, 0, &g);
        assert!(p.choose(&lk).is_some(), "weak allowed once the counter recovers");
    }

    #[test]
    fn weak_long_defers_to_strong_short() {
        let mut p = tage();
        let g = gpv_with(0xa00, 17);
        // Place entries in both tables.
        for _ in 0..6 {
            p.allocate(ADDR, 0, &g, Direction::Taken, None);
        }
        // Strengthen short only.
        for _ in 0..2 {
            let lk = p.lookup_quiet(ADDR, 0, &g);
            p.train(&lk, lk.short, Direction::NotTaken, Direction::Taken);
        }
        let lk = p.lookup(ADDR, 0, &g);
        assert!(lk.long.unwrap().weak);
        assert!(!lk.short.unwrap().weak);
        let choice = p.choose(&lk).unwrap();
        assert_eq!(choice.provider.table, TageTable::Short, "strong short beats weak long");
    }

    #[test]
    fn usefulness_guards_replacement() {
        let mut p = tage();
        let g = gpv_with(0xb00, 17);
        // Allocate short; make it useful (correct while alt wrong).
        // Force the first allocation into the short table (tick 0).
        p.allocate(ADDR, 0, &g, Direction::Taken, None);
        let lk = p.lookup_quiet(ADDR, 0, &g);
        let hit = lk.short.expect("short allocated at tick 0");
        p.train(&lk, Some(hit), Direction::NotTaken, Direction::Taken);
        // Find a conflicting address: same short row, different tag.
        let mut conflict = None;
        for k in 1..50_000u64 {
            let cand = InstrAddr::new(ADDR.raw() + k * 2);
            if g.fold_index(9, cand, 512) == hit.row as usize
                && g.fold_tag(9, cand, 10) != g.fold_tag(9, ADDR, 10)
            {
                conflict = Some(cand);
                break;
            }
        }
        let conflict = conflict.expect("found a row conflict");
        // A conflicting allocation cannot replace the useful entry in
        // the short slot (it may land in the long table instead).
        p.allocate(conflict, 0, &g, Direction::NotTaken, None);
        let still = p.lookup_quiet(ADDR, 0, &g);
        assert!(still.short.is_some(), "useful entry survives the conflicting alloc");
    }

    #[test]
    fn train_updates_provider_counter() {
        let mut p = tage();
        let g = gpv_with(0xc00, 17);
        p.allocate(ADDR, 0, &g, Direction::Taken, None);
        let lk = p.lookup_quiet(ADDR, 0, &g);
        assert!(lk.short.unwrap().weak, "fresh entries are weak");
        p.train(&lk, lk.short, Direction::Taken, Direction::Taken);
        let lk = p.lookup_quiet(ADDR, 0, &g);
        assert!(!lk.short.unwrap().weak, "training strengthened the counter");
        assert_eq!(lk.short.unwrap().dir, Direction::Taken);
    }

    #[test]
    fn single_table_design_has_no_long() {
        let c = z13_config();
        let mut p = Pht::new(&c.direction, c.btb1.ways);
        let g = gpv_with(0xd00, 9);
        p.allocate(ADDR, 0, &g, Direction::Taken, None);
        let lk = p.lookup(ADDR, 0, &g);
        assert!(lk.short.is_some());
        assert_eq!(lk.long, None);
        assert!(p.is_enabled());
        assert_eq!(p.occupancy(), 1);
    }

    #[test]
    fn disabled_pht_is_inert() {
        let mut c = z13_config();
        c.direction.pht = PhtKind::None;
        let mut p = Pht::new(&c.direction, c.btb1.ways);
        assert!(!p.is_enabled());
        let g = gpv_with(0, 3);
        p.allocate(ADDR, 0, &g, Direction::Taken, None);
        assert_eq!(p.lookup(ADDR, 0, &g), PhtLookup::default());
        assert_eq!(p.occupancy(), 0);
    }

    #[test]
    fn different_history_different_slot() {
        let mut p = tage();
        let g1 = gpv_with(0x100, 17);
        let g2 = gpv_with(0x9000, 17);
        p.allocate(ADDR, 0, &g1, Direction::Taken, None);
        let hit1 = p.lookup(ADDR, 0, &g1);
        let hit2 = p.lookup(ADDR, 0, &g2);
        assert!(hit1.short.is_some());
        assert!(hit2.short.is_none(), "a different path does not see the entry");
    }
}
