//! The perceptron auxiliary direction predictor with virtualized
//! weights.
//!
//! "Since the perceptron's focus is on hard to predict branches, only 32
//! perceptron entries are employed, implemented as a 16 row by 2 way set
//! associative structure … Each weight corresponds to a bit in the GPV.
//! … A process called virtualization is used to reduce the amount of
//! storage required; 2:1 virtualization permits 34 GPVs to map to 17
//! weights." (paper §V, patents \[13\]\[14\])

#![expect(
    clippy::indexing_slicing,
    reason = "table geometries are fixed at construction and every index is masked or \
              bounds-derived from them; a panic here is a model bug worth failing loudly"
)]

use crate::config::PerceptronConfig;
use crate::gpv::Gpv;
use crate::util::{index_of, tag_of, SatCounter};
use zbp_zarch::{Direction, InstrAddr};

/// A hit in the perceptron table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerceptronHit {
    /// Row of the hit.
    pub row: usize,
    /// Way of the hit.
    pub way: usize,
    /// The direction the weight sum produces.
    pub dir: Direction,
    /// Whether the entry's usefulness has crossed the provider
    /// threshold ("the perceptron becomes the provider").
    pub useful: bool,
    /// The raw weight sum (diagnostics).
    pub sum: i32,
}

/// Statistics for the perceptron.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PerceptronStats {
    /// Lookups performed.
    pub lookups: u64,
    /// Lookups that hit an entry.
    pub hits: u64,
    /// Training invocations.
    pub trains: u64,
    /// Trainings skipped by the θ confidence gate.
    pub theta_skips: u64,
    /// New entries installed.
    pub installs: u64,
    /// Install attempts blocked by protection limits.
    pub install_blocked: u64,
    /// Entries whose usefulness crossed the provider threshold.
    pub promotions: u64,
    /// Virtualization events (weight re-assigned to its alternate GPV
    /// bit).
    pub virtualizations: u64,
}

/// The input weight `i` (of `n`, on virtualized candidate `sel`) sees:
/// +1 when its GPV bit is set, −1 when clear, 0 when the bit lies past
/// the `gpv_bits` of history. Computed without branching on the bit,
/// which is random per branch. A position past 63 is also past the
/// history (`gpv_bits` ≤ 64), so the wrapped shift's bit is zeroed.
fn input(i: usize, sel: u8, n: usize, gpv: u64, gpv_bits: usize) -> i32 {
    let pos = i + usize::from(sel) * n;
    let sign = ((gpv.wrapping_shr(pos as u32) & 1) as i32) * 2 - 1;
    sign * i32::from(pos < gpv_bits)
}

/// The weight sum of one entry's stripe under the raw GPV bits: each
/// weight adds itself when its GPV bit is set, subtracts itself when
/// clear, and nothing past the history.
fn dot(ws: &[i32], sels: &[u8], gpv: u64, gpv_bits: usize) -> i32 {
    let n = ws.len();
    ws.iter().zip(sels).enumerate().map(|(i, (&w, &sel))| w * input(i, sel, n, gpv, gpv_bits)).sum()
}

/// The training step: every weight moves one step toward agreeing with
/// `resolved` (+1 when its GPV bit matches the outcome, −1 otherwise,
/// 0 past the history), clamped to ±`wmax`. Weights never leave that
/// range, so the clamp leaves an unmoved weight unchanged.
fn adjust(ws: &mut [i32], sels: &[u8], gpv: u64, gpv_bits: usize, resolved: Direction, wmax: i32) {
    let n = ws.len();
    let toward = if resolved.is_taken() { 1 } else { -1 };
    for (i, (w, &sel)) in ws.iter_mut().zip(sels).enumerate() {
        *w = (*w + toward * input(i, sel, n, gpv, gpv_bits)).clamp(-wmax, wmax);
    }
}

/// Per-entry control state (everything except the weight/selector
/// arrays, which live flat in the table — see [`Perceptron`]).
#[derive(Debug, Clone, Copy)]
struct Entry {
    tag: u32,
    usefulness: SatCounter,
    protection: SatCounter,
    /// Completions since the last virtualization sweep.
    since_sweep: u32,
    /// Whether the promotion statistic has fired for this entry.
    promoted: bool,
}

/// The perceptron table.
///
/// Storage is struct-of-arrays: entry control state sits in one flat
/// slot array (slot = row × ways + way) and every entry's weight and
/// selector vectors live in two flat parallel arrays at
/// `slot × weights ..`, so a lookup walks one contiguous stripe instead
/// of chasing two heap `Vec`s per entry (see `PERFORMANCE.md`).
#[derive(Debug, Clone)]
pub struct Perceptron {
    entries: Vec<Option<Entry>>,
    /// Weight vectors, flat: entry `slot` owns `[slot*weights, (slot+1)*weights)`.
    weights: Vec<i32>,
    /// Per-weight virtualization selectors, parallel to `weights`.
    selectors: Vec<u8>,
    cfg: PerceptronConfig,
    /// Statistics.
    pub stats: PerceptronStats,
}

impl Perceptron {
    /// Builds an empty perceptron table.
    pub fn new(cfg: &PerceptronConfig) -> Self {
        let slots = cfg.rows * cfg.ways;
        let mut p = Perceptron {
            entries: Vec::with_capacity(slots),
            weights: Vec::with_capacity(slots * cfg.weights),
            selectors: Vec::with_capacity(slots * cfg.weights),
            cfg: cfg.clone(),
            stats: PerceptronStats::default(),
        };
        p.power_on();
        p
    }

    /// Returns the table to its power-on state in the storage it owns:
    /// every entry invalid, every weight and selector zero, zeroed
    /// statistics. [`new`](Perceptron::new) builds through this writer
    /// too.
    pub fn power_on(&mut self) {
        let slots = self.cfg.rows * self.cfg.ways;
        self.entries.clear();
        self.entries.resize(slots, None);
        self.weights.clear();
        self.weights.resize(slots * self.cfg.weights, 0);
        self.selectors.clear();
        self.selectors.resize(slots * self.cfg.weights, 0);
        self.stats = PerceptronStats::default();
    }

    /// The weight/selector stripe of `slot`.
    fn stripe(&self, slot: usize) -> (&[i32], &[u8]) {
        let n = self.cfg.weights;
        (&self.weights[slot * n..(slot + 1) * n], &self.selectors[slot * n..(slot + 1) * n])
    }

    fn row_of(&self, addr: InstrAddr) -> usize {
        index_of(addr.raw() >> 1, self.cfg.rows)
    }

    fn tag_for(&self, addr: InstrAddr) -> u32 {
        tag_of(addr.raw() >> 1, 12)
    }

    /// Looks up the branch at `addr` and computes the weight-sum
    /// prediction under `gpv`.
    pub fn lookup(&mut self, addr: InstrAddr, gpv: &Gpv) -> Option<PerceptronHit> {
        self.stats.lookups += 1;
        let row = self.row_of(addr);
        let tag = self.tag_for(addr);
        let threshold = self.cfg.usefulness_threshold;
        let base = row * self.cfg.ways;
        let (way, e) = (0..self.cfg.ways).find_map(|w| {
            self.entries[base + w].as_ref().filter(|e| e.tag == tag).map(|e| (w, *e))
        })?;
        let (ws, sels) = self.stripe(base + way);
        let sum = dot(ws, sels, gpv.raw(), 2 * gpv.depth());
        self.stats.hits += 1;
        Some(PerceptronHit {
            row,
            way,
            dir: if sum >= 0 { Direction::Taken } else { Direction::NotTaken },
            useful: e.usefulness.get() >= threshold,
            sum,
        })
    }

    /// Trains the entry at `(row, way)` on the resolved direction using
    /// the GPV as of prediction time. "If the branch resolved taken, all
    /// weights that correspond to a GPV bit of 1 are incremented; others
    /// are decremented" — and symmetrically for not-taken (§V).
    ///
    /// Periodically sweeps low-magnitude weights onto their alternate
    /// virtualized GPV bit.
    pub fn train(&mut self, row: usize, way: usize, gpv: &Gpv, resolved: Direction) {
        let weights_n = self.cfg.weights;
        let wmax = self.cfg.weight_max;
        let gpv_bits = 2 * gpv.depth();
        let virtualization = self.cfg.virtualization as u8;
        let sweep_period = self.cfg.virtualize_period;
        let low = self.cfg.virtualize_below;
        let theta = self.cfg.train_theta;
        let mut virtualized = 0u64;
        self.stats.trains += 1;
        let slot = row * self.cfg.ways + way;
        let Some(e) = self.entries[slot].as_mut() else { return };
        let ws = &mut self.weights[slot * weights_n..(slot + 1) * weights_n];
        let sels = &mut self.selectors[slot * weights_n..(slot + 1) * weights_n];
        // θ-gated training: adjust only when the entry was wrong or
        // under-confident, so uncorrelated weights stay near zero
        // instead of random-walking into saturation.
        let sum = dot(ws, sels, gpv.raw(), gpv_bits);
        let predicted_taken = sum >= 0;
        if predicted_taken != resolved.is_taken() || sum.abs() <= theta {
            adjust(ws, sels, gpv.raw(), gpv_bits, resolved, wmax);
        } else {
            self.stats.theta_skips += 1;
        }
        e.since_sweep += 1;
        if sweep_period > 0 && e.since_sweep >= sweep_period {
            e.since_sweep = 0;
            for i in 0..weights_n {
                if ws[i].abs() < low {
                    // Try the next virtualized bit for this weight.
                    sels[i] = (sels[i] + 1) % virtualization.max(1);
                    ws[i] = 0;
                    virtualized += 1;
                }
            }
        }
        self.stats.virtualizations += virtualized;
    }

    /// Completion-time usefulness bookkeeping (§V):
    ///
    /// * perceptron correct while the provider was wrong → usefulness up
    ///   (and promotion once the threshold is crossed);
    /// * perceptron wrong while the provider was correct → usefulness
    ///   down;
    /// * both wrong while usefulness is still below the threshold →
    ///   usefulness up (lets fresh entries learn).
    pub fn assess(
        &mut self,
        row: usize,
        way: usize,
        perceptron_correct: bool,
        provider_correct: bool,
    ) {
        let threshold = self.cfg.usefulness_threshold;
        let mut promoted_now = false;
        if let Some(e) = self.entries[row * self.cfg.ways + way].as_mut() {
            let before = e.usefulness.get();
            match (perceptron_correct, provider_correct) {
                (true, false) => e.usefulness.inc(),
                (false, true) => e.usefulness.dec(),
                (false, false) if before < threshold => e.usefulness.inc(),
                _ => {}
            }
            if !e.promoted && e.usefulness.get() >= threshold {
                e.promoted = true;
                promoted_now = true;
            }
            if e.usefulness.get() < threshold {
                e.promoted = false;
            }
        }
        if promoted_now {
            self.stats.promotions += 1;
        }
    }

    /// Attempts to install a new entry for a hard-to-predict branch.
    ///
    /// The victim is the least-useful entry in the row whose protection
    /// limit has expired; every failed attempt decrements the
    /// protections so fresh entries cannot be immortal (§V).
    pub fn install(&mut self, addr: InstrAddr) -> bool {
        let row = self.row_of(addr);
        let tag = self.tag_for(addr);
        let base = row * self.cfg.ways;
        let row_entries = &mut self.entries[base..base + self.cfg.ways];
        // Already present?
        if row_entries.iter().flatten().any(|e| e.tag == tag) {
            return false;
        }
        let fresh = Entry {
            tag,
            usefulness: SatCounter::new(self.cfg.usefulness_max),
            protection: SatCounter::at(self.cfg.protection_limit, self.cfg.protection_limit),
            since_sweep: 0,
            promoted: false,
        };
        // Invalid way first, else the least-useful unprotected entry:
        // "The least useful entry … is selected as the entry to be
        // replaced, provided it has a protection limit of zero" (§V);
        // if the candidate is still protected, the install fails and
        // protections erode.
        let way = match row_entries.iter().position(|e| e.is_none()) {
            Some(w) => Some(w),
            None => row_entries
                .iter()
                .enumerate()
                .filter_map(|(w, e)| e.as_ref().map(|e| (w, e)))
                .min_by_key(|(_, e)| e.usefulness.get())
                .and_then(|(w, e)| e.protection.is_zero().then_some(w)),
        };
        let Some(way) = way else {
            for e in row_entries.iter_mut().flatten() {
                e.protection.dec();
            }
            self.stats.install_blocked += 1;
            return false;
        };
        self.entries[base + way] = Some(fresh);
        // Initial virtualized assignments are spread across the whole
        // GPV (weight i starts on its (i mod v)-th candidate bit), so a
        // fresh entry observes the full history immediately; the sweep
        // then migrates uncorrelated weights to their alternates.
        let v = self.cfg.virtualization.max(1) as u8;
        let n = self.cfg.weights;
        let slot = base + way;
        for i in 0..n {
            self.weights[slot * n + i] = 0;
            self.selectors[slot * n + i] = (i as u8) % v;
        }
        self.stats.installs += 1;
        true
    }

    /// Debug introspection of one entry (tests/diagnostics).
    #[doc(hidden)]
    pub fn debug_entry(&self, addr: InstrAddr) -> Option<(Vec<i32>, Vec<u8>, u32, u32)> {
        let row = self.row_of(addr);
        let tag = self.tag_for(addr);
        let base = row * self.cfg.ways;
        (0..self.cfg.ways)
            .find(|&w| self.entries[base + w].as_ref().is_some_and(|e| e.tag == tag))
            .map(|w| {
                let e = self.entries[base + w].expect("found above");
                let (ws, sels) = self.stripe(base + w);
                (ws.to_vec(), sels.to_vec(), e.usefulness.get(), e.protection.get())
            })
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
    use proptest::prelude::*;

    fn perc() -> Perceptron {
        Perceptron::new(z15_config().direction.perceptron.as_ref().unwrap())
    }

    fn gpv_pattern(pattern: &[bool]) -> Gpv {
        // Build a GPV whose low bits follow `pattern` as closely as our
        // 2-bit push hash allows: push addresses with known hashes.
        let mut g = Gpv::new(17);
        // Find addresses hashing to 0b00 and 0b01.
        let mut a0 = None;
        let mut a1 = None;
        for k in 0..256u64 {
            let a = InstrAddr::new(0x7000 + 2 * k);
            match crate::util::branch_gpv_bits(a) {
                0b00 if a0.is_none() => a0 = Some(a),
                0b01 if a1.is_none() => a1 = Some(a),
                _ => {}
            }
        }
        let (a0, a1) = (a0.unwrap(), a1.unwrap());
        for &b in pattern.iter().rev() {
            g.push_taken(if b { a1 } else { a0 });
        }
        g
    }

    const ADDR: InstrAddr = InstrAddr::new(0x2_0008);

    #[test]
    fn miss_without_install() {
        let mut p = perc();
        assert!(p.lookup(ADDR, &Gpv::new(17)).is_none());
        assert_eq!(p.stats.lookups, 1);
        assert_eq!(p.stats.hits, 0);
    }

    #[test]
    fn install_then_hit() {
        let mut p = perc();
        assert!(p.install(ADDR));
        assert!(!p.install(ADDR), "re-install of a present branch is a no-op");
        let hit = p.lookup(ADDR, &Gpv::new(17)).expect("hit");
        assert_eq!(hit.sum, 0, "fresh weights sum to zero");
        assert_eq!(hit.dir, Direction::Taken, "ties resolve taken");
        assert!(!hit.useful, "fresh entries are not yet providers");
        assert_eq!(p.occupancy(), 1);
    }

    #[test]
    fn learns_a_history_correlated_branch() {
        // Branch taken iff history bit 0 of the pattern is set.
        let mut p = perc();
        p.install(ADDR);
        let g1 = gpv_pattern(&[true; 17]);
        let g0 = gpv_pattern(&[false; 17]);
        for _ in 0..20 {
            if let Some(h) = p.lookup(ADDR, &g1) {
                p.train(h.row, h.way, &g1, Direction::Taken);
            }
            if let Some(h) = p.lookup(ADDR, &g0) {
                p.train(h.row, h.way, &g0, Direction::NotTaken);
            }
        }
        assert_eq!(p.lookup(ADDR, &g1).unwrap().dir, Direction::Taken);
        assert_eq!(p.lookup(ADDR, &g0).unwrap().dir, Direction::NotTaken);
        let h = p.lookup(ADDR, &g1).unwrap();
        assert!(h.sum > 0, "confident positive sum, got {}", h.sum);
    }

    #[test]
    fn weights_saturate() {
        let mut p = perc();
        p.install(ADDR);
        let g = gpv_pattern(&[true; 17]);
        for _ in 0..200 {
            let h = p.lookup(ADDR, &g).unwrap();
            p.train(h.row, h.way, &g, Direction::Taken);
        }
        let h = p.lookup(ADDR, &g).unwrap();
        let max = z15_config().direction.perceptron.unwrap().weight_max;
        assert!(h.sum <= max * 17, "sum bounded by weight saturation");
    }

    #[test]
    fn usefulness_promotion_and_demotion() {
        let mut p = perc();
        p.install(ADDR);
        let g = Gpv::new(17);
        let h = p.lookup(ADDR, &g).unwrap();
        // Perceptron right, provider wrong, four times -> promoted.
        for _ in 0..4 {
            p.assess(h.row, h.way, true, false);
        }
        assert!(p.lookup(ADDR, &g).unwrap().useful);
        assert_eq!(p.stats.promotions, 1);
        // Provider recovers: demote.
        for _ in 0..4 {
            p.assess(h.row, h.way, false, true);
        }
        assert!(!p.lookup(ADDR, &g).unwrap().useful, "demoted below threshold");
    }

    #[test]
    fn both_wrong_learns_only_below_threshold() {
        let mut p = perc();
        p.install(ADDR);
        let g = Gpv::new(17);
        let h = p.lookup(ADDR, &g).unwrap();
        for _ in 0..20 {
            p.assess(h.row, h.way, false, false);
        }
        // Usefulness climbs to the threshold but not beyond it.
        for _ in 0..3 {
            p.assess(h.row, h.way, true, false);
        }
        let hit = p.lookup(ADDR, &g).unwrap();
        assert!(hit.useful);
    }

    #[test]
    fn protection_blocks_then_expires() {
        let cfg = PerceptronConfig {
            rows: 1,
            ways: 1,
            protection_limit: 4,
            ..z15_config().direction.perceptron.unwrap()
        };
        let mut p = Perceptron::new(&cfg);
        assert!(p.install(InstrAddr::new(0x10)));
        // Single way is occupied & protected: install attempts fail and
        // erode protection (limit 4).
        let other = InstrAddr::new(0x5010);
        for _ in 0..4 {
            assert!(!p.install(other));
        }
        assert_eq!(p.stats.install_blocked, 4);
        assert!(p.install(other), "protection expired; replacement succeeds");
        assert_eq!(p.occupancy(), 1);
    }

    #[test]
    fn least_useful_entry_is_victim() {
        let cfg = PerceptronConfig {
            rows: 1,
            ways: 2,
            protection_limit: 0,
            ..z15_config().direction.perceptron.unwrap()
        };
        let mut p = Perceptron::new(&cfg);
        let a = InstrAddr::new(0x10);
        let b = InstrAddr::new(0x20);
        p.install(a);
        p.install(b);
        // Make `a` useful.
        let ha = p.lookup(a, &Gpv::new(17)).unwrap();
        for _ in 0..3 {
            p.assess(ha.row, ha.way, true, false);
        }
        // New install evicts `b` (least useful).
        let c = InstrAddr::new(0x9930);
        assert!(p.install(c));
        assert!(p.lookup(a, &Gpv::new(17)).is_some(), "useful entry kept");
        assert!(p.lookup(b, &Gpv::new(17)).is_none(), "least useful evicted");
        assert!(p.lookup(c, &Gpv::new(17)).is_some());
    }

    #[test]
    fn learns_far_bit_under_noise() {
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        let mut p = perc();
        p.install(ADDR);
        let mut rng = StdRng::seed_from_u64(5);
        // Find addresses for symbol control
        let mut sym_addrs: Vec<Vec<InstrAddr>> = vec![Vec::new(); 4];
        for k in 0..4096u64 {
            let a = InstrAddr::new(0x7000 + 2 * k);
            let s = crate::util::branch_gpv_bits(a) as usize;
            if sym_addrs[s].len() < 64 {
                sym_addrs[s].push(a);
            }
        }
        let mut correct = 0u32;
        let mut total = 0u32;
        for iter in 0..2000 {
            // Build GPV: 17 pushes; push #15-back encodes the "leader" bit.
            let leader = rng.random_bool(0.5);
            let mut g = Gpv::new(17);
            // oldest first: push 16th-oldest .. newest
            // We want the leader symbol at bit-pair position 15 => it is the 16th most recent push
            // sequence: [old junk x1] [leader] [15 noise pushes]
            g.push_taken(sym_addrs[rng.random_range(0..4)][rng.random_range(0..64)]);
            g.push_taken(if leader { sym_addrs[3][0] } else { sym_addrs[2][0] });
            for _ in 0..15 {
                let s = rng.random_range(0..4);
                g.push_taken(sym_addrs[s][rng.random_range(0..64)]);
            }
            let dir = if leader { Direction::Taken } else { Direction::NotTaken };
            if let Some(h) = p.lookup(ADDR, &g) {
                if iter > 1000 {
                    total += 1;
                    if h.dir == dir {
                        correct += 1;
                    }
                }
                p.train(h.row, h.way, &g, dir);
            }
        }
        let acc = correct as f64 / total.max(1) as f64;
        assert!(
            acc > 0.9,
            "perceptron should learn the far correlated bit: {acc:.2} ({correct}/{total})"
        );
    }

    #[test]
    fn virtualization_reassigns_dead_weights() {
        let mut cfg = z15_config().direction.perceptron.unwrap();
        cfg.virtualize_period = 8;
        cfg.virtualize_below = 3;
        let mut p = Perceptron::new(&cfg);
        p.install(ADDR);
        // Uncorrelated (alternating) outcomes keep weights near zero;
        // after the sweep period, virtualization fires.
        let g = gpv_pattern(&[true; 17]);
        for k in 0..16 {
            let h = p.lookup(ADDR, &g).unwrap();
            let dir = if k % 2 == 0 { Direction::Taken } else { Direction::NotTaken };
            p.train(h.row, h.way, &g, dir);
        }
        assert!(p.stats.virtualizations > 0, "dead weights were reassigned");
    }

    /// The branchy loops [`dot`] and [`adjust`] replaced, kept as the
    /// reference they must equal.
    fn branchy_dot(ws: &[i32], sels: &[u8], gpv: &Gpv) -> i32 {
        let n = ws.len();
        let mut sum = 0;
        for i in 0..n {
            let pos = i + usize::from(sels[i]) * n;
            if pos >= 2 * gpv.depth() {
                continue;
            }
            if gpv.bit(pos) {
                sum += ws[i];
            } else {
                sum -= ws[i];
            }
        }
        sum
    }

    fn branchy_adjust(ws: &mut [i32], sels: &[u8], gpv: &Gpv, resolved: Direction, wmax: i32) {
        let n = ws.len();
        for i in 0..n {
            let pos = i + usize::from(sels[i]) * n;
            if pos >= 2 * gpv.depth() {
                continue;
            }
            let delta = match (resolved, gpv.bit(pos)) {
                (Direction::Taken, true) | (Direction::NotTaken, false) => 1,
                _ => -1,
            };
            ws[i] = (ws[i] + delta).clamp(-wmax, wmax);
        }
    }

    proptest! {
        #[test]
        fn branch_free_sums_match_the_branchy_loops(
            raw_ws in prop::collection::vec(any::<i32>(), 17..18),
            raw_sels in prop::collection::vec(any::<u8>(), 17..18),
            bits in any::<u64>(),
            deep in any::<bool>(),
            taken in any::<bool>(),
        ) {
            let cfg = z15_config().direction.perceptron.expect("z15 has a perceptron");
            let span = 2 * cfg.weight_max + 1;
            let ws: Vec<i32> = raw_ws.iter().map(|w| w.rem_euclid(span) - cfg.weight_max).collect();
            let sels: Vec<u8> =
                raw_sels.iter().map(|s| s % cfg.virtualization as u8).collect();
            let gpv = Gpv::from_raw(bits, if deep { 17 } else { 9 });
            let gpv_bits = 2 * gpv.depth();
            prop_assert_eq!(dot(&ws, &sels, gpv.raw(), gpv_bits), branchy_dot(&ws, &sels, &gpv));
            let resolved = if taken { Direction::Taken } else { Direction::NotTaken };
            let (mut fast, mut reference) = (ws.clone(), ws);
            adjust(&mut fast, &sels, gpv.raw(), gpv_bits, resolved, cfg.weight_max);
            branchy_adjust(&mut reference, &sels, &gpv, resolved, cfg.weight_max);
            prop_assert_eq!(fast, reference);
        }
    }
}
