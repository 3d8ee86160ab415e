//! Predictor configuration and the generation presets.
//!
//! Every capacity, policy and feature knob the paper mentions is
//! represented here, so that the zEC12 → z13 → z14 → z15 evolution the
//! paper narrates (and Table 1 summarizes) can be expressed as *data*
//! and the experiments can sweep it.

use std::fmt;

/// Configuration of the first-level BTB (BTB1), which also houses the
/// BHT and per-branch metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct Btb1Config {
    /// Logical rows; one row covers one search line. z15: 2K.
    pub rows: usize,
    /// Ways per row. z15: 8.
    pub ways: usize,
    /// Partial-tag width in bits. Partial tagging is what makes "bad
    /// branch predictions" (predictions on non-branches) possible
    /// (paper §IV).
    pub tag_bits: u32,
    /// Bytes of address space covered per search. z15: 64 with one
    /// port; z13/z14: 32 per port with two ports.
    pub search_bytes: u64,
    /// Number of search ports. z15: 1 (the second physical port is the
    /// read-analyze-write filter port); z13/z14: 2.
    pub search_ports: u8,
}

impl Btb1Config {
    /// Total branch capacity.
    pub fn capacity(&self) -> usize {
        self.rows * self.ways
    }
}

/// BTB1↔BTB2 inclusion policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InclusionPolicy {
    /// zEC12–z14: avoid storing entries at both levels; BTB1 victims are
    /// written back out (via the BTBP victim path).
    SemiExclusive,
    /// z15: the BTB2 is an approximate superset of the BTB1; victims are
    /// assumed present in the BTB2 and kept fresh by periodic refresh.
    SemiInclusive,
}

/// Configuration of the second-level BTB (BTB2).
#[derive(Debug, Clone, PartialEq)]
pub struct Btb2Config {
    /// Logical rows. z15: 32K.
    pub rows: usize,
    /// Ways per row. z15: 4.
    pub ways: usize,
    /// Partial-tag width in bits.
    pub tag_bits: u32,
    /// Consecutive 64-byte lines one BTB2 search covers. With 4 ways,
    /// 32 lines bounds a search at 128 branches ("up to 128 branches
    /// can be found", §III).
    pub search_lines: usize,
    /// Capacity of the staging queue between BTB2 and BTB1.
    pub staging_capacity: usize,
    /// Successive qualified no-prediction BTB1 searches that trigger a
    /// BTB2 search ("three qualified successive BTB1 search attempts",
    /// §III).
    pub miss_trigger: u32,
    /// Number of non-predicted disruptive (surprise taken) branches
    /// within [`Self::burst_window`] completions that proactively fires
    /// a BTB2 search (§III).
    pub burst_trigger: u32,
    /// Completion-window length for the burst trigger.
    pub burst_window: u32,
    /// Inclusion policy.
    pub inclusion: InclusionPolicy,
    /// Semi-inclusive only: number of no-hit searches between periodic
    /// LRU refresh write-backs (§III "upon reaching a threshold").
    pub refresh_threshold: u32,
    /// Transfer latency in cycles for a staged entry to reach the BTB1
    /// (used by the timing model).
    pub transfer_latency: u32,
}

impl Btb2Config {
    /// Total branch capacity.
    pub fn capacity(&self) -> usize {
        self.rows * self.ways
    }
}

/// Configuration of the pre-z15 BTB preload buffer (BTBP): the staging
/// ground, duplicate filter and victim buffer that z15 removed in favour
/// of a larger BTB1 plus read-before-write filtering (§III).
#[derive(Debug, Clone, PartialEq)]
pub struct BtbpConfig {
    /// Entry count (fully associative in the model).
    pub entries: usize,
}

/// Which pattern-history design backs direction prediction.
#[derive(Debug, Clone, PartialEq)]
pub enum PhtKind {
    /// No PHT at all (BHT only).
    None,
    /// The single tagged PHT used from z196 through z14 (§V).
    SingleTable {
        /// Rows per BTB1 way.
        rows_per_way: usize,
        /// GPV depth (taken branches) folded into the index.
        history: usize,
    },
    /// The z15 two-table TAGE variation (§V).
    Tage {
        /// Rows per BTB1 way in each table (512 on z15).
        rows_per_way: usize,
        /// History depth of the short table (9).
        short_history: usize,
        /// History depth of the long table (17).
        long_history: usize,
    },
}

/// Perceptron auxiliary direction predictor configuration (§V).
#[derive(Debug, Clone, PartialEq)]
pub struct PerceptronConfig {
    /// Rows (16 on z14/z15).
    pub rows: usize,
    /// Ways (2).
    pub ways: usize,
    /// Number of weights per entry (17).
    pub weights: usize,
    /// Virtualization factor mapping GPV bits to weights (2:1 maps 34
    /// GPV bits onto 17 weights).
    pub virtualization: usize,
    /// Saturating weight magnitude bound.
    pub weight_max: i32,
    /// Protection limit a fresh entry starts with: replacement attempts
    /// it survives before becoming evictable.
    pub protection_limit: u32,
    /// Usefulness value at which the perceptron is promoted to provider.
    pub usefulness_threshold: u32,
    /// Ceiling of the usefulness counter.
    pub usefulness_max: u32,
    /// Training threshold θ: weights adjust only on a misprediction or
    /// when the sum's magnitude is at most θ (Jiménez–Lin), preventing
    /// uncorrelated weights from random-walking into saturation.
    pub train_theta: i32,
    /// Magnitude below which a weight is considered uncorrelated and its
    /// virtualized GPV bit is re-assigned.
    pub virtualize_below: i32,
    /// Completions between virtualization sweeps of an entry.
    pub virtualize_period: u32,
}

/// Direction-prediction configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct DirectionConfig {
    /// PHT design.
    pub pht: PhtKind,
    /// PHT partial-tag bits.
    pub pht_tag_bits: u32,
    /// TAGE usefulness counter ceiling.
    pub usefulness_max: u32,
    /// Weak-filter threshold: minimum value of the global
    /// weak-confidence counter for a weak TAGE prediction to provide
    /// (§V "weak filtering").
    pub weak_filter_threshold: u32,
    /// Ceiling of the weak-confidence counter.
    pub weak_counter_max: u32,
    /// Speculative BHT entries (0 disables).
    pub sbht_entries: usize,
    /// Speculative PHT entries (0 disables).
    pub spht_entries: usize,
    /// Perceptron (None disables).
    pub perceptron: Option<PerceptronConfig>,
}

/// Changing-target buffer configuration (§VI).
#[derive(Debug, Clone, PartialEq)]
pub struct CtbConfig {
    /// Entry count (2K on z15, as four 512-entry SRAMs).
    pub entries: usize,
    /// Taken-branch history depth folded into the index (9 before z15,
    /// 17 on z15).
    pub history: usize,
    /// Partial-tag bits matched against the searched address space.
    pub tag_bits: u32,
}

/// Call/return-stack heuristic configuration (§VI).
#[derive(Debug, Clone, PartialEq)]
pub struct CrsConfig {
    /// Minimum branch→target distance in bytes for a taken branch to be
    /// treated as a call candidate.
    pub distance_threshold: u64,
    /// NSIA offsets (bytes) a return target may land at: 0, 2, 4, 6, 8.
    pub offsets: Vec<u64>,
    /// Every Nth completing wrong-target blacklisted branch is given
    /// amnesty (§VI).
    pub amnesty_period: u32,
}

impl Default for CrsConfig {
    fn default() -> Self {
        CrsConfig { distance_threshold: 1024, offsets: vec![0, 2, 4, 6, 8], amnesty_period: 16 }
    }
}

/// Column-predictor configuration (§IV).
#[derive(Debug, Clone, PartialEq)]
pub struct CpredConfig {
    /// Entry count (direct mapped on stream start address).
    pub entries: usize,
    /// Partial-tag bits.
    pub tag_bits: u32,
    /// Whether the SKOOT offset is folded into the CPRED redirect
    /// address (z15 enhancement).
    pub with_skoot: bool,
}

/// Timing parameters of the branch-prediction pipeline and its
/// integration (paper §II, §IV and figures 4–7).
#[derive(Debug, Clone, PartialEq)]
pub struct TimingConfig {
    /// Pipeline depth of the search pipeline in cycles (b0..b5 = 6).
    pub search_stages: u32,
    /// Cycle (stage index) at which a CPRED-accelerated re-index can
    /// occur (b2).
    pub cpred_reindex_stage: u32,
    /// Architectural branch-wrong restart penalty in cycles (~26).
    pub restart_penalty: u32,
    /// Additional statistical penalty from queueing disruption (§II.D
    /// puts the total at ~35).
    pub restart_penalty_statistical: u32,
    /// Instruction-fetch bandwidth in bytes per cycle (32).
    pub fetch_bytes_per_cycle: u64,
    /// Additional pipeline-refill inefficiency after a complete restart
    /// (issue-queue drain, up to ~10 cycles, §II.B).
    pub restart_refill_overhead: u32,
}

impl Default for TimingConfig {
    fn default() -> Self {
        TimingConfig {
            search_stages: 6,
            cpred_reindex_stage: 2,
            restart_penalty: 26,
            restart_penalty_statistical: 35,
            fetch_bytes_per_cycle: 32,
            restart_refill_overhead: 10,
        }
    }
}

/// The complete predictor configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictorConfig {
    /// A short name used in reports ("z15", "z14-noperceptron", …).
    pub name: String,
    /// BTB1 geometry.
    pub btb1: Btb1Config,
    /// Second-level BTB; `None` disables the hierarchy.
    pub btb2: Option<Btb2Config>,
    /// Pre-z15 preload buffer; `None` on z15.
    pub btbp: Option<BtbpConfig>,
    /// GPV depth in taken branches (9 before z14, 17 since).
    pub gpv_depth: usize,
    /// Direction predictors.
    pub direction: DirectionConfig,
    /// Changing-target buffer; `None` disables.
    pub ctb: Option<CtbConfig>,
    /// Call/return stack; `None` disables.
    pub crs: Option<CrsConfig>,
    /// Column predictor; `None` disables.
    pub cpred: Option<CpredConfig>,
    /// Whether SKOOT skip-distance learning is enabled.
    pub skoot: bool,
    /// Timing parameters.
    pub timing: TimingConfig,
}

impl PredictorConfig {
    /// Validates internal consistency; returns a description of the
    /// first problem found.
    ///
    /// # Errors
    ///
    /// Returns `Err` if any geometry is not a power of two where
    /// required, or a dependent feature is enabled without its
    /// prerequisite (e.g. SKOOT-in-CPRED without SKOOT).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !self.btb1.rows.is_power_of_two() {
            return Err(ConfigError::new("btb1.rows must be a power of two"));
        }
        if self.btb1.ways == 0 || self.btb1.ways > 16 {
            return Err(ConfigError::new("btb1.ways must be in 1..=16"));
        }
        if self.btb1.search_bytes != 32 && self.btb1.search_bytes != 64 {
            return Err(ConfigError::new("btb1.search_bytes must be 32 or 64"));
        }
        if let Some(b2) = &self.btb2 {
            if b2.rows == 0 {
                return Err(ConfigError::new("btb2.rows must be nonzero"));
            }
            if b2.ways == 0 {
                return Err(ConfigError::new("btb2.ways must be nonzero"));
            }
            if b2.inclusion == InclusionPolicy::SemiExclusive && self.btbp.is_none() {
                return Err(ConfigError::new("semi-exclusive BTB2 requires the BTBP victim path"));
            }
        }
        if self.gpv_depth == 0 || self.gpv_depth > 32 {
            return Err(ConfigError::new("gpv_depth must be in 1..=32"));
        }
        match &self.direction.pht {
            PhtKind::None => {}
            PhtKind::SingleTable { rows_per_way, history } => {
                if !rows_per_way.is_power_of_two() {
                    return Err(ConfigError::new("pht rows_per_way must be a power of two"));
                }
                if !indices_fit::<u32>(*rows_per_way) {
                    return Err(ConfigError::new("pht rows_per_way must fit a u32 row index"));
                }
                if *history > self.gpv_depth {
                    return Err(ConfigError::new("pht history exceeds gpv_depth"));
                }
            }
            PhtKind::Tage { rows_per_way, short_history, long_history } => {
                if !rows_per_way.is_power_of_two() {
                    return Err(ConfigError::new("tage rows_per_way must be a power of two"));
                }
                if !indices_fit::<u32>(*rows_per_way) {
                    return Err(ConfigError::new("tage rows_per_way must fit a u32 row index"));
                }
                if short_history >= long_history {
                    return Err(ConfigError::new("tage short_history must be < long_history"));
                }
                if *long_history > self.gpv_depth {
                    return Err(ConfigError::new("tage long_history exceeds gpv_depth"));
                }
            }
        }
        if let Some(p) = &self.direction.perceptron {
            if !p.rows.is_power_of_two() {
                return Err(ConfigError::new("perceptron rows must be a power of two"));
            }
            if !indices_fit::<u16>(p.rows) || !indices_fit::<u16>(p.ways) {
                return Err(ConfigError::new("perceptron rows and ways must fit a u16 index"));
            }
            if p.weights * p.virtualization < 2 * self.gpv_depth {
                return Err(ConfigError::new(
                    "perceptron weights * virtualization must cover the GPV bits",
                ));
            }
        }
        if let Some(c) = &self.ctb {
            if !c.entries.is_power_of_two() {
                return Err(ConfigError::new("ctb entries must be a power of two"));
            }
            if c.history > self.gpv_depth {
                return Err(ConfigError::new("ctb history exceeds gpv_depth"));
            }
        }
        if let Some(cp) = &self.cpred {
            if !cp.entries.is_power_of_two() {
                return Err(ConfigError::new("cpred entries must be a power of two"));
            }
            if cp.with_skoot && !self.skoot {
                return Err(ConfigError::new("cpred.with_skoot requires skoot"));
            }
        }
        Ok(())
    }

    /// Approximate modelled storage in bits, summed over every enabled
    /// structure — the budget used for the arena's size-normalized
    /// comparisons.
    ///
    /// The accounting is deliberately coarse (the paper publishes
    /// capacities, not SRAM netlists): each BTB-family entry is its
    /// partial tag plus a 32-bit target plus a few metadata bits, PHT
    /// and CTB entries are tag + payload, the perceptron is its weight
    /// matrix. What matters for the comparisons is that the estimate is
    /// deterministic and applied uniformly across configurations.
    pub fn storage_bits(&self) -> u64 {
        // Target/payload widths shared by the BTB-family estimates.
        const TARGET_BITS: u64 = 32; // segment-relative target
        const BTB1_META_BITS: u64 = 6; // BHT counter + class/length bits
        const SPEC_ADDR_BITS: u64 = 48; // full-address CAM tags

        let btb1 = (self.btb1.capacity() as u64)
            * (u64::from(self.btb1.tag_bits) + TARGET_BITS + BTB1_META_BITS);
        let btb2 = self
            .btb2
            .as_ref()
            .map_or(0, |b| (b.capacity() as u64) * (u64::from(b.tag_bits) + TARGET_BITS));
        let btbp =
            self.btbp.as_ref().map_or(0, |b| (b.entries as u64) * (SPEC_ADDR_BITS + TARGET_BITS));
        let pht = match &self.direction.pht {
            PhtKind::None => 0,
            // 2-bit counter + partial tag per entry.
            PhtKind::SingleTable { rows_per_way, .. } => {
                (*rows_per_way as u64)
                    * (self.btb1.ways as u64)
                    * (2 + u64::from(self.direction.pht_tag_bits))
            }
            // Two tables; 3-bit counter + 2-bit usefulness + tag.
            PhtKind::Tage { rows_per_way, .. } => {
                2 * (*rows_per_way as u64)
                    * (self.btb1.ways as u64)
                    * (5 + u64::from(self.direction.pht_tag_bits))
            }
        };
        let spec = ((self.direction.sbht_entries + self.direction.spht_entries) as u64)
            * (SPEC_ADDR_BITS + 2);
        let perceptron = self.direction.perceptron.as_ref().map_or(0, |p| {
            let weight_bits = 64 - u64::from((p.weight_max as u64).leading_zeros()) + 1;
            (p.rows as u64) * (p.ways as u64) * ((p.weights as u64) * weight_bits + 16)
        });
        let ctb = self
            .ctb
            .as_ref()
            .map_or(0, |c| (c.entries as u64) * (u64::from(c.tag_bits) + TARGET_BITS));
        let cpred = self.cpred.as_ref().map_or(0, |c| {
            (c.entries as u64) * (u64::from(c.tag_bits) + 8 + if c.with_skoot { 8 } else { 0 })
        });
        btb1 + btb2 + btbp + pht + spec + perceptron + ctb + cpred
    }

    /// Taken-branch prediction period in cycles when the CPRED misses:
    /// one full search-pipeline pass, plus one cycle in SMT2 for port
    /// sharing (§IV: "every 5 cycles in single thread mode, and every 6
    /// cycles in SMT2").
    pub fn taken_period_no_cpred(&self, smt2: bool) -> u32 {
        self.timing.search_stages - 1 + u32::from(smt2)
    }

    /// Taken-branch prediction period in cycles on a CPRED hit (2).
    pub fn taken_period_cpred(&self) -> u32 {
        self.timing.cpred_reindex_stage
    }
}

/// Whether every index below `len` fits in `T`: the GPQ entry stores PHT
/// rows as `u32` and perceptron rows and ways as `u16`.
fn indices_fit<T: TryFrom<usize>>(len: usize) -> bool {
    T::try_from(len.saturating_sub(1)).is_ok()
}

/// A configuration validation error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    message: &'static str,
}

impl ConfigError {
    fn new(message: &'static str) -> Self {
        ConfigError { message }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid predictor configuration: {}", self.message)
    }
}

impl std::error::Error for ConfigError {}

/// The four processor generations the paper compares (Table 1 and §VIII).
///
/// BTB capacities for zEC12 and z15 are from the paper text; z13/z14
/// values are approximations from the public IBM journal literature and
/// are marked as such in [`GenerationInfo`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GenerationPreset {
    /// zEC12 (2012): the original two-level BTB design — 4K BTB1 +
    /// 24K BTB2, semi-exclusive with the BTBP.
    ZEc12,
    /// z13 (2015): strict dispatch synchronization, 2×32B search ports.
    Z13,
    /// z14 (2017): 17-deep GPV, perceptron, basic CRS, stream CPRED.
    Z14,
    /// z15 (2019): the design this paper describes.
    Z15,
}

impl GenerationPreset {
    /// All presets, oldest first.
    pub const ALL: [GenerationPreset; 4] = [
        GenerationPreset::ZEc12,
        GenerationPreset::Z13,
        GenerationPreset::Z14,
        GenerationPreset::Z15,
    ];

    /// Builds the predictor configuration for this generation.
    pub fn config(self) -> PredictorConfig {
        match self {
            GenerationPreset::ZEc12 => zec12_config(),
            GenerationPreset::Z13 => z13_config(),
            GenerationPreset::Z14 => z14_config(),
            GenerationPreset::Z15 => z15_config(),
        }
    }

    /// Structure-size and feature summary for Table 1 (E1).
    pub fn info(self) -> GenerationInfo {
        let c = self.config();
        let (l1i_kb, l2i_kb, l3_mb, l4_mb, approx) = match self {
            GenerationPreset::ZEc12 => (64, 1024, 48, 384, false),
            GenerationPreset::Z13 => (96, 2048, 64, 480, true),
            GenerationPreset::Z14 => (128, 2048, 128, 672, true),
            GenerationPreset::Z15 => (128, 4096, 256, 960, false),
        };
        GenerationInfo {
            preset: self,
            name: c.name.clone(),
            btb1_entries: c.btb1.capacity(),
            btb2_entries: c.btb2.as_ref().map_or(0, |b| b.capacity()),
            btbp: c.btbp.is_some(),
            gpv_depth: c.gpv_depth,
            tage: matches!(c.direction.pht, PhtKind::Tage { .. }),
            perceptron: c.direction.perceptron.is_some(),
            ctb_entries: c.ctb.as_ref().map_or(0, |t| t.entries),
            crs: c.crs.is_some(),
            cpred: c.cpred.is_some(),
            skoot: c.skoot,
            l1i_kb,
            l2i_kb,
            l3_mb,
            l4_mb,
            cache_sizes_approx: approx,
        }
    }
}

impl fmt::Display for GenerationPreset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            GenerationPreset::ZEc12 => "zEC12",
            GenerationPreset::Z13 => "z13",
            GenerationPreset::Z14 => "z14",
            GenerationPreset::Z15 => "z15",
        })
    }
}

/// One row of the Table 1 reproduction.
#[derive(Debug, Clone, PartialEq)]
pub struct GenerationInfo {
    /// Which generation.
    pub preset: GenerationPreset,
    /// Config name.
    pub name: String,
    /// BTB1 branch capacity.
    pub btb1_entries: usize,
    /// BTB2 branch capacity.
    pub btb2_entries: usize,
    /// Whether the BTBP exists.
    pub btbp: bool,
    /// GPV depth in taken branches.
    pub gpv_depth: usize,
    /// Whether the PHT is the two-table TAGE design.
    pub tage: bool,
    /// Whether the perceptron exists.
    pub perceptron: bool,
    /// CTB entries.
    pub ctb_entries: usize,
    /// Whether the call/return stack exists.
    pub crs: bool,
    /// Whether the column predictor exists.
    pub cpred: bool,
    /// Whether SKOOT exists.
    pub skoot: bool,
    /// L1 instruction-cache size (KB).
    pub l1i_kb: u32,
    /// L2 instruction-cache size (KB).
    pub l2i_kb: u32,
    /// L3 cache size (MB, per chip).
    pub l3_mb: u32,
    /// L4 cache size (MB, per drawer).
    pub l4_mb: u32,
    /// Whether the cache/BTB sizes for this generation are
    /// public-literature approximations rather than paper-text values.
    pub cache_sizes_approx: bool,
}

fn base_direction(pht: PhtKind, perceptron: Option<PerceptronConfig>) -> DirectionConfig {
    DirectionConfig {
        pht,
        pht_tag_bits: 10,
        usefulness_max: 3,
        weak_filter_threshold: 4,
        weak_counter_max: 7,
        sbht_entries: 8,
        spht_entries: 8,
        perceptron,
    }
}

fn z15_perceptron() -> PerceptronConfig {
    PerceptronConfig {
        rows: 16,
        ways: 2,
        weights: 17,
        virtualization: 2,
        weight_max: 31,
        train_theta: 46, // ~1.93 * 17 weights + 14 (Jiménez–Lin)
        // Long enough for a fresh entry to learn before becoming a
        // victim candidate (the paper gives no value; a hard branch
        // needs a few dozen uninterrupted trainings).
        protection_limit: 16,
        usefulness_threshold: 4,
        usefulness_max: 15,
        virtualize_below: 2,
        virtualize_period: 64,
    }
}

/// The z15 configuration described throughout the paper.
pub fn z15_config() -> PredictorConfig {
    PredictorConfig {
        name: "z15".into(),
        btb1: Btb1Config { rows: 2048, ways: 8, tag_bits: 14, search_bytes: 64, search_ports: 1 },
        btb2: Some(Btb2Config {
            rows: 32 * 1024,
            ways: 4,
            tag_bits: 14,
            search_lines: 32,
            staging_capacity: 64,
            miss_trigger: 3,
            burst_trigger: 4,
            burst_window: 64,
            inclusion: InclusionPolicy::SemiInclusive,
            refresh_threshold: 4,
            transfer_latency: 12,
        }),
        btbp: None,
        gpv_depth: 17,
        direction: base_direction(
            PhtKind::Tage { rows_per_way: 512, short_history: 9, long_history: 17 },
            Some(z15_perceptron()),
        ),
        ctb: Some(CtbConfig { entries: 2048, history: 17, tag_bits: 12 }),
        crs: Some(CrsConfig::default()),
        cpred: Some(CpredConfig { entries: 1024, tag_bits: 10, with_skoot: true }),
        skoot: true,
        timing: TimingConfig::default(),
    }
}

/// The z14 configuration (approximated where the paper is silent):
/// 17-deep GPV, perceptron and CPRED present, single-table PHT, BTBP
/// staging buffer, 2×32B search ports, CTB indexed with 9-deep history.
pub fn z14_config() -> PredictorConfig {
    PredictorConfig {
        name: "z14".into(),
        btb1: Btb1Config { rows: 2048, ways: 4, tag_bits: 14, search_bytes: 32, search_ports: 2 },
        btb2: Some(Btb2Config {
            rows: 32 * 1024,
            ways: 4,
            tag_bits: 14,
            search_lines: 32,
            staging_capacity: 64,
            miss_trigger: 3,
            burst_trigger: 4,
            burst_window: 64,
            inclusion: InclusionPolicy::SemiExclusive,
            refresh_threshold: 0,
            transfer_latency: 12,
        }),
        btbp: Some(BtbpConfig { entries: 128 }),
        gpv_depth: 17,
        direction: base_direction(
            PhtKind::SingleTable { rows_per_way: 1024, history: 9 },
            Some(z15_perceptron()),
        ),
        ctb: Some(CtbConfig { entries: 2048, history: 9, tag_bits: 12 }),
        crs: Some(CrsConfig { amnesty_period: 0, ..CrsConfig::default() }),
        cpred: Some(CpredConfig { entries: 1024, tag_bits: 10, with_skoot: false }),
        skoot: false,
        timing: TimingConfig::default(),
    }
}

/// The z13 configuration (approximated): 9-deep GPV, no perceptron, no
/// CPRED, single-table PHT, BTBP.
pub fn z13_config() -> PredictorConfig {
    PredictorConfig {
        name: "z13".into(),
        btb1: Btb1Config { rows: 2048, ways: 4, tag_bits: 14, search_bytes: 32, search_ports: 2 },
        btb2: Some(Btb2Config {
            rows: 24 * 1024,
            ways: 4,
            tag_bits: 14,
            search_lines: 32,
            staging_capacity: 64,
            miss_trigger: 3,
            burst_trigger: 4,
            burst_window: 64,
            inclusion: InclusionPolicy::SemiExclusive,
            refresh_threshold: 0,
            transfer_latency: 12,
        }),
        btbp: Some(BtbpConfig { entries: 128 }),
        gpv_depth: 9,
        direction: base_direction(PhtKind::SingleTable { rows_per_way: 1024, history: 9 }, None),
        ctb: Some(CtbConfig { entries: 2048, history: 9, tag_bits: 12 }),
        crs: None,
        cpred: None,
        skoot: false,
        timing: TimingConfig::default(),
    }
}

/// The zEC12 configuration: the original multi-level design — 4K BTB1,
/// 24K BTB2, semi-exclusive, BTBP; 9-deep GPV, single PHT, CTB.
pub fn zec12_config() -> PredictorConfig {
    PredictorConfig {
        name: "zEC12".into(),
        btb1: Btb1Config { rows: 1024, ways: 4, tag_bits: 14, search_bytes: 32, search_ports: 2 },
        btb2: Some(Btb2Config {
            rows: 8 * 1024,
            ways: 3,
            tag_bits: 14,
            search_lines: 32,
            staging_capacity: 32,
            miss_trigger: 3,
            burst_trigger: 4,
            burst_window: 64,
            inclusion: InclusionPolicy::SemiExclusive,
            refresh_threshold: 0,
            transfer_latency: 16,
        }),
        btbp: Some(BtbpConfig { entries: 64 }),
        gpv_depth: 9,
        direction: DirectionConfig {
            sbht_entries: 8,
            spht_entries: 8,
            ..base_direction(PhtKind::SingleTable { rows_per_way: 512, history: 9 }, None)
        },
        ctb: Some(CtbConfig { entries: 1024, history: 9, tag_bits: 12 }),
        crs: None,
        cpred: None,
        skoot: false,
        timing: TimingConfig::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_presets_validate() {
        for p in GenerationPreset::ALL {
            let c = p.config();
            c.validate().unwrap_or_else(|e| panic!("{p}: {e}"));
        }
    }

    #[test]
    fn z15_capacities_match_paper() {
        let c = z15_config();
        assert_eq!(c.btb1.capacity(), 16 * 1024, "BTB1 holds up to 16K branches");
        assert_eq!(c.btb1.rows, 2048, "2K logical rows");
        assert_eq!(c.btb1.ways, 8, "8 ways per row");
        let b2 = c.btb2.as_ref().expect("z15 has a BTB2");
        assert_eq!(b2.capacity(), 128 * 1024, "BTB2 holds 128K branches");
        assert_eq!(b2.rows, 32 * 1024, "32K logical rows");
        assert_eq!(b2.ways, 4, "4 ways per row");
        assert_eq!(b2.search_lines * b2.ways, 128, "a BTB2 search can find up to 128 branches");
        assert!(c.btbp.is_none(), "the BTBP was removed on z15");
        assert_eq!(c.gpv_depth, 17);
        assert!(matches!(
            c.direction.pht,
            PhtKind::Tage { rows_per_way: 512, short_history: 9, long_history: 17 }
        ));
        let p = c.direction.perceptron.as_ref().expect("z15 has a perceptron");
        assert_eq!(p.rows * p.ways, 32, "32 perceptron entries");
        assert_eq!(p.weights, 17);
        assert_eq!(p.virtualization, 2, "2:1 virtualization maps 34 GPV bits to 17 weights");
        assert_eq!(c.ctb.as_ref().unwrap().entries, 2048);
        assert_eq!(c.ctb.as_ref().unwrap().history, 17, "z15 CTB uses the 17-deep GPV");
        assert!(c.skoot);
        assert_eq!(c.btb1.search_bytes, 64, "single port covering 64B");
        assert_eq!(c.btb1.search_ports, 1);
    }

    #[test]
    fn tage_capacity_is_8k() {
        let c = z15_config();
        if let PhtKind::Tage { rows_per_way, .. } = c.direction.pht {
            // Two tables, 512 rows per BTB1 way: 2 * 512 * 8 = 8K.
            assert_eq!(2 * rows_per_way * c.btb1.ways, 8 * 1024);
        } else {
            panic!("z15 must use TAGE");
        }
    }

    #[test]
    fn generation_evolution_is_monotone() {
        let infos: Vec<_> = GenerationPreset::ALL.iter().map(|p| p.info()).collect();
        for w in infos.windows(2) {
            assert!(
                w[0].btb1_entries + w[0].btb2_entries <= w[1].btb1_entries + w[1].btb2_entries,
                "combined BTB size grows generation to generation"
            );
            assert!(w[0].l2i_kb <= w[1].l2i_kb);
        }
        // Feature introduction points.
        assert!(!infos[1].perceptron && infos[2].perceptron, "perceptron arrives on z14");
        assert_eq!(infos[1].gpv_depth, 9);
        assert_eq!(infos[2].gpv_depth, 17, "GPV deepens on z14");
        assert!(!infos[2].tage && infos[3].tage, "TAGE arrives on z15");
        assert!(infos[2].btbp && !infos[3].btbp, "BTBP removed on z15");
        assert!(!infos[2].skoot && infos[3].skoot, "SKOOT arrives on z15");
        assert!(!infos[1].crs && infos[2].crs, "basic CRS arrives on z14");
    }

    #[test]
    fn zec12_matches_paper_text() {
        let c = zec12_config();
        assert_eq!(c.btb1.capacity(), 4 * 1024, "original 4K BTB1");
        assert_eq!(c.btb2.as_ref().unwrap().capacity(), 24 * 1024, "original 24K BTB2");
        assert_eq!(c.btb2.as_ref().unwrap().inclusion, InclusionPolicy::SemiExclusive);
        assert!(c.btbp.is_some());
    }

    #[test]
    fn storage_budget_is_nonzero_and_grows_by_generation() {
        let bits: Vec<u64> =
            GenerationPreset::ALL.iter().map(|p| p.config().storage_bits()).collect();
        assert!(bits.iter().all(|&b| b > 0));
        for w in bits.windows(2) {
            assert!(w[0] <= w[1], "modelled budget grows generation to generation: {bits:?}");
        }
        // The BTB2 dominates the budget; dropping it must shrink the
        // estimate, and the estimate is a pure function of the config.
        let mut c = z15_config();
        let full = c.storage_bits();
        c.btb2 = None;
        assert!(c.storage_bits() < full);
        assert_eq!(z15_config().storage_bits(), full);
    }

    #[test]
    fn taken_periods_match_section_iv() {
        let c = z15_config();
        assert_eq!(c.taken_period_no_cpred(false), 5, "taken branch every 5 cycles in ST");
        assert_eq!(c.taken_period_no_cpred(true), 6, "every 6 cycles in SMT2");
        assert_eq!(c.taken_period_cpred(), 2, "every 2 cycles with CPRED");
    }

    #[test]
    fn validation_rejects_inconsistencies() {
        let mut c = z15_config();
        c.btb1.rows = 1000;
        assert!(c.validate().is_err());

        let mut c = z15_config();
        c.skoot = false; // cpred.with_skoot still true
        assert!(c.validate().is_err());

        let mut c = z15_config();
        c.gpv_depth = 9; // TAGE long history 17 now exceeds GPV
        assert!(c.validate().is_err());

        let mut c = z14_config();
        c.btbp = None; // semi-exclusive without victim path
        assert!(c.validate().is_err());

        let err = {
            let mut c = z15_config();
            c.btb1.search_bytes = 128;
            c.validate().unwrap_err()
        };
        assert!(err.to_string().contains("search_bytes"));
    }

    #[test]
    fn validation_rejects_geometries_the_gpq_cannot_index() {
        let with_pht = |pht| {
            let mut c = z15_config();
            c.direction.pht = pht;
            c.validate()
        };
        let tage =
            |rows_per_way| PhtKind::Tage { rows_per_way, short_history: 9, long_history: 17 };
        let single = |rows_per_way| PhtKind::SingleTable { rows_per_way, history: 9 };
        // Row indices up to u32::MAX fit; one more doubling does not.
        assert!(with_pht(tage(1 << 32)).is_ok());
        assert!(with_pht(single(1 << 32)).is_ok());
        let err = with_pht(tage(1 << 33)).unwrap_err();
        assert!(err.to_string().contains("u32 row index"), "{err}");
        assert!(with_pht(single(1 << 33)).is_err());

        let with_perceptron = |rows, ways| {
            let mut c = z15_config();
            let p = c.direction.perceptron.as_mut().expect("z15 has a perceptron");
            p.rows = rows;
            p.ways = ways;
            c.validate()
        };
        assert!(with_perceptron(1 << 16, 1 << 16).is_ok());
        let err = with_perceptron(1 << 17, 2).unwrap_err();
        assert!(err.to_string().contains("u16 index"), "{err}");
        assert!(with_perceptron(16, (1 << 16) + 1).is_err());
    }

    #[test]
    fn display_names() {
        assert_eq!(GenerationPreset::Z15.to_string(), "z15");
        assert_eq!(GenerationPreset::ZEc12.to_string(), "zEC12");
    }
}
