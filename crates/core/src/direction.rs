//! Direction-provider taxonomy (figure 8).
//!
//! The selection algorithm itself lives in
//! [`ZPredictor`](crate::predictor::ZPredictor); this module defines the
//! provider labels and the decision record that flows through the GPQ so
//! completion-time usefulness updates can attribute correctness to the
//! structure that actually provided the direction.

use crate::tage::{PhtHit, PhtLookup};
use crate::util::TwoBit;
use std::fmt;
use zbp_zarch::Direction;

/// Which structure provided the direction prediction (figure 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DirectionProvider {
    /// The branch is marked unconditional in the BTB1: always taken.
    Unconditional,
    /// The BHT 2-bit counter in the BTB1.
    Bht,
    /// The speculative BHT override.
    Sbht,
    /// The short TAGE PHT table (also the single-table PHT on pre-z15
    /// configurations).
    TageShort,
    /// The long TAGE PHT table.
    TageLong,
    /// The speculative PHT override.
    Spht,
    /// The perceptron.
    Perceptron,
    /// No dynamic prediction: opcode-based static guess (surprise
    /// branch).
    StaticGuess,
}

impl DirectionProvider {
    /// All providers, in figure-8 priority order.
    pub const ALL: [DirectionProvider; 8] = [
        DirectionProvider::Unconditional,
        DirectionProvider::Perceptron,
        DirectionProvider::Spht,
        DirectionProvider::TageShort,
        DirectionProvider::TageLong,
        DirectionProvider::Sbht,
        DirectionProvider::Bht,
        DirectionProvider::StaticGuess,
    ];
}

impl fmt::Display for DirectionProvider {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DirectionProvider::Unconditional => "uncond",
            DirectionProvider::Bht => "BHT",
            DirectionProvider::Sbht => "SBHT",
            DirectionProvider::TageShort => "TAGE-short",
            DirectionProvider::TageLong => "TAGE-long",
            DirectionProvider::Spht => "SPHT",
            DirectionProvider::Perceptron => "perceptron",
            DirectionProvider::StaticGuess => "static",
        })
    }
}

/// The full direction decision for one predicted branch, kept in the
/// GPQ until completion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DirectionDecision {
    /// The predicted direction.
    pub dir: Direction,
    /// Who provided it.
    pub provider: DirectionProvider,
    /// The alternate prediction — what would have been selected in the
    /// absence of the provider (§V: "The GPQ also stores the alternate
    /// prediction").
    pub alt_dir: Direction,
    /// The perceptron's opinion, tracked even when it is not (yet) the
    /// provider, for its usefulness accrual.
    pub perceptron_dir: Option<Direction>,
    /// Perceptron hit location `(row, way)`, if any, stored narrow
    /// ([`PredictorConfig::validate`] bounds the perceptron's `rows`
    /// and `ways` to `u16`).
    ///
    /// [`PredictorConfig::validate`]: crate::config::PredictorConfig::validate
    pub perceptron_slot: Option<(u16, u16)>,
    /// The raw PHT lookup (for completion-time training).
    pub pht_lookup: PhtLookup,
    /// The PHT hit that provided, when provider is a TAGE table.
    pub pht_provider: Option<PhtHit>,
    /// The BHT direction at prediction time (the deepest fallback).
    pub bht_dir: Direction,
    /// The BHT counter state read at prediction time. The completion
    /// write-back trains *this snapshot*, not the live array value —
    /// hardware cannot read-modify-write the array at completion, which
    /// is exactly the §IV staleness the SBHT compensates for.
    pub bht_snapshot: TwoBit,
}

// Moved with every GPQ entry push and pop; see PERFORMANCE.md, "Where a
// served Feed's time goes".
const _: () = assert!(std::mem::size_of::<DirectionDecision>() <= 40);

impl DirectionDecision {
    /// A static-guess decision for a surprise branch.
    pub fn surprise(guess: Direction) -> Self {
        DirectionDecision {
            dir: guess,
            provider: DirectionProvider::StaticGuess,
            alt_dir: guess,
            perceptron_dir: None,
            perceptron_slot: None,
            pht_lookup: PhtLookup::default(),
            pht_provider: None,
            bht_dir: guess,
            bht_snapshot: TwoBit::weak(guess),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn provider_labels_are_distinct() {
        let mut names = std::collections::HashSet::new();
        for p in DirectionProvider::ALL {
            assert!(names.insert(p.to_string()), "duplicate label {p}");
        }
        assert_eq!(names.len(), 8);
    }

    #[test]
    fn surprise_decision_is_self_consistent() {
        let d = DirectionDecision::surprise(Direction::NotTaken);
        assert_eq!(d.provider, DirectionProvider::StaticGuess);
        assert_eq!(d.dir, d.alt_dir);
        assert_eq!(d.perceptron_dir, None);
        assert_eq!(d.pht_provider, None);
    }
}
