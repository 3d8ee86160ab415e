//! Predictor traits and the prediction/outcome protocol.

use crate::branch::{BranchRecord, ThreadId};
use std::fmt;
use zbp_zarch::{static_guess, BranchClass, Direction, InstrAddr};

/// The answer a predictor gives for one branch before its outcome is
/// known.
///
/// `dynamic` distinguishes a BTB-backed ("dynamically predicted") answer
/// from a *surprise branch* whose direction is only the opcode-based
/// static guess applied at decode (paper §IV). Surprise relative
/// branches still reach the right target (the front end computes it from
/// instruction text); surprise **indirect** taken branches have no
/// target until the execution units produce one, which the timing model
/// charges as a front-end stall rather than a misprediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prediction {
    /// Whether this was a dynamic (BTB-hit) prediction, as opposed to a
    /// surprise branch with only a static guess.
    pub dynamic: bool,
    /// Predicted direction.
    pub direction: Direction,
    /// Predicted target, if the predictor can supply one. `None` for
    /// surprise indirect branches and for predicted-not-taken answers
    /// from predictors that do not track targets.
    pub target: Option<InstrAddr>,
}

impl Prediction {
    /// The static-guess prediction a surprise branch of `class` receives,
    /// with the relative-branch target filled in when the front end can
    /// compute it from instruction text.
    pub fn surprise(class: BranchClass, relative_target: Option<InstrAddr>) -> Self {
        let direction = static_guess(class);
        let target =
            if direction.is_taken() && !class.is_indirect() { relative_target } else { None };
        Prediction { dynamic: false, direction, target }
    }

    /// A dynamic taken prediction to `target`.
    pub fn taken(target: InstrAddr) -> Self {
        Prediction { dynamic: true, direction: Direction::Taken, target: Some(target) }
    }

    /// A dynamic not-taken prediction.
    pub fn not_taken() -> Self {
        Prediction { dynamic: true, direction: Direction::NotTaken, target: None }
    }

    /// Whether the predicted direction is taken.
    pub fn is_taken(&self) -> bool {
        self.direction.is_taken()
    }
}

/// How a prediction turned out to be wrong.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MispredictKind {
    /// The predicted (or statically guessed) direction was wrong. Costs
    /// a full pipeline restart (~26 cycles architecturally, ~35
    /// statistically per paper §II.D).
    Direction,
    /// Direction was correctly taken but the supplied target was wrong.
    /// Same restart cost as a wrong direction.
    Target,
}

impl MispredictKind {
    /// Classifies a prediction against the resolved outcome.
    ///
    /// Returns `None` when the branch was handled without a pipeline
    /// restart: correct direction and (if taken) correct-or-absent
    /// target. An absent target on a *taken* branch is not counted as a
    /// misprediction here — dynamic predictions always carry targets, and
    /// surprise branches either compute the target at decode (relative)
    /// or stall for it (indirect); both are timing costs, not restarts
    /// due to wrong information.
    ///
    /// # Example
    ///
    /// ```
    /// use zbp_model::{BranchRecord, MispredictKind, Prediction};
    /// use zbp_zarch::{InstrAddr, Mnemonic};
    ///
    /// let rec = BranchRecord::new(
    ///     InstrAddr::new(0x1000), Mnemonic::Brc, true, InstrAddr::new(0x2000));
    /// let wrong_dir = Prediction::not_taken();
    /// assert_eq!(MispredictKind::classify(&wrong_dir, &rec), Some(MispredictKind::Direction));
    /// let wrong_tgt = Prediction::taken(InstrAddr::new(0x3000));
    /// assert_eq!(MispredictKind::classify(&wrong_tgt, &rec), Some(MispredictKind::Target));
    /// let right = Prediction::taken(InstrAddr::new(0x2000));
    /// assert_eq!(MispredictKind::classify(&right, &rec), None);
    /// ```
    pub fn classify(pred: &Prediction, rec: &BranchRecord) -> Option<MispredictKind> {
        if pred.direction != rec.direction() {
            return Some(MispredictKind::Direction);
        }
        if rec.taken {
            if let Some(t) = pred.target {
                if t != rec.target {
                    return Some(MispredictKind::Target);
                }
            }
        }
        None
    }
}

impl fmt::Display for MispredictKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            MispredictKind::Direction => "wrong-direction",
            MispredictKind::Target => "wrong-target",
        })
    }
}

/// A direction-only predictor (the interface of the academic baselines:
/// bimodal, gshare, perceptron, TAGE, …).
///
/// Implementations update speculative history (if any) in
/// [`predict_direction`](Self::predict_direction) and do all training in
/// [`update`](Self::update).
pub trait DirectionPredictor {
    /// Predicts the direction of the branch at `addr`.
    fn predict_direction(&mut self, addr: InstrAddr, class: BranchClass) -> Direction;

    /// Trains on the resolved outcome. Called once per branch, in retire
    /// order.
    fn update(&mut self, rec: &BranchRecord);

    /// A short human-readable name for reports (e.g. `"gshare-64K"`).
    fn name(&self) -> String;

    /// Approximate storage cost in bits, for iso-storage comparisons.
    fn storage_bits(&self) -> u64;
}

/// A target-only predictor interface (BTB-style structures).
pub trait TargetPredictor {
    /// Predicts the target of a (presumed taken) branch at `addr`, if
    /// this structure has one.
    fn predict_target(&mut self, addr: InstrAddr) -> Option<InstrAddr>;

    /// Trains on the resolved outcome.
    fn update_target(&mut self, rec: &BranchRecord);

    /// Approximate modelled hardware state in bits (0 when the structure
    /// has no modelled budget).
    fn storage_bits(&self) -> u64 {
        0
    }
}

/// The unified predictor contract — the one surface every predictor in
/// the workspace speaks, modelled on the CBP simulator wrapper
/// (`get_prediction`/`update_predictor`): detect the branch (BTB hit vs
/// surprise), predict direction and target, train at resolution.
///
/// `ZPredictor`, `BtbComposite`, and (through a blanket impl) every
/// [`DirectionPredictor`] baseline implement it, so any of them drops
/// into the experiment engine, the arena tournament, the verification
/// harness, or a serve shard without an adapter.
pub trait Predictor {
    /// Predicts the branch at `addr`. Called in program order, before the
    /// outcome is known. May update speculative state.
    ///
    /// `class` is available because the harness replays retired
    /// instructions that decode provides the class for; a BTB-miss
    /// (surprise) answer must use only the static guess derived from it.
    fn predict(&mut self, addr: InstrAddr, class: BranchClass) -> Prediction;

    /// Resolves the branch: non-speculative training with the resolved
    /// record and the prediction that was made for it. Called in retire
    /// order, possibly many branches after the corresponding `predict` —
    /// the z15 trains at instruction completion from the GPQ and GCT.
    fn resolve(&mut self, rec: &BranchRecord, pred: &Prediction);

    /// Signals a pipeline flush at the given branch (e.g. after a
    /// misprediction): speculative state younger than the flushed branch
    /// must be discarded and histories restored. The default is a no-op
    /// for predictors without speculative state.
    fn flush(&mut self, _rec: &BranchRecord) {}

    /// A short human-readable name for reports.
    fn name(&self) -> String;

    /// Approximate modelled hardware state in bits, for iso-storage and
    /// size-normalized comparisons. The default of `0` is for predictors
    /// without a modelled budget (oracles, test doubles, the static
    /// guesser); report generators render it as "no hardware".
    fn storage_bits(&self) -> u64 {
        0
    }

    /// SMT-aware variant of [`predict`](Self::predict). Predictors that
    /// share structures between hardware threads (the z15 is SMT2)
    /// override this; the default ignores the thread.
    fn predict_on(&mut self, _thread: ThreadId, addr: InstrAddr, class: BranchClass) -> Prediction {
        self.predict(addr, class)
    }

    /// SMT-aware variant of [`resolve`](Self::resolve).
    fn resolve_on(&mut self, _thread: ThreadId, rec: &BranchRecord, pred: &Prediction) {
        self.resolve(rec, pred)
    }

    /// SMT-aware variant of [`flush`](Self::flush): only the given
    /// thread's speculative state is repaired.
    fn flush_on(&mut self, _thread: ThreadId, rec: &BranchRecord) {
        self.flush(rec)
    }
}

/// Every direction-only baseline plays the full protocol with
/// direction-only semantics: answers are always "dynamic" (the baseline
/// has no BTB, so every branch is covered), carry no target, and train
/// once per resolved branch. Wrong-target restarts therefore cannot
/// occur; wrap the baseline in a `BtbComposite` for an end-to-end
/// (direction *and* target) comparison.
impl<P: DirectionPredictor + ?Sized> Predictor for P {
    fn predict(&mut self, addr: InstrAddr, class: BranchClass) -> Prediction {
        if self.predict_direction(addr, class).is_taken() {
            Prediction { dynamic: true, direction: Direction::Taken, target: None }
        } else {
            Prediction::not_taken()
        }
    }

    fn resolve(&mut self, rec: &BranchRecord, _pred: &Prediction) {
        self.update(rec);
    }

    fn name(&self) -> String {
        DirectionPredictor::name(self)
    }

    fn storage_bits(&self) -> u64 {
        DirectionPredictor::storage_bits(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zbp_zarch::Mnemonic;

    fn rec(mn: Mnemonic, taken: bool, target: u64) -> BranchRecord {
        BranchRecord::new(InstrAddr::new(0x1000), mn, taken, InstrAddr::new(target))
    }

    #[test]
    fn surprise_conditional_guesses_not_taken() {
        let p = Prediction::surprise(BranchClass::CondRelative, Some(InstrAddr::new(0x2000)));
        assert!(!p.dynamic);
        assert_eq!(p.direction, Direction::NotTaken);
        assert_eq!(p.target, None, "not-taken guesses carry no target");
    }

    #[test]
    fn surprise_uncond_relative_has_decode_computed_target() {
        let p = Prediction::surprise(BranchClass::UncondRelative, Some(InstrAddr::new(0x2000)));
        assert_eq!(p.direction, Direction::Taken);
        assert_eq!(p.target, Some(InstrAddr::new(0x2000)));
    }

    #[test]
    fn surprise_uncond_indirect_has_no_target() {
        // "For statically guessed taken indirect branches, the front end
        // shuts down and waits for the target address to be computed."
        let p = Prediction::surprise(BranchClass::UncondIndirect, None);
        assert_eq!(p.direction, Direction::Taken);
        assert_eq!(p.target, None);
    }

    #[test]
    fn classify_correct_not_taken() {
        let p = Prediction::not_taken();
        assert_eq!(MispredictKind::classify(&p, &rec(Mnemonic::Brc, false, 0x2000)), None);
    }

    #[test]
    fn classify_direction_beats_target() {
        // Wrong direction reported even if the (stale) target also differs.
        let p = Prediction::taken(InstrAddr::new(0x3000));
        assert_eq!(
            MispredictKind::classify(&p, &rec(Mnemonic::Brc, false, 0x2000)),
            Some(MispredictKind::Direction)
        );
    }

    #[test]
    fn classify_taken_without_target_is_not_a_restart() {
        let p = Prediction::surprise(BranchClass::UncondIndirect, None);
        assert_eq!(MispredictKind::classify(&p, &rec(Mnemonic::Br, true, 0x4000)), None);
    }

    #[test]
    fn classify_wrong_target() {
        let p = Prediction::taken(InstrAddr::new(0x9999));
        assert_eq!(
            MispredictKind::classify(&p, &rec(Mnemonic::Br, true, 0x4000)),
            Some(MispredictKind::Target)
        );
    }

    #[test]
    fn display_names() {
        assert_eq!(MispredictKind::Direction.to_string(), "wrong-direction");
        assert_eq!(MispredictKind::Target.to_string(), "wrong-target");
    }

    /// A two-line direction baseline exercising the blanket impl.
    struct AlwaysTaken;
    impl DirectionPredictor for AlwaysTaken {
        fn predict_direction(&mut self, _a: InstrAddr, _c: BranchClass) -> Direction {
            Direction::Taken
        }
        fn update(&mut self, _rec: &BranchRecord) {}
        fn name(&self) -> String {
            "always-taken".into()
        }
        fn storage_bits(&self) -> u64 {
            7
        }
    }

    #[test]
    fn direction_predictors_play_the_full_protocol() {
        let mut p = AlwaysTaken;
        let got = Predictor::predict(&mut p, InstrAddr::new(0x1000), BranchClass::CondRelative);
        assert!(got.dynamic, "direction baselines cover every branch");
        assert_eq!(got.direction, Direction::Taken);
        assert_eq!(got.target, None, "direction-only answers carry no target");
        // Taken with no target is never a wrong-target restart.
        assert_eq!(MispredictKind::classify(&got, &rec(Mnemonic::Brc, true, 0x2000)), None);
        p.resolve(&rec(Mnemonic::Brc, true, 0x2000), &got);
        assert_eq!(Predictor::name(&p), "always-taken");
        assert_eq!(Predictor::storage_bits(&p), 7, "forwards the direction-level budget");
    }

    #[test]
    fn dyn_direction_objects_are_predictors_too() {
        let mut boxed: Box<dyn DirectionPredictor + Send> = Box::new(AlwaysTaken);
        let p: &mut (dyn DirectionPredictor + Send) = boxed.as_mut();
        let got = Predictor::predict(p, InstrAddr::new(0x40), BranchClass::CondRelative);
        assert!(got.is_taken());
    }
}
