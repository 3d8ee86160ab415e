//! The call/return-stack (CRS) heuristic target predictor.
//!
//! z/Architecture has no architected call/return instructions, so the
//! predictor *infers* call/return pairs from branch-to-target distance:
//! a taken branch that jumps far away is a call candidate, and a later
//! taken branch whose target lands at the candidate's next-sequential
//! instruction address (NSIA) plus a small offset (0/2/4/6/8 bytes)
//! behaves like its return (paper §VI, patent \[10\]).
//!
//! Both sides — completion-time *detection* and prediction-time
//! *prediction* — keep a one-entry stack.

#![expect(
    clippy::indexing_slicing,
    reason = "table geometries are fixed at construction and every index is masked or \
              bounds-derived from them; a panic here is a model bug worth failing loudly"
)]

use crate::config::CrsConfig;
use zbp_zarch::InstrAddr;

/// Statistics for the CRS.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CrsStats {
    /// Prediction-side stack pushes (call candidates).
    pub predict_pushes: u64,
    /// Targets provided from the prediction stack.
    pub provided: u64,
    /// Completion-side stack pushes.
    pub detect_pushes: u64,
    /// Return detections (NSIA+offset matches at completion).
    pub detections: u64,
    /// Branches blacklisted after a CRS wrong target.
    pub blacklists: u64,
    /// Blacklisted branches granted amnesty.
    pub amnesties: u64,
}

/// The call/return stack pair (predict-side + detect-side), one pair
/// per SMT thread (control flow is per-thread state).
#[derive(Debug, Clone)]
pub struct Crs {
    cfg: CrsConfig,
    /// Prediction-time stacks (per thread): NSIA of the most recent
    /// predicted-taken call candidate.
    predict_stack: [Option<InstrAddr>; 2],
    /// Completion-time stacks (per thread): NSIA of the most recent
    /// completed call candidate.
    detect_stack: [Option<InstrAddr>; 2],
    /// Counts completing wrong-target blacklisted branches for amnesty.
    amnesty_counter: u32,
    /// Statistics.
    pub stats: CrsStats,
}

impl Crs {
    /// Builds an empty CRS.
    pub fn new(cfg: &CrsConfig) -> Self {
        let mut c = Crs {
            cfg: cfg.clone(),
            predict_stack: [None; 2],
            detect_stack: [None; 2],
            amnesty_counter: 0,
            stats: CrsStats::default(),
        };
        c.power_on();
        c
    }

    /// Power-on state: both stacks empty on both threads (as after
    /// [`Crs::clear`]) and zeroed statistics.
    pub fn power_on(&mut self) {
        self.clear();
        self.stats = CrsStats::default();
    }

    /// Whether thread `t`'s prediction stack currently holds a valid
    /// NSIA.
    pub fn predict_stack_valid(&self, t: usize) -> bool {
        self.predict_stack[t].is_some()
    }

    /// Prediction side, step 1: if the branch is marked as a possible
    /// return (with `return_offset` from the BTB1) and the stack is
    /// valid, provides the target `NSIA + offset` and invalidates the
    /// stack.
    pub fn provide(&mut self, t: usize, return_offset: u8) -> Option<InstrAddr> {
        let nsia = self.predict_stack[t].take()?;
        self.stats.provided += 1;
        Some(nsia.offset_bytes(i64::from(return_offset)))
    }

    /// Prediction side, step 2: after any predicted-taken branch, push
    /// its NSIA if the branch-to-target distance exceeds the threshold.
    pub fn note_predicted_taken(
        &mut self,
        t: usize,
        branch: InstrAddr,
        target: InstrAddr,
        nsia: InstrAddr,
    ) {
        if branch.distance_bytes(target) > self.cfg.distance_threshold {
            self.predict_stack[t] = Some(nsia);
            self.stats.predict_pushes += 1;
        }
    }

    /// Completion side: processes a completed resolved-taken branch.
    /// Returns `Some(offset)` when the branch's target matched the
    /// detect-stack NSIA plus one of the configured offsets — the caller
    /// marks the branch as a possible return in the BTB1.
    ///
    /// Stack update rule: a far branch refreshes the stack (even while
    /// valid) *unless* its target matched the stack, in which case the
    /// stack is consumed (§VI).
    pub fn note_completed_taken(
        &mut self,
        t: usize,
        branch: InstrAddr,
        target: InstrAddr,
        nsia: InstrAddr,
    ) -> Option<u8> {
        if let Some(stack_nsia) = self.detect_stack[t] {
            for &off in &self.cfg.offsets {
                if target == stack_nsia.offset_bytes(off as i64) {
                    self.detect_stack[t] = None;
                    self.stats.detections += 1;
                    return Some(off as u8);
                }
            }
        }
        if branch.distance_bytes(target) > self.cfg.distance_threshold {
            self.detect_stack[t] = Some(nsia);
            self.stats.detect_pushes += 1;
        }
        None
    }

    /// Whether `target` currently matches thread `t`'s detect stack
    /// (used for the amnesty "still a successful call/return pair"
    /// check, without consuming the stack).
    pub fn detect_stack_matches(&self, t: usize, target: InstrAddr) -> bool {
        self.detect_stack[t].is_some_and(|nsia| {
            self.cfg.offsets.iter().any(|&off| target == nsia.offset_bytes(off as i64))
        })
    }

    /// Records a CRS wrong-target event (the caller blacklists the
    /// branch in the BTB1).
    pub fn note_blacklist(&mut self) {
        self.stats.blacklists += 1;
    }

    /// Processes a completing wrong-target branch that is blacklisted:
    /// every Nth such event grants amnesty, provided the branch still
    /// pairs successfully (caller passes that check's result). Returns
    /// whether the blacklist should be lifted.
    pub fn amnesty_due(&mut self, still_pairs: bool) -> bool {
        if self.cfg.amnesty_period == 0 {
            return false;
        }
        self.amnesty_counter += 1;
        if self.amnesty_counter >= self.cfg.amnesty_period {
            self.amnesty_counter = 0;
            if still_pairs {
                self.stats.amnesties += 1;
                return true;
            }
        }
        false
    }

    /// Flush on thread `t`: the prediction-side stack resynchronizes to
    /// empty (the completion-side stack is architected state and
    /// survives).
    pub fn flush(&mut self, t: usize) {
        self.predict_stack[t] = None;
    }

    /// Context change: both stacks on both threads describe the old
    /// address space and are dropped (unlike [`Crs::flush`], which keeps
    /// the architected detect side). Cumulative statistics survive.
    pub fn clear(&mut self) {
        self.predict_stack = [None; 2];
        self.detect_stack = [None; 2];
        self.amnesty_counter = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn crs() -> Crs {
        Crs::new(&CrsConfig::default())
    }

    #[test]
    fn near_branches_do_not_push() {
        let mut c = crs();
        c.note_predicted_taken(
            0,
            InstrAddr::new(0x1000),
            InstrAddr::new(0x1100),
            InstrAddr::new(0x1004),
        );
        assert!(!c.predict_stack_valid(0), "256B hop is below the 1KB threshold");
        assert_eq!(c.stats.predict_pushes, 0);
    }

    #[test]
    fn far_call_then_return_prediction() {
        let mut c = crs();
        // Call: 0x1000 -> 0x9000 (far), NSIA 0x1006.
        c.note_predicted_taken(
            0,
            InstrAddr::new(0x1000),
            InstrAddr::new(0x9000),
            InstrAddr::new(0x1006),
        );
        assert!(c.predict_stack_valid(0));
        // Return marked with offset 0: target = NSIA.
        assert_eq!(c.provide(0, 0), Some(InstrAddr::new(0x1006)));
        assert!(!c.predict_stack_valid(0), "providing invalidates the stack");
        assert_eq!(c.provide(0, 0), None, "one-entry stack is empty now");
    }

    #[test]
    fn return_offsets_apply() {
        let mut c = crs();
        c.note_predicted_taken(
            0,
            InstrAddr::new(0x1000),
            InstrAddr::new(0x9000),
            InstrAddr::new(0x1006),
        );
        assert_eq!(c.provide(0, 4), Some(InstrAddr::new(0x100a)));
    }

    #[test]
    fn detection_matches_nsia_plus_offsets() {
        let mut c = crs();
        // Completed call: far, NSIA 0x2006.
        assert_eq!(
            c.note_completed_taken(
                0,
                InstrAddr::new(0x2000),
                InstrAddr::new(0xa000),
                InstrAddr::new(0x2006)
            ),
            None
        );
        assert_eq!(c.stats.detect_pushes, 1);
        // Completed return into NSIA+6.
        let off = c.note_completed_taken(
            0,
            InstrAddr::new(0xa040),
            InstrAddr::new(0x200c),
            InstrAddr::new(0xa042),
        );
        assert_eq!(off, Some(6));
        assert_eq!(c.stats.detections, 1);
        // Stack invalidated by the match.
        let again = c.note_completed_taken(
            0,
            InstrAddr::new(0xa040),
            InstrAddr::new(0x200c),
            InstrAddr::new(0xa042),
        );
        assert_eq!(again, None);
    }

    #[test]
    fn far_branch_refreshes_detect_stack_unless_matching() {
        let mut c = crs();
        c.note_completed_taken(
            0,
            InstrAddr::new(0x2000),
            InstrAddr::new(0xa000),
            InstrAddr::new(0x2006),
        );
        // Another far call replaces the stack entry.
        c.note_completed_taken(
            0,
            InstrAddr::new(0xa100),
            InstrAddr::new(0x3_0000),
            InstrAddr::new(0xa104),
        );
        // Return to the *second* call's NSIA matches; the first is gone.
        assert_eq!(
            c.note_completed_taken(
                0,
                InstrAddr::new(0x3_0020),
                InstrAddr::new(0xa104),
                InstrAddr::new(0x3_0022)
            ),
            Some(0)
        );
    }

    #[test]
    fn match_consumes_rather_than_repushes() {
        let mut c = crs();
        c.note_completed_taken(
            0,
            InstrAddr::new(0x2000),
            InstrAddr::new(0xa000),
            InstrAddr::new(0x2006),
        );
        // A far branch whose target matches the stack is a return, not a
        // new call: stack is consumed, not refreshed.
        let off = c.note_completed_taken(
            0,
            InstrAddr::new(0xa100),
            InstrAddr::new(0x2006),
            InstrAddr::new(0xa102),
        );
        assert_eq!(off, Some(0));
        assert_eq!(c.stats.detect_pushes, 1, "no refresh on a match");
    }

    #[test]
    fn amnesty_every_nth_with_successful_pairing() {
        let mut c = Crs::new(&CrsConfig { amnesty_period: 3, ..CrsConfig::default() });
        c.note_blacklist();
        assert!(!c.amnesty_due(true));
        assert!(!c.amnesty_due(true));
        assert!(c.amnesty_due(true), "third event grants amnesty");
        assert_eq!(c.stats.amnesties, 1);
        // Without successful pairing, no amnesty even on the Nth event.
        assert!(!c.amnesty_due(false));
        assert!(!c.amnesty_due(false));
        assert!(!c.amnesty_due(false));
        assert_eq!(c.stats.amnesties, 1);
    }

    #[test]
    fn amnesty_disabled_when_period_zero() {
        let mut c = Crs::new(&CrsConfig { amnesty_period: 0, ..CrsConfig::default() });
        for _ in 0..10 {
            assert!(!c.amnesty_due(true), "z14-style CRS has no amnesty");
        }
    }

    #[test]
    fn detect_stack_match_probe_is_nonconsuming() {
        let mut c = crs();
        c.note_completed_taken(
            0,
            InstrAddr::new(0x2000),
            InstrAddr::new(0xa000),
            InstrAddr::new(0x2006),
        );
        assert!(c.detect_stack_matches(0, InstrAddr::new(0x2006)));
        assert!(c.detect_stack_matches(0, InstrAddr::new(0x2008)));
        assert!(!c.detect_stack_matches(0, InstrAddr::new(0x2010)));
        assert!(c.detect_stack_matches(0, InstrAddr::new(0x2006)), "probe does not consume");
    }

    #[test]
    fn flush_clears_predict_side_only() {
        let mut c = crs();
        c.note_predicted_taken(
            0,
            InstrAddr::new(0x1000),
            InstrAddr::new(0x9000),
            InstrAddr::new(0x1006),
        );
        c.note_completed_taken(
            0,
            InstrAddr::new(0x1000),
            InstrAddr::new(0x9000),
            InstrAddr::new(0x1006),
        );
        c.flush(0);
        assert!(!c.predict_stack_valid(0));
        assert!(c.detect_stack_matches(0, InstrAddr::new(0x1006)), "architected side survives");
    }
}
