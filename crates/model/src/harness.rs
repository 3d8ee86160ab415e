//! The delayed-update run harness.

use crate::branch::BranchRecord;
use crate::metrics::MispredictStats;
use crate::predictor::{MispredictKind, Prediction, Predictor};
use crate::profile::BranchTable;
use std::collections::VecDeque;
use zbp_telemetry::{Telemetry, Track};

/// The streaming core of the delayed-update replay protocol: feed
/// [`BranchRecord`]s one at a time with [`ReplayCore::step`], then
/// [`ReplayCore::finish`] to drain the window and account the
/// straight-line tail.
///
/// On the z15 "there is a large gap in time between when branches are
/// predicted and when they are updated" (paper §IV): predictions are
/// queued in the GPQ and training happens only at instruction completion.
/// The core models that gap as a FIFO of `depth` in-flight branches:
/// a branch's [`Predictor::resolve`] is only called once `depth`
/// younger branches have been predicted. A depth of 0 degenerates to
/// immediate update (the idealization most academic simulators use).
///
/// When a misprediction is detected the pipeline would flush; the core
/// models this by draining the in-flight window (completing the
/// mispredicted branch and everything older *immediately*) and calling
/// [`Predictor::flush`] so the predictor can repair speculative
/// history. This matches the hardware, where a branch-wrong restart
/// resynchronizes the BPL with architected state.
///
/// Because the window is explicit state (not a loop local), a caller
/// can interleave many concurrently-open streams, each with its own
/// `ReplayCore` and predictor — this is what `zbp_serve::Session` and
/// its shard pool are built on. Whole-trace replay is a thin wrapper:
/// see [`ReplayCore::replay`] and `zbp_serve::Session`.
///
/// # Example
///
/// ```
/// use zbp_model::{DynamicTrace, Prediction, Predictor, ReplayCore};
/// use zbp_telemetry::Telemetry;
/// use zbp_zarch::{static_guess, BranchClass, InstrAddr};
///
/// /// A predictor that always applies the static guess.
/// struct StaticOnly;
/// impl Predictor for StaticOnly {
///     fn predict(&mut self, _a: InstrAddr, class: BranchClass) -> Prediction {
///         Prediction::surprise(class, None)
///     }
///     fn resolve(&mut self, _r: &zbp_model::BranchRecord, _p: &Prediction) {}
///     fn name(&self) -> String { "static-only".into() }
/// }
///
/// let trace = DynamicTrace::new("empty");
/// let mut core = ReplayCore::new(32);
/// let mut tel = Telemetry::disabled();
/// let mut pred = StaticOnly;
/// for rec in trace.branches() {
///     core.step(&mut pred, rec, &mut tel);
/// }
/// let out = core.finish(&mut pred, trace.tail_instrs());
/// assert_eq!(out.stats.branches.get(), 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ReplayCore {
    depth: usize,
    inflight: VecDeque<(BranchRecord, Prediction)>,
    out: RunStats,
    branch_idx: u64,
    warmup_left: u64,
}

/// The result of one replay run.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Misprediction accounting.
    pub stats: MispredictStats,
    /// Number of flush events delivered to the predictor.
    pub flushes: u64,
    /// Per-static-branch profile, when profiling was enabled with
    /// [`ReplayCore::set_profiling`].
    pub profile: Option<BranchTable>,
}

impl ReplayCore {
    /// Creates a replay core with the given in-flight window depth.
    pub fn new(depth: usize) -> Self {
        ReplayCore { depth, inflight: VecDeque::with_capacity(depth + 1), ..Self::default() }
    }

    /// Enables (or disables) per-static-branch profiling: with it on,
    /// every classified prediction also lands in a [`BranchTable`]
    /// returned through [`RunStats::profile`]. Profiling only observes —
    /// statistics are identical with it on or off. Call before feeding
    /// records; toggling mid-stream profiles only the remainder.
    pub fn set_profiling(&mut self, on: bool) {
        if on {
            self.out.profile.get_or_insert_with(BranchTable::new);
        } else {
            self.out.profile = None;
        }
    }

    /// Builder form of [`set_profiling`](Self::set_profiling).
    pub fn with_profiling(mut self) -> Self {
        self.set_profiling(true);
        self
    }

    /// Declares the next `records` fed records as *warmup*: they run
    /// the full predict/resolve/flush protocol — predictor state
    /// evolves exactly as in a live replay — but nothing lands in the
    /// statistics, flush count, profile, or harness telemetry. This is
    /// the slice-window mechanism SimPoint-style weighted replay needs:
    /// a slice's measured window starts from a trained predictor
    /// without charging the training to the result.
    ///
    /// Call before feeding; calling mid-stream marks the *next*
    /// `records` as warmup. Warmup records still count toward
    /// [`branches_fed`](Self::branches_fed).
    pub fn set_warmup(&mut self, records: u64) {
        self.warmup_left = records;
    }

    /// Builder form of [`set_warmup`](Self::set_warmup).
    #[must_use]
    pub fn with_warmup(mut self, records: u64) -> Self {
        self.set_warmup(records);
        self
    }

    /// Warmup records still pending (0 once measurement has begun).
    pub fn warmup_remaining(&self) -> u64 {
        self.warmup_left
    }

    /// The configured in-flight depth.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Number of branch records fed so far.
    pub fn branches_fed(&self) -> u64 {
        self.branch_idx
    }

    /// Statistics accumulated so far (the final numbers come from
    /// [`ReplayCore::finish`], which also accounts the trace tail).
    pub fn stats_so_far(&self) -> &RunStats {
        &self.out
    }

    /// Feeds one branch record: predicts, queues the in-flight entry,
    /// and completes whatever retires — the whole window on a
    /// mispredict-triggered restart, or the overflow beyond `depth`
    /// otherwise. Harness-level telemetry (window occupancy, flush
    /// markers, branch/flush counters) records into `tel`; statistics
    /// are identical whether telemetry is enabled or disabled.
    pub fn step<P: Predictor + ?Sized>(
        &mut self,
        pred: &mut P,
        rec: &BranchRecord,
        tel: &mut Telemetry,
    ) {
        let p = pred.predict_on(rec.thread, rec.addr, rec.class());
        let warming = self.warmup_left > 0;
        let kind = if warming {
            // Warmup: classify (the flush path below must stay
            // faithful) but record nothing.
            self.warmup_left -= 1;
            MispredictKind::classify(&p, rec)
        } else {
            let kind = self.out.stats.record(&p, rec);
            if let Some(table) = &mut self.out.profile {
                table.observe(rec, kind);
            }
            kind
        };
        self.inflight.push_back((*rec, p));
        if !warming {
            tel.count("harness.branches", 1);
            tel.record("harness.window_occupancy", self.inflight.len() as u64);
        }

        if kind.is_some() {
            // Branch-wrong restart: everything up to and including
            // the mispredicted branch completes, the predictor
            // repairs speculative state.
            if !warming {
                tel.count("harness.flushes", 1);
                tel.instant(Track::Harness, "flush", self.branch_idx);
                self.out.flushes += 1;
            }
            while let Some((r, pr)) = self.inflight.pop_front() {
                pred.resolve_on(r.thread, &r, &pr);
            }
            pred.flush_on(rec.thread, rec);
        } else {
            while self.inflight.len() > self.depth {
                let (r, pr) = self.inflight.pop_front().expect("non-empty");
                pred.resolve_on(r.thread, &r, &pr);
            }
        }
        self.branch_idx += 1;
    }

    /// End of stream: drains the in-flight window and adds the
    /// straight-line `tail_instrs` after the final branch, returning the
    /// completed statistics.
    ///
    /// Instruction accounting is split exactly once:
    /// [`MispredictStats::record`] already counted `1 + gap_instrs` per
    /// branch, so the finish step adds only the tail. (An earlier
    /// version re-derived the remainder from the trace's
    /// `instruction_count()`, which silently absorbed any
    /// double-counting bug on either side; the strict split keeps both
    /// honest.)
    pub fn finish<P: Predictor + ?Sized>(mut self, pred: &mut P, tail_instrs: u64) -> RunStats {
        while let Some((r, pr)) = self.inflight.pop_front() {
            pred.resolve_on(r.thread, &r, &pr);
        }
        self.out.stats.add_instructions(tail_instrs);
        self.out
    }

    /// Replays a whole trace through a fresh core with telemetry
    /// disabled — the one-call form of [`ReplayCore::step`] +
    /// [`ReplayCore::finish`] for driving *custom* [`Predictor`]
    /// implementations. For `ZPredictor` streams, prefer
    /// `zbp_serve::Session`.
    pub fn replay<P: Predictor + ?Sized>(
        depth: usize,
        pred: &mut P,
        trace: &crate::DynamicTrace,
    ) -> RunStats {
        let mut tel = Telemetry::disabled();
        let mut core = ReplayCore::new(depth);
        for rec in trace.branches() {
            core.step(pred, rec, &mut tel);
        }
        core.finish(pred, trace.tail_instrs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DynamicTrace;
    use zbp_zarch::{BranchClass, Direction, InstrAddr, Mnemonic};

    /// Test predictor: predicts the last *completed* direction for each
    /// address (so update delay is observable), starting from not-taken.
    #[derive(Default)]
    struct LastCompleted {
        map: std::collections::HashMap<u64, bool>,
        completions: Vec<u64>,
        flushes: u64,
    }

    impl Predictor for LastCompleted {
        fn predict(&mut self, addr: InstrAddr, _class: BranchClass) -> Prediction {
            if *self.map.get(&addr.raw()).unwrap_or(&false) {
                // Target-less taken prediction is fine for these tests.
                Prediction { dynamic: true, direction: Direction::Taken, target: None }
            } else {
                Prediction::not_taken()
            }
        }

        fn resolve(&mut self, rec: &BranchRecord, _pred: &Prediction) {
            self.map.insert(rec.addr.raw(), rec.taken);
            self.completions.push(rec.addr.raw());
        }

        fn flush(&mut self, _rec: &BranchRecord) {
            self.flushes += 1;
        }

        fn name(&self) -> String {
            "last-completed".into()
        }
    }

    fn taken_at(addr: u64) -> BranchRecord {
        BranchRecord::new(InstrAddr::new(addr), Mnemonic::Brc, true, InstrAddr::new(addr + 0x100))
    }

    #[test]
    fn immediate_harness_updates_before_next_predict() {
        let trace =
            DynamicTrace::from_records("t", vec![taken_at(0x10), taken_at(0x10), taken_at(0x10)]);
        let mut p = LastCompleted::default();
        let out = ReplayCore::replay(0, &mut p, &trace);
        // First prediction is NT (mispredict); after completing it, the
        // second and third predict taken (and taken with no target is
        // correct-direction, no target check since target is None).
        assert_eq!(out.stats.mispredictions(), 1);
        assert_eq!(p.completions.len(), 3);
    }

    #[test]
    fn deep_window_delays_training_but_flush_drains() {
        let trace = DynamicTrace::from_records(
            "t",
            vec![taken_at(0x10), taken_at(0x10), taken_at(0x10), taken_at(0x10)],
        );
        let mut p = LastCompleted::default();
        let out = ReplayCore::replay(16, &mut p, &trace);
        // First branch mispredicts (NT guess), which flushes/drains, so
        // training happens immediately after all; subsequent predicts are
        // correct. Exactly one flush.
        assert_eq!(out.flushes, 1);
        assert_eq!(p.flushes, 1);
        assert_eq!(out.stats.mispredictions(), 1);
        assert_eq!(p.completions.len(), 4, "trace end drains the window");
    }

    #[test]
    fn delay_without_mispredicts_defers_completion_order() {
        // All not-taken branches, predictor guesses NT: no flushes; with
        // depth 2 the completions trail predictions by 2.
        let recs: Vec<BranchRecord> = (0..5)
            .map(|i| {
                BranchRecord::new(
                    InstrAddr::new(0x100 + i * 0x10),
                    Mnemonic::Brc,
                    false,
                    InstrAddr::new(0x9000),
                )
            })
            .collect();
        let trace = DynamicTrace::from_records("t", recs);
        let mut p = LastCompleted::default();
        let out = ReplayCore::replay(2, &mut p, &trace);
        assert_eq!(out.flushes, 0);
        assert_eq!(p.completions.len(), 5);
        // Completions happen in retire order regardless of delay.
        assert!(p.completions.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn instruction_count_matches_trace_exactly() {
        let mut trace = DynamicTrace::new("t");
        trace.push(taken_at(0x10).with_gap(9));
        trace.push_tail_instrs(90);
        let mut p = LastCompleted::default();
        let out = ReplayCore::replay(0, &mut p, &trace);
        assert_eq!(out.stats.instructions.get(), trace.instruction_count());
    }

    #[test]
    fn tail_instructions_are_counted_once_regardless_of_depth() {
        // Regression for the old end-of-run accounting hack, which
        // back-filled `instruction_count() - counted` and so masked any
        // mismatch between record() and the trace: with the explicit
        // split, branch gaps and the tail must each land exactly once,
        // at every window depth (the flush path drains differently).
        let mut trace = DynamicTrace::new("tail");
        trace.push(taken_at(0x10).with_gap(4)); // mispredicted -> flush drain
        trace.push(taken_at(0x10).with_gap(7));
        trace.push(taken_at(0x20).with_gap(2));
        trace.push_tail_instrs(33);
        let expect = 3 + 4 + 7 + 2 + 33;
        assert_eq!(trace.instruction_count(), expect);
        for depth in [0usize, 1, 2, 16] {
            let mut p = LastCompleted::default();
            let out = ReplayCore::replay(depth, &mut p, &trace);
            assert_eq!(out.stats.instructions.get(), expect, "depth {depth}");
        }
    }

    #[test]
    fn tail_only_trace_accounts_without_branches() {
        let mut trace = DynamicTrace::new("no-branches");
        trace.push_tail_instrs(250);
        let mut p = LastCompleted::default();
        let out = ReplayCore::replay(32, &mut p, &trace);
        assert_eq!(out.stats.branches.get(), 0);
        assert_eq!(out.stats.instructions.get(), 250);
        assert_eq!(out.stats.mpki(), 0.0);
    }

    #[test]
    fn traced_run_matches_untraced_and_counts_flushes() {
        let trace = DynamicTrace::from_records(
            "t",
            vec![taken_at(0x10), taken_at(0x10), taken_at(0x10), taken_at(0x10)],
        );
        let plain = ReplayCore::replay(16, &mut LastCompleted::default(), &trace);
        let mut tel = Telemetry::enabled();
        let mut p = LastCompleted::default();
        let mut core = ReplayCore::new(16);
        for rec in trace.branches() {
            core.step(&mut p, rec, &mut tel);
        }
        let traced = core.finish(&mut p, trace.tail_instrs());
        let snap = tel.into_snapshot();
        assert_eq!(plain.stats.mispredictions(), traced.stats.mispredictions());
        assert_eq!(plain.flushes, traced.flushes);
        assert_eq!(snap.counter("harness.branches"), 4);
        assert_eq!(snap.counter("harness.flushes"), traced.flushes);
        assert_eq!(snap.spans.len() as u64, traced.flushes, "one flush marker per flush");
        assert_eq!(snap.histogram("harness.window_occupancy").unwrap().count(), 4);
    }

    #[test]
    fn warmup_trains_without_counting() {
        // Two identical taken branches at depth 0. Cold: the first
        // mispredicts (NT guess). With the first declared warmup, the
        // predictor is trained by it — so the single *measured* branch
        // predicts correctly and nothing from warmup leaks into stats.
        let trace = DynamicTrace::from_records("t", vec![taken_at(0x10), taken_at(0x10)]);
        let mut tel = Telemetry::enabled();
        let mut p = LastCompleted::default();
        let mut core = ReplayCore::new(0).with_warmup(1).with_profiling();
        assert_eq!(core.warmup_remaining(), 1);
        for rec in trace.branches() {
            core.step(&mut p, rec, &mut tel);
        }
        assert_eq!(core.warmup_remaining(), 0);
        assert_eq!(core.branches_fed(), 2, "warmup records are still fed records");
        let out = core.finish(&mut p, trace.tail_instrs());
        assert_eq!(out.stats.branches.get(), 1, "only the measured branch counts");
        assert_eq!(out.stats.mispredictions(), 0, "warmup trained the predictor");
        assert_eq!(out.flushes, 0, "the warmup flush is not charged");
        assert_eq!(p.flushes, 1, "but the predictor did see the protocol flush");
        assert_eq!(p.completions.len(), 2, "warmup records resolve like live ones");
        let profile = out.profile.expect("profiling on");
        assert_eq!(profile.get(0x10).unwrap().executions, 1, "profile skips warmup");
        let snap = tel.into_snapshot();
        assert_eq!(snap.counter("harness.branches"), 1, "telemetry skips warmup");
        assert_eq!(snap.counter("harness.flushes"), 0);
    }

    #[test]
    fn warmup_equals_prefix_replay_for_measured_suffix_state() {
        // The measured suffix after warmup must see the exact predictor
        // state a full replay would have produced at that point.
        let recs: Vec<BranchRecord> = (0..20).map(|i| taken_at(0x10 + (i % 5) * 0x10)).collect();
        let trace = DynamicTrace::from_records("t", recs);
        // Full replay, capturing per-record predictions via stats of a
        // second run fed only the suffix on a pre-trained predictor.
        let mut full_pred = LastCompleted::default();
        let _ = ReplayCore::replay(4, &mut full_pred, &trace);
        // Warmup replay of the same trace: first 10 records warmup.
        let mut warm_pred = LastCompleted::default();
        let mut core = ReplayCore::new(4).with_warmup(10);
        let mut tel = Telemetry::disabled();
        for rec in trace.branches() {
            core.step(&mut warm_pred, rec, &mut tel);
        }
        let out = core.finish(&mut warm_pred, 0);
        assert_eq!(out.stats.branches.get(), 10);
        // Identical full-protocol history -> identical final predictor
        // state and completion sequence.
        assert_eq!(warm_pred.map, full_pred.map);
        assert_eq!(warm_pred.completions, full_pred.completions);
        assert_eq!(warm_pred.flushes, full_pred.flushes);
    }

    #[test]
    fn merged_runs_add_instructions_linearly() {
        // merge() after the strict split must be additive — the old
        // clamp could hide a merge-side double count too.
        let mut t1 = DynamicTrace::new("a");
        t1.push(taken_at(0x10).with_gap(3));
        t1.push_tail_instrs(10);
        let mut t2 = DynamicTrace::new("b");
        t2.push(taken_at(0x20).with_gap(5));
        t2.push_tail_instrs(20);
        let r1 = ReplayCore::replay(32, &mut LastCompleted::default(), &t1);
        let r2 = ReplayCore::replay(32, &mut LastCompleted::default(), &t2);
        let mut merged = r1.stats;
        merged.merge(&r2.stats);
        assert_eq!(merged.instructions.get(), t1.instruction_count() + t2.instruction_count());
    }
}
