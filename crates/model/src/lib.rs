//! # zbp-model — simulation substrate shared by predictors and harnesses
//!
//! This crate defines the contract between workloads and predictors:
//!
//! * [`BranchRecord`] — one dynamic (retired) branch outcome;
//! * [`DynamicTrace`] — a stream of branch records plus enough metadata
//!   to reconstruct the sequential instruction stream between branches;
//! * [`Prediction`] and the unified [`Predictor`] trait (plus the
//!   narrower [`DirectionPredictor`] / [`TargetPredictor`] interfaces) —
//!   the predict-then-resolve protocol every predictor model (the z15
//!   model in `zbp-core` and every baseline in `zbp-baselines`)
//!   implements;
//! * [`ReplayCore`] — drives a predictor over a trace with a
//!   configurable predict→resolve gap, modeling the long in-flight
//!   window the paper's §IV highlights (the motivation for the
//!   speculative BHT/PHT). It is the workspace's one delayed-update
//!   replay loop: `zbp_serve::Session` (served streams and one-shot
//!   runs alike) feeds records through [`ReplayCore::step`] and
//!   [`ReplayCore::finish`], and custom predictors can use the
//!   one-call [`ReplayCore::replay`];
//! * [`MispredictStats`] and friends — MPKI and misprediction-breakdown
//!   accounting;
//! * [`BranchTable`] — optional per-static-branch profiling for H2P
//!   (hard-to-predict branch) mining, merged deterministically.
//!
//! ## The predict/resolve protocol
//!
//! For every dynamic branch, the harness calls [`Predictor::predict`]
//! *before* revealing the outcome, then [`Predictor::resolve`] with the
//! resolved [`BranchRecord`] — in order, but possibly many branches
//! later (the delayed-update harness). Predictors may update
//! *speculative* state (path history, speculative counters) inside
//! `predict`, and must do all non-speculative training inside
//! `resolve`, exactly as the z15 does its updates at instruction
//! completion from the GPQ and GCT.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod branch;
mod harness;
mod metrics;
mod predictor;
mod profile;
mod trace;

pub use branch::{BranchRecord, ThreadId};
pub use harness::{ReplayCore, RunStats};
pub use metrics::{Counter, MispredictStats, Ratio};
pub use predictor::{DirectionPredictor, MispredictKind, Prediction, Predictor, TargetPredictor};
pub use profile::{BranchCounts, BranchTable};
pub use trace::{DynamicTrace, TraceSummary};
