//! # zbp-core — the IBM z15 branch-predictor model
//!
//! A behavioural model of the asynchronous lookahead branch predictor
//! described in *"The IBM z15 High Frequency Mainframe Branch Predictor"*
//! (ISCA 2020, Industry Track).
//!
//! The predictor is assembled from the same components the paper
//! describes:
//!
//! | Module | Paper structure |
//! |---|---|
//! | [`btb1`] | BTB1: 2K×8 first-level BTB housing the BHT and metadata |
//! | [`btb2`] | BTB2: 32K×4 second level, staging queue, search triggers |
//! | [`btbp`] | BTBP: the pre-z15 preload/victim buffer |
//! | [`gpv`] | Global Path Vector (2 bits × 17 taken branches) |
//! | [`tage`] | short/long TAGE PHT, single-table PHT, speculative PHT |
//! | [`sbht`] | speculative BHT |
//! | [`perceptron`] | 32-entry virtualized-weight perceptron |
//! | [`ctb`] | changing-target buffer |
//! | [`crs`] | one-entry call/return stack heuristic |
//! | [`cpred`] | stream-based column predictor with power gating |
//! | [`btb`] | shared entry payload + SKOOT skip field |
//! | [`direction`] | figure-8 direction-provider selection |
//! | [`target`] | figure-9 target-provider selection |
//! | [`predictor`] | the `ZPredictor` facade (predict/complete protocol) |
//! | [`pipeline`] | the 6-cycle b0–b5 search pipeline timing model |
//! | [`config`] | all capacities/policies + zEC12/z13/z14/z15 presets |
//!
//! ## Quickstart
//!
//! ```
//! use zbp_core::{GenerationPreset, ZPredictor};
//! use zbp_model::{BranchRecord, Predictor};
//! use zbp_zarch::{InstrAddr, Mnemonic};
//!
//! let mut p = ZPredictor::new(GenerationPreset::Z15.config());
//! // A loop branch: mispredicted as a surprise once, then learned.
//! let rec = BranchRecord::new(
//!     InstrAddr::new(0x1000), Mnemonic::Brct, true, InstrAddr::new(0x0f00));
//! let first = p.predict(rec.addr, rec.class());
//! assert!(!first.dynamic, "unknown branches are surprises");
//! p.resolve(&rec, &first);
//! let second = p.predict(rec.addr, rec.class());
//! assert!(second.dynamic, "completion installed the branch into the BTB1");
//! assert_eq!(second.target, Some(rec.target));
//! # p.resolve(&rec, &second);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod btb;
pub mod btb1;
pub mod btb2;
pub mod btbp;
pub mod config;
pub mod cpred;
pub mod crs;
pub mod ctb;
pub mod direction;
pub mod events;
pub mod gpv;
#[cfg(feature = "verify")]
pub mod invariants;
pub mod perceptron;
pub mod pipeline;
pub mod predictor;
pub mod sbht;
pub mod stats;
pub mod tage;
pub mod target;
pub mod util;
pub mod write_queue;

pub use config::{GenerationPreset, PredictorConfig};
pub use predictor::{ConfigMismatch, StateImage, Structures, ZPredictor};
