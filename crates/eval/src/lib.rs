#![warn(missing_docs)]

//! # `rll-eval` — metrics, cross-validation, and experiment runners
//!
//! Reproduces the paper's evaluation protocol end to end:
//!
//! - [`metrics`] — accuracy, precision/recall/F1, confusion matrix, and
//!   rank-based AUC;
//! - [`method`] — a uniform [`method::MethodSpec`] covering all fifteen rows
//!   of Table I (Group 1 label-inference baselines, Group 2 limited-label
//!   embedding baselines, Group 3 two-stage combinations, Group 4 RLL
//!   variants), each with a `fit → predict` implementation;
//! - [`harness`] — stratified 5-fold cross validation with deterministic
//!   per-fold parallelism (`rll-par` ordered fold reduction, `RLL_THREADS`);
//! - [`experiments`] — one runner per paper artifact: Table I (main
//!   comparison), Table II (`k` sweep), Table III (`d` sweep), plus the
//!   ablations DESIGN.md §7 calls out;
//! - [`report`] — text tables in the paper's format and JSON dumps.

pub mod error;
pub mod experiments;
pub mod harness;
pub mod method;
pub mod metrics;
pub mod report;

pub use error::EvalError;
pub use harness::{CrossValidator, FoldScores, MethodScore};
pub use method::{MethodSpec, TrainBudget};
/// The telemetry recorder every runner reports to; re-exported so callers of
/// the runners can name it without depending on `rll-obs`.
pub use rll_obs::Recorder;

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, EvalError>;
