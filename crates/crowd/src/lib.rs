#![warn(missing_docs)]

//! # `rll-crowd` — crowdsourced-label substrate
//!
//! Everything the RLL reproduction needs to model labels that come from the
//! crowd rather than from an oracle:
//!
//! - [`AnnotationMatrix`] — the items × workers label table (workers may skip
//!   items);
//! - [`aggregate`] — true-label inference baselines from the paper's Group 1:
//!   majority vote, soft probabilistic labels (SoftProb), the Dawid–Skene EM
//!   estimator, and GLAD (worker expertise × item difficulty);
//! - [`confidence`] — the paper's two label-confidence estimators: the MLE
//!   vote fraction (eq. 1) and the Beta-posterior mean (eq. 2), plus the
//!   class-prior → `(α, β)` mapping the paper uses to set the prior;
//! - [`simulate`] — crowd-worker models (one-coin, two-coin, spammer,
//!   adversary, hammer) used to synthesize annotations for the `oral` and
//!   `class` dataset simulators, since the original proprietary datasets are
//!   unavailable.

pub mod aggregate;
pub mod annotations;
pub mod confidence;
pub mod error;
pub mod quality;
pub mod simulate;

pub use annotations::AnnotationMatrix;
pub use confidence::{
    emit_confidence_summary, worker_aware_label_confidences,
    worker_aware_label_confidences_observed, BetaPrior, ConfidenceEstimator,
};
pub use error::CrowdError;
pub use quality::{detect_spammers, live_worker_qualities, rank_workers, WorkerQuality};

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, CrowdError>;
