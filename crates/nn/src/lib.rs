#![warn(missing_docs)]

//! # `rll-nn` — from-scratch neural-network substrate
//!
//! The RLL paper embeds every group member with a shared "multi-layer
//! non-linear projection" — a plain MLP. No mature pure-Rust deep-learning
//! stack is available offline, so this crate implements exactly the pieces the
//! reproduction needs, verified by finite-difference gradient checks:
//!
//! - [`Dense`] layers with configurable [`Activation`] and optional dropout,
//!   composed into an [`Mlp`];
//! - manual reverse-mode differentiation: [`Mlp::forward_cached`] +
//!   [`Mlp::backward`] accumulate parameter gradients. The forward leaves a
//!   lean [`MlpCache`]: the network input once and each layer's output, which
//!   is also the next layer's input, with `f'` taken from that output, so no
//!   pre-activation or input copy is kept. [`MlpCache::gather`] picks rows
//!   of a cached pass, and [`Mlp::backward_segments`] runs one backward over
//!   a stack of independent batches; the trainer embeds each distinct
//!   member row once per epoch and gathers every shard's rows from that
//!   cache;
//! - [`loss`] — MSE, contrastive (SiameseNet), and triplet-margin (TripletNet)
//!   losses, each returning the loss value and the gradient with respect to
//!   its inputs;
//! - [`optimizer`] — Adam, the one optimizer RLL trains with, plus global-norm
//!   gradient clipping;
//! - [`scheduler`] — constant / step / exponential / cosine learning-rate
//!   schedules;
//! - [`gradcheck`] — the finite-difference harness used by this crate's own
//!   tests and by `rll-core` to validate the confidence-weighted group loss.

pub mod activation;
pub mod error;
pub mod gradcheck;
pub mod layer;
pub mod loss;
pub mod mlp;
pub mod optimizer;
pub mod scheduler;

pub use activation::Activation;
pub use error::NnError;
pub use layer::Dense;
pub use mlp::{Mlp, MlpCache, MlpConfig};
pub use optimizer::{Adam, AdamState, GradClip, Optimizer};
pub use scheduler::{LrSchedule, LR_FLOOR_RATIO};

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, NnError>;
