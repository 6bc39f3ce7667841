#![warn(missing_docs)]

//! # `rll-tensor` — dense matrix algebra and random sampling
//!
//! The lowest substrate of the RLL reproduction. Everything above (the neural
//! network, the crowdsourcing models, the data simulators) is built on the
//! types in this crate:
//!
//! - [`Matrix`] — a dense, row-major `f64` matrix with the linear-algebra
//!   operations an MLP needs (GEMM in all transpose configurations,
//!   broadcasting row/column ops, reductions).
//! - [`rng::Rng64`] — a seeded random-number source with the distributions the
//!   simulators need (normal, gamma, beta, categorical, …), implemented from
//!   first principles so the workspace does not depend on `rand_distr`.
//! - [`init`] — weight initializers (Xavier/Glorot, He, LeCun).
//! - [`ops`] — numerically-stable vector kernels (softmax, log-sum-exp,
//!   cosine similarity) used directly by the RLL loss.
//! - [`hash`] — deterministic FNV-1a content hashing (checkpoint checksums,
//!   embedding-cache keys in `rll-serve`).
//! - [`stats`] — summary statistics used by the evaluation harness.
//!
//! All fallible operations return [`TensorError`] instead of panicking, so the
//! layers above can surface shape bugs as typed errors.

pub mod error;
pub mod finite;
pub mod hash;
pub mod init;
mod kernels;
pub mod matrix;
pub mod ops;
pub mod rng;
pub mod stats;

pub use error::TensorError;
pub use matrix::Matrix;
pub use rng::{Rng64, Rng64State};

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, TensorError>;
