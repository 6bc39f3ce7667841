#![warn(missing_docs)]

//! # `rll-serve` — checkpointed embedding inference service
//!
//! The bridge from reproduction to system: the paper's end product is an
//! embedding function that downstream classifiers query, and this crate turns
//! a trained [`rll_core::RllPipeline`] into a long-running network service.
//! Four layers:
//!
//! 1. **[`checkpoint`]** — a versioned, checksummed on-disk format
//!    ([`Checkpoint`]) wrapping the trained encoder + feature normalizer,
//!    with typed errors for version, checksum, and dimension mismatches.
//! 2. **[`engine`]** — an [`InferenceEngine`]: a `std::thread` worker pool
//!    over a *bounded* request queue (backpressure via
//!    [`ServeError::QueueFull`]), micro-batching up to `max_batch` pending
//!    vectors into one forward matmul, and a hand-rolled [`lru::LruCache`]
//!    keyed on FNV-1a feature hashes.
//! 3. **[`http`] / [`server`]** — a zero-dependency HTTP/1.1 server on
//!    `std::net::TcpListener` exposing `POST /embed`, `POST /score`,
//!    `GET /healthz`, `GET /metrics` (rll-obs counters, batch sizes,
//!    cache hit rate, queue depth, latency quantiles), and `POST /reload`
//!    (hot-swap a newer checkpoint from disk without dropping connections).
//! 4. **bins** — `serve` (train-demo + load checkpoint + listen) and
//!    `loadgen` (seeded deterministic gate driver: exits non-zero on a
//!    dropped request, a mismatched duplicate receipt, or a missed reload).
//!
//! Determinism contract: checkpoint round-trips are bit-exact, and batched
//! inference equals unbatched inference with exact float equality, so a
//! served embedding is byte-for-byte the embedding the training pipeline
//! would have produced in-process.

pub mod checkpoint;
pub mod engine;
pub mod error;
pub mod http;
pub mod lru;
pub mod server;

pub use checkpoint::{Checkpoint, CheckpointMeta};
pub use engine::{EngineConfig, InferenceEngine, ServingModel};
pub use error::ServeError;
pub use server::{
    EmbedRequest, EmbedResponse, EmbedServer, ErrorResponse, HealthResponse, ReloadResponse,
    ScoreRequest, ScoreResponse, ServerConfig,
};

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, ServeError>;
