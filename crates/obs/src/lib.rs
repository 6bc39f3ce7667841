//! # rll-obs — zero-dependency observability for the RLL pipeline
//!
//! Telemetry layer threaded through the trainer (`rll-core`), group sampler,
//! confidence estimators (`rll-crowd`), and the cross-validation harness
//! (`rll-eval`). Three complementary surfaces:
//!
//! - **Metrics** ([`MetricsRegistry`]): named counters, gauges, and
//!   fixed-bucket histograms (p50/p95/p99), thread-safe and allocation-light
//!   on the hot path.
//! - **Spans** ([`SpanTimer`], from [`Recorder::span`]): RAII wall-time
//!   guards that record into a histogram on drop.
//! - **Events** ([`Event`], [`EventKind`]): typed, serde-serializable run
//!   records fanned out through pluggable [`Sink`]s — [`NullSink`] (off),
//!   [`StdoutSink`] (human-readable), [`JsonlSink`] (append-only
//!   `results/runs/<run_id>.jsonl`), [`MemorySink`] (tests).
//!
//! The [`Recorder`] ties the three together. Library code takes a recorder
//! and defaults to [`Recorder::disabled()`], so instrumentation is silent
//! and near-free unless a binary opts in:
//!
//! ```
//! use rll_obs::{EventKind, Recorder};
//!
//! let recorder = Recorder::disabled(); // or Recorder::for_experiment("table1", 42)
//! recorder.run_start("table1", "quick", 42);
//! {
//!     let _timer = recorder.span("epoch");
//!     recorder.metrics().counter("groups.sampled").add(256);
//! }
//! recorder.note("epoch 0 done");
//! recorder.finish();
//! assert_eq!(recorder.events_emitted(), 3);
//! ```

pub mod clock;
pub mod event;
pub mod metrics;
pub mod profile;
pub mod recorder;
pub mod sink;
pub mod span;
pub mod trace;

pub use clock::Stopwatch;
pub use event::{
    CheckpointStats, ConfidenceStats, DistSummary, EpochStats, Event, EventKind, FoldStats,
    MethodStats, ResumeStats, RetrainRoundStats, RunInfo, RunSummary, SamplerStats, TableText,
    WalReplayStats,
};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramBucket, HistogramSnapshot, MetricsRegistry, MetricsSnapshot,
};
pub use profile::{EpochProfileStats, ProfileNode};
pub use recorder::Recorder;
pub use sink::{JsonlSink, MemorySink, NullSink, Sink, StdoutSink};
pub use span::SpanTimer;
pub use trace::{trace_id, Phase, PhaseSample, TraceCtx, TraceRecord, TRACE_SCHEMA};
