//! The [`Recorder`]: the handle instrumented code talks to.
//!
//! A recorder owns the metrics registry and the sink fan-out for one run.
//! It is cheap to clone (an `Arc`) and thread-safe, so the trainer, sampler,
//! and parallel fold workers can all share one.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use crate::event::{Event, EventKind, RunInfo, RunSummary};
use crate::metrics::MetricsRegistry;
use crate::sink::{JsonlSink, Sink, StdoutSink};
use crate::span::SpanTimer;

struct RecorderInner {
    run_id: String,
    sinks: Vec<Box<dyn Sink>>,
    metrics: MetricsRegistry,
    seq: AtomicU64,
    start: Instant,
}

/// Shared telemetry handle; see the crate docs for the event taxonomy.
#[derive(Clone)]
pub struct Recorder {
    inner: Arc<RecorderInner>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("run_id", &self.inner.run_id)
            .field("sinks", &self.inner.sinks.len())
            .field("events", &self.events_emitted())
            .finish()
    }
}

impl Recorder {
    /// Recorder with an explicit run id and sink set.
    pub fn new(run_id: impl Into<String>, sinks: Vec<Box<dyn Sink>>) -> Self {
        Recorder {
            inner: Arc::new(RecorderInner {
                run_id: run_id.into(),
                sinks,
                metrics: MetricsRegistry::new(),
                seq: AtomicU64::new(0),
                start: Instant::now(),
            }),
        }
    }

    /// No sinks, but a live metrics registry: instrumentation stays cheap and
    /// silent. This is the default wiring inside library code.
    pub fn disabled() -> Self {
        Recorder::new("disabled", Vec::new())
    }

    /// Standard experiment wiring: human-readable stdout plus an append-only
    /// `results/runs/<run_id>.jsonl`. Falls back to stdout-only (with a
    /// warning) if the JSONL file cannot be created.
    pub fn for_experiment(experiment: &str, seed: u64) -> Self {
        let run_id = generate_run_id(experiment, seed);
        let mut sinks: Vec<Box<dyn Sink>> = vec![Box::new(StdoutSink)];
        match JsonlSink::create("results/runs", &run_id) {
            Ok(jsonl) => {
                eprintln!("telemetry: writing {}", jsonl.path().display());
                sinks.push(Box::new(jsonl));
            }
            Err(err) => {
                eprintln!(
                    "telemetry: cannot open results/runs/{run_id}.jsonl ({err}); stdout only"
                );
            }
        }
        Recorder::new(run_id, sinks)
    }

    pub fn run_id(&self) -> &str {
        &self.inner.run_id
    }

    pub fn metrics(&self) -> &MetricsRegistry {
        &self.inner.metrics
    }

    /// Seconds since this recorder was created.
    pub fn elapsed_secs(&self) -> f64 {
        self.inner.start.elapsed().as_secs_f64()
    }

    /// Number of events emitted so far.
    pub fn events_emitted(&self) -> u64 {
        self.inner.seq.load(Ordering::Relaxed)
    }

    /// Stamps `kind` into an [`Event`] envelope and fans it out to every
    /// sink. Also bumps the `events.<variant>` counter.
    pub fn emit(&self, kind: EventKind) {
        let seq = self.inner.seq.fetch_add(1, Ordering::Relaxed);
        self.inner.metrics.counter(kind_counter(&kind)).inc();
        let event = Event {
            seq,
            elapsed_secs: self.elapsed_secs(),
            kind,
        };
        for sink in &self.inner.sinks {
            sink.emit(&event);
        }
    }

    /// Convenience for free-form progress notes.
    pub fn note(&self, text: impl Into<String>) {
        self.emit(EventKind::Note(text.into()));
    }

    /// Starts an RAII span; its duration lands in the `span.<name>` duration
    /// histogram when the guard drops.
    pub fn span(&self, name: &str) -> SpanTimer {
        let histogram = self
            .inner
            .metrics
            .duration_histogram(&format!("span.{name}"));
        SpanTimer::new(histogram)
    }

    /// Emits the standard `RunStart` event.
    pub fn run_start(&self, experiment: &str, scale: &str, seed: u64) {
        self.emit(EventKind::RunStart(RunInfo {
            run_id: self.inner.run_id.clone(),
            experiment: experiment.to_string(),
            scale: scale.to_string(),
            seed,
            started_unix_secs: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0),
        }));
    }

    /// Emits `RunEnd` with the final metrics snapshot and flushes all sinks.
    pub fn finish(&self) {
        self.emit(EventKind::RunEnd(RunSummary {
            wall_secs: self.elapsed_secs(),
            events_emitted: self.events_emitted(),
            metrics: self.inner.metrics.snapshot(),
        }));
        for sink in &self.inner.sinks {
            sink.flush();
        }
    }
}

fn kind_counter(kind: &EventKind) -> &'static str {
    match kind {
        EventKind::RunStart(_) => "events.run_start",
        EventKind::EpochEnd(_) => "events.epoch_end",
        EventKind::SamplerBatch(_) => "events.sampler_batch",
        EventKind::ConfidenceSummary(_) => "events.confidence_summary",
        EventKind::FoldEnd(_) => "events.fold_end",
        EventKind::MethodEnd(_) => "events.method_end",
        EventKind::CheckpointWritten(_) => "events.checkpoint_written",
        EventKind::ResumeFrom(_) => "events.resume_from",
        EventKind::Trace(_) => "events.trace",
        EventKind::EpochProfile(_) => "events.epoch_profile",
        EventKind::WalReplayed(_) => "events.wal_replayed",
        EventKind::RetrainRound(_) => "events.retrain_round",
        EventKind::Note(_) => "events.note",
        EventKind::Table(_) => "events.table",
        EventKind::RunEnd(_) => "events.run_end",
    }
}

/// Environment variable that pins the run id to a fixed string. Run ids are
/// stamped into downstream artifacts (checkpoint metadata, JSONL events), so
/// byte-for-byte reproducibility gates — `scripts/check.sh` trains twice at
/// different `RLL_THREADS` and `cmp`s the checkpoints — need the timestamped
/// default out of the way.
pub const RUN_ID_ENV_VAR: &str = "RLL_RUN_ID";

/// `"<experiment>-<seed>-<unix_millis>-<pid>"` — unique enough for a results
/// directory without needing a PRNG. Overridden verbatim by `RLL_RUN_ID`
/// (sanitized to filename-safe characters) when set and non-empty.
fn generate_run_id(experiment: &str, seed: u64) -> String {
    if let Ok(pinned) = std::env::var(RUN_ID_ENV_VAR) {
        let sanitized: String = pinned
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                    c
                } else {
                    '-'
                }
            })
            .collect();
        if !sanitized.is_empty() {
            return sanitized;
        }
    }
    let millis = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis())
        .unwrap_or(0);
    format!("{experiment}-s{seed}-{millis}-p{}", std::process::id())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::MemorySink;

    #[test]
    fn emit_assigns_sequential_seq() {
        let sink = Arc::new(MemorySink::new());
        // Arc<MemorySink> as a sink via the blanket-free manual box below.
        struct Shared(Arc<MemorySink>);
        impl Sink for Shared {
            fn emit(&self, event: &Event) {
                self.0.emit(event);
            }
        }
        let recorder = Recorder::new("t", vec![Box::new(Shared(sink.clone()))]);
        recorder.note("a");
        recorder.note("b");
        recorder.finish();
        let events = sink.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].seq, 0);
        assert_eq!(events[1].seq, 1);
        assert!(matches!(events[2].kind, EventKind::RunEnd(_)));
        assert_eq!(recorder.metrics().counter("events.note").get(), 2);
    }

    #[test]
    fn disabled_recorder_still_counts() {
        let recorder = Recorder::disabled();
        recorder.note("quiet");
        assert_eq!(recorder.events_emitted(), 1);
        assert_eq!(recorder.metrics().counter("events.note").get(), 1);
    }

    #[test]
    fn span_records_into_registry() {
        let recorder = Recorder::disabled();
        {
            let _guard = recorder.span("unit");
        }
        let snap = recorder
            .metrics()
            .duration_histogram("span.unit")
            .snapshot();
        assert_eq!(snap.count, 1);
    }
}
