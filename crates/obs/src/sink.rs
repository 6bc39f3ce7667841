//! Pluggable event sinks.
//!
//! A [`Sink`] receives every [`Event`] a recorder emits. Sinks must be
//! `Send + Sync`: the eval harness emits from worker threads when fold
//! parallelism is on.

use parking_lot::Mutex;
use std::fs::{self, File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

use crate::event::{Event, EventKind};

/// Receives structured events; implementations decide representation.
pub trait Sink: Send + Sync {
    fn emit(&self, event: &Event);

    /// Force buffered output to its destination. Called by
    /// `Recorder::finish` and safe to call repeatedly.
    fn flush(&self) {}
}

/// `Arc<S>` forwards to `S`, so tests can hand a recorder a
/// `Box::new(sink.clone())` and keep reading the original.
impl<S: Sink + ?Sized> Sink for std::sync::Arc<S> {
    fn emit(&self, event: &Event) {
        (**self).emit(event);
    }

    fn flush(&self) {
        (**self).flush();
    }
}

/// Human-readable progress on stdout; one line per event.
#[derive(Debug, Default, Clone, Copy)]
pub struct StdoutSink;

impl Sink for StdoutSink {
    fn emit(&self, event: &Event) {
        match &event.kind {
            EventKind::RunStart(info) => {
                println!(
                    "[{:>9.3}s] run {} start: {} (scale={}, seed={})",
                    event.elapsed_secs, info.run_id, info.experiment, info.scale, info.seed
                );
            }
            EventKind::EpochEnd(e) => {
                println!(
                    "[{:>9.3}s] epoch {:>3}: loss {:.6}  |g| {:.4}->{:.4}  lr {:.5}  \
                     {} groups  {:.3}s (sample {:.3} fwd {:.3} bwd {:.3} step {:.3})",
                    event.elapsed_secs,
                    e.epoch,
                    e.mean_loss,
                    e.grad_norm_pre_clip,
                    e.grad_norm_post_clip,
                    e.learning_rate,
                    e.groups_sampled,
                    e.wall_secs,
                    e.sample_secs,
                    e.forward_secs,
                    e.backward_secs,
                    e.step_secs,
                );
            }
            EventKind::SamplerBatch(s) => {
                println!(
                    "[{:>9.3}s] sampler: {} groups (pools +{}/-{}), {} rejections, \
                     {:.1}% duplicate groups",
                    event.elapsed_secs,
                    s.groups,
                    s.positive_pool,
                    s.negative_pool,
                    s.rejections,
                    100.0 * s.duplicate_rate,
                );
            }
            EventKind::ConfidenceSummary(c) => {
                println!(
                    "[{:>9.3}s] confidence[{}]: {} items, δ mean {:.4} ± {:.4} \
                     (min {:.4}, p50 {:.4}, max {:.4})",
                    event.elapsed_secs,
                    c.variant,
                    c.items,
                    c.delta.mean,
                    c.delta.std,
                    c.delta.min,
                    c.delta.p50,
                    c.delta.max,
                );
            }
            EventKind::FoldEnd(f) => {
                println!(
                    "[{:>9.3}s] {} fold {}: accuracy {:.4} ({:.2}s)",
                    event.elapsed_secs, f.method, f.fold, f.accuracy, f.wall_secs
                );
            }
            EventKind::MethodEnd(m) => {
                println!(
                    "[{:>9.3}s] {} done: {:.4} ± {:.4} over {} folds ({:.2}s)",
                    event.elapsed_secs,
                    m.method,
                    m.mean_accuracy,
                    m.std_accuracy,
                    m.folds,
                    m.wall_secs
                );
            }
            EventKind::CheckpointWritten(c) => {
                println!(
                    "[{:>9.3}s] checkpoint: {} epochs -> {} ({} bytes, {:.3}s)",
                    event.elapsed_secs, c.epochs_done, c.path, c.bytes, c.write_secs,
                );
            }
            EventKind::ResumeFrom(r) => {
                println!(
                    "[{:>9.3}s] resume: continuing at epoch {}/{} (seed {})",
                    event.elapsed_secs, r.epochs_done, r.total_epochs, r.seed,
                );
            }
            EventKind::Trace(t) => {
                println!(
                    "[{:>9.3}s] trace {}: {} {} -> {} in {:.6}s ({} phases)",
                    event.elapsed_secs,
                    t.trace_id,
                    t.method,
                    t.path,
                    t.status,
                    t.total_secs,
                    t.phases.len(),
                );
            }
            EventKind::EpochProfile(p) => {
                println!(
                    "[{:>9.3}s] profile epoch {:>3}: {:.3}s total, self {:.3}s, {} frames",
                    event.elapsed_secs,
                    p.epoch,
                    p.root.total_secs,
                    p.root.self_secs(),
                    p.root.children.len(),
                );
            }
            EventKind::WalReplayed(w) => {
                println!(
                    "[{:>9.3}s] wal replay: {} records over {} segments / {} shards \
                     (hw seq {}, {} corruptions, {} dropped, {:.3}s)",
                    event.elapsed_secs,
                    w.records,
                    w.segments,
                    w.shards,
                    w.high_water_seq,
                    w.corruptions,
                    w.dropped_records,
                    w.wall_secs,
                );
            }
            EventKind::RetrainRound(r) => {
                println!(
                    "[{:>9.3}s] retrain round {}: folded {} votes (seq {}), {} epochs{}, \
                     accuracy {:.4} ({:.2}s)",
                    event.elapsed_secs,
                    r.round,
                    r.votes_folded,
                    r.folded_seq,
                    r.epochs,
                    if r.resumed { " [resumed]" } else { "" },
                    r.accuracy,
                    r.wall_secs,
                );
            }
            EventKind::Note(text) => {
                println!("[{:>9.3}s] {text}", event.elapsed_secs);
            }
            EventKind::Table(t) => {
                println!("\n== {} ==\n{}", t.title, t.text);
            }
            EventKind::RunEnd(summary) => {
                println!(
                    "[{:>9.3}s] run end: {} events in {:.2}s",
                    event.elapsed_secs, summary.events_emitted, summary.wall_secs
                );
            }
        }
    }

    fn flush(&self) {
        let _ = std::io::stdout().flush();
    }
}

/// Appends each event as one JSON line to `results/runs/<run_id>.jsonl`.
pub struct JsonlSink {
    path: PathBuf,
    writer: Mutex<BufWriter<File>>,
    /// Flush after every line. Training runs ([`JsonlSink::create`]) stay
    /// buffered — `Recorder::finish` flushes them at run end. Trace files
    /// ([`JsonlSink::open`]) flush per event: a serving process is *killed*,
    /// never finished, and a buffered tail would silently drop every trace
    /// since the last 8 KiB boundary.
    line_flush: bool,
}

impl JsonlSink {
    /// Opens (append) `dir/<run_id>.jsonl`, creating `dir` if needed.
    pub fn create(dir: impl AsRef<Path>, run_id: &str) -> std::io::Result<Self> {
        let dir = dir.as_ref();
        fs::create_dir_all(dir)?;
        let path = dir.join(format!("{run_id}.jsonl"));
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(JsonlSink {
            path,
            writer: Mutex::new(BufWriter::new(file)),
            line_flush: false,
        })
    }

    /// Opens (append) an exact file path, creating parent directories if
    /// needed, flushing after every event. Used by the serve bin's
    /// `--trace-out <path>`, whose process exits by signal — every line must
    /// already be on disk when it does.
    pub fn open(path: impl Into<PathBuf>) -> std::io::Result<Self> {
        let path = path.into();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent)?;
            }
        }
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(JsonlSink {
            path,
            writer: Mutex::new(BufWriter::new(file)),
            line_flush: true,
        })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Sink for JsonlSink {
    fn emit(&self, event: &Event) {
        // Serialization of our own event model cannot fail; IO errors are
        // deliberately swallowed (telemetry must never abort training).
        if let Ok(line) = serde_json::to_string(event) {
            let mut writer = self.writer.lock();
            let _ = writeln!(writer, "{line}");
            if self.line_flush {
                let _ = writer.flush();
            }
        }
    }

    fn flush(&self) {
        let _ = self.writer.lock().flush();
    }
}

/// Buffers events in memory; the test workhorse.
#[derive(Default)]
pub struct MemorySink {
    events: Mutex<Vec<Event>>,
}

impl MemorySink {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn events(&self) -> Vec<Event> {
        self.events.lock().clone()
    }

    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Sink for MemorySink {
    fn emit(&self, event: &Event) {
        self.events.lock().push(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn note(seq: u64, text: &str) -> Event {
        Event {
            seq,
            elapsed_secs: 0.5,
            kind: EventKind::Note(text.to_string()),
        }
    }

    #[test]
    fn memory_sink_buffers() {
        let sink = MemorySink::new();
        sink.emit(&note(0, "a"));
        sink.emit(&note(1, "b"));
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.events()[1].seq, 1);
    }

    #[test]
    fn open_sink_is_durable_without_flush() {
        // `open` is the trace-file constructor: its process dies by signal,
        // so each line must hit the file at emit time, not at flush time.
        let dir = std::env::temp_dir().join(format!("rll-obs-lf-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let sink = JsonlSink::open(dir.join("trace.jsonl")).unwrap();
        sink.emit(&note(0, "must be on disk already"));
        let text = fs::read_to_string(sink.path()).unwrap();
        assert_eq!(text.lines().count(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let dir = std::env::temp_dir().join(format!("rll-obs-test-{}", std::process::id()));
        let sink = JsonlSink::create(&dir, "unit").unwrap();
        sink.emit(&note(0, "hello"));
        sink.emit(&note(1, "world"));
        sink.flush();
        let text = fs::read_to_string(sink.path()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for (i, line) in lines.iter().enumerate() {
            let event: Event = serde_json::from_str(line).unwrap();
            assert_eq!(event.seq, i as u64);
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
