//! Request-scoped tracing for the serving path.
//!
//! A [`TraceCtx`] follows one HTTP request from socket read to socket write
//! and records where its wall-clock time went as a flat list of
//! [`Phase`]-stamped intervals. The context is created per request by the
//! server's connection loop, threaded through the inference engine (queue →
//! batch → forward), and finished into a [`TraceRecord`] — a serde-typed
//! `trace/v1` event that flows through the normal [`crate::Sink`] fan-out.
//!
//! # Trace ids
//!
//! Ids are **deterministic**: FNV-1a over the little-endian bytes of
//! `(connection seq, request seq within the connection)`. Two servers
//! replaying the same connection/request interleaving assign the same ids,
//! so a trace id from a client log can be grepped in the server's JSONL
//! without any shared clock or randomness. Determinism also keeps tracing
//! out of the RNG stream — a traced run consumes exactly the same entropy
//! as an untraced one.
//!
//! # Zero cost when disabled
//!
//! [`TraceCtx::disabled`] carries only the two sequence numbers (`inner` is
//! `None`): cloning it copies two words and an empty `Option`, and
//! [`TraceCtx::record`] returns before touching any lock. The disabled path
//! performs **zero heap allocations and emits zero events** — pinned by the
//! counting-allocator test in `tests/trace_noalloc.rs`.

use std::sync::Arc;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::clock::Stopwatch;

/// Schema tag stamped into every [`TraceRecord`].
pub const TRACE_SCHEMA: &str = "trace/v1";

// Local FNV-1a (64-bit) so rll-obs stays dependency-free; same constants as
// `rll_tensor::hash::fnv1a`, which this crate cannot depend on.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Deterministic trace id: FNV-1a over the LE bytes of both sequence
/// numbers. Stable across runs, machines, and tracing on/off.
pub fn trace_id(conn_seq: u64, req_seq: u64) -> u64 {
    let mut hash = FNV_OFFSET;
    for byte in conn_seq
        .to_le_bytes()
        .into_iter()
        .chain(req_seq.to_le_bytes())
    {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// The request-lifecycle phases a trace can attribute time to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Reading + parsing the HTTP request head and body.
    Parse,
    /// Sitting in the engine's bounded queue awaiting a worker.
    QueueWait,
    /// Worker assembling the drained jobs into one input matrix.
    BatchAssembly,
    /// The model forward pass (normalize + embed) for the batch.
    Forward,
    /// Served from the LRU cache; replaces the queue/batch/forward phases.
    CacheHit,
    /// Validating a crowd vote and appending it to the label WAL.
    Ingest,
    /// Encoding the response body and writing it to the socket.
    Serialize,
}

impl Phase {
    /// Stable snake_case name used in JSONL records and metric names.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Parse => "parse",
            Phase::QueueWait => "queue_wait",
            Phase::BatchAssembly => "batch_assembly",
            Phase::Forward => "forward",
            Phase::CacheHit => "cache_hit",
            Phase::Ingest => "ingest",
            Phase::Serialize => "serialize",
        }
    }

    /// Every phase, in lifecycle order (the order a cache-missing request
    /// passes through them; `cache_hit` replaces `queue_wait`,
    /// `batch_assembly` and `forward`, and `ingest` only appears on `/label`
    /// requests).
    pub fn all() -> [Phase; 7] {
        [
            Phase::Parse,
            Phase::QueueWait,
            Phase::BatchAssembly,
            Phase::Forward,
            Phase::CacheHit,
            Phase::Ingest,
            Phase::Serialize,
        ]
    }
}

/// One recorded phase interval, relative to the trace's start.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseSample {
    /// [`Phase::name`] of the interval.
    pub phase: String,
    /// Seconds from trace start to interval start.
    pub start_secs: f64,
    /// Interval duration in seconds.
    pub secs: f64,
}

/// A finished request trace — the `trace/v1` wire format.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Always [`TRACE_SCHEMA`].
    pub schema: String,
    /// [`trace_id`] as 16 lowercase hex digits (the `x-rll-trace` header
    /// value).
    pub trace_id: String,
    /// 0-based accepted-connection sequence number.
    pub conn_seq: u64,
    /// 0-based request sequence number within the connection.
    pub req_seq: u64,
    /// HTTP method of the traced request.
    pub method: String,
    /// Request path (without query string).
    pub path: String,
    /// Response status code.
    pub status: u16,
    /// Seconds from trace start to [`TraceCtx::finish`].
    pub total_secs: f64,
    /// Phase intervals sorted by `start_secs`.
    pub phases: Vec<PhaseSample>,
}

struct TraceInner {
    clock: Stopwatch,
    phases: Mutex<Vec<(Phase, f64, f64)>>,
}

/// Handle that follows one request through the serving stack.
///
/// Cheap to clone (two words + an `Option<Arc>`); clones share the same
/// phase list, so the engine worker can record into a trace the connection
/// thread finishes.
#[derive(Clone)]
pub struct TraceCtx {
    conn_seq: u64,
    req_seq: u64,
    inner: Option<Arc<TraceInner>>,
}

impl TraceCtx {
    /// A no-op context: keeps its deterministic id but records nothing and
    /// allocates nothing.
    pub fn disabled(conn_seq: u64, req_seq: u64) -> Self {
        TraceCtx {
            conn_seq,
            req_seq,
            inner: None,
        }
    }

    /// A recording context whose clock starts now.
    pub fn recording(conn_seq: u64, req_seq: u64) -> Self {
        TraceCtx {
            conn_seq,
            req_seq,
            inner: Some(Arc::new(TraceInner {
                clock: Stopwatch::start(),
                phases: Mutex::new(Vec::with_capacity(8)),
            })),
        }
    }

    /// Whether [`TraceCtx::record`] stores anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The deterministic trace id (see [`trace_id`]).
    pub fn id(&self) -> u64 {
        trace_id(self.conn_seq, self.req_seq)
    }

    /// The id as 16 lowercase hex digits — the `x-rll-trace` header value.
    pub fn id_hex(&self) -> String {
        format!("{:016x}", self.id())
    }

    /// Seconds since the trace started, or `0.0` when disabled. Use as the
    /// `start_secs` argument of a later [`TraceCtx::record`].
    pub fn now(&self) -> f64 {
        match &self.inner {
            Some(inner) => inner.clock.elapsed_secs(),
            None => 0.0,
        }
    }

    /// Records a phase interval. No-op (no lock, no allocation) when
    /// disabled.
    pub fn record(&self, phase: Phase, start_secs: f64, secs: f64) {
        if let Some(inner) = &self.inner {
            inner.phases.lock().push((phase, start_secs, secs));
        }
    }

    /// Closes the trace into a [`TraceRecord`], or `None` when disabled.
    /// Phases are sorted by start time so readers see lifecycle order even
    /// though engine workers record out-of-band.
    pub fn finish(&self, method: &str, path: &str, status: u16) -> Option<TraceRecord> {
        let inner = self.inner.as_ref()?;
        let total_secs = inner.clock.elapsed_secs();
        let mut raw = inner.phases.lock().clone();
        raw.sort_by(|a, b| a.1.total_cmp(&b.1));
        Some(TraceRecord {
            schema: TRACE_SCHEMA.to_string(),
            trace_id: self.id_hex(),
            conn_seq: self.conn_seq,
            req_seq: self.req_seq,
            method: method.to_string(),
            path: path.to_string(),
            status,
            total_secs,
            phases: raw
                .into_iter()
                .map(|(phase, start_secs, secs)| PhaseSample {
                    phase: phase.name().to_string(),
                    start_secs,
                    secs,
                })
                .collect(),
        })
    }
}

impl std::fmt::Debug for TraceCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceCtx")
            .field("conn_seq", &self.conn_seq)
            .field("req_seq", &self.req_seq)
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_id_is_deterministic_and_distinct() {
        assert_eq!(trace_id(0, 0), trace_id(0, 0));
        assert_ne!(trace_id(0, 0), trace_id(0, 1));
        assert_ne!(trace_id(0, 1), trace_id(1, 0));
        // Order matters: (a, b) and (b, a) hash differently.
        assert_ne!(trace_id(3, 7), trace_id(7, 3));
    }

    #[test]
    fn id_hex_is_sixteen_lowercase_digits() {
        let ctx = TraceCtx::disabled(5, 9);
        let hex = ctx.id_hex();
        assert_eq!(hex.len(), 16);
        assert!(hex
            .chars()
            .all(|c| c.is_ascii_hexdigit() && !c.is_ascii_uppercase()));
        assert_eq!(u64::from_str_radix(&hex, 16).unwrap(), ctx.id());
    }

    #[test]
    fn disabled_ctx_records_nothing_and_finishes_to_none() {
        let ctx = TraceCtx::disabled(1, 2);
        assert!(!ctx.is_enabled());
        assert_eq!(ctx.now(), 0.0);
        ctx.record(Phase::Parse, 0.0, 0.5);
        assert!(ctx.finish("GET", "/healthz", 200).is_none());
        // Ids stay deterministic regardless of the enabled flag.
        assert_eq!(ctx.id(), TraceCtx::recording(1, 2).id());
    }

    #[test]
    fn recording_ctx_collects_sorted_phases() {
        let ctx = TraceCtx::recording(4, 0);
        assert!(ctx.is_enabled());
        // Record out of order, as an engine worker would.
        ctx.record(Phase::Forward, 0.020, 0.003);
        ctx.record(Phase::Parse, 0.001, 0.002);
        let clone = ctx.clone();
        clone.record(Phase::QueueWait, 0.004, 0.010);
        let record = ctx.finish("POST", "/embed", 200).unwrap();
        assert_eq!(record.schema, TRACE_SCHEMA);
        assert_eq!(record.trace_id, ctx.id_hex());
        assert_eq!(record.method, "POST");
        assert_eq!(record.path, "/embed");
        assert_eq!(record.status, 200);
        assert!(record.total_secs >= 0.0);
        let names: Vec<&str> = record.phases.iter().map(|p| p.phase.as_str()).collect();
        assert_eq!(names, vec!["parse", "queue_wait", "forward"]);
        assert!(record
            .phases
            .windows(2)
            .all(|w| w[0].start_secs <= w[1].start_secs));
    }

    #[test]
    fn trace_record_round_trips_through_json() {
        let ctx = TraceCtx::recording(2, 3);
        ctx.record(Phase::CacheHit, 0.001, 0.0001);
        let record = ctx.finish("POST", "/embed", 200).unwrap();
        let json = serde_json::to_string(&record).unwrap();
        let back: TraceRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back, record);
    }

    #[test]
    fn phase_names_are_stable() {
        let names: Vec<&str> = Phase::all().iter().map(|p| p.name()).collect();
        assert_eq!(
            names,
            vec![
                "parse",
                "queue_wait",
                "batch_assembly",
                "forward",
                "cache_hit",
                "ingest",
                "serialize"
            ]
        );
    }
}
