//! The embedding HTTP server: routes, connection lifecycle, shutdown.
//!
//! | Route | Method | Body | Response |
//! |---|---|---|---|
//! | `/embed` | POST | `{"features": [[f64; d], …]}` | `{"embeddings": [[f64; m], …], "dim": m}` |
//! | `/score` | POST | `{"a": [f64; d], "b": [f64; d]}` | `{"score": f64}` (cosine relevance, eq. 3 sans confidence) |
//! | `/healthz` | GET | — | `{"status":"ok", …}` with checkpoint identity |
//! | `/metrics` | GET | — | rll-obs [`MetricsSnapshot`] JSON (`?format=text` for plain text) |
//! | `/reload` | POST | — | `{"status":"reloaded", …}` after hot-swapping the checkpoint from disk |
//! | `/label` | POST | `{"example": u64, "worker": u32, "label": 0\|1, "session"?, "request"?}` | [`rll_label::IngestReceipt`] after the vote is fsynced (duplicate keys re-answer the original receipt) |
//! | `/labels` | GET | — | [`rll_label::LabelsSnapshot`] (every voted example, deterministic order) |
//! | `/labels/<id>` | GET | — | [`rll_label::ExampleConfidence`] for one example (`404` if unvoted) |
//! | `/compact` | POST | — | [`rll_label::CompactionStats`] after folding WAL history below the published `folded_seq` |
//!
//! The label routes answer `400` unless [`EmbedServer::start`] was given a
//! [`rll_label::LabelStore`].
//!
//! Error contract: JSON `{"error": …}` with `400` (bad input), `404`/`405`
//! (routing), `411`/`413` (framing; bodies over [`MAX_BODY_BYTES`]), `503`
//! (queue backpressure / shutdown), `500` (internal). Connections are
//! HTTP/1.1 keep-alive with pipelining; each gets a 30 s read timeout so an
//! idle peer cannot pin a handler thread forever.
//!
//! [`MetricsSnapshot`]: rll_obs::MetricsSnapshot

use crate::checkpoint::Checkpoint;
use crate::engine::{InferenceEngine, ServingModel};
use crate::error::ServeError;
use crate::http::{self, HttpError, ReadOutcome, Request};
use crate::Result;
use rll_obs::{EventKind, Phase, Recorder, SpanTimer, Stopwatch, TraceCtx};
use serde::{Deserialize, Serialize};
use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Largest accepted request body; a longer declared `Content-Length` is
/// answered `413` without reading the body.
pub const MAX_BODY_BYTES: usize = 1 << 20;

/// Per-connection read timeout; an idle keep-alive peer is disconnected
/// after this long.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Server settings callers vary.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Checkpoint file `POST /reload` re-reads to hot-swap the model. `None`
    /// disables the endpoint (it answers `400`).
    pub checkpoint_path: Option<PathBuf>,
    /// When true every request gets a recording [`TraceCtx`] and finishes
    /// into a `trace/v1` event on the recorder's sinks. Off by default:
    /// disabled tracing keeps the request path allocation-free (the
    /// `x-rll-trace` header is still sent — ids are deterministic either
    /// way).
    pub trace: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            checkpoint_path: None,
            trace: false,
        }
    }
}

/// `POST /embed` body.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EmbedRequest {
    /// One or more raw feature vectors (each of the model's input dimension).
    pub features: Vec<Vec<f64>>,
}

/// `POST /embed` response.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EmbedResponse {
    /// One embedding per input row, in order.
    pub embeddings: Vec<Vec<f64>>,
    /// Embedding dimensionality.
    pub dim: usize,
}

/// `POST /score` body.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScoreRequest {
    /// First raw feature vector.
    pub a: Vec<f64>,
    /// Second raw feature vector.
    pub b: Vec<f64>,
}

/// `POST /score` response.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScoreResponse {
    /// Cosine relevance between the two embeddings, in `[-1, 1]`.
    pub score: f64,
}

/// `GET /healthz` response.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HealthResponse {
    /// Always `"ok"` when the server can answer at all.
    pub status: String,
    /// Training-run id baked into the served checkpoint.
    pub train_run_id: String,
    /// Feature dimension requests must carry.
    pub input_dim: usize,
    /// Embedding dimension responses carry.
    pub embedding_dim: usize,
    /// Seconds since the server started.
    pub uptime_secs: f64,
}

/// `POST /reload` response.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReloadResponse {
    /// Always `"reloaded"` on success.
    pub status: String,
    /// Training-run id of the freshly loaded checkpoint.
    pub train_run_id: String,
    /// Feature dimension requests must carry after the swap.
    pub input_dim: usize,
    /// Embedding dimension responses carry after the swap.
    pub embedding_dim: usize,
}

/// Error body for every non-2xx response.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ErrorResponse {
    /// Human-readable description.
    pub error: String,
}

/// A running server; dropping the handle does **not** stop it — call
/// [`EmbedServer::shutdown`].
pub struct EmbedServer {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
}

struct Ctx {
    engine: InferenceEngine,
    recorder: Recorder,
    /// Live label store backing `POST /label` / `GET /labels*`; `None`
    /// leaves those routes answering `400`.
    labels: Option<Arc<rll_label::LabelStore>>,
    checkpoint_path: Option<PathBuf>,
    started: Stopwatch,
    shutdown: Arc<AtomicBool>,
    /// Whether requests get recording trace contexts (see
    /// [`ServerConfig::trace`]).
    trace: bool,
    /// Accepted-connection counter; its value is the `conn_seq` half of
    /// every deterministic trace id on that connection.
    connections: AtomicU64,
}

impl Ctx {
    /// Starts the per-route handler latency guard; the elapsed time lands in
    /// the `key` histogram (`serve.handler.<route>`) when the guard drops,
    /// so early returns inside a handler are still counted (the
    /// `no-untimed-handler` lint keys on each handler taking one of these).
    /// The key is a literal so the per-request lookup allocates nothing.
    fn handler_latency(&self, key: &'static str) -> SpanTimer {
        SpanTimer::new(self.recorder.metrics().latency_histogram(key))
    }
}

impl EmbedServer {
    /// Binds `config.addr` and starts accepting connections. `labels`, when
    /// given, is the live store behind the `/label` and `/labels*` routes.
    pub fn start(
        engine: InferenceEngine,
        config: ServerConfig,
        recorder: Recorder,
        labels: Option<Arc<rll_label::LabelStore>>,
    ) -> Result<Self> {
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| ServeError::io(format!("bind {}", config.addr), e))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| ServeError::io("local_addr", e))?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let ctx = Arc::new(Ctx {
            engine,
            recorder,
            labels,
            checkpoint_path: config.checkpoint_path,
            started: Stopwatch::start(),
            shutdown: Arc::clone(&shutdown),
            trace: config.trace,
            connections: AtomicU64::new(0),
        });
        let acceptor_shutdown = Arc::clone(&shutdown);
        let acceptor = std::thread::Builder::new()
            .name("serve-acceptor".to_string())
            .spawn(move || {
                for stream in listener.incoming() {
                    if acceptor_shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
                    let _ = stream.set_nodelay(true);
                    let conn_ctx = Arc::clone(&ctx);
                    conn_ctx
                        .recorder
                        .metrics()
                        .counter("serve.http.connections")
                        .inc();
                    // Handler threads are detached: each is bounded by the
                    // read timeout, so they drain on their own after
                    // shutdown flips.
                    let _ = std::thread::Builder::new()
                        .name("serve-conn".to_string())
                        .spawn(move || handle_connection(stream, &conn_ctx));
                }
            })
            .map_err(|e| ServeError::io("spawn acceptor thread", e))?;
        Ok(EmbedServer {
            local_addr,
            shutdown,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (resolves the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops accepting, unblocks the acceptor, and joins it. The inference
    /// engine is left running (shut it down separately — it may be shared).
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock the blocking `accept` with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
    }
}

fn handle_connection(stream: TcpStream, ctx: &Ctx) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let conn_seq = ctx.connections.fetch_add(1, Ordering::Relaxed);
    let mut req_seq: u64 = 0;
    loop {
        // The trace clock starts at the request's first byte, so a keep-alive
        // idle gap stays out of `parse`; EOF or a read error ends the connection.
        let Ok([_, ..]) = reader.fill_buf() else {
            return;
        };
        let trace = if ctx.trace {
            TraceCtx::recording(conn_seq, req_seq)
        } else {
            TraceCtx::disabled(conn_seq, req_seq)
        };
        let parse_clock = Stopwatch::start();
        match http::read_request(&mut reader, MAX_BODY_BYTES) {
            Ok(ReadOutcome::Request(request)) => {
                let parse_secs = parse_clock.elapsed_secs();
                let metrics = ctx.recorder.metrics();
                metrics
                    .latency_histogram("serve.phase.parse")
                    .observe(parse_secs);
                trace.record(Phase::Parse, 0.0, parse_secs);
                let _span = ctx.recorder.span("serve.request");
                metrics.counter("serve.http.requests").inc();
                let keep_alive = request.keep_alive && !ctx.shutdown.load(Ordering::SeqCst);
                let (status, reason, content_type, body) = route(ctx, &request, &trace);
                if status >= 400 {
                    metrics.counter("serve.http.errors").inc();
                }
                let serialize_start = trace.now();
                let serialize_clock = Stopwatch::start();
                let write_ok = http::write_response_with_headers(
                    &mut writer,
                    status,
                    reason,
                    content_type,
                    &body,
                    keep_alive,
                    &[("x-rll-trace", trace.id_hex())],
                )
                .is_ok();
                let serialize_secs = serialize_clock.elapsed_secs();
                metrics
                    .latency_histogram("serve.phase.serialize")
                    .observe(serialize_secs);
                trace.record(Phase::Serialize, serialize_start, serialize_secs);
                // Emitted after the response bytes are on the wire, so the
                // record's serialize phase (and total) covers the write.
                if let Some(record) = trace.finish(&request.method, &request.path, status) {
                    ctx.recorder.emit(EventKind::Trace(record));
                }
                req_seq += 1;
                if !write_ok || !keep_alive {
                    return;
                }
            }
            Ok(ReadOutcome::Closed) => return,
            Err(HttpError::Io(_)) => {
                // Timeout, reset, or mid-message EOF: nothing sensible to say.
                return;
            }
            Err(parse_error) => {
                ctx.recorder.metrics().counter("serve.http.errors").inc();
                let (status, reason) = parse_error.status();
                let body = error_body(&parse_error.to_string());
                // Framing is unreliable after a parse error; always close.
                let _ = http::write_response(
                    &mut writer,
                    status,
                    reason,
                    "application/json",
                    &body,
                    false,
                );
                return;
            }
        }
    }
}

type Routed = (u16, &'static str, &'static str, Vec<u8>);

fn route(ctx: &Ctx, request: &Request, trace: &TraceCtx) -> Routed {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/embed") => handle_embed(ctx, &request.body, trace),
        ("POST", "/score") => handle_score(ctx, &request.body, trace),
        ("GET", "/healthz") => handle_healthz(ctx),
        ("GET", "/metrics") => handle_metrics(ctx, &request.query),
        ("POST", "/reload") => handle_reload(ctx),
        ("POST", "/label") => handle_label(ctx, &request.body, trace),
        ("POST", "/compact") => handle_compact(ctx),
        ("GET", "/labels") => handle_labels_snapshot(ctx),
        ("GET", path) if path.starts_with("/labels/") => {
            handle_label_get(ctx, path.trim_start_matches("/labels/"))
        }
        ("GET", "/embed" | "/score" | "/reload" | "/label" | "/compact")
        | ("POST", "/healthz" | "/metrics" | "/labels") => (
            405,
            "Method Not Allowed",
            "application/json",
            error_body("method not allowed for this route"),
        ),
        _ => (
            404,
            "Not Found",
            "application/json",
            error_body(&format!("no route for {}", request.path)),
        ),
    }
}

fn handle_embed(ctx: &Ctx, body: &[u8], trace: &TraceCtx) -> Routed {
    let _latency = ctx.handler_latency("serve.handler.embed");
    let parsed: EmbedRequest = match parse_json(body) {
        Ok(p) => p,
        Err(resp) => return resp,
    };
    match ctx.engine.embed_many_traced(parsed.features, trace) {
        Ok(embeddings) => {
            let dim = ctx.engine.model().embedding_dim();
            json_ok(&EmbedResponse { embeddings, dim })
        }
        Err(e) => serve_error_response(&e),
    }
}

fn handle_score(ctx: &Ctx, body: &[u8], trace: &TraceCtx) -> Routed {
    let _latency = ctx.handler_latency("serve.handler.score");
    let parsed: ScoreRequest = match parse_json(body) {
        Ok(p) => p,
        Err(resp) => return resp,
    };
    match ctx.engine.score_traced(parsed.a, parsed.b, trace) {
        Ok(score) => json_ok(&ScoreResponse { score }),
        Err(e) => serve_error_response(&e),
    }
}

fn handle_healthz(ctx: &Ctx) -> Routed {
    let _latency = ctx.handler_latency("serve.handler.healthz");
    let model = ctx.engine.model();
    json_ok(&HealthResponse {
        status: "ok".to_string(),
        train_run_id: model.train_run_id().to_string(),
        input_dim: model.input_dim(),
        embedding_dim: model.embedding_dim(),
        uptime_secs: ctx.started.elapsed_secs(),
    })
}

/// Re-reads the configured checkpoint file and hot-swaps the serving model.
/// The checkpoint's own validation (checksum, version, dims) gates the swap:
/// a corrupt or half-written file is rejected with `500` and the old model
/// keeps serving.
fn handle_reload(ctx: &Ctx) -> Routed {
    let _latency = ctx.handler_latency("serve.handler.reload");
    let Some(path) = &ctx.checkpoint_path else {
        return (
            400,
            "Bad Request",
            "application/json",
            error_body("reload is not configured (server started without a checkpoint path)"),
        );
    };
    let checkpoint = match Checkpoint::load(path) {
        Ok(c) => c,
        Err(e) => {
            return (
                500,
                "Internal Server Error",
                "application/json",
                error_body(&format!("reload failed, old model still serving: {e}")),
            );
        }
    };
    let model = ServingModel::from_checkpoint(checkpoint);
    let train_run_id = model.train_run_id().to_string();
    let (input_dim, embedding_dim) = (model.input_dim(), model.embedding_dim());
    ctx.engine.reload(model);
    ctx.recorder.note(format!(
        "reloaded checkpoint {} ({train_run_id})",
        path.display()
    ));
    json_ok(&ReloadResponse {
        status: "reloaded".to_string(),
        train_run_id,
        input_dim,
        embedding_dim,
    })
}

/// The `400` every label route answers when the server has no store.
fn labels_disabled() -> Routed {
    (
        400,
        "Bad Request",
        "application/json",
        error_body("live labeling is not enabled (server started without a label store)"),
    )
}

fn label_error_response(e: &rll_label::LabelError) -> Routed {
    let (status, reason) = match e {
        rll_label::LabelError::InvalidVote { .. } | rll_label::LabelError::InvalidConfig { .. } => {
            (400, "Bad Request")
        }
        _ => (500, "Internal Server Error"),
    };
    (
        status,
        reason,
        "application/json",
        error_body(&e.to_string()),
    )
}

/// `POST /label` — validate, append to the WAL (fsync), update the online
/// confidence, and answer with the durable receipt. The vote is on disk
/// before the `200` leaves the socket.
fn handle_label(ctx: &Ctx, body: &[u8], trace: &TraceCtx) -> Routed {
    let _latency = ctx.handler_latency("serve.handler.label");
    let Some(store) = &ctx.labels else {
        return labels_disabled();
    };
    let vote: rll_label::Vote = match parse_json(body) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    let ingest_start = trace.now();
    let ingest_clock = Stopwatch::start();
    let result = store.ingest(vote);
    let ingest_secs = ingest_clock.elapsed_secs();
    trace.record(Phase::Ingest, ingest_start, ingest_secs);
    ctx.recorder
        .metrics()
        .latency_histogram("serve.phase.ingest")
        .observe(ingest_secs);
    match result {
        Ok(receipt) => json_ok(&receipt),
        Err(e) => label_error_response(&e),
    }
}

/// `POST /compact` — fold sealed WAL history below the retrain manifest's
/// published `folded_seq` into the checksummed confidence snapshot and
/// delete the covered segments. Answers the [`rll_label::CompactionStats`]
/// for the run; a no-op (nothing deleted) until a completed retrain round
/// has published a manifest.
fn handle_compact(ctx: &Ctx) -> Routed {
    let _latency = ctx.handler_latency("serve.handler.compact");
    let Some(store) = &ctx.labels else {
        return labels_disabled();
    };
    match store.compact_below_manifest() {
        Ok(stats) => json_ok(&stats),
        Err(e) => label_error_response(&e),
    }
}

/// `GET /labels` — deterministic snapshot of every voted example.
fn handle_labels_snapshot(ctx: &Ctx) -> Routed {
    let _latency = ctx.handler_latency("serve.handler.labels");
    let Some(store) = &ctx.labels else {
        return labels_disabled();
    };
    match store.snapshot() {
        Ok(snapshot) => json_ok(&snapshot),
        Err(e) => label_error_response(&e),
    }
}

/// `GET /labels/<id>` — one example's live confidence.
fn handle_label_get(ctx: &Ctx, id: &str) -> Routed {
    let _latency = ctx.handler_latency("serve.handler.labels_id");
    let Some(store) = &ctx.labels else {
        return labels_disabled();
    };
    let Ok(example) = id.parse::<u64>() else {
        return (
            400,
            "Bad Request",
            "application/json",
            error_body(&format!("invalid example id {id:?}")),
        );
    };
    match store.confidence(example) {
        Ok(Some(conf)) => json_ok(&conf),
        Ok(None) => (
            404,
            "Not Found",
            "application/json",
            error_body(&format!("example {example} has no votes")),
        ),
        Err(e) => label_error_response(&e),
    }
}

fn handle_metrics(ctx: &Ctx, query: &str) -> Routed {
    let _latency = ctx.handler_latency("serve.handler.metrics");
    let snapshot = ctx.recorder.metrics().snapshot();
    if query.split('&').any(|kv| kv == "format=text") {
        return (
            200,
            "OK",
            "text/plain; charset=utf-8",
            snapshot.render_text().into_bytes(),
        );
    }
    json_ok(&snapshot)
}

fn parse_json<T: serde::Deserialize>(body: &[u8]) -> std::result::Result<T, Routed> {
    let text = std::str::from_utf8(body).map_err(|_| -> Routed {
        (
            400,
            "Bad Request",
            "application/json",
            error_body("body is not UTF-8"),
        )
    })?;
    serde_json::from_str(text).map_err(|e| -> Routed {
        (
            400,
            "Bad Request",
            "application/json",
            error_body(&format!("invalid JSON body: {e}")),
        )
    })
}

fn json_ok<T: serde::Serialize>(value: &T) -> Routed {
    match serde_json::to_string(value) {
        Ok(json) => (200, "OK", "application/json", json.into_bytes()),
        Err(e) => (
            500,
            "Internal Server Error",
            "application/json",
            error_body(&format!("response serialization failed: {e}")),
        ),
    }
}

fn serve_error_response(e: &ServeError) -> Routed {
    let (status, reason) = match e {
        ServeError::QueueFull { .. } | ServeError::EngineShutdown => (503, "Service Unavailable"),
        ServeError::DimMismatch { .. } | ServeError::InvalidRequest { .. } => (400, "Bad Request"),
        _ => (500, "Internal Server Error"),
    };
    (
        status,
        reason,
        "application/json",
        error_body(&e.to_string()),
    )
}

fn error_body(message: &str) -> Vec<u8> {
    match serde_json::to_string(&ErrorResponse {
        error: message.to_string(),
    }) {
        Ok(json) => json.into_bytes(),
        // The ErrorResponse shape cannot fail to serialize; fall back anyway.
        Err(_) => b"{\"error\":\"internal\"}".to_vec(),
    }
}
