//! `loadgen` — seeded, deterministic gate driver for `serve`.
//!
//! ```text
//! loadgen --addr HOST:PORT [--requests N] [--concurrency C] [--seed S]
//!         [--labels] [--label-frac F] [--label-preset oral|class]
//!         [--label-n N] [--label-seed S] [--label-workers N]
//!         [--label-dup-frac F] [--expect-reloads N]
//!         [--expect-compactions N] [--reload-wait SECS] [--strict]
//! ```
//!
//! Workers hold keep-alive connections and issue a mixed `/embed` + `/score`
//! workload. Half the reads re-send a vector from a fixed pool of 16
//! seeded queries, which is what exercises the server's LRU cache; the rest
//! are fresh vectors. The request *sequence* is fully determined by `--seed`,
//! so runs are comparable across commits. `loadgen` writes no report:
//! performance numbers come from `bash benchmark/run.sh`.
//!
//! `--labels` turns the run into a **live-labeling soak**: a `--label-frac`
//! slice of each worker's requests becomes `POST /label` votes, interleaved
//! with the embed/score reads on the same keep-alive connections, and every
//! 25 requests the worker drops its connection and reconnects (exercising
//! accept-path churn during ingestion). Votes are *truthful with noise*: the
//! generator regenerates the server's `--live-preset` dataset from
//! `--label-preset`/`--label-n`/`--label-seed` and votes each example's
//! expert label, flipped with probability 0.1 — so a server running the
//! retrain loop genuinely learns from the stream. Every vote carries a
//! deterministic `(session, request)` idempotency key, and a
//! `--label-dup-frac` slice of acked votes is immediately re-sent with the
//! same key — the duplicate must answer the *original* receipt verbatim or
//! the run fails. After the load, the generator polls `/metrics` (up to
//! `--reload-wait` seconds) until it has seen `--expect-reloads` hot swaps
//! and `--expect-compactions` WAL compactions. `--strict` fails the run on
//! ANY dropped or failed request — the zero-drop bar the CI soak gate holds
//! the loop to.
//!
//! Exit status: non-zero when no request succeeded, when the server is
//! unreachable, when `--strict` saw a failure, when a duplicate retry did
//! not echo its original receipt, or when `--expect-reloads` or
//! `--expect-compactions` was not reached in time.

use rll_obs::Stopwatch;
use rll_serve::http;
use rll_serve::{EmbedRequest, EmbedResponse, HealthResponse, ScoreRequest, ScoreResponse};
use rll_tensor::Rng64;
use std::io::{BufReader, Write as _};
use std::net::TcpStream;
use std::process::ExitCode;

/// Seeded queries the repeated share of reads draws from.
const POOL: usize = 16;
/// Share of reads that re-send a pool vector (LRU hits) instead of a fresh one.
const REPEAT_FRAC: f64 = 0.5;
/// Share of reads that are `/score` rather than `/embed`.
const SCORE_FRAC: f64 = 0.2;
/// In `--labels` mode, each worker reconnects after this many requests.
const CHURN_EVERY: usize = 25;
/// Probability a truthful vote is flipped to the wrong label.
const LABEL_FLIP: f64 = 0.1;

struct Args {
    addr: String,
    requests: usize,
    concurrency: usize,
    seed: u64,
    labels: bool,
    label_frac: f64,
    label_preset: String,
    label_n: usize,
    label_seed: u64,
    label_workers: u32,
    label_dup_frac: f64,
    expect_reloads: u64,
    expect_compactions: u64,
    reload_wait_secs: u64,
    strict: bool,
}

const USAGE: &str = "usage: loadgen --addr HOST:PORT [--requests N] [--concurrency C] [--seed S] \
[--labels] [--label-frac F] [--label-preset oral|class] [--label-n N] [--label-seed S] \
[--label-workers N] [--label-dup-frac F] [--expect-reloads N] [--expect-compactions N] \
[--reload-wait SECS] [--strict]";

fn main() -> ExitCode {
    let args = match parse(&std::env::args().skip(1).collect::<Vec<_>>()) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("loadgen: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("loadgen: {e}");
            ExitCode::FAILURE
        }
    }
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        addr: String::new(),
        requests: 200,
        concurrency: 4,
        seed: 42,
        labels: false,
        label_frac: 0.35,
        label_preset: "oral".to_string(),
        label_n: 240,
        label_seed: 42,
        label_workers: 4,
        label_dup_frac: 0.0,
        expect_reloads: 0,
        expect_compactions: 0,
        reload_wait_secs: 90,
        strict: false,
    };
    let mut i = 0;
    let take = |args: &[String], i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} requires a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => out.addr = take(args, &mut i, "--addr")?,
            "--requests" => {
                out.requests = take(args, &mut i, "--requests")?
                    .parse()
                    .map_err(|_| "invalid --requests".to_string())?
            }
            "--concurrency" => {
                out.concurrency = take(args, &mut i, "--concurrency")?
                    .parse()
                    .map_err(|_| "invalid --concurrency".to_string())?
            }
            "--seed" => {
                out.seed = take(args, &mut i, "--seed")?
                    .parse()
                    .map_err(|_| "invalid --seed".to_string())?
            }
            "--labels" => out.labels = true,
            "--label-frac" => {
                out.label_frac = take(args, &mut i, "--label-frac")?
                    .parse()
                    .map_err(|_| "invalid --label-frac".to_string())?
            }
            "--label-preset" => out.label_preset = take(args, &mut i, "--label-preset")?,
            "--label-n" => {
                out.label_n = take(args, &mut i, "--label-n")?
                    .parse()
                    .map_err(|_| "invalid --label-n".to_string())?
            }
            "--label-seed" => {
                out.label_seed = take(args, &mut i, "--label-seed")?
                    .parse()
                    .map_err(|_| "invalid --label-seed".to_string())?
            }
            "--label-workers" => {
                out.label_workers = take(args, &mut i, "--label-workers")?
                    .parse()
                    .map_err(|_| "invalid --label-workers".to_string())?
            }
            "--label-dup-frac" => {
                out.label_dup_frac = take(args, &mut i, "--label-dup-frac")?
                    .parse()
                    .map_err(|_| "invalid --label-dup-frac".to_string())?
            }
            "--expect-reloads" => {
                out.expect_reloads = take(args, &mut i, "--expect-reloads")?
                    .parse()
                    .map_err(|_| "invalid --expect-reloads".to_string())?
            }
            "--expect-compactions" => {
                out.expect_compactions = take(args, &mut i, "--expect-compactions")?
                    .parse()
                    .map_err(|_| "invalid --expect-compactions".to_string())?
            }
            "--reload-wait" => {
                out.reload_wait_secs = take(args, &mut i, "--reload-wait")?
                    .parse()
                    .map_err(|_| "invalid --reload-wait".to_string())?
            }
            "--strict" => out.strict = true,
            other => return Err(format!("unknown flag: {other}")),
        }
        i += 1;
    }
    if out.addr.is_empty() {
        return Err("--addr is required".to_string());
    }
    if out.requests == 0 || out.concurrency == 0 {
        return Err("--requests and --concurrency must be positive".to_string());
    }
    if !(0.0..=1.0).contains(&out.label_frac) || !(0.0..=1.0).contains(&out.label_dup_frac) {
        return Err("--label-frac and --label-dup-frac must be in [0, 1]".to_string());
    }
    if out.labels && (out.label_n == 0 || out.label_workers == 0) {
        return Err("--label-n and --label-workers must be positive".to_string());
    }
    Ok(out)
}

/// Per-worker outcome counts. A request succeeds when it gets a 200 with a
/// well-formed body: an embed/score payload, or a sane vote receipt.
#[derive(Debug, Default, PartialEq)]
struct WorkerStats {
    succeeded: usize,
    failed: usize,
    dup_retries_sent: usize,
    dup_receipts_matched: usize,
}

fn run(args: &Args) -> Result<(), String> {
    // Discover the model's input dimension from the server itself.
    let mut probe =
        Client::connect(&args.addr).map_err(|e| format!("cannot connect to {}: {e}", args.addr))?;
    let health = probe
        .call("GET", "/healthz", None)
        .ok_or_else(|| "healthz request failed".to_string())?;
    if health.status != 200 {
        return Err(format!("healthz returned {}", health.status));
    }
    let health: HealthResponse = parse_body(&health.body)?;
    let dim = health.input_dim;

    // Truthful vote stream: the same preset the live server folds and
    // retrains on, so the soak's votes carry real signal.
    let truth = if args.labels {
        let ds = match args.label_preset.as_str() {
            "oral" => rll_data::presets::oral_scaled(args.label_n, args.label_seed),
            "class" => rll_data::presets::class_scaled(args.label_n, args.label_seed),
            other => return Err(format!("unknown preset {other:?} (use oral|class)")),
        }
        .map_err(|e| format!("cannot generate {} preset: {e}", args.label_preset))?;
        ds.expert_labels
    } else {
        Vec::new()
    };

    // Seeded query pool shared by all workers: the repeated fraction of the
    // workload draws from here, which is what produces cache hits.
    let mut pool_rng = Rng64::seed_from_u64(args.seed);
    let pool: Vec<Vec<f64>> = (0..POOL)
        .map(|_| {
            let mut v = vec![0.0; dim];
            pool_rng.fill_standard_normal(&mut v);
            v
        })
        .collect();

    let stats = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..args.concurrency)
            .map(|worker| {
                let share = args.requests / args.concurrency
                    + usize::from(worker < args.requests % args.concurrency);
                let (pool, truth) = (&pool, &truth);
                let handle =
                    scope.spawn(move || worker_loop(args, worker as u64, share, dim, pool, truth));
                (share, handle)
            })
            .collect();
        merge(handles.into_iter().map(|(share, h)| (share, h.join())))
    });
    if stats.succeeded == 0 {
        return Err("no request succeeded".to_string());
    }
    if args.strict && stats.failed > 0 {
        return Err(format!("--strict and {} requests failed", stats.failed));
    }
    if stats.dup_receipts_matched < stats.dup_retries_sent {
        return Err(format!(
            "{} of {} duplicate retries did not echo the original receipt",
            stats.dup_retries_sent - stats.dup_receipts_matched,
            stats.dup_retries_sent
        ));
    }
    await_counters(args)
}

/// Sums the workers' counts. A worker that panicked sent an unknown part of
/// its share, so its whole share counts as failed.
fn merge(outcomes: impl Iterator<Item = (usize, std::thread::Result<WorkerStats>)>) -> WorkerStats {
    let mut total = WorkerStats::default();
    for (share, outcome) in outcomes {
        match outcome {
            Ok(w) => {
                total.succeeded += w.succeeded;
                total.failed += w.failed;
                total.dup_retries_sent += w.dup_retries_sent;
                total.dup_receipts_matched += w.dup_receipts_matched;
            }
            Err(_) => total.failed += share,
        }
    }
    total
}

/// The retrain → hot-reload → compact loop is asynchronous: polls `/metrics`
/// until `--expect-reloads` swaps and `--expect-compactions` compactions
/// have landed, or fails once `--reload-wait` runs out.
fn await_counters(args: &Args) -> Result<(), String> {
    let wait = Stopwatch::start();
    let (mut reloads, mut compactions) = (0u64, 0u64);
    loop {
        if reloads >= args.expect_reloads && compactions >= args.expect_compactions {
            return Ok(());
        }
        if wait.elapsed_secs() >= args.reload_wait_secs as f64 {
            return Err(format!(
                "expected {} hot reloads and {} compactions, observed {reloads} and {compactions}",
                args.expect_reloads, args.expect_compactions
            ));
        }
        if let Some(m) = fetch_json::<rll_obs::MetricsSnapshot>(&args.addr, "/metrics") {
            let counter = |name: &str| m.counters.get(name).copied().unwrap_or(0);
            reloads = counter("serve.model.reloads");
            compactions = counter("label.compact.runs");
        }
        std::thread::sleep(std::time::Duration::from_millis(250));
    }
}

/// GET `path` on a fresh connection and parse the JSON body. Fresh because
/// the soak polls across a window where the server may be mid-hot-swap and
/// old keep-alive connections may have been idle-closed.
fn fetch_json<T: serde::Deserialize>(addr: &str, path: &str) -> Option<T> {
    let mut client = Client::connect(addr).ok()?;
    let response = client.call("GET", path, None)?;
    if response.status != 200 {
        return None;
    }
    parse_body(&response.body).ok()
}

/// One worker: a keep-alive connection issuing its share of the workload.
/// In `--labels` mode a `--label-frac` slice of the share becomes votes and
/// the connection is dropped/reopened every [`CHURN_EVERY`] requests.
fn worker_loop(
    args: &Args,
    worker: u64,
    share: usize,
    dim: usize,
    pool: &[Vec<f64>],
    truth: &[u8],
) -> WorkerStats {
    let mut rng =
        Rng64::seed_from_u64(args.seed ^ (0x9e37_79b9_7f4a_7c15_u64.wrapping_mul(worker + 1)));
    let mut stats = WorkerStats::default();
    // Idempotency-key halves: one client session per load worker, one
    // strictly increasing request counter per session. Deterministic, so a
    // re-run of the same seed replays the same keys.
    let session = args.seed ^ (worker + 1);
    let mut request_no: u64 = 0;
    let mut client = match Client::connect(&args.addr) {
        Ok(c) => c,
        Err(_) => {
            stats.failed = share;
            return stats;
        }
    };
    for sent in 0..share {
        // Deliberate connection churn: ingestion must survive clients that
        // come and go mid-stream.
        if args.labels && sent > 0 && sent % CHURN_EVERY == 0 {
            if let Ok(fresh) = Client::connect(&args.addr) {
                client = fresh;
            }
        }
        if args.labels && rng.bernoulli(args.label_frac) {
            let example = rng.below(truth.len()).unwrap_or(0);
            let mut label = truth[example];
            if rng.bernoulli(LABEL_FLIP) {
                label = 1 - label;
            }
            let vote = rll_label::Vote::new(
                example as u64,
                rng.below(args.label_workers as usize).unwrap_or(0) as u32,
                label,
            )
            .with_key(session, request_no);
            request_no += 1;
            let body = match serde_json::to_string(&vote) {
                Ok(b) => b,
                Err(_) => {
                    stats.failed += 1;
                    continue;
                }
            };
            match client.call("POST", "/label", Some(&body)) {
                Some(r) if r.status == 200 && vote_ack_is_sane(&r.body, &vote) => {
                    stats.succeeded += 1;
                    // Simulated client retry: re-send the identical keyed
                    // body and require the byte-level receipt fields to
                    // match the original ack (idempotent ingest).
                    if rng.bernoulli(args.label_dup_frac) {
                        stats.dup_retries_sent += 1;
                        if let Some(dup) = client.call("POST", "/label", Some(&body)) {
                            if dup.status == 200 && receipts_match(&r.body, &dup.body) {
                                stats.dup_receipts_matched += 1;
                            }
                        }
                    }
                }
                Some(_) => stats.failed += 1,
                None => {
                    stats.failed += 1;
                    match Client::connect(&args.addr) {
                        Ok(fresh) => client = fresh,
                        Err(_) => {
                            stats.failed += share - sent - 1;
                            break;
                        }
                    }
                }
            }
            continue;
        }
        let pick_pool = rng.bernoulli(REPEAT_FRAC);
        let vector = |rng: &mut Rng64, pool: &[Vec<f64>], pick_pool: bool| -> Vec<f64> {
            if pick_pool {
                let idx = rng.below(pool.len()).unwrap_or(0);
                pool[idx].clone()
            } else {
                let mut v = vec![0.0; dim];
                rng.fill_standard_normal(&mut v);
                v
            }
        };
        let (path, body) = if rng.bernoulli(SCORE_FRAC) {
            let a = vector(&mut rng, pool, pick_pool);
            let b = vector(&mut rng, pool, pick_pool);
            match serde_json::to_string(&ScoreRequest { a, b }) {
                Ok(b) => ("/score", b),
                Err(_) => {
                    stats.failed += 1;
                    continue;
                }
            }
        } else {
            let features = vec![vector(&mut rng, pool, pick_pool)];
            match serde_json::to_string(&EmbedRequest { features }) {
                Ok(b) => ("/embed", b),
                Err(_) => {
                    stats.failed += 1;
                    continue;
                }
            }
        };
        match client.call("POST", path, Some(&body)) {
            Some(r) if r.status == 200 && response_is_sane(path, &r.body) => stats.succeeded += 1,
            Some(_) => stats.failed += 1,
            None => {
                stats.failed += 1;
                // The connection is dead (timeout, server restart): reconnect
                // once and keep going.
                match Client::connect(&args.addr) {
                    Ok(c) => client = c,
                    Err(_) => {
                        stats.failed += share - sent - 1;
                        break;
                    }
                }
            }
        }
    }
    stats
}

/// One keep-alive connection speaking the minimal client side of HTTP/1.1.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    addr: String,
}

impl Client {
    fn connect(addr: &str) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            reader,
            writer: stream,
            addr: addr.to_string(),
        })
    }

    fn call(&mut self, method: &str, path: &str, body: Option<&str>) -> Option<http::Response> {
        let request = match body {
            Some(b) => format!(
                "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{b}",
                self.addr,
                b.len()
            ),
            None => format!("{method} {path} HTTP/1.1\r\nHost: {}\r\n\r\n", self.addr),
        };
        if self.writer.write_all(request.as_bytes()).is_err() {
            return None;
        }
        if self.writer.flush().is_err() {
            return None;
        }
        http::read_response(&mut self.reader).ok()
    }
}

/// A vote ack is sane when it echoes the vote and carries a durable, finite
/// receipt: positive sequence number, a vote count that includes this vote,
/// and a finite confidence.
fn vote_ack_is_sane(body: &[u8], vote: &rll_label::Vote) -> bool {
    let Ok(text) = std::str::from_utf8(body) else {
        return false;
    };
    serde_json::from_str::<rll_label::IngestReceipt>(text)
        .map(|r| {
            r.seq >= 1
                && r.example == vote.example
                && r.worker == vote.worker
                && r.label == vote.label
                && r.votes >= 1
                && r.confidence.is_finite()
        })
        .unwrap_or(false)
}

/// Two `/label` ack bodies carry the same durable receipt. Parsed (rather
/// than byte-compared) so header/whitespace differences can never matter;
/// `IngestReceipt` equality covers seq, echo fields, counts, and confidence.
fn receipts_match(original: &[u8], duplicate: &[u8]) -> bool {
    let parse = |body: &[u8]| -> Option<rll_label::IngestReceipt> {
        let text = std::str::from_utf8(body).ok()?;
        serde_json::from_str(text).ok()
    };
    match (parse(original), parse(duplicate)) {
        (Some(a), Some(b)) => a == b,
        _ => false,
    }
}

/// Cheap response validation so "succeeded" means a well-formed payload, not
/// just a 200 status line.
fn response_is_sane(path: &str, body: &[u8]) -> bool {
    let Ok(text) = std::str::from_utf8(body) else {
        return false;
    };
    match path {
        "/embed" => serde_json::from_str::<EmbedResponse>(text)
            .map(|r| !r.embeddings.is_empty() && r.embeddings.iter().all(|e| e.len() == r.dim))
            .unwrap_or(false),
        // Cosine of a vector with itself can land an ulp above 1.0, so the
        // bound is float-tolerant rather than exact.
        "/score" => serde_json::from_str::<ScoreResponse>(text)
            .map(|r| r.score.is_finite() && r.score.abs() <= 1.0 + 1e-9)
            .unwrap_or(false),
        _ => false,
    }
}

fn parse_body<T: serde::Deserialize>(body: &[u8]) -> Result<T, String> {
    let text = std::str::from_utf8(body).map_err(|_| "non-UTF-8 response body".to_string())?;
    serde_json::from_str(text).map_err(|e| format!("unparseable response body: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_counts_a_panicked_workers_share_as_failed() {
        let ok = WorkerStats {
            succeeded: 9,
            failed: 1,
            dup_retries_sent: 2,
            dup_receipts_matched: 2,
        };
        let panicked: std::thread::Result<WorkerStats> = Err(Box::new("worker died"));
        let total = merge([(10, Ok(ok)), (7, panicked)].into_iter());
        assert_eq!(
            total,
            WorkerStats {
                succeeded: 9,
                failed: 8,
                dup_retries_sent: 2,
                dup_receipts_matched: 2,
            }
        );
    }
}
