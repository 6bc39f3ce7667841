//! `label-live`: `serve --labels-dir` on a copy of a pre-seeded 50k-vote WAL,
//! retraining every 400 votes with compaction on, under a fixed-rate open
//! loop that mixes keyed votes (some re-sent as duplicates), 1-row `/embed`
//! reads and `/metrics` polls. Writes run beside reads: WAL fsync, tracker,
//! retrain, reload (which clears the cache) and compaction all happen while
//! reads are timed.

use crate::child::{copy_dir, Server};
use crate::http::{self, request_bytes};
use crate::openloop::{self, Outcome, Request};
use crate::report::Run;
use crate::serving::{connections, metrics_snapshot, train_checkpoint};
use crate::stats::{median, percentile};
use crate::Ctx;
use rll_crowd::{BetaPrior, ConfidenceEstimator};
use rll_label::{IngestReceipt, LabelStore, LabelStoreConfig, LabelsSnapshot, Vote};
use rll_obs::{MetricsSnapshot, Recorder};
use rll_serve::EmbedRequest;
use rll_tensor::Rng64;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The live dataset (and the one the seeded log voted on) is fixed, so the
/// seeded log is built once per checkout; `--seed` drives the live load.
pub const LIVE_SEED: u64 = 42;
pub const LIVE_ITEMS: usize = 880;
/// `serve`'s default live-annotator budget.
pub const LIVE_WORKERS: u32 = 8;
pub const SEEDED_VOTES: u64 = 50_000;
pub const SHARDS: u32 = 2;
pub const SEGMENT_RECORDS: u64 = 256;
/// Offered load, requests per second over all kinds.
pub const RATE: f64 = 800.0;
const WARMUP_SECS: f64 = 1.0;
/// Every 20th request at 800 req/s: a `/metrics` poll every 25 ms.
const POLL_EVERY: usize = 20;
/// Shares of the non-poll requests.
const VOTE_SHARE: f64 = 45.0 / 95.0;
const DUPLICATE_SHARE: f64 = 0.1;
/// A duplicate follows its original by at least this many requests.
const DUPLICATE_GAP: usize = 40;
/// Votes disagree with the expert label this often.
const FLIP: f64 = 0.1;
/// Idempotency sessions of the seeded log sit far from the live ones.
const SEEDED_SESSION: u64 = 0xfeed_0000_0000_0000;
/// Server start-ups timed per run (each replays the 50k-vote log); the
/// median is reported.
const SPAWNS: usize = 3;
/// The name `rll-label` gives its retrain thread.
const RETRAIN_THREAD: &str = "rll-retrain";

/// The store layout `serve` uses with the flags in [`server_args`].
pub fn store_config(dir: &Path) -> LabelStoreConfig {
    LabelStoreConfig {
        dir: dir.to_path_buf(),
        shards: SHARDS,
        segment_records: SEGMENT_RECORDS,
        estimator: ConfidenceEstimator::Bayesian(BetaPrior {
            alpha: 1.0,
            beta: 1.0,
        }),
        num_examples: LIVE_ITEMS as u64,
        max_workers: LIVE_WORKERS,
        dedup_capacity: rll_label::DEFAULT_DEDUP_CAPACITY,
        manifest_path: Some(dir.join("retrain.manifest.json")),
    }
}

fn server_args(checkpoint: &Path, labels: &Path) -> Vec<String> {
    let mut args: Vec<String> = vec![
        "--checkpoint".into(),
        checkpoint.display().to_string(),
        "--labels-dir".into(),
        labels.display().to_string(),
    ];
    for (flag, value) in [
        ("--labels-shards", SHARDS.to_string()),
        ("--labels-segment", SEGMENT_RECORDS.to_string()),
        ("--live-preset", "oral".into()),
        ("--live-n", LIVE_ITEMS.to_string()),
        ("--live-seed", LIVE_SEED.to_string()),
        ("--retrain-trigger", "votes".into()),
        ("--retrain-votes", "400".into()),
        ("--retrain-epochs", "10".into()),
        ("--compact", "on".into()),
    ] {
        args.push(flag.into());
        args.push(value);
    }
    args
}

/// A truthful vote with [`FLIP`] noise from a uniformly drawn annotator.
pub fn vote(rng: &mut Rng64, truth: &[u8]) -> Vote {
    let example = rng.below(truth.len()).unwrap_or(0);
    let mut label = truth[example];
    if rng.bernoulli(FLIP) {
        label = 1 - label;
    }
    let worker = rng.below(LIVE_WORKERS as usize).unwrap_or(0) as u32;
    Vote::new(example as u64, worker, label)
}

pub fn live_dataset() -> Result<rll_data::Dataset, String> {
    rll_data::presets::oral_scaled(LIVE_ITEMS, LIVE_SEED).map_err(|e| format!("dataset: {e}"))
}

/// The pre-seeded log, built through `LabelStore::ingest` on first use and
/// kept under the cache directory. Built in a private directory and renamed
/// into place, so a half-built log is never reused.
pub fn seeded_wal(cache: &Path) -> Result<PathBuf, String> {
    let dir = cache.join(format!("label-wal-{SEEDED_VOTES}-s{LIVE_SEED}"));
    if dir.is_dir() {
        return Ok(dir);
    }
    std::fs::create_dir_all(cache).map_err(|e| format!("create {}: {e}", cache.display()))?;
    let building = cache.join(format!("building-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&building);
    let truth = live_dataset()?.expert_labels;
    {
        let store = LabelStore::open(store_config(&building), Recorder::disabled())
            .map_err(|e| format!("seed store: {e}"))?;
        let mut rng = Rng64::seed_from_u64(LIVE_SEED);
        for request in 0..SEEDED_VOTES {
            store
                .ingest(vote(&mut rng, &truth).with_key(SEEDED_SESSION, request))
                .map_err(|e| format!("seed vote {request}: {e}"))?;
        }
    }
    if std::fs::rename(&building, &dir).is_err() {
        // Another run finished first; its log is the same.
        let _ = std::fs::remove_dir_all(&building);
    }
    Ok(dir)
}

#[derive(Debug, Clone)]
enum Kind {
    Vote(Vote),
    /// A re-send of the keyed vote at this request index.
    Duplicate(usize),
    Read,
    Poll,
}

/// The schedule, one body per request (a duplicate and every poll reuse
/// one), and what each request is.
struct Load {
    requests: Vec<Request>,
    bodies: Vec<Vec<u8>>,
    kinds: Vec<Kind>,
}

fn build_load(
    seed: u64,
    secs: f64,
    features: &rll_tensor::Matrix,
    truth: &[u8],
) -> Result<Load, String> {
    let conns = connections();
    let count = (RATE * secs).ceil() as usize;
    let mut rng = Rng64::seed_from_u64(seed ^ 0x1abe_1ed0);
    let session = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) & !SEEDED_SESSION;
    // Per connection: originals waiting for their duplicate, with the
    // earliest request index the duplicate may take. A duplicate rides the
    // same connection as its original, so the server answers it second.
    let mut pending: Vec<std::collections::VecDeque<(usize, usize)>> =
        vec![Default::default(); conns];
    // Polls ask for the text form: the vendored JSON parser needs about 5 ms
    // per full snapshot, which would put seconds of client work in every run.
    let mut bodies = vec![request_bytes("GET", "/metrics?format=text", "")];
    let mut requests: Vec<Request> = Vec::with_capacity(count);
    let mut kinds = Vec::with_capacity(count);
    for (i, (conn, due)) in openloop::schedule(RATE, count, conns).enumerate() {
        let kind = if i % POLL_EVERY == POLL_EVERY - 1 {
            Kind::Poll
        } else if rng.uniform() < VOTE_SHARE {
            match pending[conn].front() {
                Some(&(original, earliest)) if earliest <= i => {
                    pending[conn].pop_front();
                    Kind::Duplicate(original)
                }
                _ => {
                    if rng.bernoulli(DUPLICATE_SHARE) {
                        pending[conn].push_back((i, i + DUPLICATE_GAP));
                    }
                    Kind::Vote(vote(&mut rng, truth).with_key(session, i as u64))
                }
            }
        } else {
            Kind::Read
        };
        let body = match &kind {
            Kind::Vote(v) => {
                bodies.push(request_bytes("POST", "/label", &json(v)?));
                bodies.len() - 1
            }
            Kind::Duplicate(original) => requests[*original].body,
            Kind::Read => {
                let row = rng.below(features.rows()).unwrap_or(0);
                let features = vec![features.row(row).map_err(|e| e.to_string())?.to_vec()];
                bodies.push(request_bytes(
                    "POST",
                    "/embed",
                    &json(&EmbedRequest { features })?,
                ));
                bodies.len() - 1
            }
            Kind::Poll => 0,
        };
        requests.push(Request { conn, due, body });
        kinds.push(kind);
    }
    Ok(Load {
        requests,
        bodies,
        kinds,
    })
}

fn json<T: serde::Serialize>(value: &T) -> Result<String, String> {
    serde_json::to_string(value).map_err(|e| format!("serialize: {e}"))
}

fn sane_ack(receipt: &IngestReceipt, vote: &Vote) -> bool {
    receipt.seq >= 1
        && receipt.example == vote.example
        && receipt.worker == vote.worker
        && receipt.label == vote.label
        && receipt.votes >= 1
        && receipt.confidence.is_finite()
}

/// Everything the load produced, validated.
#[derive(Default)]
pub struct LabelLoad {
    pub ack_secs: Vec<f64>,
    pub read_secs: Vec<f64>,
    /// `(ack time, seq)` of every acked original vote.
    pub acks: Vec<(f64, u64)>,
    /// `(response time, rounds, folded_seq)` of every poll.
    pub polls: Vec<(f64, u64, u64)>,
    /// The server's `/metrics` once the load has ended.
    pub metrics: Option<MetricsSnapshot>,
}

/// `(label.retrain.rounds, label.retrain.folded_seq)` from a
/// `/metrics?format=text` body (zero while absent); `None` unless every line
/// is `name value`.
fn poll_fields(body: &[u8]) -> Option<(u64, u64)> {
    let text = std::str::from_utf8(body).ok().filter(|t| !t.is_empty())?;
    let (mut rounds, mut folded) = (0, 0);
    for line in text.lines() {
        let (name, value) = line.rsplit_once(' ')?;
        let value: f64 = value.parse().ok()?;
        match name {
            "label.retrain.rounds" => rounds = value as u64,
            "label.retrain.folded_seq" => folded = value as u64,
            _ => {}
        }
    }
    Some((rounds, folded))
}

fn analyse(
    requests: &[Request],
    kinds: &[Kind],
    outcomes: &[Option<Outcome>],
    run: &mut Run,
) -> LabelLoad {
    let mut load = LabelLoad::default();
    let mut receipts: BTreeMap<usize, IngestReceipt> = BTreeMap::new();
    let mut failed = [0u64; 4];
    let mut attempted = [0u64; 4];
    for (i, ((request, kind), outcome)) in requests.iter().zip(kinds).zip(outcomes).enumerate() {
        let slot = match kind {
            Kind::Vote(_) => 0,
            Kind::Duplicate(_) => 1,
            Kind::Read => 2,
            Kind::Poll => 3,
        };
        attempted[slot] += 1;
        let Some(o) = outcome.as_ref().filter(|o| o.status == 200) else {
            failed[slot] += 1;
            continue;
        };
        let ok = match kind {
            Kind::Vote(v) => match http::parse::<IngestReceipt>(&o.body) {
                Ok(r) if sane_ack(&r, v) => {
                    receipts.insert(i, r);
                    load.acks.push((o.done, r.seq));
                    true
                }
                _ => false,
            },
            Kind::Duplicate(original) => {
                let echoed = http::parse::<IngestReceipt>(&o.body).ok();
                echoed.is_some() && echoed.as_ref() == receipts.get(original)
            }
            Kind::Read => http::parse::<rll_serve::EmbedResponse>(&o.body).is_ok_and(|r| {
                r.embeddings.len() == 1 && r.embeddings[0].iter().all(|v| v.is_finite())
            }),
            Kind::Poll => match poll_fields(&o.body) {
                Some((rounds, folded)) => {
                    load.polls.push((o.done, rounds, folded));
                    true
                }
                None => false,
            },
        };
        if !ok {
            failed[slot] += 1;
            continue;
        }
        if request.due < WARMUP_SECS {
            continue;
        }
        let latency = o.latency(request.due);
        match kind {
            Kind::Vote(_) | Kind::Duplicate(_) => load.ack_secs.push(latency),
            Kind::Read => load.read_secs.push(latency),
            Kind::Poll => {}
        }
    }
    for (slot, what) in ["votes", "duplicate votes", "reads", "metrics polls"]
        .iter()
        .enumerate()
    {
        run.count(attempted[slot], failed[slot], what);
    }
    load.polls.sort_by(|a, b| a.0.total_cmp(&b.0));
    load
}

/// Seconds from the ack of each round's `folded_seq` to the first poll that
/// shows the round, for rounds that folded a vote of this run.
pub fn vote_to_reload(acks: &[(f64, u64)], polls: &[(f64, u64, u64)]) -> Vec<f64> {
    let acked: BTreeMap<u64, f64> = acks.iter().map(|&(t, seq)| (seq, t)).collect();
    let mut seen_rounds = 0;
    let mut lags = Vec::new();
    for &(at, rounds, folded_seq) in polls {
        if rounds > seen_rounds {
            seen_rounds = rounds;
            if let Some(&acked_at) = acked.get(&folded_seq) {
                lags.push(at - acked_at);
            }
        }
    }
    lags
}

/// A label-live run plus what the traced ledger reads from it.
pub struct LabelOutcome {
    pub run: Run,
    pub load: LabelLoad,
}

pub fn run(ctx: &Ctx, secs: f64) -> LabelOutcome {
    let mut run = Run::default();
    let load = match drive(ctx, secs, &mut run) {
        Ok(load) => load,
        Err(e) => {
            run.count(1, 1, "workload stages");
            run.problems.push(e);
            LabelLoad::default()
        }
    };
    LabelOutcome { run, load }
}

fn drive(ctx: &Ctx, secs: f64, run: &mut Run) -> Result<LabelLoad, String> {
    let seeded = seeded_wal(&ctx.cache)?;
    let dir = ctx.work_dir("label-live");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let ds = live_dataset()?;
    let trained = dir.join("trained.rllckpt");
    train_checkpoint(&ds, LIVE_SEED, &trained)?;

    // Each start-up replays its own fresh copy of the seeded log (the
    // retrainer rewrites the checkpoint and the log as it runs).
    let mut setup_secs = Vec::new();
    let mut server: Option<(Server, PathBuf)> = None;
    for k in 0..SPAWNS {
        drop(server.take());
        let run_dir = dir.join(format!("spawn{k}"));
        let labels = run_dir.join("labels");
        copy_dir(&seeded, &labels)?;
        let checkpoint = run_dir.join("model.rllckpt");
        std::fs::copy(&trained, &checkpoint).map_err(|e| format!("copy checkpoint: {e}"))?;
        let args = server_args(&checkpoint, &labels);
        let (started, secs) = Server::start(&ctx.serve_bin, &run_dir, &args)?;
        setup_secs.push(secs);
        server = Some((started, run_dir));
    }
    let (server, run_dir) = server.ok_or("no server started")?;
    run.set("setup_s", median(&setup_secs).unwrap_or(f64::NAN));

    let plan = build_load(
        ctx.seed,
        WARMUP_SECS + secs,
        &ds.features,
        &ds.expert_labels,
    )?;
    // Where the server's CPU went: the retrain thread takes every round the
    // votes allow, back to back once a round outlasts the 400 votes that
    // trigger the next.
    let cpu_of = |s: &Server| -> Result<(f64, f64), String> {
        Ok((s.cpu_secs()?, s.thread_cpu_secs(RETRAIN_THREAD)?))
    };
    let before = cpu_of(&server)?;
    let outcomes = openloop::run(server.addr, connections(), &plan.requests, &plan.bodies);
    let after = cpu_of(&server)?;
    let (cpu, retrain_cpu) = (after.0 - before.0, after.1 - before.1);
    let mut load = analyse(&plan.requests, &plan.kinds, &outcomes, run);
    load.metrics = Some(metrics_snapshot(&server)?);

    // The median over every timed request, votes and reads alike, as on the
    // serve workloads: across seeds it moved less than either kind's own.
    let mut timed = load.ack_secs.clone();
    timed.extend_from_slice(&load.read_secs);
    run.set_or_note("p50_ms", percentile(&timed, 0.5).map(|s| s * 1e3));
    run.set_or_note("peak_rss_mb", server.peak_rss_mb());
    let ms = |secs: &[f64], q: f64| percentile(secs, q).map_or(f64::NAN, |s| s * 1e3);
    let lags = vote_to_reload(&load.acks, &load.polls);
    run.notes.push(format!(
        "acks p50 {:.3} ms, p99 {:.3} ms; reads p50 {:.3} ms, p99 {:.3} ms; vote to reload {:.3} s over {} rounds; server CPU {cpu:.2} s, {retrain_cpu:.2} s of it retraining",
        ms(&load.ack_secs, 0.5),
        ms(&load.ack_secs, 0.99),
        ms(&load.read_secs, 0.5),
        ms(&load.read_secs, 0.99),
        median(&lags).unwrap_or(f64::NAN),
        lags.len(),
    ));

    // Restart on the same directory: the recovered store must serve the
    // same `/labels` bytes, covering every acked vote.
    let before = server.client()?.ok("GET", "/labels", "")?;
    let snapshot: LabelsSnapshot = http::parse(&before)?;
    let highest_ack = load.acks.iter().map(|&(_, seq)| seq).max().unwrap_or(0);
    run.check(snapshot.high_water_seq >= highest_ack, || {
        format!(
            "/labels high_water_seq {} below the highest acked seq {highest_ack}",
            snapshot.high_water_seq
        )
    });
    server.kill();
    let args = server_args(&run_dir.join("model.rllckpt"), &run_dir.join("labels"));
    let (restarted, _) = Server::start(&ctx.serve_bin, &run_dir, &args)?;
    let after = restarted.client()?.ok("GET", "/labels", "")?;
    run.check(before == after, || {
        "after a restart /labels differs from before it".to_string()
    });
    restarted.kill();
    Ok(load)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vote_to_reload_times_each_new_round_from_its_folded_ack() {
        let acks = [(1.0, 10), (1.5, 11), (3.0, 20)];
        let polls = [
            (1.2, 0, 0),
            (1.7, 1, 11),
            (1.9, 1, 11),
            (2.0, 2, 5), // folded only seeded votes: not timed
            (3.4, 3, 20),
        ];
        let lags = vote_to_reload(&acks, &polls);
        assert_eq!(lags.len(), 2);
        assert!((lags[0] - 0.2).abs() < 1e-12);
        assert!((lags[1] - 0.4).abs() < 1e-12);
    }

    #[test]
    fn polls_read_rounds_and_folded_seq_from_the_text_form() {
        let body = b"label.retrain.rounds 3\nserve.requests 10\nlabel.retrain.folded_seq 50818\nserve.batch.size_bucket{le=\"+Inf\"} 7\n";
        assert_eq!(poll_fields(body), Some((3, 50818)));
        assert_eq!(poll_fields(b"serve.requests 1\n"), Some((0, 0)));
        assert_eq!(poll_fields(b"not a metric\n"), None);
        assert_eq!(poll_fields(b""), None);
    }

    #[test]
    fn load_mix_duplicates_ride_their_original_connection() {
        let ds = rll_data::presets::oral_scaled(40, 1).unwrap();
        let Load {
            requests, kinds, ..
        } = build_load(3, 4.0, &ds.features, &ds.expert_labels).unwrap();
        assert_eq!(requests.len(), 3200);
        let count = |f: fn(&Kind) -> bool| kinds.iter().filter(|k| f(k)).count() as f64 / 3200.0;
        assert!((count(|k| matches!(k, Kind::Poll)) - 0.05).abs() < 1e-9);
        let votes = count(|k| matches!(k, Kind::Vote(_) | Kind::Duplicate(_)));
        assert!((votes - 0.45).abs() < 0.03, "vote share {votes}");
        for (i, kind) in kinds.iter().enumerate() {
            if let Kind::Duplicate(original) = kind {
                assert!(matches!(kinds[*original], Kind::Vote(_)));
                assert_eq!(requests[i].conn, requests[*original].conn);
                assert!(i >= original + DUPLICATE_GAP);
                assert_eq!(requests[i].body, requests[*original].body);
            }
        }
        assert!(kinds.iter().any(|k| matches!(k, Kind::Duplicate(_))));
    }
}
