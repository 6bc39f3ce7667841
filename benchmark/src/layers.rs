//! The traced ledger: each layer timed from outside through its public entry
//! points at the shapes the workloads use, short reruns of the workloads
//! (with the server's request tracing on for one of them), and three
//! reconciliation rows that set the layer sums against measured totals.
//!
//! Only stable entry points are called (`matmul_bias`/`matmul_tn`/
//! `matmul_nt`, never a `*_with` variant or the kernel enum), so the
//! kernel selection can change without touching this file.

use crate::http::request_bytes;
use crate::labeling::{self, live_dataset, seeded_wal, store_config, SEGMENT_RECORDS, SHARDS};
use crate::probe;
use crate::report::Run;
use crate::serving::{self, Mix, ServeParams};
use crate::stats::{mean, median, percentile};
use crate::Ctx;
use rll_core::{GroupSampler, RllConfig, RllPipeline, RllTrainer, SamplingStrategy};
use rll_crowd::aggregate::{Aggregator, MajorityVote};
use rll_label::{
    read_snapshot, shard_of, snapshot_path, ConfidenceTracker, IngestReceipt, LabelStore,
    ShardedWal, Vote, VoteRecord, WalConfig,
};
use rll_nn::{Activation, Adam, GradClip, Mlp, Optimizer};
use rll_obs::{EpochProfileStats, EventKind, Recorder, Stopwatch};
use rll_serve::lru::LruCache;
use rll_serve::{
    Checkpoint, EmbedRequest, EmbedResponse, EngineConfig, InferenceEngine, ServingModel,
};
use rll_tensor::{Matrix, Rng64};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write;

/// Timing batches per layer; the median batch is reported.
const BATCHES: usize = 9;
/// A batch runs at least this long, so clock reads vanish in it.
const MIN_BATCH_SECS: f64 = 0.004;
/// Seconds of the nominal step in each serve rerun, of each capacity-ladder
/// step, and of the label rerun.
const SERVE_RERUN_SECS: f64 = 3.0;
const LADDER_STEP_SECS: f64 = 2.0;
const LABEL_RERUN_SECS: f64 = 6.0;
/// Epoch shape of the default trainer: groups, and groups per gradient shard.
const GROUPS: f64 = 256.0;
const SHARD_GROUPS: f64 = 16.0;

/// Median per-call seconds of `f` over [`BATCHES`] batches.
fn per_call<R>(mut f: impl FnMut() -> R) -> f64 {
    let mut n = 1usize;
    loop {
        let clock = Stopwatch::start();
        for _ in 0..n {
            black_box(f());
        }
        if clock.elapsed_secs() >= MIN_BATCH_SECS || n >= 1 << 24 {
            break;
        }
        n *= 2;
    }
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let clock = Stopwatch::start();
            for _ in 0..n {
                black_box(f());
            }
            clock.elapsed_secs() / n as f64
        })
        .collect();
    median(&batches).unwrap_or(f64::NAN)
}

/// [`per_call`] at the reference host speed: timed between two host
/// probes and scaled by them (see [`probe`]).
fn scaled_per_call<R>(f: impl FnMut() -> R) -> f64 {
    let before = probe::probe_secs();
    let secs = per_call(f);
    probe::scale(secs, before, probe::probe_secs())
}

/// Runs `f` between two host probes; returns its result and the factor
/// that takes times measured during it to the reference host speed.
fn probed<T>(f: impl FnOnce() -> Result<T, String>) -> Result<(T, f64), String> {
    let before = probe::probe_secs();
    let out = f()?;
    Ok((out, probe::scale(1.0, before, probe::probe_secs())))
}

/// Seconds of each of `count` individually timed calls (slow calls with
/// side effects: appends, saves, fits).
fn each_call(
    count: usize,
    mut f: impl FnMut(usize) -> Result<(), String>,
) -> Result<Vec<f64>, String> {
    (0..count)
        .map(|i| {
            let clock = Stopwatch::start();
            f(i)?;
            Ok(clock.elapsed_secs())
        })
        .collect()
}

fn median_of(values: &[f64]) -> Result<f64, String> {
    median(values).ok_or_else(|| "no samples".to_string())
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// A metric an earlier stage measured.
fn measured(run: &Run, name: &str) -> Result<f64, String> {
    run.metrics
        .get(name)
        .copied()
        .ok_or_else(|| format!("{name} was not measured"))
}

/// Folds a rerun's checks, failures and notes into the ledger's.
fn absorb(run: &mut Run, name: &str, rerun: Run) {
    run.attempted += rerun.attempted;
    run.failed += rerun.failed;
    let prefixed = |lines: Vec<String>| lines.into_iter().map(|l| format!("{name} rerun: {l}"));
    run.problems.extend(prefixed(rerun.problems));
    run.notes.extend(prefixed(rerun.notes));
}

type Stage = fn(&Ctx, &mut Run) -> Result<(), String>;

/// Runs every stage in order; the reconciliation rows read layers timed by
/// earlier stages.
pub fn ledger(ctx: &Ctx) -> Run {
    let mut run = Run::default();
    let stages: [(&str, Stage); 5] = [
        ("train layers", train_layers),
        ("serve layers", serve_layers),
        ("label layers", label_layers),
        ("serve reruns", serve_reruns),
        ("label rerun", label_rerun),
    ];
    for (name, stage) in stages {
        if let Err(e) = stage(ctx, &mut run) {
            run.count(1, 1, name);
            run.problems.push(format!("{name}: {e}"));
        }
    }
    run
}

/// Mean per-epoch seconds of the profiler frame at `path` below the root.
fn frame_secs(profiles: &[EpochProfileStats], path: &[&str]) -> f64 {
    let per_epoch: Vec<f64> = profiles
        .iter()
        .map(|p| {
            let mut node = &p.root;
            for name in path {
                match node.children.iter().find(|c| c.name == *name) {
                    Some(child) => node = child,
                    None => return 0.0,
                }
            }
            node.total_secs
        })
        .collect();
    mean(&per_epoch).unwrap_or(0.0)
}

/// `0, 1, …, n−1, 0, 1, …` on successive calls.
fn cycling(n: usize) -> impl FnMut() -> usize {
    let mut i = n - 1;
    move || {
        i = (i + 1) % n;
        i
    }
}

fn gradient_like(rows: usize, cols: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| {
        ((r * 7 + c * 3) % 11) as f64 * 0.01 - 0.05
    })
}

/// rll-data, rll-tensor, rll-nn, rll-core and rll-par at the trainer's
/// shapes, plus the train reconciliation row.
fn train_layers(ctx: &Ctx, run: &mut Run) -> Result<(), String> {
    let seed = ctx.seed;
    // Times in this stage are scaled to the reference host speed, as
    // train-oral's are, so the train row sets like against like; the other
    // stages report as measured, and this note says how fast the host ran.
    let probes: Vec<f64> = (0..9).map(|_| probe::probe_secs()).collect();
    run.notes.push(format!(
        "host probe median {:.3} ms (reference {:.3} ms)",
        median_of(&probes)? * 1e3,
        probe::REFERENCE_SECS * 1e3
    ));
    let (presets, k) =
        probed(|| each_call(5, |_| rll_data::presets::oral(seed).map(drop).map_err(err)))?;
    run.set("data.preset_oral_ms", median_of(&presets)? * k * 1e3);
    let ds = rll_data::presets::oral(seed).map_err(err)?;
    let config = RllConfig::default();

    // The ledger row compares against a serial epoch: per-layer times are
    // serial, and fan-out scaling is reported on its own line. Epochs are
    // timed before and after the layers, so a burst of load from another
    // tenant during either half moves the median little.
    let serial = RllTrainer::new(config.clone())
        .map_err(err)?
        .with_threads(1);
    let mut epochs = Vec::new();
    let time_epochs = |epochs: &mut Vec<f64>| -> Result<(), String> {
        for _ in 0..3 {
            let ((_, trace), k) =
                probed(|| serial.fit(&ds.features, &ds.annotations, seed).map_err(err))?;
            epochs.extend(trace.epoch_wall_secs.iter().map(|s| s * k));
        }
        Ok(())
    };
    time_epochs(&mut epochs)?;

    let profiling = serial.clone().with_profiling(true);
    let ((model, profiled), k_profiled) = probed(|| {
        profiling
            .fit(&ds.features, &ds.annotations, seed)
            .map_err(err)
    })?;
    let frames = &profiled.epoch_profiles;
    for (name, path) in [
        ("core.profile.sample_ms", &["sample"][..]),
        ("core.profile.fanout_ms", &["shard_fanout"]),
        ("core.profile.forward_ms", &["shard_fanout", "forward"]),
        ("core.profile.backward_ms", &["shard_fanout", "backward"]),
        ("core.profile.reduce_ms", &["shard_reduce"]),
        ("core.profile.adam_ms", &["adam_step"]),
    ] {
        run.set(name, frame_secs(frames, path) * k_profiled * 1e3);
    }
    let threaded = RllTrainer::new(config.clone())
        .map_err(err)?
        .with_profiling(true);
    run.set("par.threads", threaded.threads() as f64);
    let ((_, fanned), k_fanned) = probed(|| {
        threaded
            .fit(&ds.features, &ds.annotations, seed)
            .map_err(err)
    })?;
    run.set(
        "par.fanout_speedup",
        frame_secs(frames, &["shard_fanout"]) * k_profiled
            / (frame_secs(&fanned.epoch_profiles, &["shard_fanout"]) * k_fanned),
    );

    // Layer fixtures at the shapes one group (k = 3, five rows) uses.
    let labels = MajorityVote::positive_ties()
        .hard_labels(&ds.annotations)
        .map_err(err)?;
    let prior = labels.iter().filter(|&&l| l == 1).count() as f64 / labels.len() as f64;
    let confidences = serial
        .compute_confidences(&ds.annotations, &labels, prior)
        .map_err(err)?;
    run.set(
        "core.confidences_ms",
        scaled_per_call(|| {
            let labels = MajorityVote::positive_ties().hard_labels(&ds.annotations);
            labels.map(|l| serial.compute_confidences(&ds.annotations, &l, prior))
        }) * 1e3,
    );
    let sampler = GroupSampler::new(
        &labels,
        config.k,
        SamplingStrategy::Uniform,
        Some(&confidences),
    )
    .map_err(err)?;
    let mut rng = Rng64::seed_from_u64(seed);
    run.set(
        "core.sample_batch_us",
        scaled_per_call(|| sampler.sample_batch(GROUPS as usize, &mut rng)) * 1e6,
    );
    // One epoch's batch. Per-group timings cycle through its groups as the
    // trainer does, rather than repeating one group's rows from cache.
    let batch: Vec<Vec<usize>> = sampler
        .sample_batch(GROUPS as usize, &mut rng)
        .map_err(err)?
        .iter()
        .map(|g| g.members())
        .collect();
    let inputs: Vec<Matrix> = batch
        .iter()
        .map(|m| ds.features.select_rows(m))
        .collect::<Result<_, _>>()
        .map_err(err)?;
    let mut next = cycling(batch.len());
    run.set(
        "tensor.select_rows_ns",
        scaled_per_call(|| ds.features.select_rows(&batch[next()])) * 1e9,
    );
    let x5 = &inputs[0];

    let mlp: Mlp = model.mlp().clone();
    let layer = |i: usize| &mlp.layers()[i];
    let (w0, b0) = (layer(0).weights(), layer(0).bias());
    let (w1, b1) = (layer(1).weights(), layer(1).bias());
    let (w2, b2) = (layer(2).weights(), layer(2).bias());
    let h1 = layer(0).forward(x5).map_err(err)?;
    let h2 = layer(1).forward(&h1).map_err(err)?;
    run.set(
        "tensor.matmul_nn_ns",
        scaled_per_call(|| {
            (
                x5.matmul_bias(w0, b0),
                h1.matmul_bias(w1, b1),
                h2.matmul_bias(w2, b2),
            )
        }) * 1e9,
    );
    let (g1, g2, g3) = (
        gradient_like(5, w0.cols()),
        gradient_like(5, w1.cols()),
        gradient_like(5, w2.cols()),
    );
    run.set(
        "tensor.matmul_tn_ns",
        scaled_per_call(|| (x5.matmul_tn(&g1), h1.matmul_tn(&g2), h2.matmul_tn(&g3))) * 1e9,
    );
    run.set(
        "tensor.matmul_nt_ns",
        scaled_per_call(|| (g1.matmul_nt(w0), g2.matmul_nt(w1), g3.matmul_nt(w2))) * 1e9,
    );
    let rows16: Vec<usize> = (0..16).collect();
    let x16 = ds.features.select_rows(&rows16).map_err(err)?;
    let h1_16 = layer(0).forward(&x16).map_err(err)?;
    let h2_16 = layer(1).forward(&h1_16).map_err(err)?;
    run.set(
        "tensor.matmul_bias_b16_ns",
        scaled_per_call(|| {
            (
                x16.matmul_bias(w0, b0),
                h1_16.matmul_bias(w1, b1),
                h2_16.matmul_bias(w2, b2),
            )
        }) * 1e9,
    );

    // The 560 pre-activations of one group (5 rows × 64 + 32 + 16 units).
    let mut pre = Vec::new();
    for (input, (w, b)) in [(x5, (w0, b0)), (&h1, (w1, b1)), (&h2, (w2, b2))] {
        pre.extend_from_slice(input.matmul_bias(w, b).map_err(err)?.as_slice());
    }
    run.set(
        "nn.tanh_ns",
        scaled_per_call(|| pre.iter().map(|&z| Activation::Tanh.apply(z)).sum::<f64>()) * 1e9,
    );
    let mut shard_rng = Rng64::seed_from_u64(seed);
    run.set(
        "nn.mlp_forward_cached_ns",
        scaled_per_call(|| mlp.forward_cached(&inputs[next()], &mut shard_rng)) * 1e9,
    );
    let caches = inputs
        .iter()
        .map(|x| mlp.forward_cached(x, &mut shard_rng))
        .collect::<Result<Vec<_>, _>>()
        .map_err(err)?;
    // Candidate confidences: the positive's, then the negatives', in order.
    let cand_conf: Vec<Vec<f64>> = batch
        .iter()
        .map(|m| m[1..].iter().map(|&i| confidences[i]).collect())
        .collect();
    let loss = |i: usize| {
        rll_core::loss::group_softmax_loss(caches[i].output(), &cand_conf[i], config.eta)
    };
    run.set("core.group_loss_ns", scaled_per_call(|| loss(next())) * 1e9);
    let grads = (0..batch.len())
        .map(|i| loss(i).map(|(_, g)| g))
        .collect::<Result<Vec<_>, _>>()
        .map_err(err)?;
    let mut local = mlp.clone();
    local.zero_grad();
    run.set(
        "nn.mlp_backward_ns",
        scaled_per_call(|| {
            let i = next();
            local.backward(&caches[i], &grads[i])
        }) * 1e9,
    );
    run.set("nn.mlp_clone_ns", scaled_per_call(|| mlp.clone()) * 1e9);
    let mut sum = local.clone();
    run.set(
        "nn.add_grads_ns",
        scaled_per_call(|| sum.add_grads_from(&local)) * 1e9,
    );
    // One optimizer step as the trainer takes it: scale, global norm, clip,
    // Adam. The scale factor is 1 so repeated steps keep the gradients'
    // magnitude (a shrinking gradient would reach subnormal floats).
    let mut opt = Adam::new(config.learning_rate).map_err(err)?;
    let clip = GradClip::new(config.grad_clip.unwrap_or(5.0)).map_err(err)?;
    let norm = |grads: &mut dyn Iterator<Item = &Matrix>| {
        grads
            .map(|g| g.frobenius_norm().powi(2))
            .sum::<f64>()
            .sqrt()
    };
    run.set(
        "nn.adam_step_us",
        scaled_per_call(|| {
            local.scale_grads(1.0);
            let mut params = local.param_grad_pairs();
            let pre_clip = norm(&mut params.iter().map(|(_, g)| g));
            let mut clipped: Vec<Matrix> = params.iter().map(|(_, g)| g.clone()).collect();
            clip.clip(&mut clipped);
            let post_clip = norm(&mut clipped.iter());
            for ((_, g), c) in params.iter_mut().zip(clipped) {
                *g = c;
            }
            (opt.step(params), pre_clip, post_clip)
        }) * 1e6,
    );

    // Train row: Σ layer × calls per epoch against a serial epoch.
    time_epochs(&mut epochs)?;
    let epoch_ms = percentile(&epochs, 0.5).map_err(err)? * 1e3;
    run.set("core.epoch_ms", epoch_ms);
    let per_group_ns = run.metrics["tensor.select_rows_ns"]
        + run.metrics["nn.mlp_forward_cached_ns"]
        + run.metrics["core.group_loss_ns"]
        + run.metrics["nn.mlp_backward_ns"];
    let per_shard_ns = run.metrics["nn.mlp_clone_ns"] + run.metrics["nn.add_grads_ns"];
    let ledger_ms = run.metrics["core.sample_batch_us"] / 1e3
        + GROUPS * per_group_ns / 1e6
        + (GROUPS / SHARD_GROUPS) * per_shard_ns / 1e6
        + run.metrics["nn.adam_step_us"] / 1e3;
    run.set("core.ledger_epoch_ms", ledger_ms);
    run.set(
        "core.ledger_residual_pct",
        residual_pct(epoch_ms, ledger_ms),
    );
    Ok(())
}

/// The share of `measured` the ledger leaves unexplained, in percent
/// (negative when the layer sum exceeds the measurement).
pub fn residual_pct(measured: f64, ledger: f64) -> f64 {
    (measured - ledger) / measured * 100.0
}

/// rll-serve's request-path pieces, engine and checkpoint, in process.
fn serve_layers(ctx: &Ctx, run: &mut Run) -> Result<(), String> {
    let dir = ctx.work_dir("ledger-serve");
    std::fs::create_dir_all(&dir).map_err(err)?;
    let ds = rll_data::presets::oral(ctx.seed).map_err(err)?;
    let path = dir.join("model.rllckpt");
    serving::train_checkpoint(&ds, ctx.seed, &path)?;
    let checkpoint = Checkpoint::load(&path).map_err(err)?;
    let saves = each_call(10, |_| checkpoint.save(&path).map_err(err))?;
    run.set("serve.checkpoint_save_ms", median_of(&saves)? * 1e3);
    run.set(
        "serve.checkpoint_load_ms",
        per_call(|| Checkpoint::load(&path)) * 1e3,
    );
    let model = ServingModel::from_checkpoint(checkpoint);
    for (rows, name) in [
        (1, "serve.embed_matrix_b1_us"),
        (4, "serve.embed_matrix_b4_us"),
        (16, "serve.embed_matrix_b16_us"),
    ] {
        let indices: Vec<usize> = (0..rows).collect();
        let batch = ds.features.select_rows(&indices).map_err(err)?;
        run.set(name, per_call(|| model.embed_matrix(&batch)) * 1e6);
    }
    let engine = InferenceEngine::start(
        model.clone(),
        EngineConfig {
            cache_capacity: 0,
            ..EngineConfig::default()
        },
        Recorder::disabled(),
    )
    .map_err(err)?;
    let row = ds.features.row(0).map_err(err)?.to_vec();
    run.set(
        "serve.engine_roundtrip_us",
        per_call(|| engine.embed(row.clone())) * 1e6,
    );
    engine.shutdown();

    // The hot request: one row in, one 16-float embedding out.
    let body = serde_json::to_string(&EmbedRequest {
        features: vec![row.clone()],
    })
    .map_err(err)?;
    let bytes = request_bytes("POST", "/embed", &body);
    run.set(
        "serve.http_parse_ns",
        per_call(|| {
            rll_serve::http::read_request(&mut std::io::BufReader::new(&bytes[..]), 1 << 20)
        }) * 1e9,
    );
    run.set(
        "serve.json_decode_ns",
        per_call(|| serde_json::from_str::<EmbedRequest>(&body)) * 1e9,
    );
    let embedding = model
        .embed_matrix(&Matrix::from_rows(std::slice::from_ref(&row)).map_err(err)?)
        .map_err(err)?
        .row(0)
        .map_err(err)?
        .to_vec();
    let response = EmbedResponse {
        embeddings: vec![embedding.clone()],
        dim: embedding.len(),
    };
    run.set(
        "serve.json_encode_ns",
        per_call(|| serde_json::to_string(&response)) * 1e9,
    );
    let response_body = serde_json::to_string(&response).map_err(err)?.into_bytes();
    let mut trace_id = 0u64;
    run.set(
        "serve.http_write_ns",
        per_call(|| {
            trace_id += 1;
            let mut wire = Vec::new();
            let written = rll_serve::http::write_response_with_headers(
                &mut wire,
                200,
                "OK",
                "application/json",
                &response_body,
                true,
                &[("x-rll-trace", format!("{trace_id:016x}"))],
            );
            (written, wire)
        }) * 1e9,
    );
    let mut lru: LruCache<Vec<f64>> = LruCache::new(1024);
    for key in 0..1024u64 {
        lru.insert(key, embedding.clone());
    }
    let mut key = 0u64;
    run.set(
        "serve.lru_get_hit_ns",
        per_call(|| {
            key = (key + 1) % 1024;
            lru.get(key)
        }) * 1e9,
    );
    let mut fresh = 1u64 << 40;
    run.set(
        "serve.lru_insert_ns",
        per_call(|| {
            fresh += 1;
            lru.insert(fresh, embedding.clone())
        }) * 1e9,
    );

    // The vote path's JSON, for the label row.
    let vote = Vote::new(3, 1, 1).with_key(7, 9);
    let vote_body = serde_json::to_string(&vote).map_err(err)?;
    run.set(
        "label.vote_decode_ns",
        per_call(|| serde_json::from_str::<Vote>(&vote_body)) * 1e9,
    );
    let receipt = IngestReceipt {
        seq: 50_123,
        example: 3,
        worker: 1,
        label: 1,
        votes: 9,
        positive: 6,
        confidence: 0.6363636363636364,
    };
    run.set(
        "label.receipt_encode_ns",
        per_call(|| serde_json::to_string(&receipt)) * 1e9,
    );
    Ok(())
}

/// rll-label: WAL append, the per-vote reopen and fsync, ingest, tracker,
/// replay, fold, compaction and a retrain-shaped fit.
fn label_layers(ctx: &Ctx, run: &mut Run) -> Result<(), String> {
    let dir = ctx.work_dir("ledger-label");
    std::fs::create_dir_all(&dir).map_err(err)?;
    let truth = live_dataset()?.expert_labels;
    let mut rng = Rng64::seed_from_u64(ctx.seed);

    // Appends that rotate a full segment seal it first: timed apart.
    let config = WalConfig::new(dir.join("wal"), SHARDS, SEGMENT_RECORDS).map_err(err)?;
    let shards = config.shards();
    let (mut wal, _) = ShardedWal::open(config).map_err(err)?;
    let mut per_shard = vec![0u64; SHARDS as usize];
    let (mut appends, mut seals) = (Vec::new(), Vec::new());
    for request in 0..1100u64 {
        let vote = labeling::vote(&mut rng, &truth).with_key(1, request);
        let shard = shard_of(vote.example, shards) as usize;
        let rotating = per_shard[shard] > 0 && per_shard[shard].is_multiple_of(SEGMENT_RECORDS);
        per_shard[shard] += 1;
        let clock = Stopwatch::start();
        wal.append(vote).map_err(err)?;
        let secs = clock.elapsed_secs();
        if rotating {
            seals.push(secs);
        } else {
            appends.push(secs);
        }
    }
    run.set("label.wal_append_us", median_of(&appends)? * 1e6);
    run.set("label.seal_ms", median_of(&seals)? * 1e3);

    // What every append does besides formatting: reopen the segment in
    // append mode, write the record line, `sync_data`.
    let segment = dir.join("reopen.rllwal");
    std::fs::write(&segment, b"{\"magic\":\"RLLWAL\"}\n").map_err(err)?;
    let line = b"0123456789abcdef {\"seq\":1,\"example\":4,\"worker\":0,\"label\":1}\n";
    let (mut opens, mut syncs) = (Vec::new(), Vec::new());
    for _ in 0..200 {
        let clock = Stopwatch::start();
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&segment)
            .map_err(err)?;
        let opened = clock.elapsed_secs();
        file.write_all(line).map_err(err)?;
        file.sync_data().map_err(err)?;
        opens.push(opened);
        syncs.push(clock.elapsed_secs() - opened);
    }
    run.set("label.segment_open_us", median_of(&opens)? * 1e6);
    run.set("label.fsync_us", median_of(&syncs)? * 1e6);

    let store =
        LabelStore::open(store_config(&dir.join("store")), Recorder::disabled()).map_err(err)?;
    let ingests = each_call(600, |i| {
        store
            .ingest(labeling::vote(&mut rng, &truth).with_key(2, i as u64))
            .map(drop)
            .map_err(err)
    })?;
    run.set("label.store_ingest_us", median_of(&ingests)? * 1e6);
    drop(store);

    let mut tracker = ConfidenceTracker::new(store_config(&dir).estimator).map_err(err)?;
    let mut seq = 0u64;
    run.set(
        "label.tracker_apply_ns",
        per_call(|| {
            seq += 1;
            tracker.apply(&VoteRecord {
                seq,
                example: seq % labeling::LIVE_ITEMS as u64,
                worker: (seq % 8) as u32,
                label: (seq % 2) as u8,
                session: None,
                request: None,
            })
        }) * 1e9,
    );

    // The seeded log: replay it, fold it, compact it — on fresh copies.
    let seeded = seeded_wal(&ctx.cache)?;
    let base = live_dataset()?;
    let (mut replays, mut folds, mut compactions) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    for k in 0..3 {
        let copy = dir.join(format!("seeded{k}"));
        crate::child::copy_dir(&seeded, &copy)?;
        let clock = Stopwatch::start();
        let store = LabelStore::open(store_config(&copy), Recorder::disabled()).map_err(err)?;
        replays.push(clock.elapsed_secs());
        let clock = Stopwatch::start();
        let (matrix, _, _) = store.fold_current(&base.annotations).map_err(err)?;
        folds.push(clock.elapsed_secs());
        let clock = Stopwatch::start();
        store.compact_below(store.high_water()).map_err(err)?;
        compactions.push(clock.elapsed_secs());
        last = Some((store, copy, matrix));
    }
    let kvotes = labeling::SEEDED_VOTES as f64 / 1e3;
    run.set(
        "label.replay_us_per_kvote",
        median_of(&replays)? * 1e6 / kvotes,
    );
    run.set("label.fold_ms", median_of(&folds)? * 1e3);
    run.set("label.compact_ms", median_of(&compactions)? * 1e3);
    // Every retrain round after the first compacts with a snapshot in
    // place, which it reads back first (as does a restart): timed once each,
    // after one round's worth of new votes.
    let (store, copy, folded) = last.ok_or("no seeded copy")?;
    for request in 0..400 {
        store
            .ingest(labeling::vote(&mut rng, &truth).with_key(3, request))
            .map_err(err)?;
    }
    let clock = Stopwatch::start();
    store.compact_below(store.high_water()).map_err(err)?;
    run.set("label.recompact_ms", clock.elapsed_secs() * 1e3);
    let snapshot = snapshot_path(&WalConfig::new(copy, SHARDS, SEGMENT_RECORDS).map_err(err)?);
    let clock = Stopwatch::start();
    read_snapshot(&snapshot)
        .map_err(err)?
        .ok_or("compaction wrote no snapshot")?;
    run.set("label.snapshot_read_ms", clock.elapsed_secs() * 1e3);
    let fits = each_call(3, |i| {
        RllPipeline::new(RllConfig {
            epochs: 10,
            groups_per_epoch: 128,
            ..RllConfig::default()
        })
        .fit(&base.features, &folded, ctx.seed ^ i as u64)
        .map_err(err)
    })?;
    run.set("label.retrain_fit_ms", median_of(&fits)? * 1e3);
    Ok(())
}

/// Median of each trace phase over the `/embed` requests that have it, in
/// microseconds.
fn trace_phases(path: &std::path::Path) -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut phases: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for line in text.lines() {
        let event: rll_obs::Event = serde_json::from_str(line).map_err(err)?;
        if let EventKind::Trace(record) = event.kind {
            if record.path == "/embed" {
                for phase in record.phases {
                    phases.entry(phase.phase).or_default().push(phase.secs);
                }
            }
        }
    }
    phases
        .into_iter()
        .map(|(name, secs)| Ok((name, percentile(&secs, 0.5).map_err(err)? * 1e6)))
        .collect()
}

/// A serve rerun: a short nominal step, then (untraced) the capacity ladder
/// and timed reloads.
fn rerun_params(mix: Mix, traced: bool) -> ServeParams {
    ServeParams {
        mix,
        nominal_secs: SERVE_RERUN_SECS,
        ladder_step_secs: (!traced).then_some(LADDER_STEP_SECS),
        reloads: !traced,
        traced,
    }
}

fn capacity(extras: &serving::ServeExtras) -> Result<f64, String> {
    extras
        .ladder
        .as_ref()
        .map(|l| l.capacity_rps)
        .ok_or_else(|| "no capacity ladder ran".to_string())
}

/// serve-hot untraced and traced (capacity, cache, handler, trace phases,
/// tracing overhead, generator lateness) and serve-cold (capacity,
/// batching, queue wait).
fn serve_reruns(ctx: &Ctx, run: &mut Run) -> Result<(), String> {
    let (plain, extras) = serving::run(ctx, &rerun_params(Mix::Hot, false));
    absorb(run, "serve-hot", plain);
    run.set("serve.hot_capacity_rps", capacity(&extras)?);
    let reload = extras
        .reload_secs
        .ok_or("serve-hot rerun timed no reload")?;
    run.set("serve.reload_ms", reload * 1e3);
    let nominal = extras.nominal.ok_or("serve-hot rerun measured nothing")?;
    let metrics = extras.metrics.ok_or("serve-hot rerun has no /metrics")?;
    run.set("serve.client_p50_us", nominal.p50_s * 1e6);
    run.set("serve.hot_p99_ms", nominal.p99_s * 1e3);
    run.set("loadgen.lateness_p99_ms", nominal.lateness_p99_s * 1e3);
    let counter = |name: &str| metrics.counters.get(name).copied().unwrap_or(0) as f64;
    let (hits, misses) = (counter("serve.cache.hits"), counter("serve.cache.misses"));
    run.set("serve.cache_hit_rate", hits / (hits + misses));
    let handler = metrics
        .histograms
        .get("serve.handler.embed")
        .ok_or("no serve.handler.embed histogram")?;
    run.set("serve.handler_embed_mean_us", handler.mean * 1e6);

    let (traced, traced_extras) = serving::run(ctx, &rerun_params(Mix::Hot, true));
    absorb(run, "serve-hot traced", traced);
    let traced_nominal = traced_extras
        .nominal
        .ok_or("traced rerun measured nothing")?;
    run.set(
        "obs.trace_overhead_pct",
        (traced_nominal.p50_s / nominal.p50_s - 1.0) * 100.0,
    );
    let phases = trace_phases(&traced_extras.trace_path.ok_or("no trace file")?)?;
    for (phase, name) in [
        ("parse", "serve.trace.parse_us"),
        ("queue_wait", "serve.trace.queue_wait_us"),
        ("batch_assembly", "serve.trace.batch_assembly_us"),
        ("forward", "serve.trace.forward_us"),
        ("cache_hit", "serve.trace.cache_hit_us"),
        ("serialize", "serve.trace.serialize_us"),
    ] {
        let value = phases
            .get(phase)
            .copied()
            .ok_or_else(|| format!("no {phase} phase in the trace"));
        run.set_or_note(name, value);
    }

    let (cold, cold_extras) = serving::run(ctx, &rerun_params(Mix::Cold, false));
    absorb(run, "serve-cold", cold);
    run.set("serve.cold_capacity_rps", capacity(&cold_extras)?);
    let cold_nominal = cold_extras
        .nominal
        .ok_or("serve-cold rerun measured nothing")?;
    run.set("serve.cold_p99_ms", cold_nominal.p99_s * 1e3);
    let metrics = cold_extras
        .metrics
        .ok_or("serve-cold rerun has no /metrics")?;
    let histogram = |name: &str| metrics.histograms.get(name);
    let batch = histogram("serve.batch.size").ok_or("no serve.batch.size histogram")?;
    run.set("serve.batch_mean_rows", batch.mean);
    let sum = |name: &str| histogram(name).map_or(0.0, |h| h.sum);
    let wait = sum("serve.queue.wait_ms") / 1e3;
    let compute = sum("serve.phase.batch_assembly") + sum("serve.phase.forward");
    run.set("serve.queue_wait_share", wait / (wait + compute));
    serve_row(run)
}

/// A short label-live run: reads under writes, ack latency, and the loop's
/// counts.
fn label_rerun(ctx: &Ctx, run: &mut Run) -> Result<(), String> {
    let outcome = labeling::run(ctx, LABEL_RERUN_SECS);
    absorb(run, "label-live", outcome.run);
    let load = outcome.load;
    let ms = |secs: &[f64], q: f64| percentile(secs, q).map(|s| s * 1e3).map_err(err);
    run.set_or_note("label.read_p50_ms", ms(&load.read_secs, 0.5));
    run.set_or_note("label.read_p99_ms", ms(&load.read_secs, 0.99));
    run.set_or_note("label.ack_p50_ms", ms(&load.ack_secs, 0.5));
    run.set_or_note("label.ack_p99_ms", ms(&load.ack_secs, 0.99));
    let lags = labeling::vote_to_reload(&load.acks, &load.polls);
    run.set_or_note(
        "label.vote_to_reload_s",
        median(&lags).ok_or("no retrain round folded a vote of the rerun"),
    );
    label_row(run, percentile(&load.ack_secs, 0.5).map_err(err)? * 1e6)?;
    let metrics = load.metrics.ok_or("no /metrics after the load")?;
    let counter = |name: &str| metrics.counters.get(name).copied().unwrap_or(0) as f64;
    run.set("label.rounds", counter("label.retrain.rounds"));
    run.set("label.compactions", counter("label.compact.runs"));
    run.set("label.votes_deduped", counter("label.votes.deduped"));
    run.set(
        "label.wal_bytes_end",
        metrics
            .gauges
            .get("label.wal.bytes")
            .copied()
            .unwrap_or(0.0),
    );
    Ok(())
}

/// The serve row: serve-hot's request path against the handler's mean and
/// the client's p50. Misses (1 − hit rate) take the engine round trip
/// instead of the cache lookup.
fn serve_row(run: &mut Run) -> Result<(), String> {
    let m = |name: &str| measured(run, name);
    let hit = m("serve.cache_hit_rate")?;
    let handler_ns = m("serve.json_decode_ns")?
        + hit * m("serve.lru_get_hit_ns")?
        + (1.0 - hit) * m("serve.engine_roundtrip_us")? * 1e3
        + m("serve.json_encode_ns")?;
    let request_us = (m("serve.http_parse_ns")? + handler_ns + m("serve.http_write_ns")?) / 1e3;
    let handler = residual_pct(m("serve.handler_embed_mean_us")?, handler_ns / 1e3);
    let client = residual_pct(m("serve.client_p50_us")?, request_us);
    run.set("serve.ledger_request_us", request_us);
    run.set("serve.ledger_handler_residual_pct", handler);
    run.set("serve.ledger_client_residual_pct", client);
    Ok(())
}

/// The label row: one vote's parse, decode, ingest (append + fsync +
/// tracker), encode and write, against the client's ack p50.
fn label_row(run: &mut Run, ack_p50_us: f64) -> Result<(), String> {
    let m = |name: &str| measured(run, name);
    let ack_us = m("label.store_ingest_us")?
        + (m("serve.http_parse_ns")?
            + m("label.vote_decode_ns")?
            + m("label.receipt_encode_ns")?
            + m("serve.http_write_ns")?)
            / 1e3;
    run.set("label.ledger_ack_us", ack_us);
    run.set(
        "label.ledger_residual_pct",
        residual_pct(ack_p50_us, ack_us),
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn residual_is_the_unexplained_share() {
        assert_eq!(residual_pct(10.0, 8.0), 20.0);
        assert_eq!(residual_pct(10.0, 12.5), -25.0);
        assert_eq!(residual_pct(4.0, 4.0), 0.0);
    }

    #[test]
    fn rows_add_the_layers_the_request_passes() {
        let mut run = Run::default();
        for (name, value) in [
            ("serve.cache_hit_rate", 0.95),
            ("serve.json_decode_ns", 1000.0),
            ("serve.lru_get_hit_ns", 100.0),
            ("serve.engine_roundtrip_us", 20.0),
            ("serve.json_encode_ns", 1500.0),
            ("serve.http_parse_ns", 2000.0),
            ("serve.http_write_ns", 500.0),
            ("serve.handler_embed_mean_us", 5.0),
            ("serve.client_p50_us", 50.0),
            ("label.store_ingest_us", 150.0),
            ("label.vote_decode_ns", 800.0),
            ("label.receipt_encode_ns", 700.0),
        ] {
            run.set(name, value);
        }
        serve_row(&mut run).unwrap();
        label_row(&mut run, 200.0).unwrap();
        // handler: 1000 + 0.95·100 + 0.05·20000 + 1500 = 3595 ns.
        let m = &run.metrics;
        assert!((m["serve.ledger_handler_residual_pct"] - residual_pct(5.0, 3.595)).abs() < 1e-9);
        // request: 2000 + 3595 + 500 = 6095 ns.
        assert!((m["serve.ledger_request_us"] - 6.095).abs() < 1e-9);
        assert!((m["serve.ledger_client_residual_pct"] - residual_pct(50.0, 6.095)).abs() < 1e-9);
        // ack: 150 µs + (2000 + 800 + 700 + 500) ns = 154 µs.
        assert!((m["label.ledger_ack_us"] - 154.0).abs() < 1e-9);
        assert!((m["label.ledger_residual_pct"] - 23.0).abs() < 1e-9);
    }

    #[test]
    fn per_call_grows_with_the_work() {
        let small = per_call(|| (0..100u64).map(black_box).sum::<u64>());
        let large = per_call(|| (0..10_000u64).map(black_box).sum::<u64>());
        assert!(large > 10.0 * small, "{small} vs {large}");
    }
}
