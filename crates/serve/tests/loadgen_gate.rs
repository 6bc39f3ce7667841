//! Runs the `loadgen` gate driver against an in-process, label-enabled
//! server: the same binary and flags the CI soak gate relies on, held to
//! its exit status.

use rll_core::{RllModel, RllModelConfig};
use rll_data::Normalizer;
use rll_obs::Recorder;
use rll_serve::{
    Checkpoint, EmbedServer, EngineConfig, InferenceEngine, ServerConfig, ServingModel,
};
use rll_tensor::{Matrix, Rng64};
use std::process::Command;
use std::sync::Arc;

const INPUT_DIM: usize = 3;
/// Matches the `--label-n` and `--label-workers` the runs below pass, so
/// every truthful vote lands on an example and worker the store accepts.
const NUM_EXAMPLES: u64 = 80;
const MAX_WORKERS: u32 = 8;

fn test_checkpoint() -> Checkpoint {
    let mut rng = Rng64::seed_from_u64(7);
    let config = RllModelConfig {
        hidden_dims: vec![8],
        embedding_dim: 4,
        ..RllModelConfig::for_input(INPUT_DIM)
    };
    let model = RllModel::new(config, &mut rng).expect("model");
    let features = Matrix::from_fn(16, INPUT_DIM, |r, c| (r as f64) * 0.4 - (c as f64) * 1.1);
    let normalizer = Normalizer::fit(&features).expect("normalizer");
    Checkpoint::new(model, normalizer, "loadgen-gate").expect("checkpoint")
}

/// Starts a label-enabled server on an ephemeral port, runs `loadgen`
/// against it with `extra` flags, and returns whether it exited 0.
fn loadgen_passes(name: &str, extra: &[&str]) -> bool {
    let dir = std::env::temp_dir().join(format!("rll_loadgen_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let engine = InferenceEngine::start(
        ServingModel::from_checkpoint(test_checkpoint()),
        EngineConfig::default(),
        Recorder::disabled(),
    )
    .expect("engine");
    let store = rll_label::LabelStore::open(
        rll_label::LabelStoreConfig {
            dir: dir.clone(),
            shards: 2,
            segment_records: 16,
            estimator: rll_crowd::ConfidenceEstimator::Mle,
            num_examples: NUM_EXAMPLES,
            max_workers: MAX_WORKERS,
            dedup_capacity: rll_label::DEFAULT_DEDUP_CAPACITY,
            manifest_path: None,
        },
        Recorder::disabled(),
    )
    .expect("label store");
    let server = EmbedServer::start_with_labels(
        engine.clone(),
        ServerConfig::default(),
        Recorder::disabled(),
        "loadgen-gate",
        Some(Arc::new(store)),
    )
    .expect("server");
    let status = Command::new(env!("CARGO_BIN_EXE_loadgen"))
        .args(["--addr", &server.local_addr().to_string()])
        .args(["--requests", "60", "--concurrency", "2", "--seed", "42"])
        .args(["--labels", "--label-n", &NUM_EXAMPLES.to_string()])
        .args(["--label-workers", &MAX_WORKERS.to_string()])
        .args(extra)
        .status()
        .expect("spawn loadgen");
    server.shutdown();
    engine.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    status.success()
}

#[test]
fn strict_mixed_run_with_duplicate_retries_passes() {
    assert!(loadgen_passes(
        "mixed",
        &["--label-dup-frac", "0.1", "--strict"]
    ));
}

#[test]
fn strict_vote_only_run_passes() {
    // Every request is a vote: acked votes must count as successes, or a
    // fully acked run exits with "no request succeeded".
    assert!(loadgen_passes(
        "votes",
        &["--label-frac", "1.0", "--strict"]
    ));
}
