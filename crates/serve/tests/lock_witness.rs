//! The runtime lock-order witness, exercised through the real serving stack.
//!
//! `cargo test` builds with `debug_assertions`, so the witness is on by
//! default here (no `RLL_LOCK_WITNESS` override needed); a release run arms
//! it only with `RLL_LOCK_WITNESS=1`, and unarmed it must count nothing.
//! Armed, the assertions below prove two things the static
//! `lock-order-cycle` rule cannot:
//!
//! 1. the rank-annotated wrappers adopted by the engine/server really are on
//!    the hot path — [`rll_par::lockorder::validations`] strictly increases
//!    while requests flow — and
//! 2. the declared rank ladder (workers 10 < model 20 < queue 30 < cache 40)
//!    holds at runtime for submit, cache-hit, reload, and shutdown paths:
//!    any inversion would panic the thread and fail the test.

use rll_core::{RllModel, RllModelConfig};
use rll_data::Normalizer;
use rll_obs::Recorder;
use rll_serve::{Checkpoint, EngineConfig, InferenceEngine, ServingModel};
use rll_tensor::{Matrix, Rng64};

const INPUT_DIM: usize = 3;

fn test_checkpoint(seed: u64) -> Checkpoint {
    let mut rng = Rng64::seed_from_u64(seed);
    let config = RllModelConfig {
        hidden_dims: vec![8],
        embedding_dim: 4,
        ..RllModelConfig::for_input(INPUT_DIM)
    };
    let model = RllModel::new(config, &mut rng).expect("model");
    let features = Matrix::from_fn(16, INPUT_DIM, |r, c| (r as f64) * 0.4 - (c as f64) * 1.1);
    let normalizer = Normalizer::fit(&features).expect("normalizer");
    Checkpoint::new(model, normalizer, "witness-test-run").expect("checkpoint")
}

#[test]
fn witness_is_enabled_and_validates_engine_lock_traffic() {
    let armed = rll_par::lockorder::witness_enabled();
    assert!(
        armed || !cfg!(debug_assertions),
        "debug/test builds must run with the lock-order witness on"
    );
    let before = rll_par::lockorder::validations();

    let engine = InferenceEngine::start(
        ServingModel::from_checkpoint(test_checkpoint(11)),
        EngineConfig::default(),
        Recorder::disabled(),
    )
    .expect("engine");

    // Queue + model locks: a miss goes through queue(30) and model(20) on
    // the worker; the repeat hits cache(40).
    let features = vec![0.25, -1.5, 2.0];
    let a = engine.embed(features.clone()).expect("embed");
    let b = engine.embed(features).expect("embed again (cache hit)");
    assert_eq!(a, b, "cache hit must return the same embedding");

    // Reload takes model.write() then cache(40); the nested shutdown path
    // takes workers(10) and drains queue(30) under it — the one deliberately
    // nested acquisition, which must validate cleanly, not panic.
    engine.reload(ServingModel::from_checkpoint(test_checkpoint(12)));
    engine
        .embed(vec![1.0, 2.0, 3.0])
        .expect("embed after reload");
    engine.shutdown();

    let after = rll_par::lockorder::validations();
    if armed {
        assert!(
            after > before,
            "the witness must observe lock traffic on the serving path \
             (before={before}, after={after})"
        );
    } else {
        assert_eq!(after, 0, "an unarmed witness counts nothing");
    }
}
