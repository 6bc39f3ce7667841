//! Ablations of RLL's design choices (DESIGN.md §7).
//!
//! These go beyond the paper's tables: they isolate the contribution of the
//! confidence estimator, the softmax temperature `η`, the embedding
//! dimension, and the (extension) confidence-biased negative sampling.

use crate::experiments::ExperimentScale;
use crate::harness::{CrossValidator, MethodScore};
use crate::method::{MethodSpec, TrainBudget};
use crate::Result;
use rll_core::pipeline::score_predictions;
use rll_core::{RllConfig, RllPipeline, RllVariant, SamplingStrategy};
use rll_data::{presets, Dataset, StratifiedKFold};
use serde::{Deserialize, Serialize};

/// One ablation point: a label and its cross-validated scores.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AblationPoint {
    /// What was varied (e.g. `"eta=5"`).
    pub label: String,
    /// Scores at this setting.
    pub score: MethodScore,
}

/// Sweeps the softmax temperature `η` for RLL-Bayesian on `oral`, with
/// telemetry through `recorder`.
pub fn eta_sweep(
    scale: ExperimentScale,
    seed: u64,
    etas: &[f64],
    recorder: &rll_obs::Recorder,
) -> Result<Vec<AblationPoint>> {
    let ds = presets::oral_scaled(scale.oral_n(), seed)?;
    etas.iter()
        .map(|&eta| {
            recorder.note(format!("ablation: eta={eta}"));
            let budget = TrainBudget {
                eta,
                ..scale.budget()
            };
            let cv = CrossValidator {
                folds: scale.folds(),
                budget,
                seed,
                parallel: true,
            };
            Ok(AblationPoint {
                label: format!("eta={eta}"),
                score: cv.evaluate(MethodSpec::Rll(RllVariant::Bayesian), &ds, recorder)?,
            })
        })
        .collect()
}

/// Compares the confidence estimators at a fixed seed and budget — the core
/// ablation behind the paper's RLL / RLL+MLE / RLL+Bayesian rows, plus the
/// worker-aware extension — with telemetry through `recorder`.
pub fn confidence_ablation(
    scale: ExperimentScale,
    seed: u64,
    recorder: &rll_obs::Recorder,
) -> Result<Vec<AblationPoint>> {
    let ds = presets::class_scaled(scale.class_n(), seed)?;
    let cv = CrossValidator {
        folds: scale.folds(),
        budget: scale.budget(),
        seed,
        parallel: true,
    };
    [
        RllVariant::Plain,
        RllVariant::Mle,
        RllVariant::Bayesian,
        RllVariant::WorkerAware,
    ]
    .into_iter()
    .map(|variant| {
        Ok(AblationPoint {
            label: variant.name().to_string(),
            score: cv.evaluate(MethodSpec::Rll(variant), &ds, recorder)?,
        })
    })
    .collect()
}

/// Sweeps the embedding dimension for RLL-Bayesian on `oral`, with
/// telemetry through `recorder`.
pub fn dim_sweep(
    scale: ExperimentScale,
    seed: u64,
    dims: &[usize],
    recorder: &rll_obs::Recorder,
) -> Result<Vec<AblationPoint>> {
    let ds = presets::oral_scaled(scale.oral_n(), seed)?;
    dims.iter()
        .map(|&dim| {
            recorder.note(format!("ablation: embedding dim={dim}"));
            let budget = TrainBudget {
                embedding_dim: dim,
                ..scale.budget()
            };
            let cv = CrossValidator {
                folds: scale.folds(),
                budget,
                seed,
                parallel: true,
            };
            Ok(AblationPoint {
                label: format!("dim={dim}"),
                score: cv.evaluate(MethodSpec::Rll(RllVariant::Bayesian), &ds, recorder)?,
            })
        })
        .collect()
}

/// Compares uniform vs. confidence-biased negative sampling (this
/// reproduction's extension) on one dataset, single held-out fold per seed.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SamplingAblation {
    /// Accuracy with the paper's uniform sampling.
    pub uniform_accuracy: f64,
    /// Accuracy with confidence-biased sampling.
    pub biased_accuracy: f64,
    /// Gamma used by the biased variant.
    pub gamma: f64,
}

/// Runs the sampling-strategy ablation, with telemetry through `recorder`.
/// The sampler's rejection counts in `SamplerBatch` events are the
/// interesting part here: they show how contended the confidence-biased
/// weights are.
pub fn sampling_ablation(
    scale: ExperimentScale,
    seed: u64,
    gamma: f64,
    recorder: &rll_obs::Recorder,
) -> Result<SamplingAblation> {
    let ds = presets::class_scaled(scale.class_n(), seed)?;
    let run = |strategy: SamplingStrategy| -> Result<f64> {
        recorder.note(format!("ablation: sampling strategy {strategy:?}"));
        let budget = scale.budget();
        let config = RllConfig {
            sampling: strategy,
            ..budget.rll_config(RllVariant::Bayesian)
        };
        single_fold_accuracy(&ds, config, seed, recorder)
    };
    Ok(SamplingAblation {
        uniform_accuracy: run(SamplingStrategy::Uniform)?,
        biased_accuracy: run(SamplingStrategy::ConfidenceBiased { gamma })?,
        gamma,
    })
}

/// Trains on folds 1.. and scores fold 0 against expert labels.
fn single_fold_accuracy(
    ds: &Dataset,
    config: RllConfig,
    seed: u64,
    recorder: &rll_obs::Recorder,
) -> Result<f64> {
    let folds = StratifiedKFold::new(&ds.expert_labels, 5, seed)?;
    let split = folds.split(0)?;
    let train = ds.select(&split.train)?;
    let test = ds.select(&split.test)?;
    let mut pipeline = RllPipeline::new(config).with_recorder(recorder.clone());
    pipeline.fit(&train.features, &train.annotations, seed)?;
    let pred = pipeline.predict(&test.features)?;
    Ok(score_predictions(&pred, &test.expert_labels)?.accuracy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rll_obs::Recorder;

    #[test]
    fn eta_sweep_runs() {
        let points = eta_sweep(
            ExperimentScale::Quick,
            3,
            &[5.0, 10.0],
            &Recorder::disabled(),
        )
        .unwrap();
        assert_eq!(points.len(), 2);
        assert!(points[0].label.contains("eta=5"));
        assert!(points.iter().all(|p| p.score.accuracy.mean > 0.4));
    }

    #[test]
    fn confidence_ablation_runs() {
        let points = confidence_ablation(ExperimentScale::Quick, 4, &Recorder::disabled()).unwrap();
        assert_eq!(points.len(), 4);
        assert_eq!(points[0].label, "RLL");
        assert_eq!(points[2].label, "RLL+Bayesian");
        assert_eq!(points[3].label, "RLL+Worker");
    }

    #[test]
    fn sampling_ablation_runs() {
        let result =
            sampling_ablation(ExperimentScale::Quick, 5, 1.0, &Recorder::disabled()).unwrap();
        assert!(result.uniform_accuracy > 0.4);
        assert!(result.biased_accuracy > 0.4);
        assert_eq!(result.gamma, 1.0);
    }
}
