//! Stratified 5-fold cross validation over the methods, matching the paper's
//! protocol ("for each task, we conduct a 5-fold cross validation on the
//! datasets and report the average performance").

use crate::error::EvalError;
use crate::method::{fit_predict, MethodSpec, TrainBudget};
use crate::metrics::ConfusionMatrix;
use crate::Result;
use rll_data::{Dataset, StratifiedKFold};
use rll_obs::{EventKind, FoldStats, MethodStats, Recorder, Stopwatch};
use serde::{Deserialize, Serialize};

/// Mean ± std of a metric across folds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FoldScores {
    /// Mean across folds.
    pub mean: f64,
    /// Population standard deviation across folds.
    pub std: f64,
}

impl FoldScores {
    /// Summarizes per-fold values.
    pub fn from_values(values: &[f64]) -> Result<Self> {
        let mean = rll_tensor::stats::mean(values)?;
        let std = rll_tensor::stats::std_dev(values)?;
        Ok(FoldScores { mean, std })
    }
}

/// Cross-validated scores for one method on one dataset.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MethodScore {
    /// Method name (Table I row label).
    pub method: String,
    /// Paper group (1–4).
    pub group: u8,
    /// Dataset name.
    pub dataset: String,
    /// Accuracy across folds.
    pub accuracy: FoldScores,
    /// F1 across folds.
    pub f1: FoldScores,
    /// Per-fold accuracies (for significance analysis).
    pub fold_accuracies: Vec<f64>,
    /// Per-fold F1 scores.
    pub fold_f1s: Vec<f64>,
}

/// Runs stratified K-fold cross validation of methods over a dataset.
#[derive(Debug, Clone)]
pub struct CrossValidator {
    /// Number of folds (the paper uses 5).
    pub folds: usize,
    /// Compute budget per fit.
    pub budget: TrainBudget,
    /// Base seed; fold `f` trains with seed `seed + f`.
    pub seed: u64,
    /// Run folds concurrently on up to `RLL_THREADS` scoped worker threads
    /// (fold scores are identical either way; only wall-clock time changes).
    pub parallel: bool,
}

impl CrossValidator {
    /// The paper's protocol: 5 folds.
    pub fn paper_protocol(budget: TrainBudget, seed: u64) -> Self {
        CrossValidator {
            folds: 5,
            budget,
            seed,
            parallel: true,
        }
    }

    /// Evaluates one method on one dataset, emitting a `FoldEnd` event per
    /// fold and a `MethodEnd` summary through `recorder`. The recorder is
    /// also threaded into RLL training, so per-epoch events appear inside
    /// each fold (interleaved across folds when `parallel` is set; fold ids
    /// on `FoldEnd` events disambiguate).
    pub fn evaluate(
        &self,
        spec: MethodSpec,
        dataset: &Dataset,
        recorder: &Recorder,
    ) -> Result<MethodScore> {
        if self.folds < 2 {
            return Err(EvalError::InvalidConfig {
                reason: format!("need at least 2 folds, got {}", self.folds),
            });
        }
        dataset.validate()?;
        let method_start = Stopwatch::start();
        // Stratify on expert labels: the paper's CV splits the *dataset*, and
        // fold boundaries are part of the protocol, not the method. (Expert
        // labels still never reach training.)
        let kfold = StratifiedKFold::new(&dataset.expert_labels, self.folds, self.seed)?;

        let run_fold = |fold: usize| -> Result<(f64, f64)> {
            let fold_start = Stopwatch::start();
            let split = kfold.split(fold)?;
            let train = dataset.select(&split.train)?;
            let test = dataset.select(&split.test)?;
            let predictions = fit_predict(
                spec,
                self.budget,
                &train.features,
                &train.annotations,
                &test.features,
                self.seed + fold as u64,
                recorder,
            )?;
            let cm = ConfusionMatrix::from_predictions(&predictions, &test.expert_labels)?;
            recorder.emit(EventKind::FoldEnd(FoldStats {
                method: spec.name(),
                fold,
                accuracy: cm.accuracy(),
                wall_secs: fold_start.elapsed_secs(),
            }));
            Ok((cm.accuracy(), cm.f1()))
        };

        // Every fold owns an independent seeded RNG (`seed + fold`), so folds
        // can run concurrently without touching each other's streams.
        // `try_map_ordered` hands results back in fold order — not completion
        // order — so fold scores (and any error) are scheduler-independent.
        let threads = if self.parallel {
            self.folds.min(rll_par::configured_threads())
        } else {
            1
        };
        let fold_ids: Vec<usize> = (0..self.folds).collect();
        let fold_results = rll_par::try_map_ordered(&fold_ids, threads, |_, &fold| run_fold(fold))?;
        let accs: Vec<f64> = fold_results.iter().map(|(a, _)| *a).collect();
        let f1s: Vec<f64> = fold_results.iter().map(|(_, f)| *f).collect();
        let accuracy = FoldScores::from_values(&accs)?;
        recorder.emit(EventKind::MethodEnd(MethodStats {
            method: spec.name(),
            folds: accs.len(),
            mean_accuracy: accuracy.mean,
            std_accuracy: accuracy.std,
            wall_secs: method_start.elapsed_secs(),
        }));
        Ok(MethodScore {
            method: spec.name(),
            group: spec.group(),
            dataset: dataset.name.clone(),
            accuracy,
            f1: FoldScores::from_values(&f1s)?,
            fold_accuracies: accs,
            fold_f1s: f1s,
        })
    }

    /// Evaluates a list of methods on one dataset, emitting per-fold and
    /// per-method events through `recorder`.
    pub fn evaluate_all(
        &self,
        specs: &[MethodSpec],
        dataset: &Dataset,
        recorder: &Recorder,
    ) -> Result<Vec<MethodScore>> {
        specs
            .iter()
            .map(|&s| self.evaluate(s, dataset, recorder))
            .collect()
    }
}

/// Outcome of comparing two methods on the same folds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Comparison {
    /// Mean accuracy difference (`a - b`).
    pub accuracy_delta: f64,
    /// Paired t-statistic on per-fold accuracies (`None` when the folds are
    /// identical, i.e. no measurable difference).
    pub t_statistic: Option<f64>,
    /// Approximate two-sided p-value (normal approximation; `None` when the
    /// t-statistic is undefined).
    pub p_value: Option<f64>,
}

/// Paired comparison of two [`MethodScore`]s produced by the *same*
/// [`CrossValidator`] on the *same* dataset (so folds align).
pub fn compare(a: &MethodScore, b: &MethodScore) -> Result<Comparison> {
    if a.fold_accuracies.len() != b.fold_accuracies.len() {
        return Err(EvalError::InvalidConfig {
            reason: format!(
                "fold counts differ: {} vs {}",
                a.fold_accuracies.len(),
                b.fold_accuracies.len()
            ),
        });
    }
    let accuracy_delta = a.accuracy.mean - b.accuracy.mean;
    match rll_tensor::stats::paired_t(&a.fold_accuracies, &b.fold_accuracies) {
        Ok((t, df)) => Ok(Comparison {
            accuracy_delta,
            t_statistic: Some(t),
            p_value: Some(rll_tensor::stats::approx_two_sided_p(t, df)),
        }),
        // Zero-variance differences (e.g. identical predictions): report "no
        // measurable difference" rather than erroring the whole experiment.
        Err(_) => Ok(Comparison {
            accuracy_delta,
            t_statistic: None,
            p_value: None,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rll_core::RllVariant;
    use rll_crowd::simulate::WorkerModel;
    use rll_data::generator::gaussian_mixture;

    fn quick_cv(parallel: bool) -> CrossValidator {
        CrossValidator {
            folds: 3,
            budget: TrainBudget::quick(),
            seed: 11,
            parallel,
        }
    }

    fn dataset() -> Dataset {
        gaussian_mixture(
            90,
            3,
            2.5,
            0.6,
            &[WorkerModel::OneCoin { accuracy: 0.8 }; 5],
            5,
        )
        .unwrap()
    }

    #[test]
    fn fold_scores_summary() {
        let s = FoldScores::from_values(&[0.8, 0.9, 1.0]).unwrap();
        assert!((s.mean - 0.9).abs() < 1e-12);
        assert!(s.std > 0.0);
        assert!(FoldScores::from_values(&[]).is_err());
    }

    #[test]
    fn evaluates_a_simple_method() {
        let ds = dataset();
        let score = quick_cv(false)
            .evaluate(MethodSpec::SoftProb, &ds, &Recorder::disabled())
            .unwrap();
        assert_eq!(score.method, "SoftProb");
        assert_eq!(score.group, 1);
        assert_eq!(score.fold_accuracies.len(), 3);
        assert!(
            score.accuracy.mean > 0.7,
            "accuracy {}",
            score.accuracy.mean
        );
        assert!(score.f1.mean > 0.7);
    }

    #[test]
    fn parallel_matches_sequential() {
        let ds = dataset();
        let seq = quick_cv(false)
            .evaluate(MethodSpec::Em, &ds, &Recorder::disabled())
            .unwrap();
        let par = quick_cv(true)
            .evaluate(MethodSpec::Em, &ds, &Recorder::disabled())
            .unwrap();
        assert_eq!(seq.fold_accuracies, par.fold_accuracies);
        assert_eq!(seq.fold_f1s, par.fold_f1s);
    }

    #[test]
    fn rll_evaluates_under_cv() {
        let ds = dataset();
        let score = quick_cv(true)
            .evaluate(
                MethodSpec::Rll(RllVariant::Bayesian),
                &ds,
                &Recorder::disabled(),
            )
            .unwrap();
        assert_eq!(score.method, "RLL+Bayesian");
        assert_eq!(score.group, 4);
        assert!(
            score.accuracy.mean > 0.6,
            "accuracy {}",
            score.accuracy.mean
        );
    }

    #[test]
    fn validates_fold_count() {
        let ds = dataset();
        let cv = CrossValidator {
            folds: 1,
            budget: TrainBudget::quick(),
            seed: 1,
            parallel: false,
        };
        assert!(cv
            .evaluate(MethodSpec::SoftProb, &ds, &Recorder::disabled())
            .is_err());
    }

    #[test]
    fn evaluate_all_preserves_order() {
        let ds = dataset();
        let specs = [MethodSpec::SoftProb, MethodSpec::Em];
        let scores = quick_cv(false)
            .evaluate_all(&specs, &ds, &Recorder::disabled())
            .unwrap();
        assert_eq!(scores.len(), 2);
        assert_eq!(scores[0].method, "SoftProb");
        assert_eq!(scores[1].method, "EM");
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = dataset();
        let a = quick_cv(false)
            .evaluate(MethodSpec::SoftProb, &ds, &Recorder::disabled())
            .unwrap();
        let b = quick_cv(false)
            .evaluate(MethodSpec::SoftProb, &ds, &Recorder::disabled())
            .unwrap();
        assert_eq!(a.fold_accuracies, b.fold_accuracies);
    }

    #[test]
    fn compare_self_is_no_difference() {
        let ds = dataset();
        let a = quick_cv(false)
            .evaluate(MethodSpec::SoftProb, &ds, &Recorder::disabled())
            .unwrap();
        let cmp = compare(&a, &a).unwrap();
        assert_eq!(cmp.accuracy_delta, 0.0);
        assert!(cmp.t_statistic.is_none());
        assert!(cmp.p_value.is_none());
    }

    #[test]
    fn compare_different_methods() {
        let ds = dataset();
        let cv = quick_cv(false);
        let a = cv
            .evaluate(MethodSpec::SoftProb, &ds, &Recorder::disabled())
            .unwrap();
        let b = cv
            .evaluate(MethodSpec::Em, &ds, &Recorder::disabled())
            .unwrap();
        let cmp = compare(&a, &b).unwrap();
        assert!((cmp.accuracy_delta - (a.accuracy.mean - b.accuracy.mean)).abs() < 1e-12);
        if let Some(p) = cmp.p_value {
            assert!((0.0..=1.0).contains(&p));
        }
        // Fold-count mismatch rejected.
        let mut short = b.clone();
        short.fold_accuracies.pop();
        assert!(compare(&a, &short).is_err());
    }
}
