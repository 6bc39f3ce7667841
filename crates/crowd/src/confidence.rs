//! Label-confidence estimation (paper §III-B).
//!
//! For each item with crowd votes `y_{i,1..d}` the framework derives a
//! confidence `δ_i` about its aggregated label:
//!
//! - **MLE** (eq. 1): `δ_i = Σ_j y_{i,j} / d` — the raw positive-vote
//!   fraction, unreliable when `d` is small;
//! - **Bayesian** (eq. 2): `δ_i = (α + Σ_j y_{i,j}) / (α + β + d)` — the mean
//!   of the Beta posterior under a `Beta(α, β)` prior, which shrinks extreme
//!   estimates toward the prior when votes are few.
//!
//! The paper sets `(α, β)` from the label class prior; [`BetaPrior::from_class_prior`]
//! implements that mapping with an explicit pseudo-count strength.
//!
//! For an item whose aggregated label is *negative*, the confidence of its
//! "negativeness" is the complement; [`ConfidenceEstimator::label_confidences`]
//! returns per-item confidence of the item's own aggregated label, which is
//! what the RLL loss consumes (`δ_j`, `δ_*` in eq. 3).

use crate::annotations::AnnotationMatrix;
use crate::error::CrowdError;
use crate::Result;
use serde::{Deserialize, Serialize};

/// A `Beta(α, β)` prior over per-item "positiveness".
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BetaPrior {
    /// Pseudo-count of positive votes.
    pub alpha: f64,
    /// Pseudo-count of negative votes.
    pub beta: f64,
}

impl BetaPrior {
    /// Creates a prior, validating that both parameters are positive.
    pub fn new(alpha: f64, beta: f64) -> Result<Self> {
        if alpha <= 0.0 || beta <= 0.0 || !alpha.is_finite() || !beta.is_finite() {
            return Err(CrowdError::InvalidConfig {
                reason: format!("Beta prior parameters must be positive, got ({alpha}, {beta})"),
            });
        }
        Ok(BetaPrior { alpha, beta })
    }

    /// The uniform prior `Beta(1, 1)`.
    pub fn uniform() -> Self {
        BetaPrior {
            alpha: 1.0,
            beta: 1.0,
        }
    }

    /// Builds the prior from the dataset's positive-class prior, as the paper
    /// does ("we use label class prior to set the hyper parameters α and β").
    ///
    /// `positive_prior` is `P(y = 1)`; `strength` is the total pseudo-count
    /// `α + β` (how strongly the prior resists the observed votes).
    pub fn from_class_prior(positive_prior: f64, strength: f64) -> Result<Self> {
        // Open interval (0, 1): rejects 0, 1, and NaN in one comparison.
        if !(positive_prior > 0.0 && positive_prior < 1.0) {
            return Err(CrowdError::InvalidConfig {
                reason: format!("positive prior must be in (0, 1), got {positive_prior}"),
            });
        }
        if strength <= 0.0 || !strength.is_finite() {
            return Err(CrowdError::InvalidConfig {
                reason: format!("prior strength must be positive, got {strength}"),
            });
        }
        BetaPrior::new(positive_prior * strength, (1.0 - positive_prior) * strength)
    }

    /// The prior mean `α / (α + β)`.
    pub fn mean(&self) -> f64 {
        self.alpha / (self.alpha + self.beta)
    }
}

/// Which confidence estimator to use (the paper's RLL variants).
///
/// ```
/// use rll_crowd::{BetaPrior, ConfidenceEstimator};
///
/// // 3-of-5 positive votes under the paper's two estimators:
/// let mle = ConfidenceEstimator::Mle.positiveness(3, 5)?;
/// assert!((mle - 0.6).abs() < 1e-12); // eq. (1)
///
/// let prior = BetaPrior::from_class_prior(0.64, 2.0)?; // from pos:neg = 1.8
/// let bayes = ConfidenceEstimator::Bayesian(prior).positiveness(3, 5)?;
/// assert!((bayes - (prior.alpha + 3.0) / (prior.alpha + prior.beta + 5.0)).abs() < 1e-12); // eq. (2)
/// # Ok::<(), rll_crowd::CrowdError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ConfidenceEstimator {
    /// No confidence weighting: every δ is 1 (plain RLL).
    None,
    /// Eq. (1): the positive-vote fraction.
    Mle,
    /// Eq. (2): the Beta-posterior mean under the given prior.
    Bayesian(BetaPrior),
}

impl ConfidenceEstimator {
    /// Short stable name for telemetry and reports.
    pub fn name(&self) -> &'static str {
        match self {
            ConfidenceEstimator::None => "none",
            ConfidenceEstimator::Mle => "mle",
            ConfidenceEstimator::Bayesian(_) => "bayesian",
        }
    }

    /// Posterior "positiveness" `δ_i` for one item given its votes.
    pub fn positiveness(&self, positive_votes: usize, total_votes: usize) -> Result<f64> {
        if positive_votes > total_votes {
            return Err(CrowdError::InvalidAnnotations {
                reason: format!("{positive_votes} positive votes out of {total_votes}"),
            });
        }
        match *self {
            ConfidenceEstimator::None => Ok(1.0),
            ConfidenceEstimator::Mle => {
                if total_votes == 0 {
                    return Err(CrowdError::InvalidAnnotations {
                        reason: "MLE confidence undefined with zero votes".into(),
                    });
                }
                Ok(positive_votes as f64 / total_votes as f64)
            }
            ConfidenceEstimator::Bayesian(prior) => {
                // `BetaPrior`'s fields are public, so a degenerate prior
                // (non-positive or non-finite α/β) can reach this point
                // without going through `BetaPrior::new`. With zero votes a
                // `Beta(0, 0)` prior would yield 0/0 = NaN, which then leaks
                // into /metrics gauges and trace output; reject it here with
                // the same open-interval rule `new` enforces.
                if !(prior.alpha > 0.0
                    && prior.beta > 0.0
                    && prior.alpha.is_finite()
                    && prior.beta.is_finite())
                {
                    return Err(CrowdError::InvalidConfig {
                        reason: format!(
                            "Bayesian confidence requires a prior with finite positive (α, β), got ({}, {})",
                            prior.alpha, prior.beta
                        ),
                    });
                }
                Ok((prior.alpha + positive_votes as f64)
                    / (prior.alpha + prior.beta + total_votes as f64))
            }
        }
    }

    /// Per-item "positiveness" for every item in a binary annotation table.
    pub fn positiveness_all(&self, annotations: &AnnotationMatrix) -> Result<Vec<f64>> {
        (0..annotations.num_items())
            .map(|i| {
                let pos = annotations.positive_votes(i)?;
                let total = annotations.annotation_count(i)?;
                self.positiveness(pos, total)
            })
            .collect()
    }

    /// Confidence of each item's *aggregated* label: `δ_i` for items whose
    /// aggregated label is positive (`labels[i] == 1`), `1 - δ_i` otherwise.
    /// This is the quantity eq. (3) plugs into the group softmax.
    pub fn label_confidences(
        &self,
        annotations: &AnnotationMatrix,
        labels: &[u8],
    ) -> Result<Vec<f64>> {
        if labels.len() != annotations.num_items() {
            return Err(CrowdError::InvalidConfig {
                reason: format!(
                    "{} labels for {} items",
                    labels.len(),
                    annotations.num_items()
                ),
            });
        }
        if matches!(self, ConfidenceEstimator::None) {
            // No weighting: δ = 1 regardless of the aggregated label's sign.
            return Ok(vec![1.0; labels.len()]);
        }
        let pos = self.positiveness_all(annotations)?;
        Ok(labels
            .iter()
            .zip(pos)
            .map(|(&l, p)| if l == 1 { p } else { 1.0 - p })
            .collect())
    }
}

/// Emits a `ConfidenceSummary` event for a computed δ vector.
pub fn emit_confidence_summary(recorder: &rll_obs::Recorder, variant: &str, confidences: &[f64]) {
    recorder.emit(rll_obs::EventKind::ConfidenceSummary(
        rll_obs::ConfidenceStats {
            variant: variant.to_string(),
            items: confidences.len(),
            delta: rll_obs::DistSummary::from_values(confidences),
        },
    ));
}

/// Worker-aware label confidence — the extension the paper's conclusion
/// calls for ("our current model does not make use of any information about
/// individual crowd worker and we want to extend the proposed framework to
/// incorporate such information").
///
/// Given a fitted Dawid–Skene model, the confidence of item `i`'s aggregated
/// label is the DS posterior probability of that label — which weights each
/// worker's vote by that worker's estimated confusion matrix instead of
/// counting votes equally. A vote from a near-perfect annotator moves `δ`
/// much further than a vote from a spammer.
pub fn worker_aware_label_confidences(
    fit: &crate::aggregate::DawidSkeneFit,
    labels: &[u8],
) -> Result<Vec<f64>> {
    if labels.len() != fit.posteriors.len() {
        return Err(CrowdError::InvalidConfig {
            reason: format!(
                "{} labels for {} fitted items",
                labels.len(),
                fit.posteriors.len()
            ),
        });
    }
    labels
        .iter()
        .zip(&fit.posteriors)
        .map(|(&l, post)| {
            post.get(l as usize)
                .copied()
                .ok_or_else(|| CrowdError::InvalidConfig {
                    reason: format!("label {l} out of range for {}-class fit", post.len()),
                })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prior_validation() {
        assert!(BetaPrior::new(0.0, 1.0).is_err());
        assert!(BetaPrior::new(1.0, -1.0).is_err());
        assert!(BetaPrior::new(f64::NAN, 1.0).is_err());
        let p = BetaPrior::new(2.0, 3.0).unwrap();
        assert!((p.mean() - 0.4).abs() < 1e-12);
        assert_eq!(BetaPrior::uniform().mean(), 0.5);
    }

    #[test]
    fn from_class_prior_matches_paper_setting() {
        // oral dataset: pos:neg = 1.8 → prior = 1.8 / 2.8.
        let prior = 1.8 / 2.8;
        let p = BetaPrior::from_class_prior(prior, 2.0).unwrap();
        assert!((p.mean() - prior).abs() < 1e-12);
        assert!((p.alpha + p.beta - 2.0).abs() < 1e-12);
        assert!(BetaPrior::from_class_prior(0.0, 2.0).is_err());
        assert!(BetaPrior::from_class_prior(1.0, 2.0).is_err());
        assert!(BetaPrior::from_class_prior(0.5, 0.0).is_err());
    }

    #[test]
    fn mle_matches_eq1() {
        let est = ConfidenceEstimator::Mle;
        // Paper's example: (1,1,1,1,1) vs (1,1,1,0,0).
        assert_eq!(est.positiveness(5, 5).unwrap(), 1.0);
        assert!((est.positiveness(3, 5).unwrap() - 0.6).abs() < 1e-12);
        assert!(est.positiveness(0, 0).is_err());
        assert!(est.positiveness(3, 2).is_err());
    }

    #[test]
    fn bayesian_matches_eq2() {
        let prior = BetaPrior::new(2.0, 2.0).unwrap();
        let est = ConfidenceEstimator::Bayesian(prior);
        // (α + Σy) / (α + β + d) = (2 + 3) / (4 + 5)
        assert!((est.positiveness(3, 5).unwrap() - 5.0 / 9.0).abs() < 1e-12);
        // Zero votes falls back to the prior mean.
        assert!((est.positiveness(0, 0).unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn bayesian_shrinks_toward_prior() {
        let prior = BetaPrior::new(1.0, 1.0).unwrap();
        let bay = ConfidenceEstimator::Bayesian(prior);
        let mle = ConfidenceEstimator::Mle;
        // Unanimous 5-vote positive: Bayesian is less extreme than MLE.
        let b = bay.positiveness(5, 5).unwrap();
        let m = mle.positiveness(5, 5).unwrap();
        assert!(b < m);
        assert!(b > 0.5);
        // As d grows the two converge.
        let b_big = bay.positiveness(500, 500).unwrap();
        assert!((b_big - 1.0).abs() < 0.01);
    }

    #[test]
    fn bayesian_rejects_degenerate_priors_instead_of_nan() {
        // `BetaPrior`'s fields are public, so these can be constructed
        // without `new`'s validation. Before the guard, zero votes under a
        // Beta(0, 0) prior produced 0/0 = NaN.
        for prior in [
            BetaPrior {
                alpha: 0.0,
                beta: 0.0,
            },
            BetaPrior {
                alpha: -1.0,
                beta: 2.0,
            },
            BetaPrior {
                alpha: f64::NAN,
                beta: 1.0,
            },
            BetaPrior {
                alpha: f64::INFINITY,
                beta: 1.0,
            },
        ] {
            let est = ConfidenceEstimator::Bayesian(prior);
            // Zero votes, unanimous votes, and mixed votes all error —
            // never NaN.
            assert!(est.positiveness(0, 0).is_err(), "prior {prior:?}");
            assert!(est.positiveness(5, 5).is_err(), "prior {prior:?}");
            assert!(est.positiveness(2, 5).is_err(), "prior {prior:?}");
        }
    }

    #[test]
    fn bayesian_is_finite_at_vote_extremes() {
        let est = ConfidenceEstimator::Bayesian(BetaPrior::uniform());
        for (pos, total) in [(0, 0), (0, 1), (1, 1), (0, 1000), (1000, 1000)] {
            let c = est.positiveness(pos, total).unwrap();
            assert!(c.is_finite());
            assert!(c > 0.0 && c < 1.0, "open interval: {c} for {pos}/{total}");
        }
    }

    #[test]
    fn none_estimator_is_constant_one() {
        let est = ConfidenceEstimator::None;
        assert_eq!(est.positiveness(0, 5).unwrap(), 1.0);
        assert_eq!(est.positiveness(5, 5).unwrap(), 1.0);
    }

    #[test]
    fn label_confidences_complement_for_negatives() {
        let ann = AnnotationMatrix::from_dense_binary(&[
            vec![1, 1, 1, 1, 1], // strongly positive
            vec![1, 1, 1, 0, 0], // weakly positive
            vec![0, 0, 0, 0, 1], // strongly negative
        ])
        .unwrap();
        let est = ConfidenceEstimator::Mle;
        let conf = est.label_confidences(&ann, &[1, 1, 0]).unwrap();
        assert!((conf[0] - 1.0).abs() < 1e-12);
        assert!((conf[1] - 0.6).abs() < 1e-12);
        assert!((conf[2] - 0.8).abs() < 1e-12);
        assert!(est.label_confidences(&ann, &[1]).is_err());
    }

    #[test]
    fn confidences_in_unit_interval() {
        let prior = BetaPrior::from_class_prior(0.64, 2.0).unwrap();
        let est = ConfidenceEstimator::Bayesian(prior);
        for pos in 0..=5 {
            let c = est.positiveness(pos, 5).unwrap();
            assert!((0.0..=1.0).contains(&c));
        }
    }

    #[test]
    fn serde_round_trip() {
        let est = ConfidenceEstimator::Bayesian(BetaPrior::new(1.5, 2.5).unwrap());
        let json = serde_json::to_string(&est).unwrap();
        assert_eq!(
            serde_json::from_str::<ConfidenceEstimator>(&json).unwrap(),
            est
        );
    }

    #[test]
    fn worker_aware_tracks_ds_posterior() {
        use crate::aggregate::DawidSkene;
        use crate::simulate::{WorkerModel, WorkerPool};
        use rll_tensor::Rng64;
        let mut rng = Rng64::seed_from_u64(31);
        let truth: Vec<u8> = (0..120).map(|_| u8::from(rng.bernoulli(0.6))).collect();
        let pool = WorkerPool::new(vec![
            WorkerModel::OneCoin { accuracy: 0.95 },
            WorkerModel::OneCoin { accuracy: 0.95 },
            WorkerModel::OneCoin { accuracy: 0.52 },
        ]);
        let ann = pool.annotate(&truth, &mut rng).unwrap();
        let fit = DawidSkene::default().fit(&ann).unwrap();
        let labels: Vec<u8> = fit
            .posteriors
            .iter()
            .map(|p| u8::from(p[1] > p[0]))
            .collect();
        let conf = worker_aware_label_confidences(&fit, &labels).unwrap();
        assert_eq!(conf.len(), labels.len());
        assert!(conf.iter().all(|&c| (0.0..=1.0).contains(&c)));
        // By construction the confidence of the argmax label is >= 0.5.
        assert!(conf.iter().all(|&c| c >= 0.5 - 1e-9));
    }

    #[test]
    fn worker_aware_validates_lengths() {
        use crate::aggregate::DawidSkene;
        let ann = AnnotationMatrix::from_dense_binary(&[vec![1, 0, 1], vec![0, 0, 1]]).unwrap();
        let fit = DawidSkene::default().fit(&ann).unwrap();
        assert!(worker_aware_label_confidences(&fit, &[1]).is_err());
        assert!(worker_aware_label_confidences(&fit, &[1, 3]).is_err());
    }
}
