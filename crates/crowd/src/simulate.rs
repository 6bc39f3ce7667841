//! Crowd-worker simulation.
//!
//! The paper's `oral` and `class` datasets are proprietary; the reproduction
//! synthesizes annotations by passing ground-truth labels through explicit
//! worker noise models. The models cover the standard crowdsourcing taxonomy:
//!
//! - [`WorkerModel::OneCoin`] — symmetric accuracy `p(correct) = accuracy`;
//! - [`WorkerModel::TwoCoin`] — separate sensitivity/specificity (the
//!   Dawid–Skene binary confusion model);
//! - [`WorkerModel::Spammer`] — votes 1 with fixed probability regardless of
//!   the truth (zero information);
//! - [`WorkerModel::Hammer`] — always correct (an expert);
//! - [`WorkerModel::DifficultyAware`] — accuracy degrades with per-item
//!   difficulty, matching the GLAD generative assumptions.

use crate::annotations::AnnotationMatrix;
use crate::error::CrowdError;
use crate::Result;
use rll_tensor::ops::sigmoid;
use rll_tensor::Rng64;
use serde::{Deserialize, Serialize};

/// A generative model of one crowd worker's labeling behaviour (binary).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum WorkerModel {
    /// Correct with probability `accuracy`, independent of the true class.
    /// `accuracy < 0.5` models an adversarial worker.
    OneCoin {
        /// Probability of reporting the true label.
        accuracy: f64,
    },
    /// Class-conditional noise: reports 1 for a true positive with
    /// probability `sensitivity`, reports 0 for a true negative with
    /// probability `specificity`.
    TwoCoin {
        /// `P(vote 1 | z = 1)`.
        sensitivity: f64,
        /// `P(vote 0 | z = 0)`.
        specificity: f64,
    },
    /// Ignores the item entirely; votes 1 with probability `positive_rate`.
    Spammer {
        /// Marginal positive-vote rate.
        positive_rate: f64,
    },
    /// Always reports the true label.
    Hammer,
    /// GLAD-style worker: correct with probability `σ(ability / difficulty)`,
    /// where the per-item difficulty is supplied at annotation time.
    DifficultyAware {
        /// Worker ability (higher = better; negative = adversarial).
        ability: f64,
    },
}

impl WorkerModel {
    /// Validates the model's parameters.
    pub fn validate(&self) -> Result<()> {
        let check_prob = |name: &'static str, p: f64| -> Result<()> {
            if !(0.0..=1.0).contains(&p) {
                return Err(CrowdError::InvalidConfig {
                    reason: format!("{name} must be in [0, 1], got {p}"),
                });
            }
            Ok(())
        };
        match *self {
            WorkerModel::OneCoin { accuracy } => check_prob("accuracy", accuracy),
            WorkerModel::TwoCoin {
                sensitivity,
                specificity,
            } => {
                check_prob("sensitivity", sensitivity)?;
                check_prob("specificity", specificity)
            }
            WorkerModel::Spammer { positive_rate } => check_prob("positive_rate", positive_rate),
            WorkerModel::Hammer => Ok(()),
            WorkerModel::DifficultyAware { ability } => {
                if !ability.is_finite() {
                    return Err(CrowdError::InvalidConfig {
                        reason: format!("ability must be finite, got {ability}"),
                    });
                }
                Ok(())
            }
        }
    }

    /// Samples this worker's vote for an item with true label `truth` and
    /// difficulty `difficulty > 0` (only [`WorkerModel::DifficultyAware`]
    /// reads the difficulty; pass `1.0` otherwise).
    pub fn vote(&self, truth: u8, difficulty: f64, rng: &mut Rng64) -> u8 {
        match *self {
            WorkerModel::OneCoin { accuracy } => {
                if rng.bernoulli(accuracy) {
                    truth
                } else {
                    1 - truth
                }
            }
            WorkerModel::TwoCoin {
                sensitivity,
                specificity,
            } => {
                if truth == 1 {
                    u8::from(rng.bernoulli(sensitivity))
                } else {
                    u8::from(!rng.bernoulli(specificity))
                }
            }
            WorkerModel::Spammer { positive_rate } => u8::from(rng.bernoulli(positive_rate)),
            WorkerModel::Hammer => truth,
            WorkerModel::DifficultyAware { ability } => {
                let p_correct = sigmoid(ability / difficulty.max(1e-6));
                if rng.bernoulli(p_correct) {
                    truth
                } else {
                    1 - truth
                }
            }
        }
    }
}

/// A fixed set of crowd workers that annotate items together.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkerPool {
    workers: Vec<WorkerModel>,
}

impl WorkerPool {
    /// Creates a pool from explicit worker models.
    pub fn new(workers: Vec<WorkerModel>) -> Self {
        WorkerPool { workers }
    }

    /// A pool of `d` one-coin workers with accuracies evenly spaced in
    /// `[lo, hi]` — the generic "mixed-quality crowd" used by the dataset
    /// presets.
    pub fn graded(d: usize, lo: f64, hi: f64) -> Result<Self> {
        if d == 0 {
            return Err(CrowdError::InvalidConfig {
                reason: "pool needs at least one worker".into(),
            });
        }
        if !(0.0..=1.0).contains(&lo) || !(0.0..=1.0).contains(&hi) || lo > hi {
            return Err(CrowdError::InvalidConfig {
                reason: format!("accuracy range [{lo}, {hi}] invalid"),
            });
        }
        let workers = (0..d)
            .map(|i| {
                let t = if d == 1 {
                    0.5
                } else {
                    i as f64 / (d - 1) as f64
                };
                WorkerModel::OneCoin {
                    accuracy: lo + t * (hi - lo),
                }
            })
            .collect();
        Ok(WorkerPool { workers })
    }

    /// Number of workers in the pool.
    pub fn len(&self) -> usize {
        self.workers.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.workers.is_empty()
    }

    /// The worker models.
    pub fn workers(&self) -> &[WorkerModel] {
        &self.workers
    }

    /// Annotates every item with every worker (items have unit difficulty).
    pub fn annotate(&self, truth: &[u8], rng: &mut Rng64) -> Result<AnnotationMatrix> {
        self.annotate_with_difficulty(truth, None, rng)
    }

    /// Annotates with optional per-item difficulties (`> 0`, larger =
    /// harder). Difficulties drive [`WorkerModel::DifficultyAware`] workers.
    pub fn annotate_with_difficulty(
        &self,
        truth: &[u8],
        difficulties: Option<&[f64]>,
        rng: &mut Rng64,
    ) -> Result<AnnotationMatrix> {
        if self.workers.is_empty() {
            return Err(CrowdError::InvalidConfig {
                reason: "pool has no workers".into(),
            });
        }
        if truth.is_empty() {
            return Err(CrowdError::InvalidAnnotations {
                reason: "no items to annotate".into(),
            });
        }
        if let Some(d) = difficulties {
            if d.len() != truth.len() {
                return Err(CrowdError::InvalidConfig {
                    reason: format!("{} difficulties for {} items", d.len(), truth.len()),
                });
            }
            if d.iter().any(|&x| x <= 0.0 || !x.is_finite()) {
                return Err(CrowdError::InvalidConfig {
                    reason: "difficulties must be positive and finite".into(),
                });
            }
        }
        for w in &self.workers {
            w.validate()?;
        }
        if let Some(&bad) = truth.iter().find(|&&t| t > 1) {
            return Err(CrowdError::InvalidAnnotations {
                reason: format!("binary truth expected, found label {bad}"),
            });
        }
        let mut ann = AnnotationMatrix::new(truth.len(), self.workers.len(), 2)?;
        for (i, &t) in truth.iter().enumerate() {
            let difficulty = difficulties.map_or(1.0, |d| d[i]);
            for (j, worker) in self.workers.iter().enumerate() {
                ann.set(i, j, worker.vote(t, difficulty, rng))?;
            }
        }
        Ok(ann)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_coin_accuracy_rate() {
        let mut rng = Rng64::seed_from_u64(1);
        let w = WorkerModel::OneCoin { accuracy: 0.8 };
        let correct = (0..20_000)
            .filter(|_| w.vote(1, 1.0, &mut rng) == 1)
            .count() as f64
            / 20_000.0;
        assert!((correct - 0.8).abs() < 0.02, "rate {correct}");
    }

    #[test]
    fn two_coin_asymmetric_rates() {
        let mut rng = Rng64::seed_from_u64(2);
        let w = WorkerModel::TwoCoin {
            sensitivity: 0.9,
            specificity: 0.6,
        };
        let n = 20_000;
        let sens = (0..n).filter(|_| w.vote(1, 1.0, &mut rng) == 1).count() as f64 / n as f64;
        let spec = (0..n).filter(|_| w.vote(0, 1.0, &mut rng) == 0).count() as f64 / n as f64;
        assert!((sens - 0.9).abs() < 0.02);
        assert!((spec - 0.6).abs() < 0.02);
    }

    #[test]
    fn spammer_ignores_truth() {
        let mut rng = Rng64::seed_from_u64(3);
        let w = WorkerModel::Spammer { positive_rate: 0.7 };
        let n = 20_000;
        let on_pos = (0..n).filter(|_| w.vote(1, 1.0, &mut rng) == 1).count() as f64 / n as f64;
        let on_neg = (0..n).filter(|_| w.vote(0, 1.0, &mut rng) == 1).count() as f64 / n as f64;
        assert!((on_pos - on_neg).abs() < 0.03);
        assert!((on_pos - 0.7).abs() < 0.02);
    }

    #[test]
    fn hammer_is_perfect() {
        let mut rng = Rng64::seed_from_u64(4);
        let w = WorkerModel::Hammer;
        for t in [0u8, 1] {
            for _ in 0..50 {
                assert_eq!(w.vote(t, 1.0, &mut rng), t);
            }
        }
    }

    #[test]
    fn difficulty_degrades_accuracy() {
        let mut rng = Rng64::seed_from_u64(5);
        let w = WorkerModel::DifficultyAware { ability: 2.0 };
        let n = 20_000;
        let easy = (0..n).filter(|_| w.vote(1, 0.5, &mut rng) == 1).count() as f64 / n as f64;
        let hard = (0..n).filter(|_| w.vote(1, 4.0, &mut rng) == 1).count() as f64 / n as f64;
        assert!(easy > hard + 0.1, "easy {easy} vs hard {hard}");
    }

    #[test]
    fn validation_catches_bad_params() {
        assert!(WorkerModel::OneCoin { accuracy: 1.5 }.validate().is_err());
        assert!(WorkerModel::TwoCoin {
            sensitivity: -0.1,
            specificity: 0.5
        }
        .validate()
        .is_err());
        assert!(WorkerModel::Spammer { positive_rate: 2.0 }
            .validate()
            .is_err());
        assert!(WorkerModel::DifficultyAware { ability: f64::NAN }
            .validate()
            .is_err());
        assert!(WorkerModel::Hammer.validate().is_ok());
    }

    #[test]
    fn pool_annotates_every_cell() {
        let mut rng = Rng64::seed_from_u64(6);
        let pool = WorkerPool::graded(5, 0.6, 0.9).unwrap();
        let truth = vec![1u8, 0, 1, 1];
        let ann = pool.annotate(&truth, &mut rng).unwrap();
        assert_eq!(ann.num_items(), 4);
        assert_eq!(ann.num_workers(), 5);
        assert_eq!(ann.total_annotations(), 20);
    }

    #[test]
    fn graded_pool_spans_range() {
        let pool = WorkerPool::graded(3, 0.5, 0.9).unwrap();
        match pool.workers()[0] {
            WorkerModel::OneCoin { accuracy } => assert!((accuracy - 0.5).abs() < 1e-12),
            _ => panic!("expected OneCoin"),
        }
        match pool.workers()[2] {
            WorkerModel::OneCoin { accuracy } => assert!((accuracy - 0.9).abs() < 1e-12),
            _ => panic!("expected OneCoin"),
        }
        assert!(WorkerPool::graded(0, 0.5, 0.9).is_err());
        assert!(WorkerPool::graded(3, 0.9, 0.5).is_err());
    }

    #[test]
    fn annotate_validates() {
        let mut rng = Rng64::seed_from_u64(7);
        let pool = WorkerPool::new(vec![]);
        assert!(pool.annotate(&[1], &mut rng).is_err());
        let pool = WorkerPool::graded(2, 0.7, 0.9).unwrap();
        assert!(pool.annotate(&[], &mut rng).is_err());
        assert!(pool.annotate(&[2], &mut rng).is_err());
        assert!(pool
            .annotate_with_difficulty(&[1, 0], Some(&[1.0]), &mut rng)
            .is_err());
        assert!(pool
            .annotate_with_difficulty(&[1, 0], Some(&[1.0, -1.0]), &mut rng)
            .is_err());
        let bad_pool = WorkerPool::new(vec![WorkerModel::OneCoin { accuracy: 2.0 }]);
        assert!(bad_pool.annotate(&[1], &mut rng).is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let pool = WorkerPool::graded(5, 0.6, 0.9).unwrap();
        let truth = vec![1u8, 0, 1];
        let a = pool.annotate(&truth, &mut Rng64::seed_from_u64(9)).unwrap();
        let b = pool.annotate(&truth, &mut Rng64::seed_from_u64(9)).unwrap();
        assert_eq!(a, b);
    }
}
