//! A plain supervised DNN classifier.
//!
//! Not one of the paper's Table I rows, but the obvious thing a practitioner
//! tries first: feed the limited crowd-labeled examples straight into a deep
//! network. The paper's motivation section predicts this "may easily lead to
//! the overfitting problems"; this implementation (with optional
//! early-stopping on a validation split) makes that comparison runnable, and
//! the integration tests demonstrate the train/test gap on small data.

use crate::error::BaselineError;
use crate::Result;
use rll_nn::{loss, Activation, Adam, Mlp, MlpConfig, Optimizer};
use rll_tensor::{init::Init, Matrix, Rng64};
use serde::{Deserialize, Serialize};

/// Hyperparameters for [`MlpClassifier`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MlpClassifierConfig {
    /// Hidden layer sizes.
    pub hidden_dims: Vec<usize>,
    /// Maximum training epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Dropout on hidden layers.
    pub dropout: f64,
    /// Early stopping: fraction of the data held out for validation
    /// (`0.0` disables early stopping).
    pub validation_fraction: f64,
    /// Early stopping patience in epochs.
    pub patience: usize,
}

impl Default for MlpClassifierConfig {
    fn default() -> Self {
        MlpClassifierConfig {
            hidden_dims: vec![64, 32],
            epochs: 200,
            learning_rate: 1e-3,
            dropout: 0.0,
            validation_fraction: 0.0,
            patience: 10,
        }
    }
}

impl MlpClassifierConfig {
    fn validate(&self) -> Result<()> {
        if self.epochs == 0 {
            return Err(BaselineError::InvalidConfig {
                reason: "epochs must be positive".into(),
            });
        }
        if self.learning_rate <= 0.0 || !self.learning_rate.is_finite() {
            return Err(BaselineError::InvalidConfig {
                reason: format!("learning_rate must be positive, got {}", self.learning_rate),
            });
        }
        if !(0.0..1.0).contains(&self.dropout) {
            return Err(BaselineError::InvalidConfig {
                reason: format!("dropout must be in [0, 1), got {}", self.dropout),
            });
        }
        if !(0.0..0.9).contains(&self.validation_fraction) {
            return Err(BaselineError::InvalidConfig {
                reason: format!(
                    "validation_fraction must be in [0, 0.9), got {}",
                    self.validation_fraction
                ),
            });
        }
        if self.validation_fraction > 0.0 && self.patience == 0 {
            return Err(BaselineError::InvalidConfig {
                reason: "patience must be positive when early stopping is enabled".into(),
            });
        }
        Ok(())
    }
}

/// A binary MLP classifier trained with BCE-on-logits.
#[derive(Debug, Clone)]
pub struct MlpClassifier {
    config: MlpClassifierConfig,
    network: Option<Mlp>,
    /// Epoch the final weights come from (differs from `epochs` when early
    /// stopping triggered).
    stopped_at: usize,
}

impl MlpClassifier {
    /// Creates an unfitted classifier.
    pub fn new(config: MlpClassifierConfig) -> Result<Self> {
        config.validate()?;
        Ok(MlpClassifier {
            config,
            network: None,
            stopped_at: 0,
        })
    }

    /// Creates a classifier with default hyperparameters.
    pub fn with_defaults() -> Self {
        MlpClassifier {
            config: MlpClassifierConfig::default(),
            network: None,
            stopped_at: 0,
        }
    }

    /// The epoch whose weights were kept.
    pub fn stopped_at(&self) -> usize {
        self.stopped_at
    }

    /// Trains on hard binary labels.
    pub fn fit(&mut self, features: &Matrix, labels: &[u8], seed: u64) -> Result<()> {
        if features.rows() != labels.len() {
            return Err(BaselineError::InvalidConfig {
                reason: format!("{} rows for {} labels", features.rows(), labels.len()),
            });
        }
        if features.rows() == 0 {
            return Err(BaselineError::DegenerateData {
                reason: "cannot fit on zero examples".into(),
            });
        }
        if let Some(&bad) = labels.iter().find(|&&l| l > 1) {
            return Err(BaselineError::InvalidConfig {
                reason: format!("label {bad} is not binary"),
            });
        }
        let mut rng = Rng64::seed_from_u64(seed);

        // Optional validation split for early stopping.
        let n = features.rows();
        let n_val = ((n as f64) * self.config.validation_fraction).round() as usize;
        let mut order: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut order);
        let (val_idx, train_idx) = order.split_at(n_val);
        if train_idx.is_empty() {
            return Err(BaselineError::DegenerateData {
                reason: "validation split left no training data".into(),
            });
        }
        let train_x = features.select_rows(train_idx)?;
        let train_y = Matrix::col_vector(
            &train_idx
                .iter()
                .map(|&i| f64::from(labels[i]))
                .collect::<Vec<_>>(),
        );
        let val_x = features.select_rows(val_idx)?;
        let val_y = Matrix::col_vector(
            &val_idx
                .iter()
                .map(|&i| f64::from(labels[i]))
                .collect::<Vec<_>>(),
        );

        let mut network = Mlp::new(
            &MlpConfig {
                input_dim: features.cols(),
                hidden_dims: self.config.hidden_dims.clone(),
                output_dim: 1,
                hidden_activation: Activation::Tanh,
                output_activation: Activation::Identity,
                dropout: self.config.dropout,
                init: Init::XavierNormal,
            },
            &mut rng,
        )?;
        let mut opt = Adam::new(self.config.learning_rate)?;
        let mut best: Option<(f64, Mlp, usize)> = None;
        let mut since_best = 0usize;
        let mut stopped_at = self.config.epochs;

        for epoch in 0..self.config.epochs {
            network.zero_grad();
            let cache = network.forward_cached(&train_x, &mut rng)?;
            let (_, grad) = loss::bce_with_logits(cache.output(), &train_y)?;
            network.backward(&cache, &grad)?;
            let params = network.param_grad_pairs();
            opt.step(params)?;

            if n_val > 0 {
                let (val_loss, _) = loss::bce_with_logits(&network.forward(&val_x)?, &val_y)?;
                let improved = best.as_ref().is_none_or(|(b, _, _)| val_loss < *b);
                if improved {
                    best = Some((val_loss, network.clone(), epoch + 1));
                    since_best = 0;
                } else {
                    since_best += 1;
                    if since_best >= self.config.patience {
                        stopped_at = epoch + 1;
                        break;
                    }
                }
            }
        }
        if let Some((_, best_net, best_epoch)) = best {
            network = best_net;
            stopped_at = best_epoch;
        }
        self.network = Some(network);
        self.stopped_at = stopped_at;
        Ok(())
    }

    /// `P(y = 1 | x)` per row.
    pub fn predict_proba(&self, features: &Matrix) -> Result<Vec<f64>> {
        let network = self.network.as_ref().ok_or(BaselineError::NotFitted {
            model: "MlpClassifier",
        })?;
        let logits = network.forward(features)?;
        Ok(logits
            .col(0)?
            .into_iter()
            .map(rll_tensor::ops::sigmoid)
            .collect())
    }

    /// Hard predictions at threshold 0.5.
    pub fn predict(&self, features: &Matrix) -> Result<Vec<u8>> {
        Ok(self
            .predict_proba(features)?
            .into_iter()
            .map(|p| u8::from(p > 0.5))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs(n: usize, sep: f64, seed: u64) -> (Matrix, Vec<u8>) {
        let mut rng = Rng64::seed_from_u64(seed);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..n {
            let l = u8::from(rng.bernoulli(0.5));
            let c = if l == 1 { sep / 2.0 } else { -sep / 2.0 };
            rows.push(vec![
                rng.normal(c, 1.0).unwrap(),
                rng.normal(-c, 1.0).unwrap(),
            ]);
            labels.push(l);
        }
        (Matrix::from_rows(&rows).unwrap(), labels)
    }

    #[test]
    fn learns_separable_data() {
        let (x, y) = blobs(150, 3.0, 1);
        let mut clf = MlpClassifier::with_defaults();
        clf.fit(&x, &y, 7).unwrap();
        let pred = clf.predict(&x).unwrap();
        let acc = pred.iter().zip(&y).filter(|(a, b)| a == b).count() as f64 / y.len() as f64;
        assert!(acc > 0.9, "accuracy {acc}");
        assert_eq!(clf.stopped_at(), 200); // no early stopping configured
    }

    #[test]
    fn overfits_tiny_noisy_data() {
        // The paper's motivation: with very few noisy labels, a DNN memorizes
        // the training set while held-out accuracy stays poor.
        let (train_x, train_y) = blobs(24, 0.8, 2); // tiny, weak separation
        let (test_x, test_y) = blobs(400, 0.8, 3);
        let mut clf = MlpClassifier::new(MlpClassifierConfig {
            epochs: 800,
            ..Default::default()
        })
        .unwrap();
        clf.fit(&train_x, &train_y, 7).unwrap();
        let train_acc = clf
            .predict(&train_x)
            .unwrap()
            .iter()
            .zip(&train_y)
            .filter(|(a, b)| a == b)
            .count() as f64
            / train_y.len() as f64;
        let test_acc = clf
            .predict(&test_x)
            .unwrap()
            .iter()
            .zip(&test_y)
            .filter(|(a, b)| a == b)
            .count() as f64
            / test_y.len() as f64;
        assert!(train_acc > 0.9, "train {train_acc}");
        assert!(
            train_acc - test_acc > 0.15,
            "expected an overfitting gap: train {train_acc} vs test {test_acc}"
        );
    }

    #[test]
    fn early_stopping_halts_before_max_epochs() {
        // Small, noisy, weakly-separated data: validation loss bottoms out
        // early and then rises as the network memorizes — patience triggers.
        let (x, y) = blobs(60, 1.0, 4);
        let mut clf = MlpClassifier::new(MlpClassifierConfig {
            epochs: 2000,
            learning_rate: 5e-3,
            validation_fraction: 0.3,
            patience: 25,
            ..Default::default()
        })
        .unwrap();
        clf.fit(&x, &y, 9).unwrap();
        assert!(clf.stopped_at() < 2000, "stopped at {}", clf.stopped_at());
        // Still a working classifier (on this noise level, well above chance).
        let pred = clf.predict(&x).unwrap();
        let acc = pred.iter().zip(&y).filter(|(a, b)| a == b).count() as f64 / y.len() as f64;
        assert!(acc > 0.6, "accuracy {acc}");
    }

    #[test]
    fn validation_and_errors() {
        assert!(MlpClassifier::new(MlpClassifierConfig {
            epochs: 0,
            ..Default::default()
        })
        .is_err());
        assert!(MlpClassifier::new(MlpClassifierConfig {
            validation_fraction: 0.95,
            ..Default::default()
        })
        .is_err());
        assert!(MlpClassifier::new(MlpClassifierConfig {
            validation_fraction: 0.2,
            patience: 0,
            ..Default::default()
        })
        .is_err());
        let clf = MlpClassifier::with_defaults();
        assert!(matches!(
            clf.predict(&Matrix::ones(1, 2)),
            Err(BaselineError::NotFitted { .. })
        ));
        let mut clf = MlpClassifier::with_defaults();
        assert!(clf.fit(&Matrix::ones(2, 2), &[1], 1).is_err());
        assert!(clf.fit(&Matrix::ones(2, 2), &[1, 2], 1).is_err());
        assert!(clf.fit(&Matrix::zeros(0, 2), &[], 1).is_err());
    }

    /// No other test covers a fit with dropout > 0, so the bits of the
    /// dropout branch of the training-mode forward and backward are pinned
    /// here: an FNV hash of every fitted weight and bias.
    #[test]
    fn dropout_fit_bytes_are_pinned() {
        let (x, y) = blobs(60, 2.0, 5);
        let mut clf = MlpClassifier::new(MlpClassifierConfig {
            hidden_dims: vec![16, 8],
            epochs: 40,
            dropout: 0.5,
            ..Default::default()
        })
        .unwrap();
        clf.fit(&x, &y, 11).unwrap();
        let params: Vec<f64> = clf
            .network
            .as_ref()
            .unwrap()
            .layers()
            .iter()
            .flat_map(|l| l.weights().as_slice().iter().chain(l.bias().as_slice()))
            .copied()
            .collect();
        assert_eq!(rll_tensor::hash::fnv1a_f64s(&params), 0x2d27_1fb3_15df_11fa);
    }

    #[test]
    fn deterministic_per_seed() {
        let (x, y) = blobs(60, 2.0, 5);
        let mut a = MlpClassifier::with_defaults();
        a.fit(&x, &y, 11).unwrap();
        let mut b = MlpClassifier::with_defaults();
        b.fit(&x, &y, 11).unwrap();
        assert_eq!(a.predict_proba(&x).unwrap(), b.predict_proba(&x).unwrap());
    }
}
