//! First-order optimizers.
//!
//! An [`Optimizer`] consumes `(parameter, gradient)` pairs in a stable order
//! and updates the parameters in place. [`Adam`], the one implementation,
//! indexes its per-parameter state by position, so an instance must always
//! be stepped with the same network.

use crate::error::NnError;
use crate::Result;
use rll_tensor::Matrix;
use serde::{Deserialize, Serialize};

/// A first-order gradient optimizer.
pub trait Optimizer {
    /// Applies one update step. `params` pairs each trainable tensor with its
    /// gradient; order must be stable across calls.
    fn step(&mut self, params: Vec<(&mut Matrix, Matrix)>) -> Result<()>;

    /// Sets the learning rate (used by schedulers).
    fn set_learning_rate(&mut self, lr: f64);

    /// Current learning rate.
    fn learning_rate(&self) -> f64;
}

// ---------------------------------------------------------------------------
// Adam
// ---------------------------------------------------------------------------

/// A serializable snapshot of [`Adam`]'s mutable state: the bias-correction
/// step count `t` and the first/second moment accumulators `m`/`v`.
///
/// Captured by [`Adam::state`] and reinstated by [`Adam::restore`] so
/// training checkpoints can persist the optimizer mid-run; a restored
/// optimizer continues the exact update sequence of the original (the
/// crash-resume tests assert this with bitwise equality).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdamState {
    /// Steps taken so far (drives bias correction).
    pub t: u64,
    /// First-moment (mean) EMA per parameter tensor, in parameter order.
    pub m: Vec<Matrix>,
    /// Second-moment (uncentered variance) EMA per parameter tensor.
    pub v: Vec<Matrix>,
}

/// First-moment decay rate.
const BETA1: f64 = 0.9;
/// Second-moment decay rate.
const BETA2: f64 = 0.999;
/// Denominator guard.
const EPS: f64 = 1e-8;

/// Adam (Kingma & Ba) with bias correction and the standard constants
/// `beta1 = 0.9`, `beta2 = 0.999`, `eps = 1e-8`.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f64,
    t: u64,
    m: Vec<Matrix>,
    v: Vec<Matrix>,
}

impl Adam {
    /// Creates Adam with the given learning rate.
    pub fn new(lr: f64) -> Result<Self> {
        if lr <= 0.0 || !lr.is_finite() {
            return Err(NnError::InvalidConfig {
                reason: format!("learning rate must be positive and finite, got {lr}"),
            });
        }
        Ok(Adam {
            lr,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        })
    }

    /// Snapshots the optimizer's mutable state (step count and both moment
    /// accumulators). The learning rate is a construction input, not state —
    /// a restored optimizer keeps its own.
    pub fn state(&self) -> AdamState {
        AdamState {
            t: self.t,
            m: self.m.clone(),
            v: self.v.clone(),
        }
    }

    /// Restores a snapshot taken by [`Self::state`]. The next [`Optimizer::step`]
    /// continues the original update sequence bit-exactly.
    ///
    /// Returns [`NnError::InvalidConfig`] when the snapshot is internally
    /// inconsistent (`m`/`v` length or per-tensor shape mismatch). Moments
    /// that agree with each other but not with the parameters are rejected
    /// by the next `step`.
    pub fn restore(&mut self, state: AdamState) -> Result<()> {
        if state.m.len() != state.v.len() {
            return Err(NnError::InvalidConfig {
                reason: format!(
                    "Adam state holds {} first moments but {} second moments",
                    state.m.len(),
                    state.v.len()
                ),
            });
        }
        for (i, (m, v)) in state.m.iter().zip(&state.v).enumerate() {
            if m.rows() != v.rows() || m.cols() != v.cols() {
                return Err(NnError::InvalidConfig {
                    reason: format!(
                        "Adam state tensor {i}: m is {}x{} but v is {}x{}",
                        m.rows(),
                        m.cols(),
                        v.rows(),
                        v.cols()
                    ),
                });
            }
        }
        self.t = state.t;
        self.m = state.m;
        self.v = state.v;
        Ok(())
    }
}

impl Optimizer for Adam {
    /// Fails with [`NnError::InvalidConfig`], touching neither the optimizer
    /// nor the parameters, when the tensor count or any tensor's shape
    /// differs from the moments held (e.g. a forged or mismatched restore).
    fn step(&mut self, params: Vec<(&mut Matrix, Matrix)>) -> Result<()> {
        if self.m.is_empty() {
            self.m = params
                .iter()
                .map(|(p, _)| Matrix::zeros(p.rows(), p.cols()))
                .collect();
            self.v = self.m.clone();
        }
        if self.m.len() != params.len() {
            return Err(NnError::InvalidConfig {
                reason: format!(
                    "optimizer state holds {} tensors but step received {}",
                    self.m.len(),
                    params.len()
                ),
            });
        }
        // `restore` keeps each `v` the shape of its `m`, so checking `m`
        // covers both.
        for (i, (m, (p, _))) in self.m.iter().zip(&params).enumerate() {
            if m.rows() != p.rows() || m.cols() != p.cols() {
                return Err(NnError::InvalidConfig {
                    reason: format!(
                        "optimizer state tensor {i} is {}x{} but its parameter is {}x{}",
                        m.rows(),
                        m.cols(),
                        p.rows(),
                        p.cols()
                    ),
                });
            }
        }
        self.t += 1;
        let bc1 = 1.0 - BETA1.powi(self.t as i32);
        let bc2 = 1.0 - BETA2.powi(self.t as i32);
        for (i, (param, grad)) in params.into_iter().enumerate() {
            let m = &mut self.m[i];
            let v = &mut self.v[i];
            for j in 0..grad.len() {
                let g = grad.as_slice()[j];
                let mj = &mut m.as_mut_slice()[j];
                *mj = BETA1 * *mj + (1.0 - BETA1) * g;
                let vj = &mut v.as_mut_slice()[j];
                *vj = BETA2 * *vj + (1.0 - BETA2) * g * g;
                let m_hat = *mj / bc1;
                let v_hat = *vj / bc2;
                param.as_mut_slice()[j] -= self.lr * m_hat / (v_hat.sqrt() + EPS);
            }
        }
        Ok(())
    }

    fn set_learning_rate(&mut self, lr: f64) {
        self.lr = lr;
    }

    fn learning_rate(&self) -> f64 {
        self.lr
    }
}

// ---------------------------------------------------------------------------
// Gradient clipping
// ---------------------------------------------------------------------------

/// Global-norm gradient clipping.
#[derive(Debug, Clone, Copy)]
pub struct GradClip {
    /// Maximum allowed global L2 norm.
    pub max_norm: f64,
}

impl GradClip {
    /// Creates a clipper; `max_norm` must be positive.
    pub fn new(max_norm: f64) -> Result<Self> {
        if max_norm <= 0.0 || !max_norm.is_finite() {
            return Err(NnError::InvalidConfig {
                reason: format!("max_norm must be positive and finite, got {max_norm}"),
            });
        }
        Ok(GradClip { max_norm })
    }

    /// Rescales the gradient set in place when its global norm exceeds
    /// `max_norm`; returns the pre-clip norm.
    pub fn clip(&self, grads: &mut [Matrix]) -> f64 {
        let norm = grads
            .iter()
            .map(|g| g.frobenius_norm().powi(2))
            .sum::<f64>()
            .sqrt();
        if norm > self.max_norm && norm > 0.0 {
            let scale = self.max_norm / norm;
            for g in grads {
                g.scale_inplace(scale);
            }
        }
        norm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimizes f(x) = (x - 3)^2 starting at x = 0 with the given optimizer.
    fn converges_on_quadratic(opt: &mut dyn Optimizer, iters: usize) -> f64 {
        let mut x = Matrix::zeros(1, 1);
        for _ in 0..iters {
            let g = Matrix::full(1, 1, 2.0 * (x.at(0, 0) - 3.0));
            opt.step(vec![(&mut x, g)]).unwrap();
        }
        x.at(0, 0)
    }

    #[test]
    fn adam_converges() {
        let mut opt = Adam::new(0.1).unwrap();
        let x = converges_on_quadratic(&mut opt, 500);
        assert!((x - 3.0).abs() < 1e-3, "x = {x}");
    }

    #[test]
    fn constructors_validate() {
        assert!(Adam::new(0.0).is_err());
        assert!(Adam::new(f64::NAN).is_err());
        assert!(GradClip::new(0.0).is_err());
    }

    #[test]
    fn stateful_optimizers_reject_param_count_change() {
        let mut opt = Adam::new(0.1).unwrap();
        let mut a = Matrix::zeros(1, 1);
        opt.step(vec![(&mut a, Matrix::ones(1, 1))]).unwrap();
        let mut b = Matrix::zeros(1, 1);
        let mut c = Matrix::zeros(1, 1);
        assert!(opt
            .step(vec![
                (&mut b, Matrix::ones(1, 1)),
                (&mut c, Matrix::ones(1, 1))
            ])
            .is_err());
    }

    #[test]
    fn learning_rate_accessors() {
        let mut opt = Adam::new(0.1).unwrap();
        assert_eq!(opt.learning_rate(), 0.1);
        opt.set_learning_rate(0.01);
        assert_eq!(opt.learning_rate(), 0.01);
    }

    #[test]
    fn grad_clip_rescales_only_above_threshold() {
        let clip = GradClip::new(1.0).unwrap();
        let mut grads = vec![Matrix::full(1, 2, 3.0)]; // norm = sqrt(18) > 1
        let pre = clip.clip(&mut grads);
        assert!((pre - 18f64.sqrt()).abs() < 1e-12);
        let post = grads[0].frobenius_norm();
        assert!((post - 1.0).abs() < 1e-12);

        let mut small = vec![Matrix::full(1, 2, 0.1)];
        clip.clip(&mut small);
        assert!((small[0].at(0, 0) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn adam_state_restore_continues_identically() {
        // Step a reference optimizer 5 times, snapshot at step 3, and check
        // that a restored clone replays steps 4..5 to the exact same bits.
        let grads = |step: usize| Matrix::from_fn(2, 3, |r, c| (step + r * 3 + c) as f64 * 0.1);
        let mut reference = Adam::new(0.05).unwrap();
        let mut x_ref = Matrix::ones(2, 3);
        let mut snapshot = None;
        let mut x_mid = None;
        for step in 0..5 {
            if step == 3 {
                snapshot = Some(reference.state());
                x_mid = Some(x_ref.clone());
            }
            reference.step(vec![(&mut x_ref, grads(step))]).unwrap();
        }
        let mut resumed = Adam::new(0.05).unwrap();
        resumed.restore(snapshot.unwrap()).unwrap();
        let mut x_resumed = x_mid.unwrap();
        for step in 3..5 {
            resumed.step(vec![(&mut x_resumed, grads(step))]).unwrap();
        }
        assert_eq!(x_ref, x_resumed);
        assert_eq!(reference.state(), resumed.state());
    }

    #[test]
    fn adam_restore_rejects_inconsistent_state() {
        let mut opt = Adam::new(0.1).unwrap();
        assert!(opt
            .restore(AdamState {
                t: 1,
                m: vec![Matrix::zeros(1, 2)],
                v: vec![],
            })
            .is_err());
        assert!(opt
            .restore(AdamState {
                t: 1,
                m: vec![Matrix::zeros(1, 2)],
                v: vec![Matrix::zeros(2, 1)],
            })
            .is_err());
    }

    #[test]
    fn adam_step_rejects_moments_misshapen_for_params() {
        // Right tensor count, consistent m/v, wrong shape for the parameter:
        // `restore` cannot know the network, so `step` must catch it before
        // indexing the moments, and leave everything as it was.
        let mut opt = Adam::new(0.1).unwrap();
        let forged = AdamState {
            t: 4,
            m: vec![Matrix::zeros(1, 1)],
            v: vec![Matrix::zeros(1, 1)],
        };
        opt.restore(forged.clone()).unwrap();
        let mut x = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f64 * 0.25);
        let before = x.clone();
        let err = opt.step(vec![(&mut x, Matrix::ones(2, 3))]);
        assert!(matches!(err, Err(NnError::InvalidConfig { .. })), "{err:?}");
        assert_eq!(x, before);
        assert_eq!(opt.state(), forged);
    }

    #[test]
    fn adam_first_step_is_lr_sized() {
        // With bias correction, the very first Adam step has magnitude ~lr.
        let mut opt = Adam::new(0.5).unwrap();
        let mut x = Matrix::zeros(1, 1);
        opt.step(vec![(&mut x, Matrix::full(1, 1, 10.0))]).unwrap();
        assert!((x.at(0, 0) + 0.5).abs() < 1e-6, "x = {}", x.at(0, 0));
    }
}
