//! Dense (fully-connected) layer with manual backward pass.

use crate::activation::Activation;
use crate::error::NnError;
use crate::Result;
use rll_tensor::matrix::matmul_threads;
use rll_tensor::{init::Init, Matrix, Rng64};
use serde::{Deserialize, Serialize};

/// A fully-connected layer: `a = f(x W + b)`.
///
/// `W` has shape `in_dim x out_dim`, `b` is `1 x out_dim`, inputs are
/// row-major batches `batch x in_dim`. The layer owns its gradient buffers;
/// its backward pass *accumulates* into them so one optimizer step can
/// aggregate gradients from several forward passes (the RLL group loss embeds
/// `k + 2` members through the same network before stepping).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dense {
    weights: Matrix,
    bias: Matrix,
    activation: Activation,
    #[serde(skip)]
    grad_weights: Option<Matrix>,
    #[serde(skip)]
    grad_bias: Option<Matrix>,
}

impl Dense {
    /// Creates a layer with the given initializer.
    pub fn new(
        in_dim: usize,
        out_dim: usize,
        activation: Activation,
        init: Init,
        rng: &mut Rng64,
    ) -> Result<Self> {
        if in_dim == 0 || out_dim == 0 {
            return Err(NnError::InvalidConfig {
                reason: format!("dense layer dims must be positive, got {in_dim}x{out_dim}"),
            });
        }
        Ok(Dense {
            weights: init.build(in_dim, out_dim, rng)?,
            bias: Matrix::zeros(1, out_dim),
            activation,
            grad_weights: None,
            grad_bias: None,
        })
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.weights.rows()
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.weights.cols()
    }

    /// The layer's activation.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Immutable access to the weight matrix.
    pub fn weights(&self) -> &Matrix {
        &self.weights
    }

    /// Immutable access to the bias row.
    pub fn bias(&self) -> &Matrix {
        &self.bias
    }

    /// Mutable access to the weight matrix (used by tests and serialization).
    pub fn weights_mut(&mut self) -> &mut Matrix {
        &mut self.weights
    }

    /// Mutable access to the bias row.
    pub fn bias_mut(&mut self) -> &mut Matrix {
        &mut self.bias
    }

    /// Number of trainable scalars.
    pub fn param_count(&self) -> usize {
        self.weights.len() + self.bias.len()
    }

    /// Inference-mode forward pass (no cache, no dropout).
    pub fn forward(&self, input: &Matrix) -> Result<Matrix> {
        let z = input.matmul_bias(&self.weights, &self.bias)?;
        Ok(z.map(|v| self.activation.apply(v)))
    }

    /// Workers for this layer's products over `rows` input rows: the size
    /// heuristic of [`rll_tensor::matrix::matmul_threads`], capped at
    /// `max_threads`. Forward, weight-gradient and input-gradient products
    /// all do `rows·in·out` multiply-adds, so one count serves all three.
    fn threads(&self, rows: usize, max_threads: usize) -> usize {
        matmul_threads(rows, self.in_dim(), self.out_dim()).min(max_threads)
    }

    /// Training-mode forward pass: the layer output, and for a layer that
    /// applied dropout, its keep-mask scaled by `1 / keep_prob` (inverted
    /// dropout) with the activation `f(z)` before the mask — the output is
    /// their product. `dropout` is a rate in `[0, 1)` and the generator for
    /// the mask, or `None` for no dropout. Products run on at most
    /// `max_threads` workers; every output row is its own chain (DESIGN.md
    /// §17), so rows never depend on their neighbours and a stacked batch
    /// gives each row the bits it would get alone.
    pub(crate) fn forward_cached(
        &self,
        input: &Matrix,
        dropout: Option<(f64, &mut Rng64)>,
        max_threads: usize,
    ) -> Result<(Matrix, Option<(Matrix, Matrix)>)> {
        let threads = self.threads(input.rows(), max_threads);
        let mut activation = input.matmul_bias_with_threads(&self.weights, &self.bias, threads)?;
        for v in activation.as_mut_slice() {
            *v = self.activation.apply(*v);
        }
        match dropout {
            Some((rate, rng)) if rate > 0.0 => {
                if rate >= 1.0 {
                    return Err(NnError::InvalidConfig {
                        reason: format!("dropout rate must be < 1, got {rate}"),
                    });
                }
                let keep = 1.0 - rate;
                let mask = Matrix::from_fn(activation.rows(), activation.cols(), |_, _| {
                    if rng.bernoulli(keep) {
                        1.0 / keep
                    } else {
                        0.0
                    }
                });
                let output = activation.hadamard(&mask)?;
                Ok((output, Some((mask, activation))))
            }
            _ => Ok((activation, None)),
        }
    }

    /// Backward pass over a stack of independent batches. `input` and
    /// `output` are this layer's input and output in the cached pass and
    /// `dropout` its mask and pre-mask activation, as
    /// [`Self::forward_cached`] returned them; `grad_output` is
    /// `dL/d(output)`. `ends` are the ascending exclusive row ends of
    /// consecutive segments, the last one the row count. Each segment's
    /// `dL/dW = xᵀ·dL/dz` and `dL/db = Σ dL/dz` starts from `+0.0` and folds
    /// that segment's rows in order, and the segments then join the gradient
    /// buffers in order — bitwise the same as one backward per segment.
    /// Returns `dL/dz`; [`Self::input_grad`] turns it into `dL/d(input)` for
    /// callers that need it.
    pub(crate) fn backward_segments(
        &mut self,
        input: &Matrix,
        output: &Matrix,
        dropout: Option<&(Matrix, Matrix)>,
        grad_output: &Matrix,
        ends: &[usize],
        max_threads: usize,
    ) -> Result<Matrix> {
        if grad_output.shape() != output.shape() {
            return Err(NnError::CacheMismatch {
                reason: format!(
                    "grad_output shape {:?} does not match cached output {:?}",
                    grad_output.shape(),
                    output.shape()
                ),
            });
        }
        // dL/dz = dL/da · f'(z), with f' taken from the activation a = f(z)
        // and dL/da first masked by dropout (gradient flows only through kept
        // units), written once into one new buffer.
        let act = self.activation;
        let grad = grad_output.as_slice();
        let grad_pre: Vec<f64> = match dropout {
            Some((mask, activation)) => grad
                .iter()
                .zip(mask.as_slice())
                .zip(activation.as_slice())
                .map(|((&g, &m), &a)| g * m * act.derivative(a))
                .collect(),
            None => grad
                .iter()
                .zip(output.as_slice())
                .map(|(&g, &a)| g * act.derivative(a))
                .collect(),
        };
        let grad_pre = Matrix::from_vec(output.rows(), output.cols(), grad_pre)?;
        // dL/dW = x^T * dL/dz, dL/db = column sums of dL/dz, per segment.
        let threads = self.threads(grad_pre.rows(), max_threads);
        let gw = input.matmul_tn_segments(&grad_pre, ends, threads)?;
        let gb = grad_pre.col_sums_segments(ends)?;
        match &mut self.grad_weights {
            Some(acc) => acc.add_assign(&gw)?,
            slot @ None => *slot = Some(gw),
        }
        match &mut self.grad_bias {
            Some(acc) => acc.add_assign(&gb)?,
            slot @ None => *slot = Some(gb),
        }
        Ok(grad_pre)
    }

    /// `dL/d(input) = dL/dz · Wᵀ` for a `dL/dz` from
    /// [`Self::backward_segments`], on at most `max_threads` workers. Each
    /// row is its own product, so segments need no special handling.
    pub(crate) fn input_grad(&self, grad_pre: &Matrix, max_threads: usize) -> Result<Matrix> {
        let threads = self.threads(grad_pre.rows(), max_threads);
        Ok(grad_pre.matmul_nt_with_threads(&self.weights, threads)?)
    }

    /// Clears accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.grad_weights = None;
        self.grad_bias = None;
    }

    /// Accumulated weight gradient, if any backward has run since `zero_grad`.
    pub fn grad_weights(&self) -> Option<&Matrix> {
        self.grad_weights.as_ref()
    }

    /// Accumulated bias gradient.
    pub fn grad_bias(&self) -> Option<&Matrix> {
        self.grad_bias.as_ref()
    }

    /// Adds `other`'s accumulated gradients into this layer's buffers
    /// (layers that have not seen a backward pass contribute nothing).
    ///
    /// This is the reduction step of sharded data-parallel training: callers
    /// must invoke it in **shard-index order**, never completion order —
    /// float addition is not associative, so an order that depends on the
    /// scheduler would make training results depend on the thread count.
    pub fn add_grads_from(&mut self, other: &Dense) -> Result<()> {
        if self.weights.shape() != other.weights.shape() || self.bias.shape() != other.bias.shape()
        {
            return Err(NnError::CacheMismatch {
                reason: format!(
                    "gradient merge across mismatched layers: {:?}/{:?} vs {:?}/{:?}",
                    self.weights.shape(),
                    self.bias.shape(),
                    other.weights.shape(),
                    other.bias.shape()
                ),
            });
        }
        if let Some(gw) = &other.grad_weights {
            match &mut self.grad_weights {
                Some(acc) => acc.add_assign(gw)?,
                slot @ None => *slot = Some(gw.clone()),
            }
        }
        if let Some(gb) = &other.grad_bias {
            match &mut self.grad_bias {
                Some(acc) => acc.add_assign(gb)?,
                slot @ None => *slot = Some(gb.clone()),
            }
        }
        Ok(())
    }

    /// Scales both accumulated gradients by `factor` (no-op for layers that
    /// have not seen a backward pass since `zero_grad`).
    pub fn scale_grads(&mut self, factor: f64) {
        if let Some(g) = &mut self.grad_weights {
            g.scale_inplace(factor);
        }
        if let Some(g) = &mut self.grad_bias {
            g.scale_inplace(factor);
        }
    }

    /// Returns `(param, grad)` pairs for the optimizer. Layers that have not
    /// accumulated gradients yield zero-matrices so optimizer state stays
    /// aligned across steps.
    pub fn param_grad_pairs(&mut self) -> Vec<(&mut Matrix, Matrix)> {
        let gw = self
            .grad_weights
            .clone()
            .unwrap_or_else(|| Matrix::zeros(self.weights.rows(), self.weights.cols()));
        let gb = self
            .grad_bias
            .clone()
            .unwrap_or_else(|| Matrix::zeros(1, self.bias.cols()));
        vec![(&mut self.weights, gw), (&mut self.bias, gb)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer(act: Activation) -> Dense {
        let mut rng = Rng64::seed_from_u64(42);
        Dense::new(3, 2, act, Init::XavierNormal, &mut rng).unwrap()
    }

    /// A dropout-free forward's output, then its one-segment backward with
    /// the input gradient.
    fn forward_output(l: &Dense, x: &Matrix) -> Matrix {
        l.forward_cached(x, None, usize::MAX).unwrap().0
    }

    fn backward(l: &mut Dense, x: &Matrix, output: &Matrix, grad: &Matrix) -> Result<Matrix> {
        let grad_pre = l.backward_segments(x, output, None, grad, &[grad.rows()], usize::MAX)?;
        l.input_grad(&grad_pre, usize::MAX)
    }

    #[test]
    fn rejects_zero_dims() {
        let mut rng = Rng64::seed_from_u64(1);
        assert!(Dense::new(0, 2, Activation::Relu, Init::Zeros, &mut rng).is_err());
        assert!(Dense::new(2, 0, Activation::Relu, Init::Zeros, &mut rng).is_err());
    }

    #[test]
    fn forward_shapes() {
        let l = layer(Activation::Tanh);
        let x = Matrix::ones(5, 3);
        let y = l.forward(&x).unwrap();
        assert_eq!(y.shape(), (5, 2));
        assert!(l.forward(&Matrix::ones(5, 4)).is_err());
    }

    #[test]
    fn identity_layer_is_affine() {
        let mut rng = Rng64::seed_from_u64(7);
        let mut l = Dense::new(2, 2, Activation::Identity, Init::Zeros, &mut rng).unwrap();
        *l.weights_mut() = Matrix::identity(2);
        *l.bias_mut() = Matrix::row_vector(&[1.0, -1.0]);
        let x = Matrix::from_vec(1, 2, vec![3.0, 4.0]).unwrap();
        let y = l.forward(&x).unwrap();
        assert_eq!(y.as_slice(), &[4.0, 3.0]);
    }

    #[test]
    fn forward_cached_matches_forward_without_dropout() {
        let l = layer(Activation::Sigmoid);
        let x = Matrix::from_vec(2, 3, vec![0.1, -0.2, 0.3, 1.0, 0.5, -0.5]).unwrap();
        let plain = l.forward(&x).unwrap();
        let (output, dropout) = l.forward_cached(&x, None, usize::MAX).unwrap();
        assert!(output.approx_eq(&plain, 1e-12));
        assert!(dropout.is_none());
    }

    #[test]
    fn dropout_zeroes_some_units_and_scales_rest() {
        let l = layer(Activation::Identity);
        let mut rng = Rng64::seed_from_u64(9);
        let x = Matrix::ones(200, 3);
        let (output, dropout) = l
            .forward_cached(&x, Some((0.5, &mut rng)), usize::MAX)
            .unwrap();
        let (mask, activation) = dropout.unwrap();
        assert_eq!(output, activation.hadamard(&mask).unwrap());
        let zeros = mask.as_slice().iter().filter(|&&m| m == 0.0).count();
        let scaled = mask
            .as_slice()
            .iter()
            .filter(|&&m| (m - 2.0).abs() < 1e-12)
            .count();
        assert_eq!(zeros + scaled, mask.len());
        assert!(zeros > mask.len() / 4 && zeros < 3 * mask.len() / 4);
    }

    #[test]
    fn dropout_rate_one_rejected() {
        let l = layer(Activation::Identity);
        let mut rng = Rng64::seed_from_u64(9);
        assert!(l
            .forward_cached(&Matrix::ones(1, 3), Some((1.0, &mut rng)), usize::MAX)
            .is_err());
    }

    #[test]
    fn backward_accumulates_across_calls() {
        let mut l = layer(Activation::Tanh);
        let x = Matrix::from_vec(1, 3, vec![0.2, -0.4, 0.6]).unwrap();
        let output = forward_output(&l, &x);
        let g = Matrix::ones(1, 2);
        backward(&mut l, &x, &output, &g).unwrap();
        let first = l.grad_weights().unwrap().clone();
        backward(&mut l, &x, &output, &g).unwrap();
        let second = l.grad_weights().unwrap();
        assert!(second.approx_eq(&first.scale(2.0), 1e-12));
        l.zero_grad();
        assert!(l.grad_weights().is_none());
    }

    #[test]
    fn backward_rejects_wrong_grad_shape() {
        let mut l = layer(Activation::Relu);
        let x = Matrix::ones(2, 3);
        let output = forward_output(&l, &x);
        assert!(backward(&mut l, &x, &output, &Matrix::ones(1, 2)).is_err());
    }

    #[test]
    fn gradient_check_weights_and_bias() {
        // Analytic gradients vs central finite differences on a scalar loss
        // L = sum(forward(x)).
        let mut rng = Rng64::seed_from_u64(11);
        for act in [Activation::Identity, Activation::Tanh, Activation::Sigmoid] {
            let mut l = Dense::new(4, 3, act, Init::XavierNormal, &mut rng).unwrap();
            let x = Matrix::from_fn(2, 4, |r, c| 0.3 * (r as f64) - 0.2 * (c as f64) + 0.1);
            let output = forward_output(&l, &x);
            let grad_out = Matrix::ones(2, 3);
            let grad_in = backward(&mut l, &x, &output, &grad_out).unwrap();
            let gw = l.grad_weights().unwrap().clone();

            let eps = 1e-6;
            // Check a few weight coordinates.
            for &(r, c) in &[(0usize, 0usize), (1, 2), (3, 1)] {
                let orig = l.weights().get(r, c).unwrap();
                l.weights_mut().set(r, c, orig + eps).unwrap();
                let up = l.forward(&x).unwrap().sum();
                l.weights_mut().set(r, c, orig - eps).unwrap();
                let down = l.forward(&x).unwrap().sum();
                l.weights_mut().set(r, c, orig).unwrap();
                let numeric = (up - down) / (2.0 * eps);
                let analytic = gw.get(r, c).unwrap();
                assert!(
                    (numeric - analytic).abs() < 1e-4,
                    "{act:?} W[{r}][{c}]: {analytic} vs {numeric}"
                );
            }
            // Check one input coordinate.
            let orig = x.get(0, 1).unwrap();
            let mut x_up = x.clone();
            x_up.set(0, 1, orig + eps).unwrap();
            let mut x_down = x.clone();
            x_down.set(0, 1, orig - eps).unwrap();
            let numeric =
                (l.forward(&x_up).unwrap().sum() - l.forward(&x_down).unwrap().sum()) / (2.0 * eps);
            assert!((numeric - grad_in.get(0, 1).unwrap()).abs() < 1e-4);
        }
    }

    #[test]
    fn param_grad_pairs_alignment() {
        let mut l = layer(Activation::Relu);
        let pairs = l.param_grad_pairs();
        assert_eq!(pairs.len(), 2);
        assert_eq!(pairs[0].0.shape(), pairs[0].1.shape());
        assert_eq!(pairs[1].0.shape(), pairs[1].1.shape());
        // Without any backward, grads are zero.
        assert_eq!(pairs[0].1.sum(), 0.0);
    }

    #[test]
    fn serde_round_trip_skips_grads() {
        let mut l = layer(Activation::Tanh);
        let x = Matrix::ones(1, 3);
        let output = forward_output(&l, &x);
        backward(&mut l, &x, &output, &Matrix::ones(1, 2)).unwrap();
        let json = serde_json::to_string(&l).unwrap();
        let back: Dense = serde_json::from_str(&json).unwrap();
        // serde_json's default float parsing may be 1 ulp off; allow that.
        assert!(back.weights().approx_eq(l.weights(), 1e-12));
        assert!(back.grad_weights().is_none());
    }
}
