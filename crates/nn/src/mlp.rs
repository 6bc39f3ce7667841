//! Multi-layer perceptron: the paper's "multi-layer non-linear projection".

use crate::activation::Activation;
use crate::error::NnError;
use crate::layer::Dense;
use crate::Result;
use rll_tensor::{init::Init, Matrix, Rng64};
use serde::{Deserialize, Serialize};

/// Configuration for building an [`Mlp`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MlpConfig {
    /// Input feature dimension.
    pub input_dim: usize,
    /// Sizes of the hidden layers (may be empty for a single linear map).
    pub hidden_dims: Vec<usize>,
    /// Output (embedding) dimension.
    pub output_dim: usize,
    /// Activation for the hidden layers.
    pub hidden_activation: Activation,
    /// Activation for the output layer. The RLL embedding layer uses
    /// [`Activation::Tanh`] following the DSSM-style architecture the paper
    /// builds on; use [`Activation::Identity`] for an unsquashed space.
    pub output_activation: Activation,
    /// Dropout rate applied to hidden-layer outputs during training
    /// (`0.0` disables dropout).
    pub dropout: f64,
    /// Weight initializer.
    pub init: Init,
}

impl Default for MlpConfig {
    fn default() -> Self {
        MlpConfig {
            input_dim: 32,
            hidden_dims: vec![64, 32],
            output_dim: 16,
            hidden_activation: Activation::Tanh,
            output_activation: Activation::Tanh,
            dropout: 0.0,
            init: Init::XavierNormal,
        }
    }
}

/// A sequential stack of [`Dense`] layers.
///
/// ```
/// use rll_nn::{Activation, Mlp, MlpConfig};
/// use rll_tensor::{init::Init, Matrix, Rng64};
///
/// let mut rng = Rng64::seed_from_u64(1);
/// let mlp = Mlp::new(&MlpConfig {
///     input_dim: 4,
///     hidden_dims: vec![8],
///     output_dim: 2,
///     ..MlpConfig::default()
/// }, &mut rng)?;
/// let out = mlp.forward(&Matrix::ones(3, 4))?;
/// assert_eq!(out.shape(), (3, 2));
/// # Ok::<(), rll_nn::NnError>(())
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Dense>,
    dropout: f64,
}

/// What one training-mode forward pass leaves for the backward: the network
/// input once and each layer's output. Layer `i + 1`'s input is layer `i`'s
/// output, not a copy, and each layer's `f'` comes from its output (see
/// [`Activation::derivative`]), so no pre-activation is kept. A layer that
/// applied dropout also keeps its scaled keep-mask and its activation before
/// the mask.
#[derive(Debug, Clone)]
pub struct MlpCache {
    /// Network input, `rows x input_dim`.
    input: Matrix,
    /// Each layer's output, after dropout, `rows x out_dim`.
    outputs: Vec<Matrix>,
    /// Per layer: `(keep-mask, activation before the mask)` when the layer
    /// applied dropout.
    dropouts: Vec<Option<(Matrix, Matrix)>>,
}

impl MlpCache {
    /// The network output for the cached pass.
    pub fn output(&self) -> &Matrix {
        self.outputs
            .last()
            // lint: allow(no-panic-lib) — structural invariant: MlpCache is only
            // built by forward_cached_with, which pushes one output per layer,
            // and Mlp::new rejects empty layer stacks.
            .expect("MlpCache always holds at least one layer output")
    }

    /// The cache of the given rows of this pass, in the given order (rows may
    /// repeat). Every output row is its own chain (DESIGN.md §17), so for a
    /// dropout-free network this is bit for bit the cache of a forward over
    /// the gathered input rows, without recomputing them. Fails on an
    /// out-of-range row.
    pub fn gather(&self, rows: &[usize]) -> Result<MlpCache> {
        let select = |m: &Matrix| -> Result<Matrix> { Ok(m.select_rows(rows)?) };
        Ok(MlpCache {
            input: select(&self.input)?,
            outputs: self.outputs.iter().map(select).collect::<Result<_>>()?,
            dropouts: self
                .dropouts
                .iter()
                .map(|d| {
                    d.as_ref()
                        .map(|(mask, activation)| Ok((select(mask)?, select(activation)?)))
                        .transpose()
                })
                .collect::<Result<_>>()?,
        })
    }
}

impl Mlp {
    /// Builds the network described by `config` with weights drawn from `rng`.
    pub fn new(config: &MlpConfig, rng: &mut Rng64) -> Result<Self> {
        if config.input_dim == 0 || config.output_dim == 0 {
            return Err(NnError::InvalidConfig {
                reason: "input_dim and output_dim must be positive".into(),
            });
        }
        if !(0.0..1.0).contains(&config.dropout) {
            return Err(NnError::InvalidConfig {
                reason: format!("dropout must be in [0, 1), got {}", config.dropout),
            });
        }
        let mut dims = Vec::with_capacity(config.hidden_dims.len() + 2);
        dims.push(config.input_dim);
        dims.extend_from_slice(&config.hidden_dims);
        dims.push(config.output_dim);
        if dims.contains(&0) {
            return Err(NnError::InvalidConfig {
                reason: "hidden dims must be positive".into(),
            });
        }
        let mut layers = Vec::with_capacity(dims.len() - 1);
        for w in dims.windows(2) {
            let is_last = layers.len() == dims.len() - 2;
            let act = if is_last {
                config.output_activation
            } else {
                config.hidden_activation
            };
            layers.push(Dense::new(w[0], w[1], act, config.init, rng)?);
        }
        Ok(Mlp {
            layers,
            dropout: config.dropout,
        })
    }

    /// Number of layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.layers.first().map_or(0, Dense::in_dim)
    }

    /// Output (embedding) dimension.
    pub fn output_dim(&self) -> usize {
        self.layers.last().map_or(0, Dense::out_dim)
    }

    /// Full layer-size chain `[input, hidden…, output]`.
    ///
    /// Checkpoint tooling uses this to validate that a deserialized network
    /// matches the architecture its header advertises.
    pub fn layer_dims(&self) -> Vec<usize> {
        let mut dims = Vec::with_capacity(self.layers.len() + 1);
        dims.push(self.input_dim());
        dims.extend(self.layers.iter().map(|l| l.out_dim()));
        dims
    }

    /// Total trainable scalar count.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(Dense::param_count).sum()
    }

    /// Read-only access to the layers.
    pub fn layers(&self) -> &[Dense] {
        &self.layers
    }

    /// Mutable access to the layers (used by gradient checking).
    pub fn layers_mut(&mut self) -> &mut [Dense] {
        &mut self.layers
    }

    /// Inference-mode forward pass (no dropout, no cache).
    pub fn forward(&self, input: &Matrix) -> Result<Matrix> {
        let mut x = input.clone();
        for layer in &self.layers {
            x = layer.forward(&x)?;
        }
        Ok(x)
    }

    /// Dropout rate applied to hidden-layer outputs in training (`0.0`: none).
    pub fn dropout(&self) -> f64 {
        self.dropout
    }

    /// Training-mode forward pass. Dropout (if configured) applies to every
    /// hidden layer's output but never to the final embedding layer.
    /// Equivalent to [`Self::forward_cached_with`] with `Some(rng)` and no
    /// thread cap.
    pub fn forward_cached(&self, input: &Matrix, rng: &mut Rng64) -> Result<MlpCache> {
        self.forward_cached_with(input, Some(rng), usize::MAX)
    }

    /// [`Self::forward_cached`] with every product on at most `max_threads`
    /// workers. `rng` draws the dropout masks; a network with dropout needs
    /// one, a dropout-free network ignores it. Output rows are independent
    /// (DESIGN.md §17): forwarding a stack of batches gives each row the
    /// bits it would get in its own batch.
    pub fn forward_cached_with(
        &self,
        input: &Matrix,
        mut rng: Option<&mut Rng64>,
        max_threads: usize,
    ) -> Result<MlpCache> {
        let mut outputs: Vec<Matrix> = Vec::with_capacity(self.layers.len());
        let mut dropouts = Vec::with_capacity(self.layers.len());
        let last = self.layers.len().saturating_sub(1);
        for (i, layer) in self.layers.iter().enumerate() {
            let dropout = if i < last && self.dropout > 0.0 {
                let rng = rng.as_deref_mut().ok_or_else(|| NnError::InvalidConfig {
                    reason: format!("dropout {} needs a random generator", self.dropout),
                })?;
                Some((self.dropout, rng))
            } else {
                None
            };
            let x = outputs.last().unwrap_or(input);
            let (output, dropped) = layer.forward_cached(x, dropout, max_threads)?;
            outputs.push(output);
            dropouts.push(dropped);
        }
        Ok(MlpCache {
            input: input.clone(),
            outputs,
            dropouts,
        })
    }

    /// Backward pass for a cached forward. `grad_output` is `dL/d(output)`.
    /// Accumulates parameter gradients into each layer and returns
    /// `dL/d(input)`: the one-segment case of [`Self::backward_segments`],
    /// plus the first layer's input gradient.
    pub fn backward(&mut self, cache: &MlpCache, grad_output: &Matrix) -> Result<Matrix> {
        let rows = grad_output.rows();
        match self.backward_to_first(cache, grad_output, &[rows], usize::MAX)? {
            Some((first, grad_pre)) => first.input_grad(&grad_pre, usize::MAX),
            None => Ok(grad_output.clone()),
        }
    }

    /// Backward pass for a forward over a stack of independent batches:
    /// `ends` are the ascending exclusive row ends of consecutive segments,
    /// the last one the row count. Parameter gradients accumulate exactly
    /// as one [`Self::backward`] per segment would leave them, bit for bit:
    /// each segment's weight and bias sums start at `+0.0` and fold that
    /// segment's rows in order, and join the buffers in segment order, never
    /// merged with another segment's first. Products run on at most
    /// `max_threads` workers. The network's input gradient is not computed.
    pub fn backward_segments(
        &mut self,
        cache: &MlpCache,
        grad_output: &Matrix,
        ends: &[usize],
        max_threads: usize,
    ) -> Result<()> {
        self.backward_to_first(cache, grad_output, ends, max_threads)?;
        Ok(())
    }

    /// Runs the segmented backward through every layer and returns the first
    /// layer with its `dL/dz`, leaving that layer's input gradient undone
    /// (`None` for a network without layers).
    fn backward_to_first(
        &mut self,
        cache: &MlpCache,
        grad_output: &Matrix,
        ends: &[usize],
        max_threads: usize,
    ) -> Result<Option<(&Dense, Matrix)>> {
        if cache.outputs.len() != self.layers.len() {
            return Err(NnError::CacheMismatch {
                reason: format!(
                    "cache has {} layer entries, network has {}",
                    cache.outputs.len(),
                    self.layers.len()
                ),
            });
        }
        let mut upstream: Option<Matrix> = None;
        for (idx, ((layer, output), dropout)) in self
            .layers
            .iter_mut()
            .zip(&cache.outputs)
            .zip(&cache.dropouts)
            .enumerate()
            .rev()
        {
            let input = match idx {
                0 => &cache.input,
                _ => &cache.outputs[idx - 1],
            };
            let grad = upstream.as_ref().unwrap_or(grad_output);
            let grad_pre = layer.backward_segments(
                input,
                output,
                dropout.as_ref(),
                grad,
                ends,
                max_threads,
            )?;
            if idx == 0 {
                return Ok(Some((layer, grad_pre)));
            }
            upstream = Some(layer.input_grad(&grad_pre, max_threads)?);
        }
        Ok(None)
    }

    /// Clears all accumulated gradients.
    pub fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grad();
        }
    }

    /// Adds `other`'s accumulated gradients into this network's buffers,
    /// layer by layer. The reduction step of sharded data-parallel training:
    /// call in shard-index order (see [`crate::Dense::add_grads_from`]).
    pub fn add_grads_from(&mut self, other: &Mlp) -> Result<()> {
        if self.layers.len() != other.layers.len() {
            return Err(NnError::CacheMismatch {
                reason: format!(
                    "gradient merge across different depths: {} vs {} layers",
                    self.layers.len(),
                    other.layers.len()
                ),
            });
        }
        for (layer, shard) in self.layers.iter_mut().zip(&other.layers) {
            layer.add_grads_from(shard)?;
        }
        Ok(())
    }

    /// Scales all accumulated gradients by `factor` (used to average over the
    /// number of groups in a minibatch).
    pub fn scale_grads(&mut self, factor: f64) {
        for layer in &mut self.layers {
            layer.scale_grads(factor);
        }
    }

    /// Returns `(param, grad)` pairs across all layers in a stable order.
    pub fn param_grad_pairs(&mut self) -> Vec<(&mut Matrix, Matrix)> {
        self.layers
            .iter_mut()
            .flat_map(Dense::param_grad_pairs)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> MlpConfig {
        MlpConfig {
            input_dim: 4,
            hidden_dims: vec![5],
            output_dim: 3,
            hidden_activation: Activation::Tanh,
            output_activation: Activation::Identity,
            dropout: 0.0,
            init: Init::XavierNormal,
        }
    }

    #[test]
    fn builds_expected_topology() {
        let mut rng = Rng64::seed_from_u64(1);
        let mlp = Mlp::new(&small_config(), &mut rng).unwrap();
        assert_eq!(mlp.depth(), 2);
        assert_eq!(mlp.input_dim(), 4);
        assert_eq!(mlp.output_dim(), 3);
        assert_eq!(mlp.param_count(), 4 * 5 + 5 + 5 * 3 + 3);
    }

    #[test]
    fn layer_dims_reports_full_chain() {
        let mut rng = Rng64::seed_from_u64(21);
        let mlp = Mlp::new(&small_config(), &mut rng).unwrap();
        assert_eq!(mlp.layer_dims(), vec![4, 5, 3]);
        let linear = Mlp::new(
            &MlpConfig {
                hidden_dims: vec![],
                ..small_config()
            },
            &mut rng,
        )
        .unwrap();
        assert_eq!(linear.layer_dims(), vec![4, 3]);
    }

    #[test]
    fn sharded_grad_merge_is_bitwise_flat_accumulation() {
        let mut rng = Rng64::seed_from_u64(77);
        let mut flat = Mlp::new(&small_config(), &mut rng).unwrap();
        let x1 = Matrix::from_fn(6, 4, |r, c| (r * 4 + c) as f64 * 0.1 - 1.0);
        let x2 = Matrix::from_fn(3, 4, |r, c| 0.5 - (r + c) as f64 * 0.2);
        let g1 = Matrix::from_fn(6, 3, |r, c| ((r + 1) * (c + 2)) as f64 * 0.05);
        let g2 = Matrix::from_fn(3, 3, |r, c| (r as f64 - c as f64) * 0.3);

        // Flat: both batches accumulate into one network, in order.
        flat.zero_grad();
        let c1 = flat.forward_cached(&x1, &mut rng).unwrap();
        flat.backward(&c1, &g1).unwrap();
        let c2 = flat.forward_cached(&x2, &mut rng).unwrap();
        flat.backward(&c2, &g2).unwrap();

        // Sharded: thread-local clones each see one batch, then merge in
        // shard order. Must be bitwise identical (same additions, same
        // order, per element).
        let mut main = flat.clone();
        main.zero_grad();
        let mut shard_a = main.clone();
        let ca = shard_a.forward_cached(&x1, &mut rng).unwrap();
        shard_a.backward(&ca, &g1).unwrap();
        let mut shard_b = main.clone();
        let cb = shard_b.forward_cached(&x2, &mut rng).unwrap();
        shard_b.backward(&cb, &g2).unwrap();
        main.add_grads_from(&shard_a).unwrap();
        main.add_grads_from(&shard_b).unwrap();

        for (merged, reference) in main.layers().iter().zip(flat.layers()) {
            assert_eq!(merged.grad_weights(), reference.grad_weights());
            assert_eq!(merged.grad_bias(), reference.grad_bias());
        }
    }

    #[test]
    fn grad_merge_rejects_mismatched_topology() {
        let mut rng = Rng64::seed_from_u64(78);
        let mut a = Mlp::new(&small_config(), &mut rng).unwrap();
        let deeper = Mlp::new(
            &MlpConfig {
                hidden_dims: vec![5, 5],
                ..small_config()
            },
            &mut rng,
        )
        .unwrap();
        assert!(a.add_grads_from(&deeper).is_err());
        let wider = Mlp::new(
            &MlpConfig {
                hidden_dims: vec![7],
                ..small_config()
            },
            &mut rng,
        )
        .unwrap();
        assert!(a.add_grads_from(&wider).is_err());
    }

    #[test]
    fn no_hidden_layers_is_linear_model() {
        let mut rng = Rng64::seed_from_u64(2);
        let cfg = MlpConfig {
            hidden_dims: vec![],
            ..small_config()
        };
        let mlp = Mlp::new(&cfg, &mut rng).unwrap();
        assert_eq!(mlp.depth(), 1);
    }

    #[test]
    fn validates_config() {
        let mut rng = Rng64::seed_from_u64(3);
        let bad_dim = MlpConfig {
            input_dim: 0,
            ..small_config()
        };
        assert!(Mlp::new(&bad_dim, &mut rng).is_err());
        let bad_hidden = MlpConfig {
            hidden_dims: vec![4, 0],
            ..small_config()
        };
        assert!(Mlp::new(&bad_hidden, &mut rng).is_err());
        let bad_dropout = MlpConfig {
            dropout: 1.0,
            ..small_config()
        };
        assert!(Mlp::new(&bad_dropout, &mut rng).is_err());
    }

    #[test]
    fn forward_shapes_and_cache_output() {
        let mut rng = Rng64::seed_from_u64(4);
        let mlp = Mlp::new(&small_config(), &mut rng).unwrap();
        let x = Matrix::ones(7, 4);
        let y = mlp.forward(&x).unwrap();
        assert_eq!(y.shape(), (7, 3));
        let cache = mlp.forward_cached(&x, &mut rng).unwrap();
        assert!(cache.output().approx_eq(&y, 1e-12));
    }

    #[test]
    fn backward_cache_mismatch_detected() {
        let mut rng = Rng64::seed_from_u64(5);
        let mlp_a = Mlp::new(&small_config(), &mut rng).unwrap();
        let cfg_b = MlpConfig {
            hidden_dims: vec![5, 5],
            ..small_config()
        };
        let mut mlp_b = Mlp::new(&cfg_b, &mut rng).unwrap();
        let cache = mlp_a.forward_cached(&Matrix::ones(1, 4), &mut rng).unwrap();
        assert!(mlp_b.backward(&cache, &Matrix::ones(1, 3)).is_err());
    }

    #[test]
    fn full_network_gradient_check() {
        let mut rng = Rng64::seed_from_u64(6);
        let cfg = MlpConfig {
            input_dim: 3,
            hidden_dims: vec![4, 4],
            output_dim: 2,
            hidden_activation: Activation::Tanh,
            output_activation: Activation::Sigmoid,
            dropout: 0.0,
            init: Init::XavierNormal,
        };
        let mut mlp = Mlp::new(&cfg, &mut rng).unwrap();
        let x = Matrix::from_fn(2, 3, |r, c| 0.2 * r as f64 - 0.3 * c as f64 + 0.4);

        // Loss: sum of outputs. Analytic gradient via backward.
        let cache = mlp.forward_cached(&x, &mut rng).unwrap();
        let grad_in = mlp.backward(&cache, &Matrix::ones(2, 2)).unwrap();

        let eps = 1e-6;
        // Spot-check a weight in every layer.
        for li in 0..mlp.depth() {
            let analytic = mlp.layers()[li].grad_weights().unwrap().get(0, 0).unwrap();
            let orig = mlp.layers()[li].weights().get(0, 0).unwrap();
            mlp.layers_mut()[li]
                .weights_mut()
                .set(0, 0, orig + eps)
                .unwrap();
            let up = mlp.forward(&x).unwrap().sum();
            mlp.layers_mut()[li]
                .weights_mut()
                .set(0, 0, orig - eps)
                .unwrap();
            let down = mlp.forward(&x).unwrap().sum();
            mlp.layers_mut()[li].weights_mut().set(0, 0, orig).unwrap();
            let numeric = (up - down) / (2.0 * eps);
            assert!(
                (numeric - analytic).abs() < 1e-4,
                "layer {li}: analytic {analytic} vs numeric {numeric}"
            );
        }
        // Input gradient.
        let orig = x.get(1, 2).unwrap();
        let mut xu = x.clone();
        xu.set(1, 2, orig + eps).unwrap();
        let mut xd = x.clone();
        xd.set(1, 2, orig - eps).unwrap();
        let numeric =
            (mlp.forward(&xu).unwrap().sum() - mlp.forward(&xd).unwrap().sum()) / (2.0 * eps);
        assert!((numeric - grad_in.get(1, 2).unwrap()).abs() < 1e-4);
    }

    /// Global L2 norm of all accumulated gradients.
    fn grad_norm(mlp: &mut Mlp) -> f64 {
        mlp.param_grad_pairs()
            .iter()
            .map(|(_, g)| g.frobenius_norm().powi(2))
            .sum::<f64>()
            .sqrt()
    }

    #[test]
    fn zero_grad_and_grad_norm() {
        let mut rng = Rng64::seed_from_u64(7);
        let mut mlp = Mlp::new(&small_config(), &mut rng).unwrap();
        assert_eq!(grad_norm(&mut mlp), 0.0);
        let cache = mlp.forward_cached(&Matrix::ones(1, 4), &mut rng).unwrap();
        mlp.backward(&cache, &Matrix::ones(1, 3)).unwrap();
        assert!(grad_norm(&mut mlp) > 0.0);
        mlp.zero_grad();
        assert_eq!(grad_norm(&mut mlp), 0.0);
    }

    #[test]
    fn scale_grads_halves_norm() {
        let mut rng = Rng64::seed_from_u64(8);
        let mut mlp = Mlp::new(&small_config(), &mut rng).unwrap();
        let cache = mlp.forward_cached(&Matrix::ones(1, 4), &mut rng).unwrap();
        mlp.backward(&cache, &Matrix::ones(1, 3)).unwrap();
        let before = grad_norm(&mut mlp);
        mlp.scale_grads(0.5);
        assert!((grad_norm(&mut mlp) - before * 0.5).abs() < 1e-9);
    }

    #[test]
    fn dropout_only_on_hidden_layers() {
        let mut rng = Rng64::seed_from_u64(9);
        let cfg = MlpConfig {
            dropout: 0.5,
            ..small_config()
        };
        let mlp = Mlp::new(&cfg, &mut rng).unwrap();
        let cache = mlp.forward_cached(&Matrix::ones(10, 4), &mut rng).unwrap();
        assert!(cache.dropouts[0].is_some());
        assert!(cache.dropouts[1].is_none());
    }

    /// Pins the bits of one training-mode forward and backward with
    /// dropout: an FNV hash over the output, the input gradient and every
    /// parameter gradient.
    #[test]
    fn dropout_gradient_bytes_are_pinned() {
        let mut rng = Rng64::seed_from_u64(12);
        let mut mlp = Mlp::new(
            &MlpConfig {
                input_dim: 6,
                hidden_dims: vec![7, 5],
                output_dim: 3,
                hidden_activation: Activation::Tanh,
                output_activation: Activation::Sigmoid,
                dropout: 0.5,
                init: Init::XavierNormal,
            },
            &mut rng,
        )
        .unwrap();
        let x = Matrix::from_fn(9, 6, |_, _| rng.standard_normal());
        let grad = Matrix::from_fn(9, 3, |_, _| rng.standard_normal());
        let cache = mlp.forward_cached(&x, &mut rng).unwrap();
        let grad_in = mlp.backward(&cache, &grad).unwrap();
        let mut values = cache.output().as_slice().to_vec();
        values.extend_from_slice(grad_in.as_slice());
        for layer in mlp.layers() {
            values.extend_from_slice(layer.grad_weights().unwrap().as_slice());
            values.extend_from_slice(layer.grad_bias().unwrap().as_slice());
        }
        assert_eq!(rll_tensor::hash::fnv1a_f64s(&values), 0x4a90_1094_3ae0_fbff);
    }

    #[test]
    fn serde_round_trip() {
        let mut rng = Rng64::seed_from_u64(10);
        let mlp = Mlp::new(&small_config(), &mut rng).unwrap();
        let x = Matrix::ones(2, 4);
        let json = serde_json::to_string(&mlp).unwrap();
        let back: Mlp = serde_json::from_str(&json).unwrap();
        assert!(back
            .forward(&x)
            .unwrap()
            .approx_eq(&mlp.forward(&x).unwrap(), 1e-12));
    }

    #[test]
    fn param_grad_pairs_cover_all_layers() {
        let mut rng = Rng64::seed_from_u64(11);
        let mut mlp = Mlp::new(&small_config(), &mut rng).unwrap();
        let pairs = mlp.param_grad_pairs();
        assert_eq!(pairs.len(), 4); // 2 layers x (W, b)
    }
}
