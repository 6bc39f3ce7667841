//! One stacked forward plus one segmented backward must leave **bitwise** the
//! gradients that a forward/backward per segment leaves, and give every
//! stacked output row the bits of its own segment's pass. This is what lets
//! the trainer push a whole shard of groups through the network at once.
//! Inputs include `-0.0`, `±inf` and NaN, and segments as short as one row;
//! values compare by `to_bits`, with NaNs compared as NaNs (see [`bits`]).

use proptest::prelude::*;
use rll_nn::{Activation, Mlp, MlpConfig};
use rll_tensor::{init::Init, Matrix, Rng64};

const ACTIVATIONS: [Activation; 4] = [
    Activation::Identity,
    Activation::Relu,
    Activation::Tanh,
    Activation::Sigmoid,
];

/// Normal draws, with about `special` of them replaced by a signed zero, an
/// infinity or a NaN.
fn matrix(rows: usize, cols: usize, special: f64, rng: &mut Rng64) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| {
        if rng.bernoulli(special) {
            [-0.0, 0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN][rng.below(5).unwrap()]
        } else {
            rng.standard_normal()
        }
    })
}

/// Element bits, with every NaN mapped to one pattern. Where several NaNs
/// meet in one operation, IEEE 754 leaves the result's sign and payload
/// open, and LLVM may swap the operands of an addition, so a tiled and a
/// tail loop can disagree on which NaN survives. Every other value —
/// signed zeros and infinities included — must match exactly.
fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice()
        .iter()
        .map(|v| if v.is_nan() { f64::NAN } else { *v }.to_bits())
        .collect()
}

/// Every weight and bias gradient, flattened in layer order.
fn grad_bits(mlp: &Mlp) -> Vec<u64> {
    mlp.layers()
        .iter()
        .flat_map(|l| {
            let w = l.grad_weights().map(bits).unwrap_or_default();
            let b = l.grad_bias().map(bits).unwrap_or_default();
            w.into_iter().chain(b)
        })
        .collect()
}

proptest! {
    #[test]
    fn stacked_pass_is_bitwise_per_segment_loop(
        seed in 0u64..10_000,
        input_dim in 1usize..=9,
        hidden in prop::collection::vec(1usize..=7, 0..=2),
        output_dim in 1usize..=6,
        segment_rows in prop::collection::vec(1usize..=6, 1..=8),
    ) {
        // The seed also picks the thread cap and how often a value is special.
        let max_threads = 1 + (seed % 4) as usize;
        let special = [0.0, 0.02, 0.125][(seed / 4 % 3) as usize];
        let mut rng = Rng64::seed_from_u64(seed);
        let mlp = Mlp::new(
            &MlpConfig {
                input_dim,
                hidden_dims: hidden,
                output_dim,
                hidden_activation: ACTIVATIONS[rng.below(4).unwrap()],
                output_activation: ACTIVATIONS[rng.below(4).unwrap()],
                dropout: 0.0,
                init: Init::XavierNormal,
            },
            &mut rng,
        )
        .unwrap();
        let mut ends = Vec::with_capacity(segment_rows.len());
        let mut rows = 0;
        for len in &segment_rows {
            rows += len;
            ends.push(rows);
        }
        let x = matrix(rows, input_dim, special, &mut rng);
        let grad = matrix(rows, output_dim, special, &mut rng);

        let mut stacked = mlp.clone();
        let cache = stacked.forward_cached_with(&x, None, max_threads).unwrap();
        stacked.backward_segments(&cache, &grad, &ends, max_threads).unwrap();

        let mut per_segment = mlp.clone();
        let mut start = 0;
        for &end in &ends {
            let seg = |m: &Matrix| {
                let cols = m.cols();
                Matrix::from_vec(end - start, cols, m.as_slice()[start * cols..end * cols].to_vec())
                    .unwrap()
            };
            let seg_cache = per_segment.forward_cached(&seg(&x), &mut rng).unwrap();
            prop_assert_eq!(bits(seg_cache.output()), bits(&seg(cache.output())));
            per_segment.backward(&seg_cache, &seg(&grad)).unwrap();
            start = end;
        }
        prop_assert_eq!(grad_bits(&stacked), grad_bits(&per_segment));
    }
}
