//! A forward over distinct rows, a gather of the rows a stack repeats, and
//! one segmented backward must leave **bitwise** the gradients that a
//! stacked forward over the repeated rows plus `backward_segments` leaves,
//! and the gathered output must carry the stacked output's bits. This is
//! what lets the trainer embed each distinct member row once per epoch and
//! hand every shard its rows from that one cache. Rows repeat in arbitrary
//! order; inputs include `-0.0`, `±inf` and NaN, and values compare by
//! `to_bits`, with NaNs compared as NaNs (see [`bits`]).

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

/// Element bits, with every NaN mapped to one pattern: where several NaNs
/// meet in one operation, IEEE 754 leaves the result's sign and payload
/// open. Every other value — signed zeros and infinities included — must
/// match exactly.
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
    fn gathered_pass_is_bitwise_stacked_pass(
        seed in 0u64..10_000,
        input_dim in 1usize..=9,
        hidden in prop::collection::vec(1usize..=7, 0..=2),
        output_dim in 1usize..=6,
        pool_rows in 1usize..=12,
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
        // Each stacked row is a pool row drawn at random: rows repeat within
        // and across segments, in any order, and some pool rows go unused.
        let pool = matrix(pool_rows, input_dim, special, &mut rng);
        let slots: Vec<usize> = (0..rows).map(|_| rng.below(pool_rows).unwrap()).collect();
        let grad = matrix(rows, output_dim, special, &mut rng);

        let mut stacked = mlp.clone();
        let stacked_cache = stacked
            .forward_cached_with(&pool.select_rows(&slots).unwrap(), None, max_threads)
            .unwrap();
        stacked.backward_segments(&stacked_cache, &grad, &ends, max_threads).unwrap();

        let mut gathered = mlp.clone();
        let gathered_cache = gathered
            .forward_cached_with(&pool, None, max_threads)
            .unwrap()
            .gather(&slots)
            .unwrap();
        prop_assert_eq!(bits(gathered_cache.output()), bits(stacked_cache.output()));
        gathered.backward_segments(&gathered_cache, &grad, &ends, max_threads).unwrap();
        prop_assert_eq!(grad_bits(&gathered), grad_bits(&stacked));
    }
}

#[test]
fn gather_rejects_out_of_range_rows() {
    let mut rng = Rng64::seed_from_u64(3);
    let mlp = Mlp::new(
        &MlpConfig {
            input_dim: 2,
            hidden_dims: vec![3],
            output_dim: 2,
            ..MlpConfig::default()
        },
        &mut rng,
    )
    .unwrap();
    let cache = mlp.forward_cached(&Matrix::ones(4, 2), &mut rng).unwrap();
    assert_eq!(cache.gather(&[3, 0, 3]).unwrap().output().rows(), 3);
    assert!(cache.gather(&[1, 4]).is_err());
}
