//! Property-based tests for the NN substrate.

use proptest::prelude::*;
use rll_nn::{loss, Activation, Mlp, MlpConfig};
use rll_tensor::{init::Init, Matrix, Rng64};

fn mlp_with(seed: u64, input_dim: usize, hidden: usize, out: usize) -> Mlp {
    let mut rng = Rng64::seed_from_u64(seed);
    Mlp::new(
        &MlpConfig {
            input_dim,
            hidden_dims: vec![hidden],
            output_dim: out,
            hidden_activation: Activation::Tanh,
            output_activation: Activation::Tanh,
            dropout: 0.0,
            init: Init::XavierNormal,
        },
        &mut rng,
    )
    .unwrap()
}

proptest! {
    #[test]
    fn mlp_output_bounded_by_tanh(seed in 0u64..200, vals in prop::collection::vec(-5.0f64..5.0, 6)) {
        let mlp = mlp_with(seed, 3, 4, 2);
        let x = Matrix::from_vec(2, 3, vals).unwrap();
        let y = mlp.forward(&x).unwrap();
        prop_assert!(y.as_slice().iter().all(|&v| (-1.0..=1.0).contains(&v)));
    }

    #[test]
    fn forward_deterministic(seed in 0u64..100) {
        let mlp = mlp_with(seed, 4, 5, 3);
        let x = Matrix::from_fn(3, 4, |r, c| (r as f64 - c as f64) * 0.2);
        let a = mlp.forward(&x).unwrap();
        let b = mlp.forward(&x).unwrap();
        prop_assert!(a.approx_eq(&b, 0.0));
    }

    #[test]
    fn same_seed_same_network(seed in 0u64..100) {
        let a = mlp_with(seed, 3, 4, 2);
        let b = mlp_with(seed, 3, 4, 2);
        let x = Matrix::ones(1, 3);
        prop_assert!(a.forward(&x).unwrap().approx_eq(&b.forward(&x).unwrap(), 0.0));
    }

    #[test]
    fn mse_nonnegative_and_zero_iff_equal(vals in prop::collection::vec(-3.0f64..3.0, 4)) {
        let a = Matrix::from_vec(2, 2, vals.clone()).unwrap();
        let b = Matrix::from_vec(2, 2, vals.iter().map(|v| v + 0.5).collect()).unwrap();
        let (l_same, _) = loss::mse(&a, &a).unwrap();
        prop_assert_eq!(l_same, 0.0);
        let (l_diff, _) = loss::mse(&a, &b).unwrap();
        prop_assert!(l_diff > 0.0);
    }

    #[test]
    fn bce_with_logits_nonnegative(
        logits in prop::collection::vec(-20.0f64..20.0, 3),
        targets in prop::collection::vec(0.0f64..=1.0, 3),
    ) {
        let z = Matrix::row_vector(&logits);
        let t = Matrix::row_vector(&targets);
        let (l, g) = loss::bce_with_logits(&z, &t).unwrap();
        prop_assert!(l >= 0.0);
        prop_assert!(l.is_finite());
        prop_assert!(g.as_slice().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn triplet_loss_nonnegative(
        a in prop::collection::vec(-2.0f64..2.0, 4),
        p in prop::collection::vec(-2.0f64..2.0, 4),
        n in prop::collection::vec(-2.0f64..2.0, 4),
    ) {
        let am = Matrix::from_vec(2, 2, a).unwrap();
        let pm = Matrix::from_vec(2, 2, p).unwrap();
        let nm = Matrix::from_vec(2, 2, n).unwrap();
        let (l, _, _, _) = loss::triplet(&am, &pm, &nm, 1.0).unwrap();
        prop_assert!(l >= 0.0);
    }

    #[test]
    fn contrastive_loss_nonnegative(
        a in prop::collection::vec(-2.0f64..2.0, 4),
        b in prop::collection::vec(-2.0f64..2.0, 4),
        same0 in any::<bool>(),
        same1 in any::<bool>(),
    ) {
        let am = Matrix::from_vec(2, 2, a).unwrap();
        let bm = Matrix::from_vec(2, 2, b).unwrap();
        let (l, _, _) = loss::contrastive(&am, &bm, &[same0, same1], 1.0).unwrap();
        prop_assert!(l >= 0.0);
    }

    #[test]
    fn backward_then_adam_step_reduces_mse(seed in 0u64..50) {
        use rll_nn::{Adam, Optimizer};
        let mut mlp = mlp_with(seed, 3, 6, 2);
        let x = Matrix::from_fn(4, 3, |r, c| ((r * 3 + c) as f64 * 0.17).sin());
        let target = Matrix::from_fn(4, 2, |r, c| if (r + c) % 2 == 0 { 0.5 } else { -0.5 });
        let mut rng = Rng64::seed_from_u64(seed + 1);

        let before = loss::mse(&mlp.forward(&x).unwrap(), &target).unwrap().0;
        let mut opt = Adam::new(0.01).unwrap();
        for _ in 0..20 {
            mlp.zero_grad();
            let cache = mlp.forward_cached(&x, &mut rng).unwrap();
            let (_, grad) = loss::mse(cache.output(), &target).unwrap();
            mlp.backward(&cache, &grad).unwrap();
            let pairs = mlp.param_grad_pairs();
            opt.step(pairs).unwrap();
        }
        let after = loss::mse(&mlp.forward(&x).unwrap(), &target).unwrap().0;
        prop_assert!(after < before, "before {before} after {after}");
    }
}

// Satellite of the crash-resume work: Adam's serialized state must
// round-trip bit-exactly through JSON (shortest-round-trip float formatting),
// and a restored optimizer must continue the exact update sequence of the
// original.
proptest! {
    #[test]
    fn adam_state_save_load_round_trips_bit_exactly(seed in 0u64..100, steps in 1usize..6) {
        use rll_nn::{Adam, AdamState, Optimizer};
        let mut rng = Rng64::seed_from_u64(seed);
        let mut opt = Adam::new(0.03).unwrap();
        let mut x = Matrix::from_fn(2, 3, |r, c| (r as f64) - 0.4 * (c as f64));
        for _ in 0..steps {
            let g = Matrix::from_fn(2, 3, |_, _| rng.standard_normal());
            opt.step(vec![(&mut x, g)]).unwrap();
        }
        let state = opt.state();
        let json = serde_json::to_string(&state).unwrap();
        let back: AdamState = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(&back, &state);

        // Continuation equality: original vs save→load copy, same gradient.
        let mut restored = Adam::new(0.03).unwrap();
        restored.restore(back).unwrap();
        let g = Matrix::from_fn(2, 3, |_, _| rng.standard_normal());
        let mut x_restored = x.clone();
        opt.step(vec![(&mut x, g.clone())]).unwrap();
        restored.step(vec![(&mut x_restored, g)]).unwrap();
        prop_assert_eq!(x, x_restored);
    }
}
