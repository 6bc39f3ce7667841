//! Elementwise activation functions.

use serde::{Deserialize, Serialize};

/// An elementwise non-linearity applied after a dense layer's affine map.
///
/// The paper's projection layers are tanh-style non-linearities (following the
/// DSSM lineage it cites); ReLU is provided for the baselines and ablations.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Activation {
    /// `f(x) = x` — used for the final embedding layer so cosine scores see an
    /// unsquashed space.
    Identity,
    /// Rectified linear unit `max(0, x)`.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
}

impl Activation {
    /// Applies the activation to a single pre-activation value.
    #[inline]
    pub fn apply(self, z: f64) -> f64 {
        match self {
            Activation::Identity => z,
            Activation::Relu => z.max(0.0),
            Activation::Tanh => z.tanh(),
            Activation::Sigmoid => rll_tensor::ops::sigmoid(z),
        }
    }

    /// Derivative with respect to the pre-activation `z`, from the activation
    /// `a = f(z)` alone, so the backward pass needs neither `z` nor a second
    /// transcendental call. For ReLU, `z > 0` exactly when `max(z, 0) > 0`,
    /// with NaN and `±0` included.
    #[inline]
    pub fn derivative(self, a: f64) -> f64 {
        match self {
            Activation::Identity => 1.0,
            Activation::Relu => {
                if a > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Tanh => 1.0 - a * a,
            Activation::Sigmoid => a * (1.0 - a),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ACTS: [Activation; 4] = [
        Activation::Identity,
        Activation::Relu,
        Activation::Tanh,
        Activation::Sigmoid,
    ];

    #[test]
    fn apply_known_values() {
        assert_eq!(Activation::Identity.apply(-3.0), -3.0);
        assert_eq!(Activation::Relu.apply(-3.0), 0.0);
        assert_eq!(Activation::Relu.apply(2.0), 2.0);
        assert!((Activation::Tanh.apply(0.0)).abs() < 1e-12);
        assert!((Activation::Sigmoid.apply(0.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn derivative_matches_finite_difference() {
        let eps = 1e-6;
        for act in ACTS {
            for &z in &[-2.0, -0.5, 0.3, 1.7, 4.0] {
                let a = act.apply(z);
                let analytic = act.derivative(a);
                let numeric = (act.apply(z + eps) - act.apply(z - eps)) / (2.0 * eps);
                assert!(
                    (analytic - numeric).abs() < 1e-5,
                    "{act:?} at z={z}: analytic {analytic} vs numeric {numeric}"
                );
            }
        }
    }

    #[test]
    fn relu_derivative_zero_on_negative_side() {
        assert_eq!(Activation::Relu.derivative(0.0), 0.0);
    }

    #[test]
    fn relu_derivative_from_output_matches_sign_of_input() {
        for z in [
            -1.0,
            -0.0,
            0.0,
            1e-300,
            2.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ] {
            let a = Activation::Relu.apply(z);
            let from_z = if z > 0.0 { 1.0 } else { 0.0 };
            assert_eq!(
                Activation::Relu.derivative(a).to_bits(),
                f64::to_bits(from_z),
                "z={z}"
            );
        }
    }

    #[test]
    fn bounded_activations_stay_bounded() {
        for &z in &[-100.0, -10.0, 0.0, 10.0, 100.0] {
            let t = Activation::Tanh.apply(z);
            assert!((-1.0..=1.0).contains(&t));
            let s = Activation::Sigmoid.apply(z);
            assert!((0.0..=1.0).contains(&s));
        }
    }

    #[test]
    fn serde_round_trip() {
        for act in ACTS {
            let json = serde_json::to_string(&act).unwrap();
            let back: Activation = serde_json::from_str(&json).unwrap();
            assert_eq!(act, back);
        }
    }
}
