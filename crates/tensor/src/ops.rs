//! Numerically-stable vector kernels.
//!
//! These free functions operate on plain slices so both [`crate::Matrix`] rows
//! and ad-hoc buffers can use them. The RLL loss is built directly from
//! [`cosine_similarity`], [`softmax`], and [`log_sum_exp`].

use crate::error::TensorError;
use crate::Result;

/// Dot product of two equal-length slices.
pub fn dot(a: &[f64], b: &[f64]) -> Result<f64> {
    if a.len() != b.len() {
        return Err(TensorError::ShapeMismatch {
            op: "dot",
            lhs: (1, a.len()),
            rhs: (1, b.len()),
        });
    }
    Ok(a.iter().zip(b).map(|(&x, &y)| x * y).sum())
}

/// Euclidean (L2) norm.
pub fn norm(a: &[f64]) -> f64 {
    a.iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// Squared Euclidean distance between two equal-length slices.
pub fn squared_distance(a: &[f64], b: &[f64]) -> Result<f64> {
    if a.len() != b.len() {
        return Err(TensorError::ShapeMismatch {
            op: "squared_distance",
            lhs: (1, a.len()),
            rhs: (1, b.len()),
        });
    }
    Ok(a.iter().zip(b).map(|(&x, &y)| (x - y) * (x - y)).sum())
}

/// Euclidean distance between two equal-length slices.
pub fn euclidean_distance(a: &[f64], b: &[f64]) -> Result<f64> {
    squared_distance(a, b).map(f64::sqrt)
}

/// Cosine similarity `a·b / (|a||b|)`.
///
/// The relevance score of the RLL framework (paper §III-A):
/// `r(x_i, x_j) = cosine(f_i, f_j)`. Returns `0.0` when either vector has
/// (near-)zero norm — embeddings collapse to the origin only transiently
/// during early training, and a neutral score is the sensible continuation.
pub fn cosine_similarity(a: &[f64], b: &[f64]) -> Result<f64> {
    let d = dot(a, b)?;
    let na = norm(a);
    let nb = norm(b);
    if na <= f64::EPSILON || nb <= f64::EPSILON {
        return Ok(0.0);
    }
    Ok(d / (na * nb))
}

/// Numerically-stable log-sum-exp: `log Σ exp(x_i)`.
///
/// Returns [`TensorError::Empty`] for an empty slice.
pub fn log_sum_exp(xs: &[f64]) -> Result<f64> {
    if xs.is_empty() {
        return Err(TensorError::Empty { op: "log_sum_exp" });
    }
    let m = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if m.is_infinite() && m < 0.0 {
        // All entries are -inf; the sum of exps is 0.
        return Ok(f64::NEG_INFINITY);
    }
    let s: f64 = xs.iter().map(|&x| (x - m).exp()).sum();
    Ok(m + s.ln())
}

/// Numerically-stable softmax. The output sums to 1 (up to rounding) and is
/// invariant to adding a constant to every input.
///
/// Individual `-inf` entries are fine (their probability is exactly `0.0`),
/// but two inputs admit no distribution and return
/// [`TensorError::NonFinite`] instead of silent NaNs: any `NaN` entry (the
/// max fold below skips NaN, so it would otherwise surface only as NaN
/// outputs), and a maximum of `-inf`, where the shifted exponentials would
/// all be `exp(-inf - -inf) = NaN`.
pub fn softmax(xs: &[f64]) -> Result<Vec<f64>> {
    if xs.is_empty() {
        return Err(TensorError::Empty { op: "softmax" });
    }
    if xs.iter().any(|x| x.is_nan()) {
        return Err(TensorError::NonFinite {
            op: "softmax",
            reason: "an input is NaN",
        });
    }
    let m = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if m.is_infinite() && m < 0.0 {
        return Err(TensorError::NonFinite {
            op: "softmax",
            reason: "the maximum input is -inf (no finite score to normalize against)",
        });
    }
    let exps: Vec<f64> = xs.iter().map(|&x| (x - m).exp()).collect();
    let z: f64 = exps.iter().sum();
    Ok(exps.into_iter().map(|e| e / z).collect())
}

/// Logistic sigmoid `1 / (1 + e^{-x})`, computed stably for large `|x|`.
#[inline]
pub fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        let e = (-x).exp();
        1.0 / (1.0 + e)
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Natural log of the sigmoid, computed stably: `-log(1 + e^{-x})`.
#[inline]
pub fn log_sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        -((-x).exp().ln_1p())
    } else {
        x - x.exp().ln_1p()
    }
}

/// Index of the maximum element; ties resolve to the first occurrence.
///
/// Returns [`TensorError::Empty`] for an empty slice.
pub fn argmax(xs: &[f64]) -> Result<usize> {
    if xs.is_empty() {
        return Err(TensorError::Empty { op: "argmax" });
    }
    let mut best = 0;
    for (i, &x) in xs.iter().enumerate().skip(1) {
        if x > xs[best] {
            best = i;
        }
    }
    Ok(best)
}

/// Clamps a probability into the open interval `(eps, 1 - eps)` so that
/// downstream `ln` calls stay finite.
#[inline]
pub fn clamp_prob(p: f64, eps: f64) -> f64 {
    p.max(eps).min(1.0 - eps)
}

/// L2-normalizes a vector in place; leaves a (near-)zero vector untouched.
pub fn l2_normalize(xs: &mut [f64]) {
    let n = norm(xs);
    if n > f64::EPSILON {
        for x in xs.iter_mut() {
            *x /= n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norm() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]).unwrap(), 11.0);
        assert!(dot(&[1.0], &[1.0, 2.0]).is_err());
        assert!((norm(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn distances() {
        assert_eq!(squared_distance(&[0.0, 0.0], &[3.0, 4.0]).unwrap(), 25.0);
        assert_eq!(euclidean_distance(&[0.0, 0.0], &[3.0, 4.0]).unwrap(), 5.0);
        assert!(squared_distance(&[1.0], &[]).is_err());
    }

    #[test]
    fn cosine_basic() {
        let c = cosine_similarity(&[1.0, 0.0], &[0.0, 1.0]).unwrap();
        assert!(c.abs() < 1e-12);
        let c = cosine_similarity(&[1.0, 1.0], &[2.0, 2.0]).unwrap();
        assert!((c - 1.0).abs() < 1e-12);
        let c = cosine_similarity(&[1.0, 0.0], &[-1.0, 0.0]).unwrap();
        assert!((c + 1.0).abs() < 1e-12);
    }

    #[test]
    fn cosine_zero_vector_is_neutral() {
        assert_eq!(cosine_similarity(&[0.0, 0.0], &[1.0, 2.0]).unwrap(), 0.0);
    }

    #[test]
    fn cosine_bounded() {
        let c = cosine_similarity(&[0.3, -0.2, 5.0], &[-4.0, 0.01, 2.0]).unwrap();
        assert!((-1.0..=1.0).contains(&c));
    }

    #[test]
    fn log_sum_exp_stable_for_large_inputs() {
        let v = log_sum_exp(&[1000.0, 1000.0]).unwrap();
        assert!((v - (1000.0 + 2.0_f64.ln())).abs() < 1e-9);
        let v = log_sum_exp(&[-1000.0, -1000.0]).unwrap();
        assert!((v - (-1000.0 + 2.0_f64.ln())).abs() < 1e-9);
    }

    #[test]
    fn log_sum_exp_edge_cases() {
        assert!(log_sum_exp(&[]).is_err());
        assert_eq!(
            log_sum_exp(&[f64::NEG_INFINITY, f64::NEG_INFINITY]).unwrap(),
            f64::NEG_INFINITY
        );
    }

    #[test]
    fn softmax_sums_to_one() {
        let p = softmax(&[1.0, 2.0, 3.0]).unwrap();
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p[2] > p[1] && p[1] > p[0]);
    }

    #[test]
    fn softmax_shift_invariant() {
        let a = softmax(&[1.0, 2.0, 3.0]).unwrap();
        let b = softmax(&[101.0, 102.0, 103.0]).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn softmax_extreme_inputs() {
        let p = softmax(&[1e4, 0.0]).unwrap();
        assert!((p[0] - 1.0).abs() < 1e-12);
        assert!(p.iter().all(|x| x.is_finite()));
        assert!(softmax(&[]).is_err());
    }

    #[test]
    fn softmax_all_neg_inf_is_typed_error() {
        // Degenerate input: every score -inf used to yield a silent all-NaN
        // vector (`-inf - -inf = NaN`); it must be a typed error instead.
        let err = softmax(&[f64::NEG_INFINITY, f64::NEG_INFINITY, f64::NEG_INFINITY]).unwrap_err();
        assert!(matches!(err, TensorError::NonFinite { op: "softmax", .. }));
        // Single-element -inf hits the same degenerate case.
        let err = softmax(&[f64::NEG_INFINITY]).unwrap_err();
        assert!(matches!(err, TensorError::NonFinite { op: "softmax", .. }));
    }

    #[test]
    fn softmax_nan_is_typed_error() {
        // f64::max skips NaN: without an explicit check a NaN input slips
        // past the max fold into an all-NaN vector, and all-NaN input looks
        // like a -inf maximum.
        let nan = f64::NAN;
        for xs in [
            vec![nan, 0.5, 0.3],
            vec![0.5, nan, 0.3],
            vec![nan, nan, nan],
            vec![nan],
            vec![f64::NEG_INFINITY, nan],
        ] {
            assert_eq!(
                softmax(&xs).unwrap_err(),
                TensorError::NonFinite {
                    op: "softmax",
                    reason: "an input is NaN",
                },
                "{xs:?}"
            );
        }
    }

    #[test]
    fn softmax_mixed_neg_inf_zeroes_those_entries() {
        // A finite maximum keeps the distribution well-defined: -inf entries
        // get probability exactly 0.0 and the rest renormalize.
        let p = softmax(&[1.0, f64::NEG_INFINITY, 3.0]).unwrap();
        assert_eq!(p[1], 0.0);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p[2] > p[0] && p[0] > 0.0);
        // All-but-one -inf degenerates to a point mass, still finite.
        let p = softmax(&[f64::NEG_INFINITY, 2.0]).unwrap();
        assert_eq!(p[0], 0.0);
        assert_eq!(p[1], 1.0);
    }

    #[test]
    fn sigmoid_properties() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!(sigmoid(40.0) > 0.999999);
        assert!(sigmoid(-40.0) < 1e-6);
        // Symmetry: sigmoid(-x) = 1 - sigmoid(x)
        for &x in &[0.1, 1.0, 5.0, 30.0] {
            assert!((sigmoid(-x) - (1.0 - sigmoid(x))).abs() < 1e-12);
        }
    }

    #[test]
    fn log_sigmoid_matches_naive_in_safe_range() {
        for &x in &[-5.0, -1.0, 0.0, 1.0, 5.0] {
            let naive = sigmoid(x).ln();
            assert!((log_sigmoid(x) - naive).abs() < 1e-10);
        }
        // Stable in extreme range where the naive version underflows.
        assert!(log_sigmoid(-1000.0).is_finite());
        assert!((log_sigmoid(-1000.0) + 1000.0).abs() < 1e-9);
    }

    #[test]
    fn argmax_ties_first() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0]).unwrap(), 1);
        assert!(argmax(&[]).is_err());
    }

    #[test]
    fn clamp_prob_bounds() {
        assert_eq!(clamp_prob(-0.5, 1e-9), 1e-9);
        assert_eq!(clamp_prob(2.0, 1e-9), 1.0 - 1e-9);
        assert_eq!(clamp_prob(0.3, 1e-9), 0.3);
    }

    #[test]
    fn l2_normalize_unit_norm() {
        let mut v = vec![3.0, 4.0];
        l2_normalize(&mut v);
        assert!((norm(&v) - 1.0).abs() < 1e-12);
        let mut z = vec![0.0, 0.0];
        l2_normalize(&mut z);
        assert_eq!(z, vec![0.0, 0.0]);
    }
}
