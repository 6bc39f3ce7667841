//! Loss functions.
//!
//! Every loss returns `(value, gradient)` where the gradient is taken with
//! respect to the *first* argument (predictions / embeddings), so callers can
//! feed it straight into [`crate::Mlp::backward`]. Losses are mean-reduced
//! over the batch unless documented otherwise.

// Index-based loops below walk several parallel arrays at once; iterator
// zips would obscure the alignment, so the clippy lint is silenced.
#![allow(clippy::needless_range_loop)]

use crate::error::NnError;
use crate::Result;
use rll_tensor::{debug_assert_finite, ops, Matrix};

fn check_same_shape(op: &'static str, a: &Matrix, b: &Matrix) -> Result<()> {
    if a.shape() != b.shape() {
        return Err(NnError::Tensor(rll_tensor::TensorError::ShapeMismatch {
            op,
            lhs: a.shape(),
            rhs: b.shape(),
        }));
    }
    Ok(())
}

/// Mean squared error `mean((pred - target)^2)`.
pub fn mse(pred: &Matrix, target: &Matrix) -> Result<(f64, Matrix)> {
    check_same_shape("mse", pred, target)?;
    if pred.is_empty() {
        return Err(NnError::Tensor(rll_tensor::TensorError::Empty {
            op: "mse",
        }));
    }
    let n = pred.len() as f64;
    let diff = pred.sub(target)?;
    let loss = diff.as_slice().iter().map(|d| d * d).sum::<f64>() / n;
    let grad = diff.scale(2.0 / n);
    debug_assert_finite!(grad, "mse gradient");
    Ok((loss, grad))
}

/// Binary cross-entropy on raw logits (numerically stable; the gradient is the
/// familiar `sigmoid(z) - t`).
pub fn bce_with_logits(logits: &Matrix, target: &Matrix) -> Result<(f64, Matrix)> {
    check_same_shape("bce_with_logits", logits, target)?;
    if logits.is_empty() {
        return Err(NnError::Tensor(rll_tensor::TensorError::Empty {
            op: "bce_with_logits",
        }));
    }
    let n = logits.len() as f64;
    let mut loss = 0.0;
    let mut grad = Matrix::zeros(logits.rows(), logits.cols());
    for i in 0..logits.len() {
        let z = logits.as_slice()[i];
        let t = target.as_slice()[i];
        // -[t log σ(z) + (1-t) log σ(-z)]
        loss += -(t * ops::log_sigmoid(z) + (1.0 - t) * ops::log_sigmoid(-z));
        grad.as_mut_slice()[i] = (ops::sigmoid(z) - t) / n;
    }
    debug_assert_finite!(grad, "bce_with_logits gradient");
    Ok((loss / n, grad))
}

/// Contrastive loss for Siamese networks (Hadsell et al.):
///
/// `L = y * d^2 + (1 - y) * max(0, margin - d)^2`, averaged over the batch,
/// where `d` is the Euclidean distance between paired rows of `a` and `b` and
/// `y = 1` for similar pairs. Returns the loss and the gradients with respect
/// to `a` and `b`.
pub fn contrastive(
    a: &Matrix,
    b: &Matrix,
    same: &[bool],
    margin: f64,
) -> Result<(f64, Matrix, Matrix)> {
    check_same_shape("contrastive", a, b)?;
    if a.rows() != same.len() {
        return Err(NnError::InvalidConfig {
            reason: format!(
                "contrastive: {} rows but {} pair labels",
                a.rows(),
                same.len()
            ),
        });
    }
    if margin <= 0.0 {
        return Err(NnError::InvalidConfig {
            reason: format!("contrastive margin must be positive, got {margin}"),
        });
    }
    if a.is_empty() {
        return Err(NnError::Tensor(rll_tensor::TensorError::Empty {
            op: "contrastive",
        }));
    }
    let n = a.rows() as f64;
    let mut loss = 0.0;
    let mut ga = Matrix::zeros(a.rows(), a.cols());
    let mut gb = Matrix::zeros(b.rows(), b.cols());
    for r in 0..a.rows() {
        let ra = a.row(r)?;
        let rb = b.row(r)?;
        let d2 = ops::squared_distance(ra, rb)?;
        let d = d2.sqrt();
        if same[r] {
            loss += d2;
            // dL/da = 2 (a - b)
            let gra = ga.row_mut(r)?;
            for (c, (&xa, &xb)) in ra.iter().zip(rb).enumerate() {
                gra[c] = 2.0 * (xa - xb) / n;
            }
            let grb = gb.row_mut(r)?;
            for (c, (&xa, &xb)) in ra.iter().zip(rb).enumerate() {
                grb[c] = -2.0 * (xa - xb) / n;
            }
        } else {
            let gap = margin - d;
            if gap > 0.0 {
                loss += gap * gap;
                // dL/da = -2 * gap * (a - b) / d  (0 when d == 0: the
                // subgradient at the non-differentiable point).
                if d > 1e-12 {
                    let coeff = -2.0 * gap / d;
                    let gra = ga.row_mut(r)?;
                    for (c, (&xa, &xb)) in ra.iter().zip(rb).enumerate() {
                        gra[c] = coeff * (xa - xb) / n;
                    }
                    let grb = gb.row_mut(r)?;
                    for (c, (&xa, &xb)) in ra.iter().zip(rb).enumerate() {
                        grb[c] = -coeff * (xa - xb) / n;
                    }
                }
            }
        }
    }
    debug_assert_finite!(ga, "contrastive gradient (a)");
    debug_assert_finite!(gb, "contrastive gradient (b)");
    Ok((loss / n, ga, gb))
}

/// Triplet margin loss (FaceNet): `L = max(0, d(a,p)^2 - d(a,n)^2 + margin)`,
/// averaged over the batch. Returns the loss and gradients with respect to the
/// anchor, positive, and negative embeddings.
#[allow(clippy::type_complexity)]
pub fn triplet(
    anchor: &Matrix,
    positive: &Matrix,
    negative: &Matrix,
    margin: f64,
) -> Result<(f64, Matrix, Matrix, Matrix)> {
    check_same_shape("triplet", anchor, positive)?;
    check_same_shape("triplet", anchor, negative)?;
    if margin <= 0.0 {
        return Err(NnError::InvalidConfig {
            reason: format!("triplet margin must be positive, got {margin}"),
        });
    }
    if anchor.is_empty() {
        return Err(NnError::Tensor(rll_tensor::TensorError::Empty {
            op: "triplet",
        }));
    }
    let n = anchor.rows() as f64;
    let mut loss = 0.0;
    let mut ga = Matrix::zeros(anchor.rows(), anchor.cols());
    let mut gp = Matrix::zeros(anchor.rows(), anchor.cols());
    let mut gn = Matrix::zeros(anchor.rows(), anchor.cols());
    for r in 0..anchor.rows() {
        let ra = anchor.row(r)?;
        let rp = positive.row(r)?;
        let rn = negative.row(r)?;
        let dp = ops::squared_distance(ra, rp)?;
        let dn = ops::squared_distance(ra, rn)?;
        let violation = dp - dn + margin;
        if violation > 0.0 {
            loss += violation;
            let gra = ga.row_mut(r)?;
            for c in 0..ra.len() {
                // d/da [ |a-p|^2 - |a-n|^2 ] = 2(a - p) - 2(a - n) = 2(n - p)
                gra[c] = 2.0 * (rn[c] - rp[c]) / n;
            }
            let grp = gp.row_mut(r)?;
            for c in 0..ra.len() {
                grp[c] = -2.0 * (ra[c] - rp[c]) / n;
            }
            let grn = gn.row_mut(r)?;
            for c in 0..ra.len() {
                grn[c] = 2.0 * (ra[c] - rn[c]) / n;
            }
        }
    }
    debug_assert_finite!(ga, "triplet gradient (anchor)");
    debug_assert_finite!(gp, "triplet gradient (positive)");
    debug_assert_finite!(gn, "triplet gradient (negative)");
    Ok((loss / n, ga, gp, gn))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Oracle: binary cross-entropy on probabilities in `(0, 1)`.
    ///
    /// `targets` may be soft (e.g. crowdsourced vote fractions). Probabilities are
    /// clamped away from {0, 1} before the logs.
    fn binary_cross_entropy(pred: &Matrix, target: &Matrix) -> Result<(f64, Matrix)> {
        check_same_shape("binary_cross_entropy", pred, target)?;
        if pred.is_empty() {
            return Err(NnError::Tensor(rll_tensor::TensorError::Empty {
                op: "binary_cross_entropy",
            }));
        }
        let n = pred.len() as f64;
        let eps = 1e-12;
        let mut loss = 0.0;
        let mut grad = Matrix::zeros(pred.rows(), pred.cols());
        for i in 0..pred.len() {
            let p = ops::clamp_prob(pred.as_slice()[i], eps);
            let t = target.as_slice()[i];
            loss += -(t * p.ln() + (1.0 - t) * (1.0 - p).ln());
            grad.as_mut_slice()[i] = (p - t) / (p * (1.0 - p)) / n;
        }
        debug_assert_finite!(grad, "binary_cross_entropy gradient");
        Ok((loss / n, grad))
    }

    fn finite_diff(f: &dyn Fn(&Matrix) -> f64, at: &Matrix, r: usize, c: usize) -> f64 {
        let eps = 1e-6;
        let mut up = at.clone();
        up.set(r, c, at.get(r, c).unwrap() + eps).unwrap();
        let mut down = at.clone();
        down.set(r, c, at.get(r, c).unwrap() - eps).unwrap();
        (f(&up) - f(&down)) / (2.0 * eps)
    }

    #[test]
    fn mse_zero_for_equal_inputs() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let (l, g) = mse(&a, &a).unwrap();
        assert_eq!(l, 0.0);
        assert_eq!(g.sum(), 0.0);
    }

    #[test]
    fn mse_gradient_check() {
        let pred = Matrix::from_vec(2, 2, vec![0.5, -1.0, 2.0, 0.0]).unwrap();
        let target = Matrix::from_vec(2, 2, vec![1.0, 1.0, 1.0, 1.0]).unwrap();
        let (_, g) = mse(&pred, &target).unwrap();
        for &(r, c) in &[(0, 0), (1, 1)] {
            let numeric = finite_diff(&|p| mse(p, &target).unwrap().0, &pred, r, c);
            assert!((numeric - g.get(r, c).unwrap()).abs() < 1e-5);
        }
        assert!(mse(&pred, &Matrix::zeros(1, 1)).is_err());
    }

    #[test]
    fn bce_matches_known_value() {
        let pred = Matrix::row_vector(&[0.9, 0.1]);
        let target = Matrix::row_vector(&[1.0, 0.0]);
        let (l, _) = binary_cross_entropy(&pred, &target).unwrap();
        let expected = -(0.9f64.ln() + 0.9f64.ln()) / 2.0;
        assert!((l - expected).abs() < 1e-9);
    }

    #[test]
    fn bce_gradient_check() {
        let pred = Matrix::row_vector(&[0.3, 0.7, 0.5]);
        let target = Matrix::row_vector(&[1.0, 0.2, 0.5]);
        let (_, g) = binary_cross_entropy(&pred, &target).unwrap();
        for c in 0..3 {
            let numeric = finite_diff(
                &|p| binary_cross_entropy(p, &target).unwrap().0,
                &pred,
                0,
                c,
            );
            assert!((numeric - g.get(0, c).unwrap()).abs() < 1e-4);
        }
    }

    #[test]
    fn bce_clamps_extreme_probabilities() {
        let pred = Matrix::row_vector(&[0.0, 1.0]);
        let target = Matrix::row_vector(&[1.0, 0.0]);
        let (l, g) = binary_cross_entropy(&pred, &target).unwrap();
        assert!(l.is_finite());
        assert!(g.as_slice().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn bce_with_logits_matches_probability_form() {
        let logits = Matrix::row_vector(&[-1.5, 0.3, 2.0]);
        let probs = logits.map(ops::sigmoid);
        let target = Matrix::row_vector(&[0.0, 1.0, 1.0]);
        let (l1, _) = bce_with_logits(&logits, &target).unwrap();
        let (l2, _) = binary_cross_entropy(&probs, &target).unwrap();
        assert!((l1 - l2).abs() < 1e-9);
    }

    #[test]
    fn bce_with_logits_gradient_check() {
        let logits = Matrix::row_vector(&[-0.5, 1.2]);
        let target = Matrix::row_vector(&[1.0, 0.0]);
        let (_, g) = bce_with_logits(&logits, &target).unwrap();
        for c in 0..2 {
            let numeric = finite_diff(&|z| bce_with_logits(z, &target).unwrap().0, &logits, 0, c);
            assert!((numeric - g.get(0, c).unwrap()).abs() < 1e-5);
        }
    }

    #[test]
    fn bce_with_logits_stable_for_huge_logits() {
        let logits = Matrix::row_vector(&[1000.0, -1000.0]);
        let target = Matrix::row_vector(&[0.0, 1.0]);
        let (l, g) = bce_with_logits(&logits, &target).unwrap();
        assert!(l.is_finite() && l > 100.0);
        assert!(g.as_slice().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn contrastive_similar_pairs_pull_together() {
        let a = Matrix::row_vector(&[1.0, 0.0]);
        let b = Matrix::row_vector(&[0.0, 1.0]);
        let (l, ga, gb) = contrastive(&a, &b, &[true], 1.0).unwrap();
        assert!((l - 2.0).abs() < 1e-12); // d^2 = 2
                                          // Gradient moves a toward b.
        assert!(ga.get(0, 0).unwrap() > 0.0);
        assert!(gb.get(0, 0).unwrap() < 0.0);
    }

    #[test]
    fn contrastive_distant_dissimilar_pairs_no_loss() {
        let a = Matrix::row_vector(&[10.0, 0.0]);
        let b = Matrix::row_vector(&[0.0, 0.0]);
        let (l, ga, _) = contrastive(&a, &b, &[false], 1.0).unwrap();
        assert_eq!(l, 0.0);
        assert_eq!(ga.sum(), 0.0);
    }

    #[test]
    fn contrastive_gradient_check() {
        let a = Matrix::from_vec(2, 2, vec![0.5, 0.2, 0.1, 0.9]).unwrap();
        let b = Matrix::from_vec(2, 2, vec![0.4, 0.1, 0.3, 0.2]).unwrap();
        let same = [true, false];
        let (_, ga, gb) = contrastive(&a, &b, &same, 2.0).unwrap();
        for &(r, c) in &[(0usize, 0usize), (1, 1)] {
            let na = finite_diff(&|x| contrastive(x, &b, &same, 2.0).unwrap().0, &a, r, c);
            assert!((na - ga.get(r, c).unwrap()).abs() < 1e-5, "a[{r}][{c}]");
            let nb = finite_diff(&|x| contrastive(&a, x, &same, 2.0).unwrap().0, &b, r, c);
            assert!((nb - gb.get(r, c).unwrap()).abs() < 1e-5, "b[{r}][{c}]");
        }
    }

    #[test]
    fn contrastive_validates() {
        let a = Matrix::ones(2, 2);
        assert!(contrastive(&a, &a, &[true], 1.0).is_err()); // label count
        assert!(contrastive(&a, &a, &[true, false], 0.0).is_err()); // margin
        assert!(contrastive(&a, &Matrix::ones(2, 3), &[true, true], 1.0).is_err());
    }

    #[test]
    fn triplet_satisfied_margin_no_loss() {
        let a = Matrix::row_vector(&[0.0, 0.0]);
        let p = Matrix::row_vector(&[0.1, 0.0]);
        let n = Matrix::row_vector(&[5.0, 0.0]);
        let (l, ga, _, _) = triplet(&a, &p, &n, 1.0).unwrap();
        assert_eq!(l, 0.0);
        assert_eq!(ga.sum(), 0.0);
    }

    #[test]
    fn triplet_violated_margin_positive_loss() {
        let a = Matrix::row_vector(&[0.0, 0.0]);
        let p = Matrix::row_vector(&[2.0, 0.0]);
        let n = Matrix::row_vector(&[0.5, 0.0]);
        let (l, _, _, _) = triplet(&a, &p, &n, 1.0).unwrap();
        // dp^2 = 4, dn^2 = 0.25, margin 1 → 4.75
        assert!((l - 4.75).abs() < 1e-12);
    }

    #[test]
    fn triplet_gradient_check() {
        let a = Matrix::from_vec(2, 2, vec![0.1, 0.4, -0.2, 0.3]).unwrap();
        let p = Matrix::from_vec(2, 2, vec![0.6, 0.0, 0.2, 0.2]).unwrap();
        let n = Matrix::from_vec(2, 2, vec![0.2, 0.5, -0.1, 0.4]).unwrap();
        let (_, ga, gp, gn) = triplet(&a, &p, &n, 1.0).unwrap();
        for &(r, c) in &[(0usize, 0usize), (1, 1)] {
            let na = finite_diff(&|x| triplet(x, &p, &n, 1.0).unwrap().0, &a, r, c);
            assert!(
                (na - ga.get(r, c).unwrap()).abs() < 1e-5,
                "anchor[{r}][{c}]"
            );
            let np = finite_diff(&|x| triplet(&a, x, &n, 1.0).unwrap().0, &p, r, c);
            assert!((np - gp.get(r, c).unwrap()).abs() < 1e-5, "pos[{r}][{c}]");
            let nn = finite_diff(&|x| triplet(&a, &p, x, 1.0).unwrap().0, &n, r, c);
            assert!((nn - gn.get(r, c).unwrap()).abs() < 1e-5, "neg[{r}][{c}]");
        }
    }

    #[test]
    fn triplet_validates() {
        let a = Matrix::ones(1, 2);
        assert!(triplet(&a, &a, &Matrix::ones(1, 3), 1.0).is_err());
        assert!(triplet(&a, &a, &a, -1.0).is_err());
    }
}
