//! The confidence-weighted group-softmax loss (paper eq. 3).
//!
//! Given a group's embeddings `f(x⁺_i), f(x⁺_j), f(x⁻_1), …, f(x⁻_k)` and the
//! candidates' label confidences `δ`, the model's posterior of retrieving the
//! paired positive is
//!
//! ```text
//!                 exp(η · δ_j · r(f_i, f_j))
//! p̂(x⁺_j | x⁺_i) = ─────────────────────────────────
//!                 Σ_{x_* ∈ g, x_* ≠ x_i} exp(η · δ_* · r(f_i, f_*))
//! ```
//!
//! with `r = cosine`. The loss is `-log p̂`. Setting every `δ = 1` recovers
//! the unweighted objective (plain RLL, the paper's eq. for `p`).
//!
//! [`group_softmax_loss`] returns both the loss and its gradient with respect
//! to **every** embedding in the group (anchor included), so the trainer can
//! push one backward pass per member through the shared MLP.

// Index-based loops below walk several parallel arrays at once; iterator
// zips would obscure the alignment, so the clippy lint is silenced.
#![allow(clippy::needless_range_loop)]

use crate::error::RllError;
use crate::Result;
use rll_tensor::ops;
use rll_tensor::{debug_assert_finite, Matrix};

/// Computes the loss and embedding gradients for one group.
///
/// `embeddings` holds the group members as rows: row 0 is the anchor
/// `x⁺_i`, row 1 the paired positive `x⁺_j`, rows 2.. the negatives.
/// `confidences` aligns with the *candidates* (rows 1..): `confidences[0]` is
/// `δ_j`, `confidences[m]` is `δ` of negative `m-1`. `eta` is the softmax
/// smoothing hyperparameter `η`.
///
/// Returns `(loss, gradients)` where `gradients` has the same shape as
/// `embeddings`. A NaN anywhere in the scores — e.g. from a NaN embedding —
/// is a [`rll_tensor::TensorError::NonFinite`] error, never a finite loss.
///
/// The per-candidate cosine, the softmax, and the gradient passes are fused
/// into single sweeps over each embedding row, bitwise identical to the
/// composition of `ops` building blocks kept as the test oracle.
pub fn group_softmax_loss(
    embeddings: &Matrix,
    confidences: &[f64],
    eta: f64,
) -> Result<(f64, Matrix)> {
    let members = embeddings.rows();
    if members < 3 {
        return Err(RllError::InvalidConfig {
            reason: format!(
                "a group needs at least 3 members (anchor, positive, ≥1 negative), got {members}"
            ),
        });
    }
    let candidates = members - 1;
    if confidences.len() != candidates {
        return Err(RllError::InvalidConfig {
            reason: format!(
                "{} confidences for {candidates} candidates",
                confidences.len()
            ),
        });
    }
    if eta <= 0.0 || !eta.is_finite() {
        return Err(RllError::InvalidConfig {
            reason: format!("eta must be positive and finite, got {eta}"),
        });
    }
    if let Some(&bad) = confidences.iter().find(|c| !(0.0..=1.0).contains(*c)) {
        return Err(RllError::InvalidConfig {
            reason: format!("confidence {bad} outside [0, 1]"),
        });
    }
    loss_fused(embeddings, confidences, eta)
}

/// The test oracle: the loss composed from the `ops::` building blocks, one
/// pass per quantity.
#[cfg(test)]
fn loss_scalar(embeddings: &Matrix, confidences: &[f64], eta: f64) -> Result<(f64, Matrix)> {
    let members = embeddings.rows();
    let candidates = members - 1;
    let anchor = embeddings.row(0)?;
    let anchor_norm = ops::norm(anchor);

    // Scores s_c = η δ_c cos(anchor, candidate_c).
    let mut cosines = Vec::with_capacity(candidates);
    let mut scores = Vec::with_capacity(candidates);
    for c in 0..candidates {
        let cand = embeddings.row(c + 1)?;
        let r = ops::cosine_similarity(anchor, cand)?;
        cosines.push(r);
        scores.push(eta * confidences[c] * r);
    }
    let probs = ops::softmax(&scores)?;
    let loss = -probs[0].max(1e-300).ln();

    // dL/ds_c = p_c - 1[c == positive].
    let mut grads = Matrix::zeros(members, embeddings.cols());
    let dim = embeddings.cols();
    let mut grad_anchor = vec![0.0; dim];
    for c in 0..candidates {
        let dl_ds = probs[c] - if c == 0 { 1.0 } else { 0.0 };
        let dl_dr = dl_ds * eta * confidences[c];
        let cand = embeddings.row(c + 1)?;
        let cand_norm = ops::norm(cand);
        if anchor_norm <= f64::EPSILON || cand_norm <= f64::EPSILON {
            // cosine() returned the neutral 0 here; use the zero subgradient.
            continue;
        }
        let inv = 1.0 / (anchor_norm * cand_norm);
        let r = cosines[c];
        // dr/d(anchor) = cand/(|a||c|) - r * a / |a|^2
        for d in 0..dim {
            grad_anchor[d] += dl_dr * (cand[d] * inv - r * anchor[d] / (anchor_norm * anchor_norm));
        }
        // dr/d(cand) = a/(|a||c|) - r * c / |c|^2
        let grad_cand = grads.row_mut(c + 1)?;
        for d in 0..dim {
            grad_cand[d] = dl_dr * (anchor[d] * inv - r * cand[d] / (cand_norm * cand_norm));
        }
    }
    grads.row_mut(0)?.copy_from_slice(&grad_anchor);
    debug_assert_finite!([loss], "group softmax loss");
    debug_assert_finite!(grads, "group softmax gradients");
    Ok((loss, grads))
}

/// The fused kernel: one sweep per candidate row for the forward quantities
/// (dot product and squared norm as two independent chains), an inline
/// softmax, and one sweep per candidate row for both gradient rows.
///
/// The dot product and squared norm accumulate in the same element order as
/// [`ops::dot`]/[`ops::norm`], and the inline softmax keeps
/// [`ops::softmax`]'s checks and fold/exp/sum/normalize order. Further
/// bitwise-identity notes, matched against the test oracle term by term:
/// the anchor norm is computed once and reused (same chain, same bits as
/// recomputing), each candidate's norm is stashed from the forward sweep
/// for the gradient sweep, and the gradient expressions keep the oracle's
/// exact operation order — in particular the `r·x/(norm·norm)` divisions
/// are *not* strength-reduced to a reciprocal multiply, which would round
/// differently.
fn loss_fused(embeddings: &Matrix, confidences: &[f64], eta: f64) -> Result<(f64, Matrix)> {
    let members = embeddings.rows();
    let candidates = members - 1;
    let dim = embeddings.cols();
    let anchor = embeddings.row(0)?;
    let anchor_norm = ops::norm(anchor);

    // Forward sweep: cosine and score per candidate, candidate norms kept
    // for the gradient sweep.
    let mut cosines = vec![0.0; candidates];
    let mut cand_norms = vec![0.0; candidates];
    let mut scores = vec![0.0; candidates];
    for c in 0..candidates {
        let cand = embeddings.row(c + 1)?;
        let mut dot = 0.0;
        let mut sq = 0.0;
        for (&x, &y) in anchor.iter().zip(cand) {
            dot += x * y;
            sq += y * y;
        }
        let cand_norm = sq.sqrt();
        let r = if anchor_norm <= f64::EPSILON || cand_norm <= f64::EPSILON {
            0.0
        } else {
            dot / (anchor_norm * cand_norm)
        };
        cosines[c] = r;
        cand_norms[c] = cand_norm;
        scores[c] = eta * confidences[c] * r;
    }

    // Inline softmax, preserving ops::softmax's checks and
    // fold/exp/sum/normalize order (exps and probs reuse the scores buffer
    // in place). The NaN check must come first: the max fold skips NaN.
    if scores.iter().any(|s| s.is_nan()) {
        return Err(RllError::Tensor(rll_tensor::TensorError::NonFinite {
            op: "softmax",
            reason: "an input is NaN",
        }));
    }
    let m = scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if m.is_infinite() && m < 0.0 {
        return Err(RllError::Tensor(rll_tensor::TensorError::NonFinite {
            op: "softmax",
            reason: "the maximum input is -inf (no finite score to normalize against)",
        }));
    }
    for s in scores.iter_mut() {
        *s = (*s - m).exp();
    }
    let z: f64 = scores.iter().sum();
    for e in scores.iter_mut() {
        *e /= z;
    }
    let probs = scores;
    let loss = -probs[0].max(1e-300).ln();

    // Gradient sweep: both gradient rows of candidate c in one pass over d.
    let mut grads = Matrix::zeros(members, dim);
    let mut grad_anchor = vec![0.0; dim];
    for c in 0..candidates {
        let dl_ds = probs[c] - if c == 0 { 1.0 } else { 0.0 };
        let dl_dr = dl_ds * eta * confidences[c];
        let cand = embeddings.row(c + 1)?;
        let cand_norm = cand_norms[c];
        if anchor_norm <= f64::EPSILON || cand_norm <= f64::EPSILON {
            // cosine() returned the neutral 0 here; use the zero subgradient.
            continue;
        }
        let inv = 1.0 / (anchor_norm * cand_norm);
        let r = cosines[c];
        let grad_cand = grads.row_mut(c + 1)?;
        for d in 0..dim {
            // dr/d(anchor) = cand/(|a||c|) - r * a / |a|^2
            grad_anchor[d] += dl_dr * (cand[d] * inv - r * anchor[d] / (anchor_norm * anchor_norm));
            // dr/d(cand) = a/(|a||c|) - r * c / |c|^2
            grad_cand[d] = dl_dr * (anchor[d] * inv - r * cand[d] / (cand_norm * cand_norm));
        }
    }
    grads.row_mut(0)?.copy_from_slice(&grad_anchor);
    debug_assert_finite!([loss], "group softmax loss");
    debug_assert_finite!(grads, "group softmax gradients");
    Ok((loss, grads))
}

/// The posterior `p̂(x⁺_j | x⁺_i)` for a group (no gradients) — used by
/// diagnostics and tests.
pub fn group_posterior(embeddings: &Matrix, confidences: &[f64], eta: f64) -> Result<f64> {
    let candidates = embeddings.rows().saturating_sub(1);
    if confidences.len() != candidates || candidates < 2 {
        return Err(RllError::InvalidConfig {
            reason: "malformed group".into(),
        });
    }
    let anchor = embeddings.row(0)?;
    let mut scores = Vec::with_capacity(candidates);
    for c in 0..candidates {
        let r = ops::cosine_similarity(anchor, embeddings.row(c + 1)?)?;
        scores.push(eta * confidences[c] * r);
    }
    Ok(ops::softmax(&scores)?[0])
}

#[cfg(test)]
mod tests {
    use super::*;
    use rll_tensor::Rng64;

    fn random_group(members: usize, dim: usize, seed: u64) -> Matrix {
        let mut rng = Rng64::seed_from_u64(seed);
        Matrix::from_fn(members, dim, |_, _| rng.standard_normal())
    }

    #[test]
    fn perfect_embedding_has_low_loss() {
        // Anchor == positive direction, negatives opposite.
        let emb = Matrix::from_rows(&[
            vec![1.0, 0.0],
            vec![1.0, 0.0],
            vec![-1.0, 0.0],
            vec![-1.0, 0.0],
        ])
        .unwrap();
        let (loss, _) = group_softmax_loss(&emb, &[1.0, 1.0, 1.0], 10.0).unwrap();
        assert!(loss < 0.01, "loss {loss}");
    }

    #[test]
    fn inverted_embedding_has_high_loss() {
        let emb = Matrix::from_rows(&[
            vec![1.0, 0.0],
            vec![-1.0, 0.0], // positive far away
            vec![1.0, 0.0],  // negative identical to anchor
            vec![1.0, 0.0],
        ])
        .unwrap();
        let (loss, _) = group_softmax_loss(&emb, &[1.0, 1.0, 1.0], 10.0).unwrap();
        assert!(loss > 5.0, "loss {loss}");
    }

    #[test]
    fn uniform_embedding_gives_log_candidates() {
        // All candidates identical → uniform softmax → loss = ln(k + 1).
        let emb = Matrix::from_rows(&[
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![0.0, 1.0],
            vec![0.0, 1.0],
        ])
        .unwrap();
        let (loss, _) = group_softmax_loss(&emb, &[1.0, 1.0, 1.0], 5.0).unwrap();
        assert!((loss - 3.0f64.ln()).abs() < 1e-9);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        for seed in [1, 21] {
            let emb = random_group(5, 4, seed);
            let conf = [0.9, 0.7, 0.8, 0.6];
            let eta = 8.0;
            let (_, grads) = group_softmax_loss(&emb, &conf, eta).unwrap();
            let eps = 1e-6;
            for r in 0..emb.rows() {
                for c in 0..emb.cols() {
                    let mut up = emb.clone();
                    up.set(r, c, emb.get(r, c).unwrap() + eps).unwrap();
                    let mut down = emb.clone();
                    down.set(r, c, emb.get(r, c).unwrap() - eps).unwrap();
                    let lu = group_softmax_loss(&up, &conf, eta).unwrap().0;
                    let ld = group_softmax_loss(&down, &conf, eta).unwrap().0;
                    let numeric = (lu - ld) / (2.0 * eps);
                    let analytic = grads.get(r, c).unwrap();
                    assert!(
                        (numeric - analytic).abs() < 1e-4,
                        "seed {seed} grad[{r}][{c}]: analytic {analytic} vs numeric {numeric}"
                    );
                }
            }
        }
    }

    #[test]
    fn gradient_check_across_random_groups() {
        for seed in 2..8 {
            let emb = random_group(4, 3, seed);
            let conf = [1.0, 0.5, 0.75];
            let (_, grads) = group_softmax_loss(&emb, &conf, 12.0).unwrap();
            let eps = 1e-6;
            // Spot-check one coordinate per member.
            for r in 0..4 {
                let mut up = emb.clone();
                up.set(r, 0, emb.get(r, 0).unwrap() + eps).unwrap();
                let mut down = emb.clone();
                down.set(r, 0, emb.get(r, 0).unwrap() - eps).unwrap();
                let numeric = (group_softmax_loss(&up, &conf, 12.0).unwrap().0
                    - group_softmax_loss(&down, &conf, 12.0).unwrap().0)
                    / (2.0 * eps);
                assert!(
                    (numeric - grads.get(r, 0).unwrap()).abs() < 1e-4,
                    "seed {seed} row {r}"
                );
            }
        }
    }

    #[test]
    fn confidence_weighting_softens_negative_push() {
        // A confusable negative with low confidence should contribute a
        // smaller gradient than the same negative at full confidence.
        let emb = Matrix::from_rows(&[
            vec![1.0, 0.1],
            vec![0.8, 0.3],
            vec![0.9, 0.2], // near-anchor negative
        ])
        .unwrap();
        let (_, g_full) = group_softmax_loss(&emb, &[1.0, 1.0], 10.0).unwrap();
        let (_, g_soft) = group_softmax_loss(&emb, &[1.0, 0.2], 10.0).unwrap();
        let norm_neg = |g: &Matrix| ops::norm(g.row(2).unwrap());
        assert!(
            norm_neg(&g_soft) < norm_neg(&g_full),
            "soft {} vs full {}",
            norm_neg(&g_soft),
            norm_neg(&g_full)
        );
    }

    #[test]
    fn eta_sharpens_probabilities() {
        let emb = random_group(4, 3, 9);
        let conf = [1.0, 1.0, 1.0];
        let p_soft = group_posterior(&emb, &conf, 1.0).unwrap();
        let p_sharp = group_posterior(&emb, &conf, 50.0).unwrap();
        // Sharpening pushes the posterior toward 0 or 1.
        assert!((p_sharp - 0.5).abs() >= (p_soft - 0.5).abs() - 1e-9);
    }

    #[test]
    fn zero_norm_embedding_yields_zero_subgradient() {
        let emb = Matrix::from_rows(&[
            vec![0.0, 0.0], // degenerate anchor
            vec![1.0, 0.0],
            vec![0.0, 1.0],
        ])
        .unwrap();
        let (loss, grads) = group_softmax_loss(&emb, &[1.0, 1.0], 10.0).unwrap();
        assert!(loss.is_finite());
        assert_eq!(grads.sum(), 0.0);
    }

    #[test]
    fn validates_inputs() {
        let emb = random_group(4, 3, 10);
        assert!(group_softmax_loss(&emb, &[1.0, 1.0], 10.0).is_err()); // conf count
        assert!(group_softmax_loss(&emb, &[1.0, 1.0, 1.0], 0.0).is_err()); // eta
        assert!(group_softmax_loss(&emb, &[1.0, 1.0, 1.5], 10.0).is_err()); // conf range
        let tiny = random_group(2, 3, 11);
        assert!(group_softmax_loss(&tiny, &[1.0], 10.0).is_err()); // too small
        assert!(group_posterior(&tiny, &[1.0], 10.0).is_err());
    }

    #[test]
    fn fused_kernel_is_bitwise_oracle() {
        // The fused loss kernel must reproduce the composition-of-`ops`
        // oracle exactly — same bits, not just close — across group sizes,
        // dims, and confidence patterns (including exact 0/1 confidences).
        for seed in 0..20 {
            let members = 3 + (seed as usize % 5);
            let dim = 1 + (seed as usize % 7);
            let emb = random_group(members, dim, seed);
            let mut conf = vec![0.0; members - 1];
            let mut rng = Rng64::seed_from_u64(seed ^ 0x5eed);
            for (i, c) in conf.iter_mut().enumerate() {
                *c = match i % 3 {
                    0 => 1.0,
                    1 => 0.0,
                    _ => rng.uniform(),
                };
            }
            let eta = 0.5 + (seed as f64) * 1.7;
            let (ls, gs) = loss_scalar(&emb, &conf, eta).unwrap();
            let (lf, gf) = group_softmax_loss(&emb, &conf, eta).unwrap();
            assert_eq!(ls.to_bits(), lf.to_bits(), "loss bits, seed {seed}");
            assert_eq!(gs, gf, "gradient bits, seed {seed}");
        }
    }

    #[test]
    fn fused_kernel_handles_zero_norm_members() {
        // The zero-subgradient guard must behave identically in both paths.
        let emb = Matrix::from_rows(&[
            vec![1.0, 0.5],
            vec![0.0, 0.0], // degenerate positive
            vec![-1.0, 0.2],
        ])
        .unwrap();
        let (ls, gs) = loss_scalar(&emb, &[1.0, 0.8], 9.0).unwrap();
        let (lf, gf) = group_softmax_loss(&emb, &[1.0, 0.8], 9.0).unwrap();
        assert_eq!(ls.to_bits(), lf.to_bits());
        assert_eq!(gs, gf);
    }

    #[test]
    fn nan_embeddings_are_typed_errors() {
        // f64::max skips NaN, and the loss clamps probs[0] with
        // `max(1e-300)`: without an explicit check a NaN score comes out as
        // a finite loss (690.7755… = -ln 1e-300) with NaN gradients, and a
        // NaN anchor looks like a -inf maximum.
        let want = RllError::Tensor(rll_tensor::TensorError::NonFinite {
            op: "softmax",
            reason: "an input is NaN",
        });
        let conf = [0.9, 0.7, 0.8, 0.6];
        let mut nan_candidate = random_group(5, 4, 30);
        nan_candidate.set(3, 2, f64::NAN).unwrap();
        let mut nan_anchor = random_group(5, 4, 31);
        nan_anchor.set(0, 1, f64::NAN).unwrap();
        let all_nan = Matrix::from_fn(5, 4, |_, _| f64::NAN);
        for (name, emb) in [
            ("NaN candidate", nan_candidate),
            ("NaN anchor", nan_anchor),
            ("all NaN", all_nan),
        ] {
            assert_eq!(
                group_softmax_loss(&emb, &conf, 8.0).unwrap_err(),
                want,
                "{name}: fused"
            );
            assert_eq!(
                loss_scalar(&emb, &conf, 8.0).unwrap_err(),
                want,
                "{name}: oracle"
            );
        }
    }

    #[test]
    fn posterior_consistent_with_loss() {
        let emb = random_group(5, 4, 12);
        let conf = [0.8, 0.9, 0.7, 0.85];
        let (loss, _) = group_softmax_loss(&emb, &conf, 6.0).unwrap();
        let p = group_posterior(&emb, &conf, 6.0).unwrap();
        assert!((loss + p.ln()).abs() < 1e-9);
    }
}
