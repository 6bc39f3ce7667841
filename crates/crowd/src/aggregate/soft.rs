//! Soft probabilistic labels (the paper's SoftProb baseline).
//!
//! Rather than inferring one hard label per item, every `(instance, label)`
//! pair contributed by a crowd worker is kept — equivalently, each item gets a
//! *soft* label equal to its per-class vote fraction, "a soft probabilistic
//! estimate of the actual ground truth" (Raykar et al., cited by the paper as
//! the SoftProb baseline). Downstream classifiers consume the soft targets
//! directly.

use crate::aggregate::Aggregator;
use crate::annotations::AnnotationMatrix;
use crate::error::CrowdError;
use crate::Result;

/// The SoftProb aggregator.
#[derive(Debug, Clone, Copy, Default)]
pub struct SoftLabels;

impl SoftLabels {
    /// Creates the aggregator.
    pub fn new() -> Self {
        SoftLabels
    }

    /// Per-item soft positive targets for a binary table (`P(y=1)` = positive
    /// vote fraction).
    pub fn soft_binary_targets(&self, annotations: &AnnotationMatrix) -> Result<Vec<f64>> {
        if annotations.num_classes() != 2 {
            return Err(CrowdError::InvalidConfig {
                reason: "soft_binary_targets requires a binary table".into(),
            });
        }
        self.posteriors(annotations)
            .map(|rows| rows.into_iter().map(|r| r[1]).collect())
    }
}

impl Aggregator for SoftLabels {
    fn posteriors(&self, annotations: &AnnotationMatrix) -> Result<Vec<Vec<f64>>> {
        let mut out = Vec::with_capacity(annotations.num_items());
        for i in 0..annotations.num_items() {
            let counts = annotations.vote_counts(i)?;
            let total: usize = counts.iter().sum();
            if total == 0 {
                return Err(CrowdError::InvalidAnnotations {
                    reason: format!("item {i} has no annotations"),
                });
            }
            out.push(counts.iter().map(|&c| c as f64 / total as f64).collect());
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn soft_targets_are_vote_fractions() {
        let ann = AnnotationMatrix::from_dense_binary(&[
            vec![1, 1, 1, 0, 0],
            vec![1, 1, 1, 1, 1],
            vec![0, 0, 0, 0, 0],
        ])
        .unwrap();
        let s = SoftLabels::new();
        let targets = s.soft_binary_targets(&ann).unwrap();
        assert!((targets[0] - 0.6).abs() < 1e-12);
        assert_eq!(targets[1], 1.0);
        assert_eq!(targets[2], 0.0);
    }

    #[test]
    fn requires_binary_for_soft_targets() {
        let ann = AnnotationMatrix::new(1, 2, 3).unwrap();
        assert!(SoftLabels::new().soft_binary_targets(&ann).is_err());
    }

    #[test]
    fn hard_labels_are_majority() {
        let ann = AnnotationMatrix::from_dense_binary(&[vec![1, 1, 0], vec![0, 0, 1]]).unwrap();
        assert_eq!(SoftLabels::new().hard_labels(&ann).unwrap(), vec![1, 0]);
    }
}
