//! True-label inference from crowdsourced annotations.
//!
//! These are the paper's Group-1 baselines plus the majority-vote rule the
//! Group-2/Group-4 methods use to pick training labels. Every aggregator
//! implements [`Aggregator`]: given an [`AnnotationMatrix`] it produces a
//! per-item posterior over classes, from which hard labels follow by argmax.

pub mod dawid_skene;
pub mod glad;
pub mod majority;
pub mod soft;

pub use dawid_skene::{DawidSkene, DawidSkeneFit};
pub use glad::{Glad, GladFit};
pub use majority::{MajorityVote, TieBreak};
pub use soft::SoftLabels;

use crate::annotations::AnnotationMatrix;
use crate::Result;

/// A crowd-label aggregation algorithm.
pub trait Aggregator {
    /// Per-item class posteriors, shape `num_items x num_classes`; each row
    /// sums to 1.
    fn posteriors(&self, annotations: &AnnotationMatrix) -> Result<Vec<Vec<f64>>>;

    /// Hard labels by argmax over [`Aggregator::posteriors`].
    fn hard_labels(&self, annotations: &AnnotationMatrix) -> Result<Vec<u8>> {
        let post = self.posteriors(annotations)?;
        post.iter()
            .map(|row| {
                rll_tensor::ops::argmax(row)
                    .map(|i| i as u8)
                    .map_err(Into::into)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hard_labels_follow_posteriors() {
        struct Fixed;
        impl Aggregator for Fixed {
            fn posteriors(&self, ann: &AnnotationMatrix) -> Result<Vec<Vec<f64>>> {
                Ok((0..ann.num_items())
                    .map(|i| {
                        if i % 2 == 0 {
                            vec![0.9, 0.1]
                        } else {
                            vec![0.2, 0.8]
                        }
                    })
                    .collect())
            }
        }
        let ann = AnnotationMatrix::from_dense_binary(&[vec![1], vec![0], vec![1]]).unwrap();
        assert_eq!(Fixed.hard_labels(&ann).unwrap(), vec![0, 1, 0]);
    }
}
