//! The items × workers annotation table.

use crate::error::CrowdError;
use crate::Result;
use serde::{Deserialize, Serialize};

/// Crowdsourced labels for a set of items.
///
/// Storage is a dense `items x workers` grid of `Option<u8>` — `None` marks a
/// worker who did not annotate the item. Labels are class indices in
/// `0..num_classes`; the RLL paper's setting is binary (`num_classes == 2`,
/// label 1 = positive), and the whole workspace follows that convention, but
/// the table and the Dawid–Skene aggregator support general class counts.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AnnotationMatrix {
    num_items: usize,
    num_workers: usize,
    num_classes: u8,
    labels: Vec<Option<u8>>,
}

impl AnnotationMatrix {
    /// Creates an empty table (all cells unannotated).
    pub fn new(num_items: usize, num_workers: usize, num_classes: u8) -> Result<Self> {
        if num_classes < 2 {
            return Err(CrowdError::InvalidConfig {
                reason: format!("need at least 2 classes, got {num_classes}"),
            });
        }
        Ok(AnnotationMatrix {
            num_items,
            num_workers,
            num_classes,
            labels: vec![None; num_items * num_workers],
        })
    }

    /// Builds a binary table from dense per-item vote vectors (every worker
    /// annotated every item), the common case in the paper where each example
    /// receives exactly `d` labels.
    pub fn from_dense_binary(votes: &[Vec<u8>]) -> Result<Self> {
        let num_items = votes.len();
        if num_items == 0 {
            return Err(CrowdError::InvalidAnnotations {
                reason: "no items".into(),
            });
        }
        let num_workers = votes[0].len();
        if num_workers == 0 {
            return Err(CrowdError::InvalidAnnotations {
                reason: "no workers".into(),
            });
        }
        let mut m = AnnotationMatrix::new(num_items, num_workers, 2)?;
        for (i, row) in votes.iter().enumerate() {
            if row.len() != num_workers {
                return Err(CrowdError::InvalidAnnotations {
                    reason: format!("item {i} has {} votes, expected {num_workers}", row.len()),
                });
            }
            for (w, &label) in row.iter().enumerate() {
                m.set(i, w, label)?;
            }
        }
        Ok(m)
    }

    /// Number of items.
    pub fn num_items(&self) -> usize {
        self.num_items
    }

    /// Number of workers.
    pub fn num_workers(&self) -> usize {
        self.num_workers
    }

    /// Number of classes.
    pub fn num_classes(&self) -> u8 {
        self.num_classes
    }

    /// Records worker `w`'s label for item `i`.
    pub fn set(&mut self, item: usize, worker: usize, label: u8) -> Result<()> {
        self.check_cell(item, worker)?;
        if label >= self.num_classes {
            return Err(CrowdError::InvalidAnnotations {
                reason: format!(
                    "label {label} out of range for {} classes",
                    self.num_classes
                ),
            });
        }
        self.labels[item * self.num_workers + worker] = Some(label);
        Ok(())
    }

    /// Clears worker `w`'s label for item `i`.
    pub fn unset(&mut self, item: usize, worker: usize) -> Result<()> {
        self.check_cell(item, worker)?;
        self.labels[item * self.num_workers + worker] = None;
        Ok(())
    }

    /// Worker `w`'s label for item `i`, if present.
    pub fn get(&self, item: usize, worker: usize) -> Result<Option<u8>> {
        self.check_cell(item, worker)?;
        Ok(self.labels[item * self.num_workers + worker])
    }

    /// All `(worker, label)` pairs for an item.
    pub fn item_labels(&self, item: usize) -> Result<Vec<(usize, u8)>> {
        if item >= self.num_items {
            return Err(CrowdError::InvalidAnnotations {
                reason: format!("item {item} out of range ({} items)", self.num_items),
            });
        }
        Ok(
            self.labels[item * self.num_workers..(item + 1) * self.num_workers]
                .iter()
                .enumerate()
                .filter_map(|(w, l)| l.map(|label| (w, label)))
                .collect(),
        )
    }

    /// All `(item, label)` pairs produced by a worker.
    pub fn worker_labels(&self, worker: usize) -> Result<Vec<(usize, u8)>> {
        if worker >= self.num_workers {
            return Err(CrowdError::InvalidAnnotations {
                reason: format!(
                    "worker {worker} out of range ({} workers)",
                    self.num_workers
                ),
            });
        }
        Ok((0..self.num_items)
            .filter_map(|i| self.labels[i * self.num_workers + worker].map(|l| (i, l)))
            .collect())
    }

    /// Per-class vote counts for an item.
    pub fn vote_counts(&self, item: usize) -> Result<Vec<usize>> {
        let mut counts = vec![0usize; self.num_classes as usize];
        for (_, label) in self.item_labels(item)? {
            counts[label as usize] += 1;
        }
        Ok(counts)
    }

    /// Number of annotations an item received.
    pub fn annotation_count(&self, item: usize) -> Result<usize> {
        Ok(self.item_labels(item)?.len())
    }

    /// Total number of annotations in the table.
    pub fn total_annotations(&self) -> usize {
        self.labels.iter().filter(|l| l.is_some()).count()
    }

    /// Positive-vote count for a binary table (`Σ_j y_{i,j}` in the paper).
    pub fn positive_votes(&self, item: usize) -> Result<usize> {
        if self.num_classes != 2 {
            return Err(CrowdError::InvalidConfig {
                reason: format!(
                    "positive_votes requires a binary table, has {} classes",
                    self.num_classes
                ),
            });
        }
        Ok(self.vote_counts(item)?[1])
    }

    /// Restricts the table to the first `d` workers, modelling the paper's
    /// Table III sweep over the number of crowd workers per item.
    pub fn restrict_workers(&self, d: usize) -> Result<AnnotationMatrix> {
        if d == 0 || d > self.num_workers {
            return Err(CrowdError::InvalidConfig {
                reason: format!(
                    "cannot restrict to {d} workers (table has {})",
                    self.num_workers
                ),
            });
        }
        let mut out = AnnotationMatrix::new(self.num_items, d, self.num_classes)?;
        for i in 0..self.num_items {
            for w in 0..d {
                if let Some(l) = self.labels[i * self.num_workers + w] {
                    out.set(i, w, l)?;
                }
            }
        }
        Ok(out)
    }

    /// Builds a sub-table containing only the given items (in the given
    /// order), used by cross-validation splits.
    pub fn select_items(&self, items: &[usize]) -> Result<AnnotationMatrix> {
        let mut out = AnnotationMatrix::new(items.len(), self.num_workers, self.num_classes)?;
        for (new_i, &old_i) in items.iter().enumerate() {
            if old_i >= self.num_items {
                return Err(CrowdError::InvalidAnnotations {
                    reason: format!("item {old_i} out of range ({} items)", self.num_items),
                });
            }
            for w in 0..self.num_workers {
                if let Some(l) = self.labels[old_i * self.num_workers + w] {
                    out.set(new_i, w, l)?;
                }
            }
        }
        Ok(out)
    }

    fn check_cell(&self, item: usize, worker: usize) -> Result<()> {
        if item >= self.num_items || worker >= self.num_workers {
            return Err(CrowdError::InvalidAnnotations {
                reason: format!(
                    "cell ({item}, {worker}) out of range for {}x{} table",
                    self.num_items, self.num_workers
                ),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> AnnotationMatrix {
        // 3 items, 3 workers. Item 2 is missing worker 1's vote.
        let mut m = AnnotationMatrix::new(3, 3, 2).unwrap();
        m.set(0, 0, 1).unwrap();
        m.set(0, 1, 1).unwrap();
        m.set(0, 2, 0).unwrap();
        m.set(1, 0, 0).unwrap();
        m.set(1, 1, 0).unwrap();
        m.set(1, 2, 0).unwrap();
        m.set(2, 0, 1).unwrap();
        m.set(2, 2, 1).unwrap();
        m
    }

    #[test]
    fn construction_validates_classes() {
        assert!(AnnotationMatrix::new(2, 2, 1).is_err());
        assert!(AnnotationMatrix::new(2, 2, 2).is_ok());
        assert!(AnnotationMatrix::new(0, 0, 3).is_ok());
    }

    #[test]
    fn set_get_round_trip() {
        let m = table();
        assert_eq!(m.get(0, 0).unwrap(), Some(1));
        assert_eq!(m.get(2, 1).unwrap(), None);
        assert!(m.get(3, 0).is_err());
        assert!(m.get(0, 5).is_err());
    }

    #[test]
    fn set_rejects_bad_label() {
        let mut m = table();
        assert!(m.set(0, 0, 2).is_err());
        assert!(m.set(9, 0, 1).is_err());
    }

    #[test]
    fn unset_clears() {
        let mut m = table();
        m.unset(0, 0).unwrap();
        assert_eq!(m.get(0, 0).unwrap(), None);
        assert!(m.unset(9, 0).is_err());
    }

    #[test]
    fn item_and_worker_views() {
        let m = table();
        assert_eq!(m.item_labels(0).unwrap(), vec![(0, 1), (1, 1), (2, 0)]);
        assert_eq!(m.item_labels(2).unwrap(), vec![(0, 1), (2, 1)]);
        assert_eq!(m.worker_labels(1).unwrap(), vec![(0, 1), (1, 0)]);
        assert!(m.item_labels(5).is_err());
        assert!(m.worker_labels(5).is_err());
    }

    #[test]
    fn vote_counts_and_positive_votes() {
        let m = table();
        assert_eq!(m.vote_counts(0).unwrap(), vec![1, 2]);
        assert_eq!(m.positive_votes(0).unwrap(), 2);
        assert_eq!(m.positive_votes(1).unwrap(), 0);
        assert_eq!(m.annotation_count(2).unwrap(), 2);
        assert_eq!(m.total_annotations(), 8);
    }

    #[test]
    fn positive_votes_requires_binary() {
        let m = AnnotationMatrix::new(1, 2, 3).unwrap();
        assert!(m.positive_votes(0).is_err());
    }

    #[test]
    fn from_dense_binary_builds_full_table() {
        let m = AnnotationMatrix::from_dense_binary(&[vec![1, 0, 1], vec![0, 0, 1]]).unwrap();
        assert_eq!(m.num_items(), 2);
        assert_eq!(m.num_workers(), 3);
        assert_eq!(m.total_annotations(), 6);
        assert!(AnnotationMatrix::from_dense_binary(&[]).is_err());
        assert!(AnnotationMatrix::from_dense_binary(&[vec![]]).is_err());
        assert!(AnnotationMatrix::from_dense_binary(&[vec![1], vec![1, 0]]).is_err());
        assert!(AnnotationMatrix::from_dense_binary(&[vec![2]]).is_err());
    }

    #[test]
    fn restrict_workers_drops_columns() {
        let m = table();
        let r = m.restrict_workers(2).unwrap();
        assert_eq!(r.num_workers(), 2);
        assert_eq!(r.item_labels(0).unwrap(), vec![(0, 1), (1, 1)]);
        assert_eq!(r.item_labels(2).unwrap(), vec![(0, 1)]);
        assert!(m.restrict_workers(0).is_err());
        assert!(m.restrict_workers(4).is_err());
    }

    #[test]
    fn select_items_reorders() {
        let m = table();
        let s = m.select_items(&[2, 0]).unwrap();
        assert_eq!(s.num_items(), 2);
        assert_eq!(s.item_labels(0).unwrap(), vec![(0, 1), (2, 1)]);
        assert_eq!(s.item_labels(1).unwrap(), vec![(0, 1), (1, 1), (2, 0)]);
        assert!(m.select_items(&[7]).is_err());
    }

    #[test]
    fn serde_round_trip() {
        let m = table();
        let json = serde_json::to_string(&m).unwrap();
        let back: AnnotationMatrix = serde_json::from_str(&json).unwrap();
        assert_eq!(back, m);
    }
}
