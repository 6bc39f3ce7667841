//! Online per-example confidence tracking (paper eq. 1–2, incrementally).
//!
//! [`ConfidenceTracker`] maintains the per-(example, worker) vote table as
//! votes stream in and computes each example's confidence with the *same*
//! [`ConfidenceEstimator`] the batch pipeline uses — so a tracker replayed
//! over a WAL matches the batch estimator **bitwise** on identical votes
//! (there is no separate incremental formula to drift; the counts are
//! identical and the arithmetic is the shared `positiveness`).
//!
//! Votes are last-write-wins per (example, worker), mirroring
//! [`rll_crowd::AnnotationMatrix::set`] — which makes replay idempotent:
//! applying the same record twice leaves the table unchanged.

use std::collections::BTreeMap;

use rll_crowd::{AnnotationMatrix, ConfidenceEstimator};
use serde::{Deserialize, Serialize};

use crate::error::{LabelError, Result};
use crate::wal::VoteRecord;

/// Schema tag of [`LabelsSnapshot`] (the `GET /labels` wire format).
pub const LABELS_SCHEMA: &str = "labels/v1";

/// One example's live confidence state.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExampleConfidence {
    /// Dataset row.
    pub example: u64,
    /// Distinct live workers with a current vote on this example.
    pub votes: u64,
    /// How many of those votes are positive.
    pub positive: u64,
    /// Estimator confidence δ of "this example is positive". Always finite
    /// (degenerate priors are rejected at construction and again by the
    /// estimator's open-interval guard).
    pub confidence: f64,
    /// Largest sequence number that touched this example.
    pub last_seq: u64,
}

/// Deterministic snapshot of the whole tracker — byte-identical across a
/// kill-and-restart replay of the same votes (examples sorted by id, counts
/// and confidences derived from identical tables).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LabelsSnapshot {
    /// Always [`LABELS_SCHEMA`].
    pub schema: String,
    /// Estimator variant name (`mle`, `bayesian`, `none`).
    pub estimator: String,
    /// Largest applied sequence number.
    pub high_water_seq: u64,
    /// Current (example, worker) vote cells.
    pub votes: u64,
    /// Per-example confidence, sorted by example id.
    pub examples: Vec<ExampleConfidence>,
}

/// One example's entry in the tracker: its vote cells and the largest
/// sequence number that touched it.
#[derive(Debug, Clone, Default)]
pub(crate) struct ExampleVotes {
    pub(crate) last_seq: u64,
    /// worker → label.
    pub(crate) workers: BTreeMap<u32, u8>,
}

impl ExampleVotes {
    /// The example's confidence under `estimator`.
    pub(crate) fn confidence(
        &self,
        example: u64,
        estimator: ConfidenceEstimator,
    ) -> Result<ExampleConfidence> {
        let total = self.workers.len();
        let positive = self.workers.values().filter(|&&l| l == 1).count();
        Ok(ExampleConfidence {
            example,
            votes: total as u64,
            positive: positive as u64,
            confidence: estimator.positiveness(positive, total)?,
            last_seq: self.last_seq,
        })
    }
}

/// Incrementally maintained vote table + confidence view.
#[derive(Debug, Clone)]
pub struct ConfidenceTracker {
    estimator: ConfidenceEstimator,
    /// example → its cells and last seq: one lookup per vote. BTreeMaps keep
    /// every derived view (and the snapshot serialization) deterministic;
    /// crate-visible so the compaction codec ([`crate::compact`]) can
    /// export/restore the exact cell state without an intermediate copy.
    pub(crate) table: BTreeMap<u64, ExampleVotes>,
    pub(crate) applied_seq: u64,
}

impl ConfidenceTracker {
    /// Creates an empty tracker, validating the estimator up front so a
    /// degenerate Bayesian prior is rejected before any vote arrives.
    pub fn new(estimator: ConfidenceEstimator) -> Result<Self> {
        if let ConfidenceEstimator::Bayesian(prior) = estimator {
            if !(prior.alpha > 0.0
                && prior.beta > 0.0
                && prior.alpha.is_finite()
                && prior.beta.is_finite())
            {
                return Err(LabelError::InvalidConfig {
                    reason: format!(
                        "Bayesian tracker requires finite positive prior, got ({}, {})",
                        prior.alpha, prior.beta
                    ),
                });
            }
        }
        Ok(ConfidenceTracker {
            estimator,
            table: BTreeMap::new(),
            applied_seq: 0,
        })
    }

    /// The estimator in use.
    pub fn estimator(&self) -> ConfidenceEstimator {
        self.estimator
    }

    /// Largest applied sequence number (0 when empty).
    pub fn applied_seq(&self) -> u64 {
        self.applied_seq
    }

    /// Current (example, worker) cell count.
    pub fn vote_cells(&self) -> u64 {
        self.table.values().map(|v| v.workers.len() as u64).sum()
    }

    /// Examples with at least one vote.
    pub fn examples_voted(&self) -> usize {
        self.table.len()
    }

    /// Applies one durable vote record and returns the example's updated
    /// confidence. Last-write-wins per (example, worker): re-applying a
    /// record is a no-op, which makes WAL replay idempotent.
    pub fn apply(&mut self, record: &VoteRecord) -> Result<ExampleConfidence> {
        let estimator = self.estimator;
        self.set_cell(record)?.confidence(record.example, estimator)
    }

    /// [`ConfidenceTracker::apply`] without the confidence: sets the cell,
    /// raises the example's and the tracker's last seq, and returns the
    /// example's entry. Replay runs this for every record and estimates only
    /// the receipts it keeps.
    pub(crate) fn set_cell(&mut self, record: &VoteRecord) -> Result<&ExampleVotes> {
        if record.label > 1 {
            return Err(LabelError::InvalidVote {
                reason: format!("label {} is not binary", record.label),
            });
        }
        self.applied_seq = self.applied_seq.max(record.seq);
        let entry = self.table.entry(record.example).or_default();
        entry.workers.insert(record.worker, record.label);
        entry.last_seq = entry.last_seq.max(record.seq);
        Ok(entry)
    }

    /// The example's current confidence, or `None` if it has no votes.
    pub fn confidence(&self, example: u64) -> Result<Option<ExampleConfidence>> {
        self.table
            .get(&example)
            .map(|votes| votes.confidence(example, self.estimator))
            .transpose()
    }

    /// Mean confidence over voted examples; `0.0` when none (never NaN).
    pub fn mean_confidence(&self) -> Result<f64> {
        if self.table.is_empty() {
            return Ok(0.0);
        }
        let mut sum = 0.0;
        for (&example, votes) in &self.table {
            sum += votes.confidence(example, self.estimator)?.confidence;
        }
        Ok(sum / self.table.len() as f64)
    }

    /// Deterministic full snapshot (the `GET /labels` body).
    pub fn snapshot(&self) -> Result<LabelsSnapshot> {
        let mut examples = Vec::with_capacity(self.table.len());
        for (&example, votes) in &self.table {
            examples.push(votes.confidence(example, self.estimator)?);
        }
        Ok(LabelsSnapshot {
            schema: LABELS_SCHEMA.to_string(),
            estimator: self.estimator.name().to_string(),
            high_water_seq: self.applied_seq,
            votes: self.vote_cells(),
            examples,
        })
    }

    /// Folds the live votes into a copy of the base annotation matrix for an
    /// incremental retrain. Live worker `w` maps to column
    /// `base.num_workers() + w`; the output width is fixed at
    /// `base.num_workers() + max_workers` regardless of which workers have
    /// voted, so the fold is deterministic across restarts. The row count is
    /// unchanged — `resume_fit`'s input-dimension check stays satisfied.
    pub fn fold_into(&self, base: &AnnotationMatrix, max_workers: u32) -> Result<AnnotationMatrix> {
        self.fold_into_filtered(base, max_workers, &[])
    }

    /// [`ConfidenceTracker::fold_into`] with a live-worker exclusion list:
    /// votes from `excluded` workers are left out of the fold (their columns
    /// stay empty, so the output width — and `resume_fit`'s dimension check —
    /// is unchanged). This is how the retrainer down-weights annotators whose
    /// fitted confusion rows carry no signal.
    pub fn fold_into_filtered(
        &self,
        base: &AnnotationMatrix,
        max_workers: u32,
        excluded: &[u32],
    ) -> Result<AnnotationMatrix> {
        let base_workers = base.num_workers();
        let width = base_workers + max_workers as usize;
        let mut folded =
            AnnotationMatrix::new(base.num_items(), width, 2).map_err(LabelError::Confidence)?;
        for item in 0..base.num_items() {
            for worker in 0..base_workers {
                if let Some(label) = base.get(item, worker)? {
                    folded.set(item, worker, label)?;
                }
            }
        }
        for (&example, votes) in &self.table {
            let item = example as usize;
            if item >= base.num_items() {
                return Err(LabelError::InvalidVote {
                    reason: format!(
                        "vote for example {example} outside the {}-item dataset",
                        base.num_items()
                    ),
                });
            }
            for (&worker, &label) in &votes.workers {
                if (worker as usize) >= max_workers as usize {
                    return Err(LabelError::InvalidVote {
                        reason: format!("worker {worker} outside the {max_workers}-worker budget"),
                    });
                }
                if excluded.contains(&worker) {
                    continue;
                }
                folded.set(item, base_workers + worker as usize, label)?;
            }
        }
        Ok(folded)
    }

    /// The live votes alone as an annotation table (`num_examples` rows ×
    /// `max_workers` columns) — the input for fitting a Dawid–Skene model
    /// over the *live* annotators only, from which per-worker quality is
    /// derived.
    pub fn live_matrix(&self, num_examples: u64, max_workers: u32) -> Result<AnnotationMatrix> {
        let no_base =
            AnnotationMatrix::new(num_examples as usize, 0, 2).map_err(LabelError::Confidence)?;
        self.fold_into_filtered(&no_base, max_workers, &[])
    }
}
