//! Typed errors for the RLL framework.

use crate::snapshot::SnapshotError;
use rll_baselines::BaselineError;
use rll_crowd::CrowdError;
use rll_nn::NnError;
use rll_tensor::TensorError;
use std::fmt;

/// Errors produced by RLL training and inference.
#[derive(Debug, Clone, PartialEq)]
pub enum RllError {
    /// A tensor operation failed.
    Tensor(TensorError),
    /// A neural-network operation failed.
    Nn(NnError),
    /// A crowdsourcing operation failed.
    Crowd(CrowdError),
    /// A baseline component (e.g. the downstream classifier) failed.
    Baseline(BaselineError),
    /// A configuration was invalid.
    InvalidConfig {
        /// Human-readable description.
        reason: String,
    },
    /// The training data cannot support grouping (e.g. fewer than two
    /// positives, or fewer than `k` negatives).
    DegenerateData {
        /// Human-readable description.
        reason: String,
    },
    /// Inference was requested before training.
    NotFitted,
    /// A filesystem operation on a training-state snapshot failed. Carries
    /// the rendered `io::Error` so the variant stays `Clone + PartialEq`.
    Io {
        /// What was being attempted (e.g. `"write out/run.rllstate"`).
        context: String,
        /// The underlying I/O error, rendered.
        message: String,
    },
    /// A `.rllstate` snapshot failed the sealed-file checks (malformed,
    /// unsupported version, or a checksum mismatch that covers truncation)
    /// or its header disagrees with its payload.
    Snapshot(SnapshotError),
    /// A `.rllstate` snapshot is internally valid but does not belong to
    /// this trainer — different config, seed stream, or data dimensions.
    ResumeMismatch {
        /// Human-readable description.
        reason: String,
    },
    /// Training was stopped by an injected fault (crash simulation in the
    /// fault-injection harness). The snapshot on disk, if any, covers at
    /// most `epochs_done` epochs.
    Interrupted {
        /// Epochs fully completed before the fault fired.
        epochs_done: usize,
    },
}

impl RllError {
    /// Wraps an `io::Error` with a description of the attempted operation.
    pub fn io(context: impl Into<String>, error: std::io::Error) -> Self {
        RllError::Io {
            context: context.into(),
            message: error.to_string(),
        }
    }
}

impl fmt::Display for RllError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RllError::Tensor(e) => write!(f, "tensor error: {e}"),
            RllError::Nn(e) => write!(f, "nn error: {e}"),
            RllError::Crowd(e) => write!(f, "crowd error: {e}"),
            RllError::Baseline(e) => write!(f, "baseline error: {e}"),
            RllError::InvalidConfig { reason } => write!(f, "invalid configuration: {reason}"),
            RllError::DegenerateData { reason } => write!(f, "degenerate data: {reason}"),
            RllError::NotFitted => write!(f, "model must be fitted before inference"),
            RllError::Io { context, message } => write!(f, "io error ({context}): {message}"),
            RllError::Snapshot(e) => write!(f, "training state {e}"),
            RllError::ResumeMismatch { reason } => {
                write!(f, "training state does not match this trainer: {reason}")
            }
            RllError::Interrupted { epochs_done } => write!(
                f,
                "training interrupted by injected fault after {epochs_done} epochs"
            ),
        }
    }
}

impl std::error::Error for RllError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RllError::Tensor(e) => Some(e),
            RllError::Nn(e) => Some(e),
            RllError::Crowd(e) => Some(e),
            RllError::Baseline(e) => Some(e),
            RllError::Snapshot(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for RllError {
    fn from(e: TensorError) -> Self {
        RllError::Tensor(e)
    }
}

impl From<NnError> for RllError {
    fn from(e: NnError) -> Self {
        RllError::Nn(e)
    }
}

impl From<CrowdError> for RllError {
    fn from(e: CrowdError) -> Self {
        RllError::Crowd(e)
    }
}

impl From<SnapshotError> for RllError {
    fn from(e: SnapshotError) -> Self {
        RllError::Snapshot(e)
    }
}

impl From<BaselineError> for RllError {
    fn from(e: BaselineError) -> Self {
        RllError::Baseline(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_sources() {
        use std::error::Error;
        let e: RllError = TensorError::Empty { op: "x" }.into();
        assert!(e.source().is_some());
        assert!(RllError::NotFitted.to_string().contains("fitted"));
        let e = RllError::DegenerateData {
            reason: "1 positive".into(),
        };
        assert!(e.to_string().contains("1 positive"));
    }
}
