//! Typed errors for the serving layer.

use rll_core::snapshot::SnapshotError;
use rll_core::RllError;
use std::fmt;

/// Errors produced by checkpoint I/O, the inference engine, and the HTTP
/// front-end.
#[derive(Debug)]
pub enum ServeError {
    /// Filesystem or socket failure.
    Io {
        /// What was being attempted.
        context: String,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A checkpoint file failed the sealed-file checks: malformed, an
    /// unsupported format version, or a checksum mismatch (the file is
    /// corrupted or truncated).
    Snapshot(SnapshotError),
    /// A dimension recorded in the header disagrees with the deserialized
    /// network, or a request's feature vector disagrees with the model.
    DimMismatch {
        /// Which dimension disagrees.
        what: &'static str,
        /// Expected value.
        expected: usize,
        /// Actual value.
        actual: usize,
    },
    /// The bounded request queue is full; the caller should shed load.
    QueueFull {
        /// The configured queue capacity.
        capacity: usize,
    },
    /// The engine (or its worker pool) has shut down.
    EngineShutdown,
    /// An inference request was semantically invalid (empty batch, NaN
    /// features, …).
    InvalidRequest {
        /// Human-readable description.
        reason: String,
    },
    /// A configuration value was invalid.
    InvalidConfig {
        /// Human-readable description.
        reason: String,
    },
    /// An upstream RLL component failed.
    Core(RllError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io { context, source } => write!(f, "io error ({context}): {source}"),
            ServeError::Snapshot(e) => write!(f, "checkpoint {e}"),
            ServeError::DimMismatch {
                what,
                expected,
                actual,
            } => write!(f, "{what} mismatch: expected {expected}, got {actual}"),
            ServeError::QueueFull { capacity } => {
                write!(f, "request queue full (capacity {capacity}); retry later")
            }
            ServeError::EngineShutdown => write!(f, "inference engine has shut down"),
            ServeError::InvalidRequest { reason } => write!(f, "invalid request: {reason}"),
            ServeError::InvalidConfig { reason } => write!(f, "invalid configuration: {reason}"),
            ServeError::Core(e) => write!(f, "core error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io { source, .. } => Some(source),
            ServeError::Core(e) => Some(e),
            ServeError::Snapshot(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RllError> for ServeError {
    fn from(e: RllError) -> Self {
        ServeError::Core(e)
    }
}

impl From<SnapshotError> for ServeError {
    fn from(e: SnapshotError) -> Self {
        ServeError::Snapshot(e)
    }
}

impl ServeError {
    /// Wraps an `io::Error` with a context string.
    pub fn io(context: impl Into<String>, source: std::io::Error) -> Self {
        ServeError::Io {
            context: context.into(),
            source,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failure() {
        let e = ServeError::Snapshot(SnapshotError::Version {
            found: 9,
            supported: 1,
        });
        assert!(e.to_string().contains("version 9"));
        let e = ServeError::Snapshot(SnapshotError::Checksum {
            expected: 1,
            actual: 2,
        });
        assert!(e.to_string().contains("corrupted or truncated"));
        let e = ServeError::QueueFull { capacity: 8 };
        assert!(e.to_string().contains("capacity 8"));
    }
}
