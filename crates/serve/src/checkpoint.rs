//! Versioned, checksummed model checkpoints.
//!
//! A checkpoint is the train→serve handoff artifact: the trained encoder
//! ([`RllModel`]) plus the feature [`Normalizer`] fitted alongside it, wrapped
//! in a header that makes silent corruption and architecture drift impossible
//! to load.
//!
//! # On-disk format (`RLLCKPT` v1)
//!
//! ```text
//! <header JSON, one line>\n
//! <payload JSON: {"model": …, "normalizer": …}>
//! ```
//!
//! The header records the format version, the FNV-1a hash of the serialized
//! architecture config, the input/embedding dimensions, the rll-obs run id of
//! the training run that produced the weights, and the byte length + FNV-1a
//! checksum of the payload. [`Checkpoint::load`] verifies all of it and
//! returns a typed [`ServeError`] per failure mode: [`ServeError::Snapshot`]
//! when the sealed-file checks fail (malformed, version, checksum — the last
//! covers truncation), and [`ServeError::DimMismatch`] when the deserialized
//! network or normalizer disagrees with the header.
//!
//! JSON is byte-exact for `f64` here: the vendored writer renders floats via
//! Rust's shortest-round-trip formatting, so a save→load cycle reproduces
//! bit-identical weights and therefore bit-identical embeddings.
//!
//! The envelope, its validation order and the crash-safe (atomic
//! temp+fsync+rename) writer belong to the one workspace codec,
//! [`rll_core::snapshot`]; this module owns only the `RLLCKPT` header fields
//! and the checks of the payload against them.

use crate::error::ServeError;
use crate::Result;
use rll_core::snapshot::{atomic_write, open, seal, SealedHeader};
use rll_core::{RllModel, RllPipeline};
use rll_data::Normalizer;
use rll_tensor::hash::fnv1a;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Magic string opening every checkpoint header.
pub const MAGIC: &str = "RLLCKPT";
/// The format version this build writes and the only one it reads.
pub const FORMAT_VERSION: u32 = 1;

/// Header metadata carried alongside the weights.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CheckpointMeta {
    /// Always [`MAGIC`].
    pub magic: String,
    /// Checkpoint format version ([`FORMAT_VERSION`]).
    pub version: u32,
    /// FNV-1a hash of the serialized [`rll_core::RllModelConfig`]; lets tools
    /// group checkpoints by architecture without parsing the payload.
    pub config_hash: u64,
    /// Feature dimension the encoder expects.
    pub input_dim: usize,
    /// Embedding dimension the encoder produces.
    pub embedding_dim: usize,
    /// rll-obs run id of the training run that produced these weights
    /// (`"untracked"` when training ran without telemetry).
    pub train_run_id: String,
    /// Byte length of the payload that follows the header line.
    pub payload_bytes: u64,
    /// FNV-1a checksum of those payload bytes.
    pub payload_fnv1a: u64,
}

/// Serialized alongside the header; split out so the checksum covers exactly
/// these bytes.
#[derive(Serialize, Deserialize)]
struct Payload {
    model: RllModel,
    normalizer: Normalizer,
}

impl SealedHeader for CheckpointMeta {
    const MAGIC: &'static str = MAGIC;
    const VERSION: u32 = FORMAT_VERSION;
    fn id(&self) -> (&str, u32) {
        (&self.magic, self.version)
    }
    fn promised(&self) -> (Option<u64>, u64) {
        (Some(self.payload_bytes), self.payload_fnv1a)
    }
    fn stamp(&mut self, len: u64, fnv1a: u64) {
        self.payload_bytes = len;
        self.payload_fnv1a = fnv1a;
    }
}

/// A loaded (or about-to-be-saved) model checkpoint.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Header metadata (checksum fields are recomputed on save).
    pub meta: CheckpointMeta,
    /// The trained encoder.
    pub model: RllModel,
    /// The feature normalizer fitted at training time. Serving must apply it
    /// to raw features before the encoder sees them.
    pub normalizer: Normalizer,
}

impl Checkpoint {
    /// Wraps a trained model + normalizer, stamping fresh metadata.
    pub fn new(model: RllModel, normalizer: Normalizer, train_run_id: &str) -> Result<Self> {
        let config_json =
            serde_json::to_string(model.config()).map_err(|e| ServeError::InvalidConfig {
                reason: format!("cannot serialize model config: {e}"),
            })?;
        let meta = CheckpointMeta {
            magic: MAGIC.to_string(),
            version: FORMAT_VERSION,
            config_hash: fnv1a(config_json.as_bytes()),
            input_dim: model.config().input_dim,
            embedding_dim: model.embedding_dim(),
            train_run_id: train_run_id.to_string(),
            // Filled in by `to_bytes`.
            payload_bytes: 0,
            payload_fnv1a: 0,
        };
        Ok(Checkpoint {
            meta,
            model,
            normalizer,
        })
    }

    /// Snapshots a fitted [`RllPipeline`] — the standard train→checkpoint
    /// handoff. Fails with [`rll_core::RllError::NotFitted`] (wrapped) if the
    /// pipeline has not been trained.
    pub fn from_pipeline(pipeline: &RllPipeline, train_run_id: &str) -> Result<Self> {
        let model = pipeline
            .model()
            .ok_or(ServeError::Core(rll_core::RllError::NotFitted))?;
        let normalizer = pipeline
            .normalizer()
            .ok_or(ServeError::Core(rll_core::RllError::NotFitted))?;
        Checkpoint::new(model.clone(), normalizer.clone(), train_run_id)
    }

    /// Serializes to the on-disk byte format.
    pub fn to_bytes(&self) -> Result<Vec<u8>> {
        let payload = Payload {
            model: self.model.clone(),
            normalizer: self.normalizer.clone(),
        };
        Ok(seal(self.meta.clone(), &payload)?)
    }

    /// Parses and fully validates the on-disk byte format.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let (meta, payload): (CheckpointMeta, Payload) = open(bytes)?;
        // Header ↔ payload consistency: the layer chain and the normalizer
        // must match the header. A forged normalizer would otherwise fail
        // every request (wrong width) or panic an engine worker (fewer stds
        // than means).
        let dims = payload.model.mlp().layer_dims();
        let first = dims.first().copied().unwrap_or(0);
        let last = dims.last().copied().unwrap_or(0);
        let (means, stds) = (
            payload.normalizer.means().len(),
            payload.normalizer.stds().len(),
        );
        for (what, expected, actual) in [
            ("checkpoint input_dim", meta.input_dim, first),
            ("checkpoint embedding_dim", meta.embedding_dim, last),
            ("checkpoint normalizer means", meta.input_dim, means),
            ("checkpoint normalizer stds", means, stds),
        ] {
            if expected != actual {
                return Err(ServeError::DimMismatch {
                    what,
                    expected,
                    actual,
                });
            }
        }
        Ok(Checkpoint {
            meta,
            model: payload.model,
            normalizer: payload.normalizer,
        })
    }

    /// Writes the checkpoint to `path` atomically (parent directories must
    /// exist): the serving hot-reload endpoint may re-read this file at any
    /// moment, so it must never observe a torn prefix.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        let path = path.as_ref();
        let bytes = self.to_bytes()?;
        atomic_write(path, &bytes)
            .map_err(|e| ServeError::io(format!("write {}", path.display()), e))
    }

    /// Reads and validates a checkpoint from `path`.
    pub fn load(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref();
        let bytes = std::fs::read(path)
            .map_err(|e| ServeError::io(format!("read {}", path.display()), e))?;
        Checkpoint::from_bytes(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rll_core::snapshot::SnapshotError;
    use rll_core::RllModelConfig;
    use rll_tensor::{Matrix, Rng64};

    fn tiny_checkpoint(seed: u64) -> Checkpoint {
        let mut rng = Rng64::seed_from_u64(seed);
        let config = RllModelConfig {
            hidden_dims: vec![6],
            embedding_dim: 4,
            ..RllModelConfig::for_input(5)
        };
        let model = RllModel::new(config, &mut rng).unwrap();
        let features = Matrix::from_fn(8, 5, |r, c| (r * 5 + c) as f64 * 0.17 - 2.0);
        let normalizer = Normalizer::fit(&features).unwrap();
        Checkpoint::new(model, normalizer, "run-test").unwrap()
    }

    #[test]
    fn round_trip_is_bit_identical() {
        let ckpt = tiny_checkpoint(1);
        let bytes = ckpt.to_bytes().unwrap();
        let back = Checkpoint::from_bytes(&bytes).unwrap();
        let x = Matrix::from_fn(3, 5, |r, c| (r as f64) - 0.3 * (c as f64));
        let nx = ckpt.normalizer.transform(&x).unwrap();
        let a = ckpt.model.embed(&nx).unwrap();
        let b = back
            .model
            .embed(&back.normalizer.transform(&x).unwrap())
            .unwrap();
        // Exact equality, not approx: the format must be lossless.
        assert_eq!(a, b);
        assert_eq!(back.meta.train_run_id, "run-test");
        assert_eq!(back.meta.input_dim, 5);
        assert_eq!(back.meta.embedding_dim, 4);
    }

    #[test]
    fn corruption_is_a_checksum_error() {
        let mut bytes = tiny_checkpoint(2).to_bytes().unwrap();
        let last = bytes.len() - 1;
        bytes[last] = bytes[last].wrapping_add(1);
        assert!(matches!(
            Checkpoint::from_bytes(&bytes),
            Err(ServeError::Snapshot(SnapshotError::Checksum { .. }))
        ));
    }

    #[test]
    fn truncation_is_a_checksum_error() {
        let bytes = tiny_checkpoint(3).to_bytes().unwrap();
        assert!(matches!(
            Checkpoint::from_bytes(&bytes[..bytes.len() - 10]),
            Err(ServeError::Snapshot(SnapshotError::Checksum { .. }))
        ));
    }

    #[test]
    fn future_version_is_rejected() {
        let ckpt = tiny_checkpoint(4);
        let mut evil = ckpt.clone();
        evil.meta.version = FORMAT_VERSION + 1;
        let bytes = evil.to_bytes().unwrap();
        assert!(matches!(
            Checkpoint::from_bytes(&bytes),
            Err(ServeError::Snapshot(SnapshotError::Version { found, supported }))
                if found == FORMAT_VERSION + 1 && supported == FORMAT_VERSION
        ));
    }

    #[test]
    fn header_dim_lie_is_a_dim_error() {
        let ckpt = tiny_checkpoint(5);
        let mut evil = ckpt.clone();
        evil.meta.embedding_dim = 99;
        let bytes = evil.to_bytes().unwrap();
        assert!(matches!(
            Checkpoint::from_bytes(&bytes),
            Err(ServeError::DimMismatch { expected: 99, .. })
        ));
    }

    /// A checksum-valid file whose normalizer disagrees with the header
    /// must not load (`to_bytes` recomputes the checksum over the forgery).
    #[test]
    fn forged_normalizer_is_a_dim_error() {
        let forge = |json: &str| {
            let normalizer: Normalizer = serde_json::from_str(json).unwrap();
            let ckpt = Checkpoint::new(tiny_checkpoint(7).model, normalizer, "forged").unwrap();
            Checkpoint::from_bytes(&ckpt.to_bytes().unwrap())
        };
        assert!(matches!(
            forge(r#"{"means":[0,0,0,0,0],"stds":[1,1]}"#),
            Err(ServeError::DimMismatch {
                what: "checkpoint normalizer stds",
                expected: 5,
                actual: 2
            })
        ));
        assert!(matches!(
            forge(r#"{"means":[0,0,0],"stds":[1,1,1]}"#),
            Err(ServeError::DimMismatch {
                what: "checkpoint normalizer means",
                expected: 5,
                actual: 3
            })
        ));
        assert!(forge(r#"{"means":[0,0,0,0,0],"stds":[1,1,1,1,1]}"#).is_ok());
    }

    #[test]
    fn garbage_is_malformed() {
        assert!(matches!(
            Checkpoint::from_bytes(b"not a checkpoint"),
            Err(ServeError::Snapshot(SnapshotError::Malformed { .. }))
        ));
        assert!(matches!(
            Checkpoint::from_bytes(b"{\"magic\":\"NOPE\"}\n{}"),
            Err(ServeError::Snapshot(SnapshotError::Malformed { .. }))
        ));
    }

    #[test]
    fn save_load_via_filesystem() {
        let dir = std::env::temp_dir().join("rll_serve_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny.rllckpt");
        let ckpt = tiny_checkpoint(6);
        ckpt.save(&path).unwrap();
        let back = Checkpoint::load(&path).unwrap();
        assert_eq!(back.meta, {
            let mut m = ckpt.meta.clone();
            // save() stamps the payload fields the in-memory meta leaves at 0.
            m.payload_bytes = back.meta.payload_bytes;
            m.payload_fnv1a = back.meta.payload_fnv1a;
            m
        });
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(
            Checkpoint::load(&path),
            Err(ServeError::Io { .. })
        ));
    }
}
