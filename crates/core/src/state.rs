//! Crash-safe training state snapshots (`RLLSTATE` / `.rllstate`).
//!
//! A [`TrainState`] is everything [`crate::RllTrainer::fit`] needs to
//! continue a run from an epoch boundary as if it had never stopped: the
//! encoder weights, the full Adam state (`m`/`v`/`t`), the position of the
//! group-sampling RNG stream, and the per-epoch trace accumulated so far.
//! Everything else the loop consumes — inferred labels, confidences, the
//! sampler, shard-local RNGs — is recomputed deterministically from the
//! training data and the stored seed, so it stays out of the file.
//!
//! # On-disk format (`RLLSTATE` v1)
//!
//! A sealed file of the one workspace codec ([`crate::snapshot`]):
//!
//! ```text
//! <header JSON, one line>\n
//! <payload JSON: {"model": …, "optimizer": …, "rng": …, "trace": …}>
//! ```
//!
//! The header ([`TrainStateMeta`]) records the format version, the FNV-1a
//! hash of the serialized [`RllConfig`], the training seed, the epoch cursor,
//! the rll-obs run id, and the byte length + FNV-1a checksum of the payload.
//! [`TrainState::load`] fails with [`RllError::Snapshot`] when the codec's
//! checks fail or the header disagrees with the payload, and resuming
//! additionally cross-checks the config hash and data dimensions
//! ([`RllError::ResumeMismatch`]).
//!
//! JSON is byte-exact for `f64` (shortest-round-trip formatting), so a
//! save→load cycle reproduces bit-identical weights, optimizer moments, and
//! RNG position — the foundation of the kill-and-resume byte-identity gate
//! in `scripts/check.sh`.

use crate::error::RllError;
use crate::model::RllModel;
use crate::snapshot::{atomic_write, open, seal, SealedHeader, SnapshotError};
use crate::trainer::{RllConfig, TrainingTrace};
use crate::Result;
use rll_nn::AdamState;
use rll_tensor::hash::fnv1a;
use rll_tensor::Rng64State;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// Magic string opening every training-state header.
pub const STATE_MAGIC: &str = "RLLSTATE";
/// The format version this build writes and the only one it reads.
pub const STATE_VERSION: u32 = 1;

/// Header metadata carried alongside the resumable state.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrainStateMeta {
    /// Always [`STATE_MAGIC`].
    pub magic: String,
    /// State format version ([`STATE_VERSION`]).
    pub version: u32,
    /// FNV-1a hash of the serialized [`RllConfig`]; resuming under a
    /// different config would silently change the math, so it is rejected.
    pub config_hash: u64,
    /// Seed of the training run. Resume re-derives labels and confidences
    /// from the data; the sampling stream continues from [`TrainState::rng`].
    pub seed: u64,
    /// Epochs fully completed when this snapshot was taken; training resumes
    /// at this epoch index.
    pub epochs_done: usize,
    /// Epoch count the run was configured for.
    pub total_epochs: usize,
    /// rll-obs run id of the training run (`"untracked"` without telemetry).
    pub run_id: String,
    /// Byte length of the payload that follows the header line.
    pub payload_bytes: u64,
    /// FNV-1a checksum of those payload bytes.
    pub payload_fnv1a: u64,
}

/// Serialized alongside the header; split out so the checksum covers exactly
/// these bytes.
#[derive(Serialize, Deserialize)]
struct StatePayload {
    model: RllModel,
    optimizer: AdamState,
    rng: Rng64State,
    trace: TrainingTrace,
}

impl SealedHeader for TrainStateMeta {
    const MAGIC: &'static str = STATE_MAGIC;
    const VERSION: u32 = STATE_VERSION;
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

/// A resumable training snapshot taken at an epoch boundary.
#[derive(Debug, Clone)]
pub struct TrainState {
    /// Header metadata (checksum fields are recomputed on save).
    pub meta: TrainStateMeta,
    /// Encoder weights after `meta.epochs_done` epochs.
    pub model: RllModel,
    /// Full Adam state: step count `t` and first/second moments `m`/`v`.
    pub optimizer: AdamState,
    /// Position of the group-sampling RNG stream at the snapshot point.
    pub rng: Rng64State,
    /// Per-epoch diagnostics accumulated so far (lengths equal
    /// `meta.epochs_done`).
    pub trace: TrainingTrace,
}

/// FNV-1a hash of a config's canonical JSON serialization.
pub(crate) fn config_hash(config: &RllConfig) -> Result<u64> {
    let json = serde_json::to_string(config).map_err(|e| RllError::InvalidConfig {
        reason: format!("cannot serialize RllConfig: {e}"),
    })?;
    Ok(fnv1a(json.as_bytes()))
}

impl TrainState {
    /// Wraps a mid-run training snapshot, stamping fresh metadata.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        config: &RllConfig,
        seed: u64,
        epochs_done: usize,
        run_id: &str,
        model: RllModel,
        optimizer: AdamState,
        rng: Rng64State,
        trace: TrainingTrace,
    ) -> Result<Self> {
        if trace.epoch_losses.len() != epochs_done {
            return Err(RllError::InvalidConfig {
                reason: format!(
                    "trace covers {} epochs but epochs_done is {epochs_done}",
                    trace.epoch_losses.len()
                ),
            });
        }
        let meta = TrainStateMeta {
            magic: STATE_MAGIC.to_string(),
            version: STATE_VERSION,
            config_hash: config_hash(config)?,
            seed,
            epochs_done,
            total_epochs: config.epochs,
            run_id: run_id.to_string(),
            // Filled in by `to_bytes`.
            payload_bytes: 0,
            payload_fnv1a: 0,
        };
        Ok(TrainState {
            meta,
            model,
            optimizer,
            rng,
            trace,
        })
    }

    /// Serializes to the on-disk byte format.
    pub fn to_bytes(&self) -> Result<Vec<u8>> {
        let payload = StatePayload {
            model: self.model.clone(),
            optimizer: self.optimizer.clone(),
            rng: self.rng.clone(),
            trace: self.trace.clone(),
        };
        Ok(seal(self.meta.clone(), &payload)?)
    }

    /// Parses and fully validates the on-disk byte format.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let (meta, payload): (TrainStateMeta, StatePayload) = open(bytes)?;
        let disagree = |reason: String| RllError::Snapshot(SnapshotError::Malformed { reason });
        if meta.epochs_done > meta.total_epochs {
            return Err(disagree(format!(
                "epochs_done {} exceeds total_epochs {}",
                meta.epochs_done, meta.total_epochs
            )));
        }
        if payload.trace.epoch_losses.len() != meta.epochs_done {
            return Err(disagree(format!(
                "trace covers {} epochs but header says {}",
                payload.trace.epoch_losses.len(),
                meta.epochs_done
            )));
        }
        Ok(TrainState {
            meta,
            model: payload.model,
            optimizer: payload.optimizer,
            rng: payload.rng,
            trace: payload.trace,
        })
    }

    /// Atomically writes the state to `path` (parent directories must
    /// exist). Returns the byte count written. Readers of `path` never see a
    /// torn snapshot — see [`crate::snapshot::atomic_write`].
    pub fn save(&self, path: impl AsRef<Path>) -> Result<u64> {
        let path = path.as_ref();
        let bytes = self.to_bytes()?;
        atomic_write(path, &bytes)
            .map_err(|e| RllError::io(format!("write {}", path.display()), e))?;
        Ok(bytes.len() as u64)
    }

    /// Reads and validates a training state from `path`.
    pub fn load(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref();
        let bytes =
            std::fs::read(path).map_err(|e| RllError::io(format!("read {}", path.display()), e))?;
        TrainState::from_bytes(&bytes)
    }
}

/// When and where the trainer persists [`TrainState`] snapshots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointPolicy {
    path: PathBuf,
    every_epochs: usize,
}

impl CheckpointPolicy {
    /// Snapshot to `path` after every `every_epochs` completed epochs.
    /// `every_epochs` must be at least 1.
    pub fn every(path: impl Into<PathBuf>, every_epochs: usize) -> Result<Self> {
        if every_epochs == 0 {
            return Err(RllError::InvalidConfig {
                reason: "checkpoint every_epochs must be at least 1".into(),
            });
        }
        Ok(CheckpointPolicy {
            path: path.into(),
            every_epochs,
        })
    }

    /// Where snapshots are written (each write atomically replaces the last).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// True when a snapshot is due after `epochs_done` completed epochs.
    pub fn due_after(&self, epochs_done: usize) -> bool {
        epochs_done.is_multiple_of(self.every_epochs)
    }
}

/// Injected crash for the fault-injection harness: training returns
/// [`RllError::Interrupted`] immediately after completing the given 0-based
/// epoch (after any due checkpoint write, like a real crash between epochs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// 0-based index of the last epoch allowed to complete.
    pub kill_after_epoch: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::RllModelConfig;
    use rll_nn::{Adam, Optimizer};
    use rll_tensor::{Matrix, Rng64};

    fn tiny_state(seed: u64, epochs_done: usize) -> (RllConfig, TrainState) {
        let config = RllConfig {
            epochs: 10,
            ..RllConfig::default()
        };
        let mut rng = Rng64::seed_from_u64(seed);
        let model = RllModel::new(
            RllModelConfig {
                hidden_dims: vec![5],
                embedding_dim: 3,
                ..RllModelConfig::for_input(4)
            },
            &mut rng,
        )
        .unwrap();
        // A stepped optimizer, so m/v/t are non-trivial.
        let mut opt = Adam::new(1e-3).unwrap();
        let mut w = Matrix::from_fn(2, 2, |r, c| (r + c) as f64 * 0.3);
        let g = Matrix::from_fn(2, 2, |r, c| (r as f64) - (c as f64) * 0.7);
        for _ in 0..3 {
            opt.step(vec![(&mut w, g.clone())]).unwrap();
        }
        let trace = TrainingTrace {
            epoch_losses: (0..epochs_done).map(|e| 1.0 / (e + 1) as f64).collect(),
            inferred_labels: vec![1, 0, 1, 1],
            confidences: vec![0.9, 0.7, 0.8, 0.95],
            grad_norms_pre_clip: vec![0.5; epochs_done],
            grad_norms_post_clip: vec![0.4; epochs_done],
            epoch_wall_secs: vec![0.01; epochs_done],
            epoch_profiles: Vec::new(),
        };
        let state = TrainState::new(
            &config,
            seed,
            epochs_done,
            "run-state-test",
            model,
            opt.state(),
            rng.state(),
            trace,
        )
        .unwrap();
        (config, state)
    }

    #[test]
    fn round_trip_is_bit_identical() {
        let (config, state) = tiny_state(1, 4);
        let bytes = state.to_bytes().unwrap();
        let back = TrainState::from_bytes(&bytes).unwrap();
        assert_eq!(back.meta.seed, 1);
        assert_eq!(back.meta.epochs_done, 4);
        assert_eq!(back.meta.total_epochs, 10);
        assert_eq!(back.meta.run_id, "run-state-test");
        assert_eq!(back.meta.config_hash, config_hash(&config).unwrap());
        // Exact equality on every resumable component — the format must be
        // lossless or resumed runs diverge.
        assert_eq!(back.optimizer, state.optimizer);
        assert_eq!(back.rng, state.rng);
        assert_eq!(back.trace.epoch_losses, state.trace.epoch_losses);
        let x = Matrix::from_fn(3, 4, |r, c| (r as f64) * 0.4 - (c as f64) * 0.2);
        assert_eq!(
            back.model.embed(&x).unwrap(),
            state.model.embed(&x).unwrap()
        );
    }

    #[test]
    fn corruption_is_a_checksum_error() {
        let (_, state) = tiny_state(2, 2);
        let mut bytes = state.to_bytes().unwrap();
        let last = bytes.len() - 1;
        bytes[last] = bytes[last].wrapping_add(1);
        assert!(matches!(
            TrainState::from_bytes(&bytes),
            Err(RllError::Snapshot(SnapshotError::Checksum { .. }))
        ));
    }

    #[test]
    fn truncation_is_a_checksum_error() {
        let (_, state) = tiny_state(3, 2);
        let bytes = state.to_bytes().unwrap();
        assert!(matches!(
            TrainState::from_bytes(&bytes[..bytes.len() - 7]),
            Err(RllError::Snapshot(SnapshotError::Checksum { .. }))
        ));
    }

    #[test]
    fn future_version_is_rejected() {
        let (_, state) = tiny_state(4, 2);
        let mut evil = state.clone();
        evil.meta.version = STATE_VERSION + 1;
        let bytes = evil.to_bytes().unwrap();
        assert!(matches!(
            TrainState::from_bytes(&bytes),
            Err(RllError::Snapshot(SnapshotError::Version { found, supported }))
                if found == STATE_VERSION + 1 && supported == STATE_VERSION
        ));
    }

    #[test]
    fn garbage_is_malformed() {
        assert!(matches!(
            TrainState::from_bytes(b"not a training state"),
            Err(RllError::Snapshot(SnapshotError::Malformed { .. }))
        ));
        assert!(matches!(
            TrainState::from_bytes(b"{\"magic\":\"NOPE\"}\n{}"),
            Err(RllError::Snapshot(SnapshotError::Malformed { .. }))
        ));
        // Each remaining codec step: header not UTF-8, foreign magic, and a
        // checksum-valid payload that is not UTF-8 or not a state.
        let (_, state) = tiny_state(8, 1);
        let mut foreign = state.meta.clone();
        foreign.magic = "RLLCKPT".into();
        for bytes in [
            vec![0xFF, b'\n', b'{', b'}'],
            seal(foreign, &"x").unwrap(),
            crate::snapshot::seal_bytes(state.meta.clone(), &[0xFF]).unwrap(),
            seal(state.meta.clone(), &[1, 2]).unwrap(),
        ] {
            assert!(matches!(
                TrainState::from_bytes(&bytes),
                Err(RllError::Snapshot(SnapshotError::Malformed { .. }))
            ));
        }
    }

    #[test]
    fn header_trace_disagreement_is_malformed() {
        let (_, state) = tiny_state(5, 3);
        let mut evil = state.clone();
        evil.meta.epochs_done = 2; // trace still covers 3 epochs
        let bytes = evil.to_bytes().unwrap();
        assert!(matches!(
            TrainState::from_bytes(&bytes),
            Err(RllError::Snapshot(SnapshotError::Malformed { .. }))
        ));
        let mut beyond = state;
        beyond.meta.epochs_done = 99;
        beyond.meta.total_epochs = 10;
        beyond.trace.epoch_losses = vec![0.0; 99];
        let bytes = beyond.to_bytes().unwrap();
        assert!(matches!(
            TrainState::from_bytes(&bytes),
            Err(RllError::Snapshot(SnapshotError::Malformed { .. }))
        ));
    }

    #[test]
    fn save_load_via_filesystem() {
        let dir = std::env::temp_dir().join("rll_core_state_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.rllstate");
        let (_, state) = tiny_state(6, 2);
        let bytes_written = state.save(&path).unwrap();
        assert_eq!(bytes_written, std::fs::metadata(&path).unwrap().len());
        let back = TrainState::load(&path).unwrap();
        assert_eq!(back.optimizer, state.optimizer);
        assert_eq!(back.rng, state.rng);
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(TrainState::load(&path), Err(RllError::Io { .. })));
    }

    #[test]
    fn checkpoint_policy_schedule() {
        let policy = CheckpointPolicy::every("out/run.rllstate", 3).unwrap();
        assert!(!policy.due_after(1));
        assert!(!policy.due_after(2));
        assert!(policy.due_after(3));
        assert!(!policy.due_after(4));
        assert!(policy.due_after(6));
        assert_eq!(policy.path(), Path::new("out/run.rllstate"));
        assert!(CheckpointPolicy::every("x", 0).is_err());
    }

    #[test]
    fn state_rejects_trace_shorter_than_cursor() {
        let (config, state) = tiny_state(7, 2);
        let mut trace = state.trace.clone();
        trace.epoch_losses.pop();
        assert!(TrainState::new(
            &config,
            7,
            2,
            "r",
            state.model.clone(),
            state.optimizer.clone(),
            state.rng.clone(),
            trace,
        )
        .is_err());
    }
}
