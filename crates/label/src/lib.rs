//! # rll-label — streaming crowd-vote ingestion and continuous learning
//!
//! The live half of the crowdsourced-labeling pipeline (paper §3): where the
//! batch crates train once from a frozen annotation matrix, this crate keeps
//! accepting votes after deployment and feeds them back into the model.
//!
//! Three layers:
//!
//! 1. **Ingestion** ([`wal`]) — a sharded, checksummed write-ahead log built
//!    on the workspace snapshot codec. Every vote is fsynced before it is
//!    acknowledged; replay truncates at the first corrupt record per shard
//!    and reports exactly what it dropped.
//! 2. **Online confidence** ([`confidence`]) — an incremental tracker that
//!    recomputes each example's confidence (paper eq. 1–2) with the *same*
//!    estimator arithmetic as the batch path, so replayed state matches the
//!    batch estimator bitwise.
//! 3. **The loop** ([`retrain`]) — a background retrainer that watches the
//!    WAL high-water mark, folds new votes into the dataset, resumes or
//!    reruns training from the latest `.rllstate`, and publishes the fitted
//!    model through a [`retrain::PublishSink`] (the serving binary's sink
//!    writes an atomic checkpoint and hot-swaps it via `POST /reload`).
//!
//! A fourth layer bounds the log: **compaction** ([`compact`]) folds sealed
//! WAL history below the retrainer's published `folded_seq` into a
//! checksummed confidence snapshot and deletes the covered segments, so the
//! log (and every restart replay) stays proportional to the un-retrained
//! tail rather than the full vote history.
//!
//! [`store::LabelStore`] ties the layers together behind four new rungs of
//! the workspace lock ladder (`dedup` at 55, `wal` at 60, `votes` at 70,
//! `compact` at 90); the retrainer adds `retrain` at 80.

pub mod compact;
pub mod confidence;
pub mod error;
pub mod retrain;
pub mod store;
pub mod wal;

pub use compact::{
    build_snapshot, compact_wal, read_snapshot, restore_tracker, snapshot_path, write_snapshot,
    CompactInterrupt, CompactionStats, ConfidenceSnapshot, SnapshotExample, SnapshotReceipt,
    SNAPSHOT_FILE, SNAPSHOT_MAGIC, SNAPSHOT_SCHEMA, SNAPSHOT_VERSION,
};
pub use confidence::{ConfidenceTracker, ExampleConfidence, LabelsSnapshot, LABELS_SCHEMA};
pub use error::{LabelError, Result};
pub use retrain::{
    read_manifest, write_manifest, PublishSink, RetrainBase, RetrainConfig, RetrainManifest,
    RetrainShared, RetrainStatus, RetrainTrigger, Retrainer, MANIFEST_SCHEMA,
};
pub use store::{DedupMap, IngestReceipt, LabelStore, LabelStoreConfig, DEFAULT_DEDUP_CAPACITY};
pub use wal::{
    compactable_segments, decode_record, encode_record, replay_read_only, shard_of, wal_dir_bytes,
    CompactableSegment, Corruption, CorruptionKind, ShardedWal, Vote, VoteRecord, WalConfig,
    WalReplay,
};
