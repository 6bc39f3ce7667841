//! The live label store: WAL + tracker behind the workspace lock ladder.
//!
//! Four locks, all above the serving ladder (`workers(10) < model(20) <
//! queue(30) < cache(40) < train_run_id(50)`):
//!
//! - `dedup` (rank **55**) guards the idempotency receipt table and is held
//!   across the whole keyed-ingest sequence, so two concurrent retries of
//!   the same `(session, request)` key serialize and the loser sees the
//!   winner's receipt instead of appending a second record.
//! - `wal` (rank **60**) serializes appends and sequence assignment. The
//!   fsync deliberately happens under it — the WAL is the one place where
//!   I/O under a lock is the point (single-writer durability), which is why
//!   `crates/label` is scoped into `lock-order-cycle` but not
//!   `no-lock-held-io` (see lint.toml).
//! - `votes` (rank **70**) guards the in-memory confidence tracker.
//! - `compact` (rank **90**, defined here, above `retrain` at 80) serializes
//!   compaction runs and snapshot-aware read-only replays against each
//!   other. It is always acquired with no other ladder lock held and takes
//!   none inside.
//!
//! [`LabelStore::ingest`] takes `wal` → `votes` strictly in rank order:
//! append (wal) → ack durable → apply (votes) → respond. A crash between
//! the two steps loses only in-memory state the WAL replays on restart, so
//! the acked confidence state is always reproducible.
//!
//! ## Opening a compacted store
//!
//! [`LabelStore::open`] loads the confidence snapshot (if any), seeds the
//! tracker and dedup table from it, replays only WAL records with
//! `seq > covered_seq` on top, and raises the WAL's sequence floor so fresh
//! appends never reuse a compacted sequence number. The result is
//! byte-identical to replaying the full uncompacted log.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use rll_crowd::{AnnotationMatrix, ConfidenceEstimator};
use rll_obs::{EventKind, Recorder, Stopwatch, WalReplayStats};
use rll_par::OrderedMutex;
use serde::{Deserialize, Serialize};

use crate::compact::{
    self, read_snapshot, snapshot_path, CompactInterrupt, CompactionStats, ConfidenceSnapshot,
};
use crate::confidence::{ConfidenceTracker, ExampleConfidence, LabelsSnapshot};
use crate::error::{LabelError, Result};
use crate::retrain::read_manifest;
use crate::wal::{replay_read_only, wal_dir_bytes, ShardedWal, Vote, VoteRecord, WalConfig};

/// Default capacity of the idempotency receipt table.
pub const DEFAULT_DEDUP_CAPACITY: usize = 4096;

/// Shape and policy of a label store.
#[derive(Debug, Clone, PartialEq)]
pub struct LabelStoreConfig {
    /// WAL directory.
    pub dir: PathBuf,
    /// WAL shard count.
    pub shards: u32,
    /// Records per segment before rotation.
    pub segment_records: u64,
    /// Confidence estimator (must match across restarts for byte-identical
    /// snapshots).
    pub estimator: ConfidenceEstimator,
    /// Dataset size; votes must target `example < num_examples`.
    pub num_examples: u64,
    /// Live-annotator budget; votes must carry `worker < max_workers`.
    pub max_workers: u32,
    /// Most-recent keyed receipts kept for duplicate detection (oldest by
    /// sequence evicted first).
    pub dedup_capacity: usize,
    /// The retrain manifest gating [`LabelStore::compact_below_manifest`]:
    /// compaction only ever targets the `folded_seq` of a *complete*
    /// manifest read from this path. `None` disables manifest-gated
    /// compaction.
    pub manifest_path: Option<PathBuf>,
}

impl LabelStoreConfig {
    /// The validated WAL layout this store reads and writes.
    pub fn wal_config(&self) -> Result<WalConfig> {
        WalConfig::new(self.dir.clone(), self.shards, self.segment_records)
    }
}

/// What `POST /label` returns: the durable sequence number plus the
/// example's updated confidence.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IngestReceipt {
    /// Durable global sequence number of this vote.
    pub seq: u64,
    pub example: u64,
    pub worker: u32,
    pub label: u8,
    /// Votes currently on the example (after this one).
    pub votes: u64,
    /// Positive votes currently on the example.
    pub positive: u64,
    /// Updated confidence δ.
    pub confidence: f64,
}

impl IngestReceipt {
    /// The receipt for `record`, given its example's confidence after it.
    pub(crate) fn new(record: &VoteRecord, conf: ExampleConfidence) -> IngestReceipt {
        IngestReceipt {
            seq: record.seq,
            example: record.example,
            worker: record.worker,
            label: record.label,
            votes: conf.votes,
            positive: conf.positive,
            confidence: conf.confidence,
        }
    }
}

/// Bounded `(session, request) → receipt` table. Deterministic: eviction is
/// strictly oldest-sequence-first, so replaying the same records rebuilds
/// the same table, and the snapshot codec can freeze/restore it exactly.
#[derive(Debug, Clone)]
pub struct DedupMap {
    capacity: usize,
    by_key: BTreeMap<(u64, u64), IngestReceipt>,
    by_seq: BTreeMap<u64, (u64, u64)>,
}

impl DedupMap {
    /// An empty table evicting beyond `capacity` entries (0 disables dedup).
    pub fn new(capacity: usize) -> DedupMap {
        DedupMap {
            capacity,
            by_key: BTreeMap::new(),
            by_seq: BTreeMap::new(),
        }
    }

    /// The receipt previously returned for `key`, if still retained.
    pub fn get(&self, key: (u64, u64)) -> Option<&IngestReceipt> {
        self.by_key.get(&key)
    }

    /// Records `key → receipt`, evicting oldest-sequence entries beyond
    /// capacity. Re-inserting an existing key (a client reusing a key after
    /// eviction) replaces its receipt.
    pub fn insert(&mut self, key: (u64, u64), receipt: IngestReceipt) {
        if let Some(previous) = self.by_key.insert(key, receipt) {
            self.by_seq.remove(&previous.seq);
        }
        self.by_seq.insert(receipt.seq, key);
        while self.by_key.len() > self.capacity {
            let Some((&oldest_seq, &oldest_key)) = self.by_seq.iter().next() else {
                break;
            };
            self.by_seq.remove(&oldest_seq);
            self.by_key.remove(&oldest_key);
        }
    }

    /// Retained entry count.
    pub fn len(&self) -> usize {
        self.by_key.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.by_key.is_empty()
    }

    /// Entries in `(session, request)` order — the snapshot serialization
    /// order.
    pub fn entries(&self) -> impl Iterator<Item = ((u64, u64), &IngestReceipt)> {
        self.by_key.iter().map(|(&k, v)| (k, v))
    }
}

/// Streaming vote store: sharded WAL + online confidence tracker + dedup
/// receipts, with snapshot-based compaction.
#[derive(Debug)]
pub struct LabelStore {
    config: LabelStoreConfig,
    dedup: OrderedMutex<DedupMap>,
    wal: OrderedMutex<ShardedWal>,
    votes: OrderedMutex<ConfidenceTracker>,
    compact: OrderedMutex<()>,
    recorder: Recorder,
}

impl LabelStore {
    /// Opens the store: loads the confidence snapshot (if any), replays (and
    /// repairs) the WAL tail on top of it, and raises the sequence floor
    /// past the compacted range. Emits a `WalReplayed` event and seeds the
    /// label metrics.
    pub fn open(config: LabelStoreConfig, recorder: Recorder) -> Result<LabelStore> {
        if config.num_examples == 0 {
            return Err(LabelError::InvalidConfig {
                reason: "label store needs num_examples >= 1".into(),
            });
        }
        if config.max_workers == 0 {
            return Err(LabelError::InvalidConfig {
                reason: "label store needs max_workers >= 1".into(),
            });
        }
        let clock = Stopwatch::start();
        let wal_config = config.wal_config()?;
        let snapshot = read_snapshot(&snapshot_path(&wal_config))?;
        let (mut wal, replay) = ShardedWal::open(wal_config)?;
        let (tracker, dedup, covered_seq) = compact::rebuild_state(
            snapshot.as_ref(),
            config.estimator,
            config.dedup_capacity,
            &replay.records,
            u64::MAX,
        )?;
        wal.raise_seq_floor(covered_seq);
        recorder.emit(EventKind::WalReplayed(WalReplayStats {
            shards: config.shards,
            segments: replay.segments_read,
            records: replay.records.len() as u64,
            corruptions: replay.corruptions.len() as u64,
            dropped_records: replay.dropped_records,
            high_water_seq: replay.high_water.max(covered_seq),
            wall_secs: clock.elapsed_secs(),
        }));
        let metrics = recorder.metrics();
        metrics
            .counter("label.wal.replayed_records")
            .add(replay.records.len() as u64);
        metrics
            .counter("label.wal.corruptions")
            .add(replay.corruptions.len() as u64);
        metrics
            .counter("label.wal.dropped_records")
            .add(replay.dropped_records);
        metrics
            .gauge("label.compact.covered_seq")
            .set(covered_seq as f64);
        let store = LabelStore {
            dedup: OrderedMutex::new("dedup", 55, dedup),
            wal: OrderedMutex::new("wal", 60, wal),
            votes: OrderedMutex::new("votes", 70, tracker),
            compact: OrderedMutex::new("compact", 90, ()),
            config,
            recorder,
        };
        store.publish_gauges()?;
        Ok(store)
    }

    /// The store's configuration.
    pub fn config(&self) -> &LabelStoreConfig {
        &self.config
    }

    /// Validates and durably ingests one vote: WAL append + fsync first,
    /// tracker update second, so the response's `seq` is always replayable.
    ///
    /// Keyed votes (`session` + `request` set) are idempotent: a duplicate
    /// key returns the original receipt without touching the WAL, so a
    /// client retrying a POST whose response was dropped cannot double-count
    /// its vote. The `dedup` lock (rank 55) is held across the whole keyed
    /// path; `wal` (60) and `votes` (70) nest under it in rank order.
    pub fn ingest(&self, vote: Vote) -> Result<IngestReceipt> {
        let reject = |reason: String| {
            self.recorder
                .metrics()
                .counter("label.votes.rejected")
                .inc();
            Err(LabelError::InvalidVote { reason })
        };
        if vote.example >= self.config.num_examples {
            return reject(format!(
                "example {} outside the {}-item dataset",
                vote.example, self.config.num_examples
            ));
        }
        if vote.worker >= self.config.max_workers {
            return reject(format!(
                "worker {} outside the {}-worker budget",
                vote.worker, self.config.max_workers
            ));
        }
        if vote.label > 1 {
            return reject(format!("label {} is not binary", vote.label));
        }
        if vote.session.is_some() != vote.request.is_some() {
            return reject("idempotency key needs both session and request".into());
        }

        let mut dedup_guard = match vote.key() {
            Some(_) if self.config.dedup_capacity > 0 => Some(self.dedup.lock()),
            _ => None,
        };
        if let (Some(key), Some(guard)) = (vote.key(), dedup_guard.as_ref()) {
            if let Some(original) = guard.get(key) {
                if original.example != vote.example
                    || original.worker != vote.worker
                    || original.label != vote.label
                {
                    return reject(format!(
                        "idempotency key ({}, {}) was already used for a different vote",
                        key.0, key.1
                    ));
                }
                self.recorder.metrics().counter("label.votes.deduped").inc();
                return Ok(*original);
            }
        }

        let record = self.wal.lock().append(vote)?;
        let conf = self.votes.lock().apply(&record)?;
        let receipt = IngestReceipt::new(&record, conf);
        if let (Some(key), Some(guard)) = (vote.key(), dedup_guard.as_mut()) {
            guard.insert(key, receipt);
        }
        let metrics = self.recorder.metrics();
        metrics.counter("label.votes.ingested").inc();
        metrics
            .gauge("label.votes.high_water")
            .set(record.seq as f64);
        if conf.confidence.is_finite() {
            metrics.gauge("label.confidence.last").set(conf.confidence);
        }
        Ok(receipt)
    }

    /// One example's current confidence, or `None` if it has no votes.
    pub fn confidence(&self, example: u64) -> Result<Option<ExampleConfidence>> {
        self.votes.lock().confidence(example)
    }

    /// Deterministic snapshot of every voted example (the `GET /labels`
    /// body).
    pub fn snapshot(&self) -> Result<LabelsSnapshot> {
        self.votes.lock().snapshot()
    }

    /// Largest acked sequence number.
    pub fn high_water(&self) -> u64 {
        self.votes.lock().applied_seq()
    }

    /// A point-in-time copy of the live tracker — the retrainer's input for
    /// worker-quality fitting and folding, taken under one `votes` lock so
    /// the fold, the quality fit, and the recorded `folded_seq` all reflect
    /// the same instant.
    pub fn tracker_clone(&self) -> ConfidenceTracker {
        self.votes.lock().clone()
    }

    /// Folds the current live votes into a copy of `base` for a retrain
    /// round. Returns the folded matrix, the high-water sequence it
    /// reflects, and the vote-cell count.
    pub fn fold_current(&self, base: &AnnotationMatrix) -> Result<(AnnotationMatrix, u64, u64)> {
        let tracker = self.votes.lock();
        let folded = tracker.fold_into(base, self.config.max_workers)?;
        Ok((folded, tracker.applied_seq(), tracker.vote_cells()))
    }

    /// Rebuilds a tracker from disk containing only votes with
    /// `seq <= up_to_seq` — the crash-recovery path for an interrupted
    /// retrain round. Snapshot-aware: compacted history is restored from the
    /// confidence snapshot, then only tail records in
    /// `(covered_seq, up_to_seq]` are applied. Read-only with respect to the
    /// WAL; the `compact` lock excludes a concurrent compaction deleting
    /// segments mid-scan.
    ///
    /// Requesting a sequence *below* what the snapshot covers is a typed
    /// error: that state no longer exists on disk, and a policy that asks
    /// for it (e.g. compacting past an unpublished fold) is broken.
    pub fn replay_up_to(&self, up_to_seq: u64) -> Result<ConfidenceTracker> {
        let _compacting = self.compact.lock();
        let wal_config = self.config.wal_config()?;
        let snapshot = read_snapshot(&snapshot_path(&wal_config))?;
        if let Some(covered) = snapshot.as_ref().map(|s| s.covered_seq) {
            if covered > up_to_seq {
                return Err(LabelError::Corrupt {
                    reason: format!(
                        "replay up to seq {up_to_seq} impossible: compaction already folded \
                         history through seq {covered}"
                    ),
                });
            }
        }
        let replay = replay_read_only(&wal_config)?;
        let (tracker, _, _) = compact::rebuild_state(
            snapshot.as_ref(),
            self.config.estimator,
            self.config.dedup_capacity,
            &replay.records,
            up_to_seq,
        )?;
        Ok(tracker)
    }

    /// Compacts sealed WAL history at or below the `folded_seq` of a
    /// **complete** retrain manifest. The target is read from the manifest
    /// on disk — never from the in-memory tracker — so a crash between a
    /// round's fold and its publish (manifest present but incomplete) can
    /// never compact away votes the published model has not folded; in that
    /// window this is a no-op.
    pub fn compact_below_manifest(&self) -> Result<CompactionStats> {
        let target = match &self.config.manifest_path {
            Some(path) => match read_manifest(path)? {
                Some(manifest) if manifest.complete => manifest.folded_seq,
                _ => 0,
            },
            None => 0,
        };
        self.compact_below(target)
    }

    /// Compacts sealed WAL history at or below `target_seq` (see
    /// [`crate::compact`] for the crash contract). Serialized by the
    /// `compact` lock (rank 90, acquired holding nothing); ingest keeps
    /// flowing concurrently. The `RLL_COMPACT_FAULT` environment variable
    /// (`before-delete` / `mid-delete`) arms a deliberate mid-compaction
    /// abort for the crash-safety gate.
    pub fn compact_below(&self, target_seq: u64) -> Result<CompactionStats> {
        let interrupt = match std::env::var("RLL_COMPACT_FAULT") {
            Ok(value) => CompactInterrupt::from_env_value(&value),
            Err(_) => CompactInterrupt::None,
        };
        let stats = {
            let _compacting = self.compact.lock();
            compact::compact_wal(
                &self.config.wal_config()?,
                self.config.estimator,
                self.config.dedup_capacity,
                target_seq,
                interrupt,
            )?
        };
        let metrics = self.recorder.metrics();
        metrics.counter("label.compact.runs").inc();
        metrics
            .counter("label.compact.segments_deleted")
            .add(stats.segments_deleted);
        metrics
            .counter("label.compact.bytes_reclaimed")
            .add(stats.bytes_reclaimed);
        metrics
            .gauge("label.compact.covered_seq")
            .set(stats.covered_seq as f64);
        metrics
            .gauge("label.wal.bytes")
            .set(stats.wal_bytes_after as f64);
        if stats.segments_deleted > 0 || stats.snapshot_written {
            self.recorder.note(format!(
                "compacted WAL through seq {}: {} segments ({} bytes) reclaimed",
                stats.covered_seq, stats.segments_deleted, stats.bytes_reclaimed
            ));
        }
        Ok(stats)
    }

    /// The confidence snapshot currently on disk, if any.
    pub fn disk_snapshot(&self) -> Result<Option<ConfidenceSnapshot>> {
        read_snapshot(&snapshot_path(&self.config.wal_config()?))
    }

    /// Total on-disk bytes of live `.rllwal` segment files.
    pub fn wal_bytes(&self) -> Result<u64> {
        wal_dir_bytes(&self.config.wal_config()?)
    }

    /// The manifest path compaction is gated on, if configured.
    pub fn manifest_path(&self) -> Option<&Path> {
        self.config.manifest_path.as_deref()
    }

    /// Refreshes the aggregate label gauges (vote cells, voted examples,
    /// mean confidence, on-disk WAL bytes — the NaN-free path `/metrics`
    /// serves).
    pub fn publish_gauges(&self) -> Result<()> {
        let wal_bytes = self.wal_bytes()?;
        let tracker = self.votes.lock();
        let mean = tracker.mean_confidence()?;
        let metrics = self.recorder.metrics();
        metrics
            .gauge("label.votes.cells")
            .set(tracker.vote_cells() as f64);
        metrics
            .gauge("label.examples.voted")
            .set(tracker.examples_voted() as f64);
        metrics.gauge("label.wal.bytes").set(wal_bytes as f64);
        if mean.is_finite() {
            metrics.gauge("label.confidence.mean").set(mean);
        }
        Ok(())
    }
}
