//! WAL compaction: fold sealed history into a checksummed snapshot.
//!
//! Without compaction the vote WAL grows without bound and every restart
//! replays the whole history. Once the retrainer *completes* a round, every
//! record at or below the round manifest's `folded_seq` is already baked
//! into the published model, so the sealed segments wholly below that mark
//! can collapse into a single **confidence snapshot** artifact:
//!
//! ```text
//! {"magic":"RLLSNAP","version":1,"covered_seq":128,"payload_fnv1a":...}\n
//! {"schema":"confidence_snapshot/v1","estimator":"bayesian",...}
//! ```
//!
//! The one workspace codec ([`rll_core::snapshot`]) seals and opens the
//! file, which is written atomically; the payload carries the exact tracker
//! cell state (example → worker → label, plus per-example `last_seq`) and
//! the dedup receipt table at `covered_seq`. Replay becomes snapshot-load +
//! tail-replay of the surviving segments, filtered to `seq > covered_seq` —
//! byte-identical to a full-log replay because the cell state is the same
//! last-write-wins table either way.
//!
//! ## Crash contract
//!
//! Compaction has exactly two effects, strictly ordered:
//!
//! 1. **Snapshot write** — atomic (temp + fsync + rename). A crash before
//!    the rename leaves the old snapshot (or none) and every segment: state
//!    unchanged. A crash after it leaves a complete new snapshot *and* all
//!    segments — records in `(old_covered, covered_seq]` exist twice, which
//!    replay tolerates by filtering the tail to `seq > covered_seq`.
//! 2. **Segment deletion** — covered segments are removed in ascending
//!    segment order per shard, so a crash part-way leaves each shard's chain
//!    with at most a *leading* gap, which replay treats as an
//!    already-compacted prefix (never a mid-chain `MissingSegment` fault).
//!    Every deleted record is ≤ `covered_seq`, hence in the snapshot.
//!
//! At no point can both the snapshot and the covering segments be missing —
//! the deletion target is re-derived from the snapshot actually on disk,
//! never from the in-memory request.
//!
//! The *caller* picks `target_seq`; the store's policy
//! ([`crate::store::LabelStore::compact_below_manifest`]) only ever passes
//! the `folded_seq` of a **complete** retrain manifest, so a crash between
//! fold and publish can never compact away votes the published model has
//! not folded.

use std::collections::{BTreeMap, HashSet};
use std::fs;
use std::path::{Path, PathBuf};

use rll_core::snapshot::{atomic_write, open, seal, sync_dir, SealedHeader};
use rll_crowd::ConfidenceEstimator;
use serde::{Deserialize, Serialize};

use crate::confidence::{ConfidenceTracker, ExampleVotes};
use crate::error::{LabelError, Result};
use crate::store::{DedupMap, IngestReceipt};
use crate::wal::{compactable_segments, replay_read_only, wal_dir_bytes, VoteRecord, WalConfig};

/// Magic string in the snapshot header.
pub const SNAPSHOT_MAGIC: &str = "RLLSNAP";
/// Current snapshot format version.
pub const SNAPSHOT_VERSION: u32 = 1;
/// Schema tag of the snapshot payload.
pub const SNAPSHOT_SCHEMA: &str = "confidence_snapshot/v1";
/// File name of the snapshot inside the WAL directory.
pub const SNAPSHOT_FILE: &str = "confidence.rllsnap";

/// Snapshot envelope header (one-line JSON before the payload).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct SnapshotHeader {
    magic: String,
    version: u32,
    /// Largest sequence number the payload covers.
    covered_seq: u64,
    /// FNV-1a over the payload bytes.
    payload_fnv1a: u64,
}

impl SealedHeader for SnapshotHeader {
    const MAGIC: &'static str = SNAPSHOT_MAGIC;
    const VERSION: u32 = SNAPSHOT_VERSION;
    fn id(&self) -> (&str, u32) {
        (&self.magic, self.version)
    }
    fn promised(&self) -> (Option<u64>, u64) {
        (None, self.payload_fnv1a)
    }
    fn stamp(&mut self, _len: u64, fnv1a: u64) {
        self.payload_fnv1a = fnv1a;
    }
}

/// One example's frozen cell state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SnapshotExample {
    /// Dataset row.
    pub example: u64,
    /// Largest sequence number that touched the example.
    pub last_seq: u64,
    /// Current `(worker, label)` cells, sorted by worker.
    pub votes: Vec<(u32, u8)>,
}

/// One frozen dedup receipt.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SnapshotReceipt {
    /// Client session id (idempotency-key half).
    pub session: u64,
    /// Per-session request counter (the other half).
    pub request: u64,
    /// The receipt originally returned for this key.
    pub receipt: IngestReceipt,
}

/// The snapshot payload: the exact tracker + dedup state at `covered_seq`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConfidenceSnapshot {
    /// Always [`SNAPSHOT_SCHEMA`].
    pub schema: String,
    /// Estimator variant name; must match the store's estimator on load.
    pub estimator: String,
    /// Largest sequence number folded into this snapshot. Tail replay
    /// applies only records with `seq > covered_seq`.
    pub covered_seq: u64,
    /// Largest sequence number actually applied (≤ `covered_seq`; they
    /// differ only when repair dropped records below the target).
    pub applied_seq: u64,
    /// Per-example cell state, sorted by example id.
    pub examples: Vec<SnapshotExample>,
    /// Dedup receipt table, sorted by `(session, request)`.
    pub receipts: Vec<SnapshotReceipt>,
}

/// Where (if anywhere) a compaction run should stop or crash — the hook the
/// interrupted-compaction tests and the `check.sh` kill-gate are built on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CompactInterrupt {
    /// Run to completion.
    #[default]
    None,
    /// Return early right after the snapshot write, before any deletion.
    StopAfterSnapshot,
    /// Return early right after the first segment deletion.
    StopAfterFirstDelete,
    /// `abort()` the process right after the snapshot write.
    AbortAfterSnapshot,
    /// `abort()` the process right after the first segment deletion.
    AbortAfterFirstDelete,
}

impl CompactInterrupt {
    /// Parses the `RLL_COMPACT_FAULT` values the crash gate uses
    /// (`before-delete`, `mid-delete`); anything else is [`Self::None`].
    pub fn from_env_value(value: &str) -> CompactInterrupt {
        match value {
            "before-delete" => CompactInterrupt::AbortAfterSnapshot,
            "mid-delete" => CompactInterrupt::AbortAfterFirstDelete,
            _ => CompactInterrupt::None,
        }
    }
}

/// What one compaction run did.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CompactionStats {
    /// The requested compaction target.
    pub target_seq: u64,
    /// `covered_seq` of the snapshot on disk after the run.
    pub covered_seq: u64,
    /// Whether this run wrote a new snapshot (false when the existing one
    /// already covered the target).
    pub snapshot_written: bool,
    /// Segment files deleted.
    pub segments_deleted: u64,
    /// Verified records inside the deleted segments.
    pub records_dropped: u64,
    /// Bytes of deleted segment files.
    pub bytes_reclaimed: u64,
    /// Total `.rllwal` bytes remaining after the run.
    pub wal_bytes_after: u64,
    /// True when the run was cut short by a stop-style [`CompactInterrupt`].
    pub interrupted: bool,
}

/// The snapshot path for a WAL directory.
pub fn snapshot_path(config: &WalConfig) -> PathBuf {
    config.dir().join(SNAPSHOT_FILE)
}

/// Reads and fully verifies the snapshot, or `None` when the file does not
/// exist. Corruption is a hard [`LabelError::Corrupt`]: unlike a torn WAL
/// tail there is no good prefix to fall back to, and the covering segments
/// may already be gone.
pub fn read_snapshot(path: &Path) -> Result<Option<ConfidenceSnapshot>> {
    let bytes = match fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(LabelError::io(path, "read", e)),
    };
    let corrupt = |reason: String| LabelError::Corrupt {
        reason: format!("confidence snapshot {}: {reason}", path.display()),
    };
    let (header, snapshot): (SnapshotHeader, ConfidenceSnapshot) =
        open(&bytes).map_err(|e| corrupt(e.to_string()))?;
    if snapshot.schema != SNAPSHOT_SCHEMA {
        return Err(corrupt(format!(
            "schema {:?}, expected {SNAPSHOT_SCHEMA:?}",
            snapshot.schema
        )));
    }
    if header.covered_seq != snapshot.covered_seq {
        return Err(corrupt(format!(
            "header covers seq {} but payload claims {}",
            header.covered_seq, snapshot.covered_seq
        )));
    }
    Ok(Some(snapshot))
}

/// Atomically writes the snapshot (checksummed envelope, temp + fsync +
/// rename): after a crash the directory holds either the previous snapshot
/// state or this one, never a torn mix.
pub fn write_snapshot(path: &Path, snapshot: &ConfidenceSnapshot) -> Result<()> {
    let header = SnapshotHeader {
        magic: SNAPSHOT_MAGIC.to_string(),
        version: SNAPSHOT_VERSION,
        covered_seq: snapshot.covered_seq,
        payload_fnv1a: 0,
    };
    let bytes = seal(header, snapshot).map_err(|e| LabelError::Corrupt {
        reason: format!("confidence snapshot {}: {e}", path.display()),
    })?;
    atomic_write(path, &bytes).map_err(|e| LabelError::io(path, "write", e))
}

/// Freezes the tracker + dedup state into a snapshot covering `covered_seq`.
pub fn build_snapshot(
    tracker: &ConfidenceTracker,
    dedup: &DedupMap,
    covered_seq: u64,
) -> ConfidenceSnapshot {
    let mut examples = Vec::with_capacity(tracker.table.len());
    for (&example, entry) in &tracker.table {
        examples.push(SnapshotExample {
            example,
            last_seq: entry.last_seq,
            votes: entry.workers.iter().map(|(&w, &l)| (w, l)).collect(),
        });
    }
    let receipts = dedup
        .entries()
        .map(|((session, request), receipt)| SnapshotReceipt {
            session,
            request,
            receipt: *receipt,
        })
        .collect();
    ConfidenceSnapshot {
        schema: SNAPSHOT_SCHEMA.to_string(),
        estimator: tracker.estimator().name().to_string(),
        covered_seq,
        applied_seq: tracker.applied_seq,
        examples,
        receipts,
    }
}

/// Rebuilds a tracker from a snapshot, validating the estimator matches.
pub fn restore_tracker(
    snapshot: &ConfidenceSnapshot,
    estimator: ConfidenceEstimator,
) -> Result<ConfidenceTracker> {
    if snapshot.estimator != estimator.name() {
        return Err(LabelError::InvalidConfig {
            reason: format!(
                "confidence snapshot was taken with estimator {:?}, store uses {:?} — \
                 confidences would not be comparable",
                snapshot.estimator,
                estimator.name()
            ),
        });
    }
    let mut tracker = ConfidenceTracker::new(estimator)?;
    for ex in &snapshot.examples {
        let mut workers = BTreeMap::new();
        for &(worker, label) in &ex.votes {
            if label > 1 {
                return Err(LabelError::Corrupt {
                    reason: format!(
                        "snapshot cell ({}, {worker}) holds non-binary label {label}",
                        ex.example
                    ),
                });
            }
            workers.insert(worker, label);
        }
        let entry = ExampleVotes {
            last_seq: ex.last_seq,
            workers,
        };
        tracker.table.insert(ex.example, entry);
    }
    tracker.applied_seq = snapshot.applied_seq;
    Ok(tracker)
}

/// Rebuilds the dedup table from a snapshot.
pub(crate) fn restore_dedup(snapshot: &ConfidenceSnapshot, capacity: usize) -> DedupMap {
    let mut dedup = DedupMap::new(capacity);
    for entry in &snapshot.receipts {
        dedup.insert((entry.session, entry.request), entry.receipt);
    }
    dedup
}

/// Rebuilds `(tracker, dedup)` at `up_to_seq` from the snapshot on disk plus
/// the given replayed records: snapshot state first, then every record with
/// `covered_seq < seq <= up_to_seq` in order. The `seq > covered_seq` filter
/// is load-bearing — surviving segments may still hold records the snapshot
/// already covers, and re-applying one would roll a last-write-wins cell
/// back to an older value.
///
/// Every record sets its cell in the tracker, but at most `dedup_capacity`
/// reach the dedup table. It evicts oldest-`seq`-first and the records arrive in `seq`
/// order, so after the whole window it holds exactly the last occurrences
/// of the last `dedup_capacity` distinct keys (over any restored snapshot
/// receipts, which all sit at or below `covered_seq`). A reverse pass picks
/// those records, and the forward pass estimates a confidence for, and
/// inserts, only their receipts — each with the same post-apply counts live
/// ingest recorded.
pub(crate) fn rebuild_state(
    snapshot: Option<&ConfidenceSnapshot>,
    estimator: ConfidenceEstimator,
    dedup_capacity: usize,
    records: &[VoteRecord],
    up_to_seq: u64,
) -> Result<(ConfidenceTracker, DedupMap, u64)> {
    let covered = snapshot.map(|s| s.covered_seq).unwrap_or(0);
    let mut tracker = match snapshot {
        Some(s) => restore_tracker(s, estimator)?,
        None => ConfidenceTracker::new(estimator)?,
    };
    let mut dedup = match snapshot {
        Some(s) => restore_dedup(s, dedup_capacity),
        None => DedupMap::new(dedup_capacity),
    };
    let window = |record: &VoteRecord| record.seq > covered && record.seq <= up_to_seq;
    let mut kept = vec![false; records.len()];
    let mut keys = HashSet::new();
    for (keep, record) in kept.iter_mut().zip(records).rev() {
        if keys.len() == dedup_capacity {
            break;
        }
        if let Some(key) = record.key().filter(|_| window(record)) {
            *keep = keys.insert(key);
        }
    }
    for (&keep, record) in kept.iter().zip(records) {
        if !window(record) {
            continue;
        }
        let entry = tracker.set_cell(record)?;
        if let (true, Some(key)) = (keep, record.key()) {
            let conf = entry.confidence(record.example, estimator)?;
            dedup.insert(key, IngestReceipt::new(record, conf));
        }
    }
    Ok((tracker, dedup, covered))
}

/// Runs one compaction: fold everything at or below `target_seq` into the
/// snapshot, then delete the sealed segments it covers. Safe to run while
/// appends continue (it only reads immutable records below the target and
/// deletes segments the snapshot covers); concurrent *compactions* are
/// excluded by the store's `compact` lock.
///
/// This is the raw mechanism; it trusts `target_seq`. Use
/// [`crate::store::LabelStore::compact_below_manifest`] for the
/// manifest-gated policy.
pub fn compact_wal(
    config: &WalConfig,
    estimator: ConfidenceEstimator,
    dedup_capacity: usize,
    target_seq: u64,
    interrupt: CompactInterrupt,
) -> Result<CompactionStats> {
    let path = snapshot_path(config);
    let existing = read_snapshot(&path)?;
    let covered_before = existing.as_ref().map(|s| s.covered_seq).unwrap_or(0);

    let mut stats = CompactionStats {
        target_seq,
        covered_seq: covered_before,
        snapshot_written: false,
        segments_deleted: 0,
        records_dropped: 0,
        bytes_reclaimed: 0,
        wal_bytes_after: 0,
        interrupted: false,
    };

    if target_seq > covered_before {
        let replay = replay_read_only(config)?;
        let (tracker, dedup, _) = rebuild_state(
            existing.as_ref(),
            estimator,
            dedup_capacity,
            &replay.records,
            target_seq,
        )?;
        write_snapshot(&path, &build_snapshot(&tracker, &dedup, target_seq))?;
        stats.snapshot_written = true;
        stats.covered_seq = target_seq;
        match interrupt {
            CompactInterrupt::AbortAfterSnapshot => std::process::abort(),
            CompactInterrupt::StopAfterSnapshot => {
                stats.interrupted = true;
                stats.wal_bytes_after = wal_dir_bytes(config)?;
                return Ok(stats);
            }
            _ => {}
        }
    }

    // Deletion eligibility is derived from what the snapshot on disk
    // actually covers — never ahead of it.
    let delete_below = target_seq.min(stats.covered_seq);
    for seg in compactable_segments(config, delete_below)? {
        fs::remove_file(&seg.path).map_err(|e| LabelError::io(&seg.path, "delete", e))?;
        stats.segments_deleted += 1;
        stats.records_dropped += seg.records;
        stats.bytes_reclaimed += seg.bytes;
        if stats.segments_deleted == 1 {
            match interrupt {
                CompactInterrupt::AbortAfterFirstDelete => std::process::abort(),
                CompactInterrupt::StopAfterFirstDelete => {
                    stats.interrupted = true;
                    stats.wal_bytes_after = wal_dir_bytes(config)?;
                    return Ok(stats);
                }
                _ => {}
            }
        }
    }
    if stats.segments_deleted > 0 {
        // One directory fsync makes every delete above durable.
        sync_dir(config.dir()).map_err(|e| LabelError::io(config.dir(), "fsync dir", e))?;
    }
    stats.wal_bytes_after = wal_dir_bytes(config)?;
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use rll_crowd::BetaPrior;
    use rll_tensor::Rng64;

    use super::*;

    const ESTIMATOR: ConfidenceEstimator = ConfidenceEstimator::Bayesian(BetaPrior {
        alpha: 1.0,
        beta: 1.0,
    });

    /// The oracle: every keyed record in `(covered, up_to_seq]` goes through
    /// the dedup table, as live ingest did.
    fn forward(
        snapshot: Option<&ConfidenceSnapshot>,
        capacity: usize,
        records: &[VoteRecord],
        up_to_seq: u64,
    ) -> (ConfidenceTracker, DedupMap) {
        let covered = snapshot.map_or(0, |s| s.covered_seq);
        let mut tracker = match snapshot {
            Some(s) => restore_tracker(s, ESTIMATOR).unwrap(),
            None => ConfidenceTracker::new(ESTIMATOR).unwrap(),
        };
        let mut dedup = match snapshot {
            Some(s) => restore_dedup(s, capacity),
            None => DedupMap::new(capacity),
        };
        for record in records {
            if record.seq <= covered || record.seq > up_to_seq {
                continue;
            }
            let conf = tracker.apply(record).unwrap();
            if let Some(key) = record.key() {
                let receipt = IngestReceipt {
                    seq: record.seq,
                    example: record.example,
                    worker: record.worker,
                    label: record.label,
                    votes: conf.votes,
                    positive: conf.positive,
                    confidence: conf.confidence,
                };
                dedup.insert(key, receipt);
            }
        }
        (tracker, dedup)
    }

    /// Receipts with the confidence as bits, so equality is bitwise.
    fn entries(dedup: &DedupMap) -> Vec<((u64, u64), [u64; 7])> {
        dedup
            .entries()
            .map(|(key, r)| {
                let fields = [
                    r.seq,
                    r.example,
                    u64::from(r.worker),
                    u64::from(r.label),
                    r.votes,
                    r.positive,
                    r.confidence.to_bits(),
                ];
                (key, fields)
            })
            .collect()
    }

    /// `n` records at seqs 1..=n: a third unkeyed, a tenth half-keyed, the
    /// rest keyed from a pool of 24 keys, so keys recur often.
    fn stream(rng: &mut Rng64, n: usize) -> Vec<VoteRecord> {
        (1..=n as u64)
            .map(|seq| {
                let mut draw = |below: usize| rng.below(below).unwrap() as u64;
                let (session, request) = match draw(30) {
                    0..=9 => (None, None),
                    10 => (Some(draw(3)), None),
                    11 => (None, Some(draw(8))),
                    _ => (Some(draw(3)), Some(draw(8))),
                };
                VoteRecord {
                    seq,
                    example: draw(6),
                    worker: draw(4) as u32,
                    label: draw(2) as u8,
                    session,
                    request,
                }
            })
            .collect()
    }

    /// The tracker's `/labels` JSON and the sealed compaction snapshot of
    /// `(tracker, dedup)` covering `covered`, as bytes.
    fn state_bytes(tracker: &ConfidenceTracker, dedup: &DedupMap, covered: u64) -> [Vec<u8>; 2] {
        let labels = serde_json::to_string(&tracker.snapshot().unwrap()).unwrap();
        let header = SnapshotHeader {
            magic: SNAPSHOT_MAGIC.to_string(),
            version: SNAPSHOT_VERSION,
            covered_seq: covered,
            payload_fnv1a: 0,
        };
        let sealed = seal(header, &build_snapshot(tracker, dedup, covered)).unwrap();
        [labels.into_bytes(), sealed]
    }

    /// `rebuild_state` gives, bit for bit, what applying every record in the
    /// window through `ConfidenceTracker::apply` and the dedup table gives:
    /// `/labels` JSON, sealed compaction snapshot and every receipt. The
    /// streams reuse cells, flip labels and mix keyed, unkeyed and
    /// half-keyed records.
    #[test]
    fn tail_rebuilt_dedup_equals_full_forward_insertion() {
        let mut rng = Rng64::seed_from_u64(0xDED0_7A11);
        for capacity in [0, 1, 7, 4096] {
            for _ in 0..60 {
                let n = rng.below(200).unwrap();
                let records = stream(&mut rng, n);
                let covered = rng.below(n + 1).unwrap() as u64;
                let up_to = covered + rng.below(n + 3 - covered as usize).unwrap() as u64;

                let (full_tracker, full) = forward(None, capacity, &records, up_to);
                // With the state at `covered` restored from a snapshot.
                let (tracker, dedup) = forward(None, capacity, &records, covered);
                let snapshot = build_snapshot(&tracker, &dedup, covered);
                let (tail_tracker, tail) = forward(Some(&snapshot), capacity, &records, up_to);
                let full_bytes = state_bytes(&full_tracker, &full, up_to);
                // Each voted example's last seq is its latest record's.
                for ex in full_tracker.snapshot().unwrap().examples {
                    let latest = records.iter().filter(|r| r.example == ex.example);
                    let latest = latest.map(|r| r.seq).filter(|&seq| seq <= up_to).max();
                    assert_eq!(Some(ex.last_seq), latest);
                }
                // Snapshot plus tail is the full log, dedup table included.
                assert_eq!(entries(&tail), entries(&full), "capacity {capacity}");
                assert_eq!(state_bytes(&tail_tracker, &tail, up_to), full_bytes);
                for restored in [None, Some(&snapshot)] {
                    let (rebuilt, dedup, _) =
                        rebuild_state(restored, ESTIMATOR, capacity, &records, up_to).unwrap();
                    assert_eq!(entries(&dedup), entries(&full), "capacity {capacity}");
                    assert_eq!(state_bytes(&rebuilt, &dedup, up_to), full_bytes);
                }
            }
        }
    }
}
