//! WAL durability and determinism suite (issue 8, satellite d).
//!
//! Covers the crash modes an append-only log actually sees — torn tails,
//! truncated files, flipped bits, vanished segments — plus the invariants
//! the continuous-learning loop leans on: replay idempotence, deterministic
//! cross-shard ordering, and bitwise agreement between replayed online
//! confidence and the batch estimator.

use std::fs;
use std::num::NonZeroU32;
use std::path::{Path, PathBuf};

use rll_crowd::{AnnotationMatrix, BetaPrior, ConfidenceEstimator};
use rll_label::{
    replay_read_only, shard_of, ConfidenceTracker, CorruptionKind, IngestReceipt, LabelError,
    LabelStore, LabelStoreConfig, ShardedWal, Vote, WalConfig, DEFAULT_DEDUP_CAPACITY,
};
use rll_obs::Recorder;

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rll_label_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn wal_config(dir: &Path, shards: u32, segment_records: u64) -> WalConfig {
    WalConfig::new(dir.to_path_buf(), shards, segment_records).unwrap()
}

/// A deterministic little vote stream that exercises several shards,
/// repeat-voters (last-write-wins), and both labels.
fn vote_stream(n: usize) -> Vec<Vote> {
    (0..n)
        .map(|i| Vote::new((i as u64 * 7) % 13, (i as u32) % 5, ((i / 3) % 2) as u8))
        .collect()
}

fn append_all(wal: &mut ShardedWal, votes: &[Vote]) {
    for &vote in votes {
        wal.append(vote).unwrap();
    }
}

/// The active (largest-index) segment file of a shard.
fn active_segment_of(dir: &Path, shard: u32) -> PathBuf {
    let prefix = format!("shard{shard:04}-seg");
    let mut segs: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with(&prefix) && n.ends_with(".rllwal"))
        })
        .collect();
    segs.sort();
    segs.pop().expect("shard has at least one segment")
}

#[test]
fn roundtrip_replays_every_acked_vote_in_seq_order() {
    let dir = fresh_dir("roundtrip");
    let votes = vote_stream(40);
    let appended: Vec<_> = {
        let (mut wal, replay) = ShardedWal::open(wal_config(&dir, 4, 8)).unwrap();
        assert_eq!(replay.records.len(), 0);
        votes.iter().map(|&v| wal.append(v).unwrap()).collect()
    };
    let (wal, replay) = ShardedWal::open(wal_config(&dir, 4, 8)).unwrap();
    assert_eq!(replay.records, appended);
    assert!(replay.corruptions.is_empty());
    assert_eq!(replay.high_water, 40);
    assert_eq!(wal.high_water(), 40);
    // Sequence numbers are 1-based and strictly increasing across shards.
    for (i, rec) in replay.records.iter().enumerate() {
        assert_eq!(rec.seq, i as u64 + 1);
    }
}

#[test]
fn replay_is_idempotent() {
    let dir = fresh_dir("idempotent");
    {
        let (mut wal, _) = ShardedWal::open(wal_config(&dir, 3, 4)).unwrap();
        append_all(&mut wal, &vote_stream(25));
    }
    let first = replay_read_only(&wal_config(&dir, 3, 4)).unwrap();
    let second = replay_read_only(&wal_config(&dir, 3, 4)).unwrap();
    assert_eq!(first.records, second.records);
    assert_eq!(first.high_water, second.high_water);
    assert!(first.corruptions.is_empty());

    // Applying the same records twice to a tracker changes nothing.
    let mut tracker = ConfidenceTracker::new(ConfidenceEstimator::Mle).unwrap();
    for rec in &first.records {
        tracker.apply(rec).unwrap();
    }
    let once = tracker.snapshot().unwrap();
    for rec in &first.records {
        tracker.apply(rec).unwrap();
    }
    assert_eq!(tracker.snapshot().unwrap(), once);
}

#[test]
fn torn_tail_is_truncated_and_survives_reopen() {
    let dir = fresh_dir("torn");
    let votes = vote_stream(20);
    {
        let (mut wal, _) = ShardedWal::open(wal_config(&dir, 2, 100)).unwrap();
        append_all(&mut wal, &votes);
    }
    // Simulate a crash mid-append: a partial record with no newline at the
    // tail of shard 0's active segment.
    let victim = active_segment_of(&dir, 0);
    let mut bytes = fs::read(&victim).unwrap();
    bytes.extend_from_slice(b"deadbeef {\"seq\":999,\"exa");
    fs::write(&victim, &bytes).unwrap();

    let (mut wal, replay) = ShardedWal::open(wal_config(&dir, 2, 100)).unwrap();
    // Every previously acked record survives; only the torn tail is dropped.
    assert_eq!(replay.records.len(), votes.len());
    assert_eq!(replay.high_water, votes.len() as u64);
    assert_eq!(replay.corruptions.len(), 1);
    assert_eq!(replay.corruptions[0].kind, CorruptionKind::TornTail);
    assert_eq!(replay.dropped_records, 1);

    // The repair rewrote the file; a second open is clean and appends resume
    // at the next sequence number.
    let rec = wal.append(Vote::new(1, 1, 1)).unwrap();
    assert_eq!(rec.seq, votes.len() as u64 + 1);
    let (_, replay2) = ShardedWal::open(wal_config(&dir, 2, 100)).unwrap();
    assert!(replay2.corruptions.is_empty());
    assert_eq!(replay2.records.len(), votes.len() + 1);
}

#[test]
fn flipped_bit_truncates_at_the_exact_record() {
    let dir = fresh_dir("bitflip");
    {
        let (mut wal, _) = ShardedWal::open(wal_config(&dir, 1, 100)).unwrap();
        append_all(&mut wal, &vote_stream(10));
    }
    let victim = active_segment_of(&dir, 0);
    let mut bytes = fs::read(&victim).unwrap();
    // Flip one bit inside the 6th record's JSON (header is line 0).
    let line_starts: Vec<usize> = std::iter::once(0)
        .chain(
            bytes
                .iter()
                .enumerate()
                .filter(|(_, &b)| b == b'\n')
                .map(|(i, _)| i + 1),
        )
        .collect();
    let target = line_starts[6] + 20;
    bytes[target] ^= 0x01;
    fs::write(&victim, &bytes).unwrap();

    let (_, replay) = ShardedWal::open(wal_config(&dir, 1, 100)).unwrap();
    // Records 1..=5 (before the flipped line) survive; the rest of the shard
    // is truncated at the corrupt record.
    assert_eq!(replay.records.len(), 5);
    assert_eq!(replay.high_water, 5);
    assert_eq!(replay.corruptions.len(), 1);
    let c = &replay.corruptions[0];
    assert!(
        c.kind == CorruptionKind::ChecksumMismatch || c.kind == CorruptionKind::MalformedRecord,
        "unexpected kind {:?}",
        c.kind
    );
    assert_eq!(c.record_index, 5);
    assert_eq!(replay.dropped_records, 5);
    // Idempotent after repair.
    let (_, replay2) = ShardedWal::open(wal_config(&dir, 1, 100)).unwrap();
    assert!(replay2.corruptions.is_empty());
    assert_eq!(replay2.records.len(), 5);
}

/// A 1 000-record unsealed segment whose record 400 is bad in each way a
/// record can be: everything from it on is dropped, and the repair leaves
/// exactly the 400 records before it.
#[test]
fn long_segment_drops_every_record_from_the_bad_one() {
    const RECORDS: usize = 1000;
    const BAD: usize = 400;
    for kind in [
        CorruptionKind::ChecksumMismatch,
        CorruptionKind::MalformedRecord,
        CorruptionKind::NonMonotoneSeq,
    ] {
        let dir = fresh_dir(&format!("long_segment_{kind:?}"));
        {
            let (mut wal, _) = ShardedWal::open(wal_config(&dir, 1, 2 * RECORDS as u64)).unwrap();
            append_all(&mut wal, &vote_stream(RECORDS));
        }
        let victim = active_segment_of(&dir, 0);
        let text = fs::read_to_string(&victim).unwrap();
        // Line 0 is the header, so record i is line i + 1.
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        assert_eq!(lines.len(), RECORDS + 1);
        lines[BAD + 1] = match kind {
            // A well-formed checksum literal that does not match the JSON.
            CorruptionKind::ChecksumMismatch => {
                let (hex, json) = lines[BAD + 1].split_once(' ').unwrap();
                let wrong = if hex.starts_with('0') { "1" } else { "0" };
                format!("{wrong}{} {json}", &hex[1..])
            }
            CorruptionKind::MalformedRecord => "no separator here".to_string(),
            // A verbatim copy of the previous record repeats its seq.
            _ => lines[BAD].clone(),
        };
        fs::write(&victim, lines.join("\n") + "\n").unwrap();

        let (_, replay) = ShardedWal::open(wal_config(&dir, 1, 2 * RECORDS as u64)).unwrap();
        assert_eq!(replay.corruptions.len(), 1, "{kind:?}");
        let c = &replay.corruptions[0];
        assert_eq!(c.kind, kind);
        assert_eq!(c.record_index, BAD as u64);
        assert_eq!(c.dropped_records, (RECORDS - BAD) as u64, "{kind:?}");
        assert_eq!(replay.dropped_records, (RECORDS - BAD) as u64, "{kind:?}");
        assert_eq!(replay.records.len(), BAD);
        assert_eq!(replay.high_water, BAD as u64);

        // The repair rewrote the segment to the header plus 400 records.
        let repaired = fs::read_to_string(&victim).unwrap();
        assert_eq!(repaired.lines().count(), BAD + 1, "{kind:?}");
        let (_, replay2) = ShardedWal::open(wal_config(&dir, 1, 2 * RECORDS as u64)).unwrap();
        assert!(replay2.corruptions.is_empty());
        assert_eq!(replay2.records.len(), BAD);
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn rotation_seals_segments_and_replay_checks_them() {
    let dir = fresh_dir("rotation");
    {
        let (mut wal, _) = ShardedWal::open(wal_config(&dir, 2, 3)).unwrap();
        append_all(&mut wal, &vote_stream(30));
    }
    let segment_files = fs::read_dir(&dir).unwrap().count();
    assert!(
        segment_files > 2,
        "expected rotation, found {segment_files} files"
    );
    let (_, replay) = ShardedWal::open(wal_config(&dir, 2, 3)).unwrap();
    assert!(replay.corruptions.is_empty());
    assert_eq!(replay.records.len(), 30);
    assert!(replay.segments_read > 2);
}

#[test]
fn missing_middle_segment_quarantines_the_rest_of_the_shard() {
    let dir = fresh_dir("gap");
    {
        let (mut wal, _) = ShardedWal::open(wal_config(&dir, 1, 2)).unwrap();
        append_all(&mut wal, &vote_stream(10));
    }
    // Remove a middle segment: everything after the gap is unreachable.
    let gone = dir.join("shard0000-seg00000002.rllwal");
    assert!(gone.exists());
    fs::remove_file(&gone).unwrap();

    let (_, replay) = ShardedWal::open(wal_config(&dir, 1, 2)).unwrap();
    assert_eq!(
        replay.records.len(),
        4,
        "two 2-record segments before the gap"
    );
    assert!(replay
        .corruptions
        .iter()
        .any(|c| c.kind == CorruptionKind::MissingSegment));
    assert!(replay
        .corruptions
        .iter()
        .any(|c| c.kind == CorruptionKind::Quarantined));
    // Quarantined files are renamed, not deleted, and never re-read.
    let quarantined = fs::read_dir(&dir)
        .unwrap()
        .filter(|e| {
            e.as_ref()
                .unwrap()
                .path()
                .to_string_lossy()
                .ends_with(".quarantined")
        })
        .count();
    assert!(quarantined >= 1);
    let (_, replay2) = ShardedWal::open(wal_config(&dir, 1, 2)).unwrap();
    assert!(replay2.corruptions.is_empty());
    assert_eq!(replay2.records.len(), 4);
}

#[test]
fn cross_shard_merge_order_is_deterministic() {
    let dir_a = fresh_dir("order_a");
    let dir_b = fresh_dir("order_b");
    let votes = vote_stream(60);
    for dir in [&dir_a, &dir_b] {
        let (mut wal, _) = ShardedWal::open(wal_config(dir, 5, 4)).unwrap();
        append_all(&mut wal, &votes);
    }
    let a = replay_read_only(&wal_config(&dir_a, 5, 4)).unwrap();
    let b = replay_read_only(&wal_config(&dir_b, 5, 4)).unwrap();
    assert_eq!(a.records, b.records);
    // The merge reproduces ingestion order exactly, independent of shard
    // interleaving.
    for (i, rec) in a.records.iter().enumerate() {
        assert_eq!(rec.seq, i as u64 + 1);
        assert_eq!(rec.example, votes[i].example);
        assert_eq!(rec.worker, votes[i].worker);
        assert_eq!(rec.label, votes[i].label);
    }
    // And the shard routing itself is a pure function.
    let five = NonZeroU32::new(5).unwrap();
    for v in &votes {
        assert_eq!(shard_of(v.example, five), shard_of(v.example, five));
    }
}

/// Satellite: a zero shard count (or segment size) is a typed config error
/// at construction, not a silently masked `.max(1)` at hash time.
#[test]
fn wal_config_rejects_zero_shards_and_zero_segment() {
    let dir = fresh_dir("zero_config");
    for (shards, segment_records) in [(0u32, 8u64), (4, 0), (0, 0)] {
        let err = WalConfig::new(dir.clone(), shards, segment_records).unwrap_err();
        assert!(
            matches!(err, LabelError::InvalidConfig { .. }),
            "({shards}, {segment_records}) gave {err:?}"
        );
    }
    // The store surfaces the same typed error instead of opening.
    let err = LabelStore::open(
        LabelStoreConfig {
            dir,
            shards: 0,
            segment_records: 8,
            estimator: ConfidenceEstimator::Mle,
            num_examples: 4,
            max_workers: 2,
            dedup_capacity: DEFAULT_DEDUP_CAPACITY,
            manifest_path: None,
        },
        Recorder::disabled(),
    )
    .unwrap_err();
    assert!(matches!(err, LabelError::InvalidConfig { .. }));
}

/// Replayed online confidence must equal the batch estimator **bitwise** on
/// the same votes — both MLE (eq. 1) and Bayesian (eq. 2).
#[test]
fn replayed_confidence_matches_batch_estimator_bitwise() {
    let dir = fresh_dir("bitwise");
    let votes = vote_stream(50);
    {
        let (mut wal, _) = ShardedWal::open(wal_config(&dir, 3, 8)).unwrap();
        append_all(&mut wal, &votes);
    }
    let replay = replay_read_only(&wal_config(&dir, 3, 8)).unwrap();

    // Batch side: the same votes as an AnnotationMatrix (last-write-wins,
    // same as the tracker).
    let mut matrix = AnnotationMatrix::new(13, 5, 2).unwrap();
    for v in &votes {
        matrix
            .set(v.example as usize, v.worker as usize, v.label)
            .unwrap();
    }

    let estimators = [
        ConfidenceEstimator::Mle,
        ConfidenceEstimator::Bayesian(BetaPrior {
            alpha: 1.0,
            beta: 1.0,
        }),
        ConfidenceEstimator::Bayesian(BetaPrior {
            alpha: 2.5,
            beta: 0.5,
        }),
    ];
    for estimator in estimators {
        let mut tracker = ConfidenceTracker::new(estimator).unwrap();
        for rec in &replay.records {
            tracker.apply(rec).unwrap();
        }
        for example in 0..13usize {
            let total = matrix.annotation_count(example).unwrap();
            if total == 0 {
                assert!(tracker.confidence(example as u64).unwrap().is_none());
                continue;
            }
            let positive = matrix.positive_votes(example).unwrap();
            let batch = estimator.positiveness(positive, total).unwrap();
            let online = tracker
                .confidence(example as u64)
                .unwrap()
                .expect("voted example")
                .confidence;
            assert_eq!(
                online.to_bits(),
                batch.to_bits(),
                "estimator {estimator:?} example {example}: online {online} != batch {batch}"
            );
        }
    }
}

/// Kill-and-restart: a store reopened over the same WAL produces a
/// byte-identical `/labels` snapshot.
#[test]
fn store_reopen_snapshot_is_byte_identical() {
    let dir = fresh_dir("store_reopen");
    let config = LabelStoreConfig {
        dir: dir.clone(),
        shards: 2,
        segment_records: 8,
        estimator: ConfidenceEstimator::Bayesian(BetaPrior {
            alpha: 1.0,
            beta: 1.0,
        }),
        num_examples: 13,
        max_workers: 5,
        dedup_capacity: DEFAULT_DEDUP_CAPACITY,
        manifest_path: None,
    };
    let before = {
        let store = LabelStore::open(config.clone(), Recorder::disabled()).unwrap();
        let mut last: Option<IngestReceipt> = None;
        for v in vote_stream(30) {
            last = Some(store.ingest(v).unwrap());
        }
        assert_eq!(last.unwrap().seq, 30);
        serde_json::to_string(&store.snapshot().unwrap()).unwrap()
        // store dropped here = the "kill"
    };
    let store = LabelStore::open(config, Recorder::disabled()).unwrap();
    let after = serde_json::to_string(&store.snapshot().unwrap()).unwrap();
    assert_eq!(before, after);
    assert_eq!(store.high_water(), 30);
}

#[test]
fn store_rejects_out_of_range_votes() {
    let dir = fresh_dir("store_reject");
    let store = LabelStore::open(
        LabelStoreConfig {
            dir,
            shards: 1,
            segment_records: 8,
            estimator: ConfidenceEstimator::Mle,
            num_examples: 4,
            max_workers: 2,
            dedup_capacity: DEFAULT_DEDUP_CAPACITY,
            manifest_path: None,
        },
        Recorder::disabled(),
    )
    .unwrap();
    assert!(store.ingest(Vote::new(4, 0, 1)).is_err());
    assert!(store.ingest(Vote::new(0, 2, 1)).is_err());
    assert!(store.ingest(Vote::new(0, 0, 2)).is_err());
    // Half an idempotency key is invalid, not silently unkeyed.
    let mut half_keyed = Vote::new(0, 0, 1);
    half_keyed.session = Some(7);
    assert!(store.ingest(half_keyed).is_err());
    assert_eq!(store.high_water(), 0, "rejected votes never touch the WAL");
    store.ingest(Vote::new(0, 0, 1)).unwrap();
    assert_eq!(store.high_water(), 1);
}

/// `fold_current` is deterministic: the same votes produce the same folded
/// matrix whether folded live or rebuilt from a disk replay.
#[test]
fn fold_is_deterministic_across_restart() {
    let dir = fresh_dir("fold");
    let config = LabelStoreConfig {
        dir,
        shards: 2,
        segment_records: 4,
        estimator: ConfidenceEstimator::Mle,
        num_examples: 13,
        max_workers: 5,
        dedup_capacity: DEFAULT_DEDUP_CAPACITY,
        manifest_path: None,
    };
    let base = {
        let mut m = AnnotationMatrix::new(13, 3, 2).unwrap();
        for i in 0..13 {
            m.set(i, i % 3, (i % 2) as u8).unwrap();
        }
        m
    };
    let (live_fold, live_seq) = {
        let store = LabelStore::open(config.clone(), Recorder::disabled()).unwrap();
        for v in vote_stream(20) {
            store.ingest(v).unwrap();
        }
        let (folded, seq, _) = store.fold_current(&base).unwrap();
        (folded, seq)
    };
    // Restart: rebuild the tracker from disk up to the same sequence.
    let store = LabelStore::open(config, Recorder::disabled()).unwrap();
    let tracker = store.replay_up_to(live_seq).unwrap();
    let recovered_fold = tracker.fold_into(&base, 5).unwrap();
    assert_eq!(
        serde_json::to_string(&live_fold).unwrap(),
        serde_json::to_string(&recovered_fold).unwrap()
    );
    // Width is fixed at base + max_workers regardless of who voted.
    assert_eq!(live_fold.num_workers(), 3 + 5);
    assert_eq!(live_fold.num_items(), 13);
}
