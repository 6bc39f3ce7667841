//! Golden bytes of the label subsystem's sealed files — the
//! `confidence.rllsnap` snapshot and a sealed plus an unsealed `.rllwal`
//! segment — and a corruption sweep over their decoders.
//!
//! The fixtures under `tests/fixtures/` were written by the code paths they
//! pin: six fixed votes appended through a one-shard [`ShardedWal`] with
//! 4-record segments (segment 0 sealed on rotation, segment 1 still open),
//! and a compaction of the same six votes at sequence 4 for the snapshot.
//! The tests do no float math, so they do not depend on which libm the host
//! selects. Every prefix of each fixture and 2 000 seeded single-bit flips of
//! it must decode to a typed error or a valid value, never a panic.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use rll_label::{
    encode_record, read_snapshot, replay_read_only, write_snapshot, CorruptionKind, LabelError,
    ShardedWal, Vote, WalConfig,
};
use rll_tensor::hash::fnv1a;
use rll_tensor::Rng64;

const SNAPSHOT: &[u8] = include_bytes!("fixtures/confidence.rllsnap");
const SEALED: (&str, &[u8]) = (
    "shard0000-seg00000000.rllwal",
    include_bytes!("fixtures/shard0000-seg00000000.rllwal"),
);
const UNSEALED: (&str, &[u8]) = (
    "shard0000-seg00000001.rllwal",
    include_bytes!("fixtures/shard0000-seg00000001.rllwal"),
);

fn votes() -> [Vote; 6] {
    [
        Vote::new(3, 0, 1),
        Vote::new(5, 1, 0).with_key(7, 1),
        Vote::new(3, 2, 1).with_key(7, 2),
        Vote::new(8, 0, 0),
        Vote::new(5, 2, 1),
        Vote::new(1, 1, 1).with_key(9, 1),
    ]
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rll_sealed_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn wal_config(dir: &Path) -> WalConfig {
    WalConfig::new(dir, 1, 4).unwrap()
}

fn write_segment_fixtures(dir: &Path) {
    for (name, fixture) in [SEALED, UNSEALED] {
        fs::write(dir.join(name), fixture).unwrap();
    }
}

/// Every proper prefix of `bytes`, then 2 000 seeded single-bit flips.
fn mutations(bytes: &[u8], seed: u64) -> impl Iterator<Item = Vec<u8>> + '_ {
    let mut rng = Rng64::seed_from_u64(seed);
    let cuts = (0..bytes.len()).map(move |n| bytes[..n].to_vec());
    let flips = (0..2000).map(move |_| {
        let mut flipped = bytes.to_vec();
        let at = rng.below(flipped.len()).unwrap();
        flipped[at] ^= 1 << rng.below(8).unwrap();
        flipped
    });
    cuts.chain(flips)
}

#[test]
fn appended_votes_write_the_segment_fixtures() {
    let dir = fresh_dir("append");
    let (mut wal, _) = ShardedWal::open(wal_config(&dir)).unwrap();
    for vote in votes() {
        wal.append(vote).unwrap();
    }
    for (name, fixture) in [SEALED, UNSEALED] {
        assert_eq!(fs::read(dir.join(name)).unwrap(), fixture, "{name}");
        assert!(fixture.len() < 16 * 1024);
    }
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn segment_fixtures_open_and_keep_their_bytes() {
    let dir = fresh_dir("open");
    write_segment_fixtures(&dir);
    let (mut wal, replay) = ShardedWal::open(wal_config(&dir)).unwrap();
    assert!(replay.corruptions.is_empty(), "{:?}", replay.corruptions);
    assert_eq!(replay.records.len(), 6);
    assert_eq!(replay.high_water, 6);
    // A clean open repairs nothing, so the files keep their bytes.
    for (name, fixture) in [SEALED, UNSEALED] {
        assert_eq!(fs::read(dir.join(name)).unwrap(), fixture, "{name}");
    }
    // The reopened WAL continues the open segment where it stopped, and
    // rotates once it holds four records.
    wal.append(Vote::new(2, 0, 0)).unwrap();
    let grown = fs::read(dir.join(UNSEALED.0)).unwrap();
    assert!(grown.starts_with(UNSEALED.1));
    assert!(!dir.join("shard0000-seg00000002.rllwal").exists());
    wal.append(Vote::new(2, 1, 0)).unwrap();
    assert!(!dir.join("shard0000-seg00000002.rllwal").exists());
    wal.append(Vote::new(2, 2, 0)).unwrap();
    assert!(dir.join("shard0000-seg00000002.rllwal").exists());
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn snapshot_fixture_reseals_byte_for_byte() {
    let dir = fresh_dir("snapshot");
    let path = dir.join("confidence.rllsnap");
    fs::write(&path, SNAPSHOT).unwrap();
    let snapshot = read_snapshot(&path).unwrap().unwrap();
    assert_eq!(snapshot.covered_seq, 4);
    assert_eq!(snapshot.examples.len(), 3);
    assert_eq!(snapshot.receipts.len(), 2);
    let resealed = dir.join("resealed.rllsnap");
    write_snapshot(&resealed, &snapshot).unwrap();
    assert_eq!(fs::read(&resealed).unwrap(), SNAPSHOT);
    assert!(SNAPSHOT.len() < 16 * 1024);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn snapshot_decoder_survives_cuts_and_bit_flips() {
    let dir = fresh_dir("snapshot_sweep");
    let path = dir.join("confidence.rllsnap");
    let mut errors = 0usize;
    for bytes in mutations(SNAPSHOT, 0x5EA1_0003) {
        fs::write(&path, &bytes).unwrap();
        match read_snapshot(&path) {
            // The header sits outside the checksum, but its `covered_seq`
            // must agree with the payload's, so few flips there parse.
            Ok(Some(snapshot)) => assert_eq!(snapshot.covered_seq, 4),
            Ok(None) => panic!("the snapshot file exists"),
            Err(LabelError::Corrupt { .. }) => errors += 1,
            Err(other) => panic!("expected a corruption error, got {other:?}"),
        }
    }
    assert!(errors >= SNAPSHOT.len(), "{errors} errors");
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn segment_decoder_survives_cuts_and_bit_flips() {
    let dir = fresh_dir("segment_sweep");
    let config = wal_config(&dir);
    write_segment_fixtures(&dir);
    let clean_log = replay_read_only(&config).unwrap().records;
    assert_eq!(clean_log.len(), 6);
    for (seed, (name, fixture)) in [(0x5EA1_0004, SEALED), (0x5EA1_0005, UNSEALED)] {
        for bytes in mutations(fixture, seed) {
            fs::write(dir.join(name), &bytes).unwrap();
            // Per-record checksums reject every damaged line, and a sealed
            // segment that lost whole lines truncates the shard, so whatever
            // survives is a prefix of the log.
            let replay = replay_read_only(&config).unwrap();
            assert_eq!(
                replay.records,
                clean_log[..replay.records.len()],
                "{name}: recovered {:?}",
                replay.records
            );
        }
        fs::write(dir.join(name), fixture).unwrap();
    }
    fs::remove_dir_all(&dir).unwrap();
}

/// FNV-1a of the transcript [`replay_verdicts_match_the_pinned_digest`]
/// writes, recorded with the two-pass segment scan (per-line hashes, then the
/// sealed payload hashed again whole) that the one-pass scan replaced, and
/// with the JSON shim's RFC 8259 number grammar. Under the shim's older,
/// looser grammar the digest was `0x0624_850a_c85f_bbe0`: one flip gave the
/// sealed header's checksum a leading zero, which it read as another number
/// (`SealedMetadataMismatch`, six records) and now rejects (`BadHeader`), and
/// twelve header findings carry a different parse message.
const REPLAY_VERDICTS_FNV1A: u64 = 0xd0ed_6fc5_3047_ad6e;

/// Every cut and seeded bit flip of both segment fixtures, replayed
/// read-only: the recovered records and each finding's kind, position, drop
/// count and detail must hash to the pinned digest, so a change to the scan
/// keeps every verdict, message and order. The finding's `file` is left
/// out, and the directory is masked in `detail`, since both hold a temporary
/// path.
#[test]
fn replay_verdicts_match_the_pinned_digest() {
    let dir = fresh_dir("verdicts");
    let config = wal_config(&dir);
    let dir_text = dir.display().to_string();
    write_segment_fixtures(&dir);
    let mut transcript = Vec::new();
    for (seed, (name, fixture)) in [(0x5EA1_0004, SEALED), (0x5EA1_0005, UNSEALED)] {
        for bytes in mutations(fixture, seed) {
            fs::write(dir.join(name), &bytes).unwrap();
            let replay = replay_read_only(&config).unwrap();
            for record in &replay.records {
                encode_record(record, &mut transcript);
                transcript.push(b'\n');
            }
            for c in &replay.corruptions {
                let detail = c.detail.replace(&dir_text, "<dir>");
                let (kind, index, dropped) = (c.kind, c.record_index, c.dropped_records);
                writeln!(transcript, "{kind:?} {index} {dropped} {detail}").unwrap();
            }
            transcript.push(b'|');
        }
        fs::write(dir.join(name), fixture).unwrap();
    }
    let digest = fnv1a(&transcript);
    assert_eq!(digest, REPLAY_VERDICTS_FNV1A, "digest {digest:#018x}");
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sealed_segment_cut_after_two_lines_truncates_the_shard() {
    let dir = fresh_dir("sealed_cut");
    let config = wal_config(&dir);
    write_segment_fixtures(&dir);
    let clean_log = replay_read_only(&config).unwrap().records;
    // Keep the header line and the first two record lines: a cut at a line
    // boundary, so every surviving line still verifies.
    let (name, sealed) = SEALED;
    let cut = sealed
        .iter()
        .enumerate()
        .filter(|&(_, &b)| b == b'\n')
        .nth(2)
        .map(|(at, _)| at + 1)
        .unwrap();
    fs::write(dir.join(name), &sealed[..cut]).unwrap();

    let (_, repaired) = ShardedWal::open(config.clone()).unwrap();
    assert_eq!(repaired.records, clean_log[..2]);
    let kinds: Vec<CorruptionKind> = repaired.corruptions.iter().map(|c| c.kind).collect();
    assert_eq!(
        kinds,
        [
            CorruptionKind::SealedRecordsMissing,
            CorruptionKind::Quarantined
        ]
    );
    assert_eq!(repaired.corruptions[0].record_index, 2);
    // Seqs 3-4 were lost with the cut; 5-6 sit in the quarantined segment.
    assert_eq!(repaired.dropped_records, 4);
    assert!(dir.join(format!("{}.quarantined", UNSEALED.0)).exists());

    // The repaired log replays the same, with nothing left to repair.
    let (mut wal, again) = ShardedWal::open(config.clone()).unwrap();
    assert_eq!(again.records, repaired.records);
    assert!(again.corruptions.is_empty(), "{:?}", again.corruptions);
    // Appends go on from seq 3 in the truncated segment, which rotates once
    // it holds four records again.
    for vote in [Vote::new(1, 0, 0), Vote::new(1, 1, 0), Vote::new(1, 2, 0)] {
        wal.append(vote).unwrap();
    }
    let grown = replay_read_only(&config).unwrap();
    assert!(grown.corruptions.is_empty(), "{:?}", grown.corruptions);
    let seqs: Vec<u64> = grown.records.iter().map(|r| r.seq).collect();
    assert_eq!(seqs, [1, 2, 3, 4, 5]);
    let sealed_again = fs::read(dir.join(name)).unwrap();
    assert!(String::from_utf8_lossy(&sealed_again).contains(r#""sealed":true,"records":4"#));
    fs::remove_dir_all(&dir).unwrap();
}
